"""First-order terms: variables, schema constants, and labelled nulls.

Three disjoint kinds of term appear in the paper's development:

* :class:`Variable` -- a query variable (free or bound).
* :class:`Constant` -- a *schema constant*: a value the querier may use as a
  test value in accesses ("smith", 3, ...).  Schema constants are always
  accessible (Section 3 of the paper seeds the ``accessible`` relation with
  them).
* :class:`Null` -- a *labelled null*, called a "chase constant" in the
  paper.  Nulls are introduced by firing existential rules during the chase
  and name the columns of the temporary tables in generated plans.

All terms are immutable, hashable values, so they can live in frozen atoms,
sets and dictionary keys.

A term is the 1-tuple ``(payload,)``, an instance of a ``tuple`` subclass
whose ``__hash__`` *is* ``tuple.__hash__``.  Terms are the cells of every
tuple the chase, the homomorphism search, the source indexes and the
executors put into sets, so their hash is computed in C, with no Python
frame, and it is ``hash((payload,))`` -- the value every set and dict of
terms has always iterated by.  Nothing else of the tuple shows: equality
is same kind and equal payload (never equal to a plain tuple, in either
operand order), ordering is by printed form among terms only, and
iterating, measuring, indexing or concatenating a term raises
``TypeError``, so a term is never taken for a tuple of terms.
"""

from __future__ import annotations

import itertools
from _collections import _tuplegetter  # namedtuple's C field reader
from dataclasses import FrozenInstanceError
from operator import ge, gt, le, lt
from typing import Union

_new_tuple = tuple.__new__


def _by_repr(compare, symbol: str):
    """An ordering method: ``compare`` on printed forms, terms only."""

    def _order(self, other):
        if isinstance(other, _Term):
            return compare(repr(self), repr(other))
        if isinstance(other, tuple):
            raise TypeError(
                f"'{symbol}' not supported between instances of "
                f"{type(self).__name__!r} and {type(other).__name__!r}"
            )
        return NotImplemented

    return _order


class _Term(tuple):
    """One payload, as the 1-tuple ``(payload,)``; see the module docstring."""

    __slots__ = ()
    __hash__ = tuple.__hash__
    _payload = _tuplegetter(0, "The payload, whatever the kind calls it.")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            # Identity first, as tuple equality does: equality then
            # agrees with the hash even for a payload that is not equal
            # to itself (NaN).
            mine, theirs = self._payload, other._payload
            return mine is theirs or mine == theirs
        if isinstance(other, tuple):
            return False
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            mine, theirs = self._payload, other._payload
            return mine is not theirs and mine != theirs
        if isinstance(other, tuple):
            return True
        return NotImplemented

    __lt__ = _by_repr(lt, "<")
    __le__ = _by_repr(le, "<=")
    __gt__ = _by_repr(gt, ">")
    __ge__ = _by_repr(ge, ">=")

    def __bool__(self) -> bool:
        return True

    def _not_a_sequence(self, *args: object) -> None:
        raise TypeError(f"{type(self).__name__!r} object is not a sequence")

    __iter__ = __len__ = __getitem__ = __contains__ = _not_a_sequence
    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, (self._payload,))


class Variable(_Term):
    """A query variable, identified by name."""

    __slots__ = ()
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> "Variable":
        return _new_tuple(cls, (name,))

    name = _tuplegetter(0, "The variable's name.")

    def __repr__(self) -> str:
        return f"?{self.name}"


class Constant(_Term):
    """A schema constant (a concrete data value known to the querier)."""

    __slots__ = ()
    __match_args__ = ("value",)

    def __new__(cls, value: Union[str, int, float, bool]) -> "Constant":
        return _new_tuple(cls, (value,))

    value = _tuplegetter(0, "The data value.")

    def __repr__(self) -> str:
        value = self.value
        if isinstance(value, str):
            return f"'{value}'"
        return repr(value)


class Null(_Term):
    """A labelled null ("chase constant").

    Nulls compare by name only.  Use :func:`fresh_null` or a
    :class:`NullFactory` to mint globally fresh ones.
    """

    __slots__ = ()
    __match_args__ = ("name",)

    def __new__(cls, name: str) -> "Null":
        return _new_tuple(cls, (name,))

    name = _tuplegetter(0, "The null's label.")

    def __repr__(self) -> str:
        return f"_{self.name}"


Term = Union[Variable, Constant, Null]


class InstanceError(ValueError):
    """Raised for malformed instance data."""


def _to_constant(value: object) -> Constant:
    # Here, below repro.data.instance (which re-exports both names) and
    # repro.source_contract: instance rows and access inputs are coerced
    # alike.
    if isinstance(value, Constant):
        return value
    if isinstance(value, (str, int, float, bool)):
        return Constant(value)
    raise InstanceError(f"cannot store {value!r} in an instance")


class NullFactory:
    """Mints fresh labelled nulls with a shared prefix.

    A factory is the deterministic, instance-scoped alternative to the
    module-level :func:`fresh_null` counter: each chase run owns a factory
    so that re-running the same proof search produces the same null names
    (important for reproducible plans and for tests).
    """

    def __init__(self, prefix: str = "n") -> None:
        self._prefix = prefix
        self._counter = itertools.count()

    def __call__(self, hint: str = "") -> Null:
        index = next(self._counter)
        if hint:
            return Null(f"{self._prefix}{index}_{hint}")
        return Null(f"{self._prefix}{index}")


_GLOBAL_FACTORY = NullFactory(prefix="g")


def fresh_null(hint: str = "") -> Null:
    """Mint a fresh null from the module-level counter."""
    return _GLOBAL_FACTORY(hint)


def reset_null_counter() -> None:
    """Reset the module-level null counter (test isolation helper)."""
    global _GLOBAL_FACTORY
    _GLOBAL_FACTORY = NullFactory(prefix="g")


def is_ground(term: Term) -> bool:
    """A term is ground when it is not a variable."""
    return not isinstance(term, Variable)
