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
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Union


class _Orderable:
    """Cross-kind total order by printed form (stable output in tests)."""

    __slots__ = ()

    def __lt__(self, other: object) -> bool:
        if isinstance(other, (Variable, Constant, Null)):
            return repr(self) < repr(other)
        return NotImplemented


class _Term(_Orderable):
    """One payload and its hash, both fixed at construction.

    Terms are the cells of every tuple the chase, the homomorphism
    search, the source indexes and the executors put into sets, so
    ``__hash__`` returns a stored value instead of recomputing it.  The
    stored value is ``hash((payload,))`` -- exactly what the frozen
    dataclasses these classes replaced computed on every call -- so every
    set and dict of terms keeps its iteration order.
    """

    __slots__ = ("_payload", "_hash")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            # Identity first, as comparing ``(payload,)`` tuples would:
            # equality then agrees with the stored 1-tuple hash even
            # for a payload that is not equal to itself (NaN).
            mine, theirs = self._payload, other._payload
            return mine is theirs or mine == theirs
        return NotImplemented

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, (self._payload,))


# The slot descriptors write past the frozen ``__setattr__``.
_set_payload = _Term._payload.__set__
_set_hash = _Term._hash.__set__


class Variable(_Term):
    """A query variable, identified by name."""

    __slots__ = ()
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set_payload(self, name)
        _set_hash(self, hash((name,)))

    name = property(attrgetter("_payload"), doc="The variable's name.")

    def __repr__(self) -> str:
        return f"?{self._payload}"


class Constant(_Term):
    """A schema constant (a concrete data value known to the querier)."""

    __slots__ = ()
    __match_args__ = ("value",)

    def __init__(self, value: Union[str, int, float, bool]) -> None:
        _set_payload(self, value)
        _set_hash(self, hash((value,)))

    value = property(attrgetter("_payload"), doc="The data value.")

    def __repr__(self) -> str:
        if isinstance(self._payload, str):
            return f"'{self._payload}'"
        return repr(self._payload)


class Null(_Term):
    """A labelled null ("chase constant").

    Nulls compare by name only.  Use :func:`fresh_null` or a
    :class:`NullFactory` to mint globally fresh ones.
    """

    __slots__ = ()
    __match_args__ = ("name",)

    def __init__(self, name: str) -> None:
        _set_payload(self, name)
        _set_hash(self, hash((name,)))

    name = property(attrgetter("_payload"), doc="The null's label.")

    def __repr__(self) -> str:
        return f"_{self._payload}"


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
