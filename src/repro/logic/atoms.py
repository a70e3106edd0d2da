"""Relational atoms, facts, and substitutions.

An :class:`Atom` is a relation name applied to a tuple of terms.  A *fact*
is an atom with no variables (its terms are constants and labelled nulls).
A :class:`Substitution` maps variables -- and, during homomorphism search
over chase configurations, nulls -- to terms.
"""

from __future__ import annotations

from _collections import _tuplegetter  # namedtuple's C field reader
from dataclasses import FrozenInstanceError
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.logic.terms import Constant, Null, Term, Variable

_new_tuple = tuple.__new__
_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


class Atom(tuple):
    """A relational atom ``relation(t1, ..., tn)``.

    An atom is the 2-tuple ``(relation, terms)``, an instance of a
    ``tuple`` subclass whose ``__hash__`` *is* ``tuple.__hash__``, as a
    term is the 1-tuple of its payload (:mod:`repro.logic.terms`).  Facts
    are what the chase, the homomorphism search and the domination
    registry put into sets, so their hash is computed in C, with no
    Python frame, and it is ``hash((relation, terms))`` -- the value the
    frozen dataclass an atom used to be hashed to, so every set of atoms
    iterates as it always did.  Nothing else of the tuple shows:
    equality holds between atoms only (never with a plain tuple, in
    either operand order), and ordering, iterating, measuring, indexing
    or concatenating an atom raises ``TypeError``.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__
    __match_args__ = ("relation", "terms")

    relation = _tuplegetter(0, "The relation name.")
    terms = _tuplegetter(1, "The argument terms, a plain tuple.")

    def __new__(cls, relation: str, terms: Iterable[Term]) -> "Atom":
        # ``type() is``, not ``isinstance``: a term is a tuple subclass,
        # and ``tuple(term)`` raises for it.
        if type(terms) is not tuple:
            terms = tuple(terms)
        return _new_tuple(cls, (relation, terms))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _tuple_eq(self, other)
        if isinstance(other, tuple):
            return False
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return _tuple_ne(self, other)
        if isinstance(other, tuple):
            return True
        return NotImplemented

    def _not_a_sequence(self, *args: object) -> None:
        raise TypeError(f"{type(self).__name__!r} object is not a sequence")

    __iter__ = __len__ = __getitem__ = __contains__ = _not_a_sequence
    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence

    def _unordered(self, other: object) -> None:
        raise TypeError(
            f"atoms are unordered: cannot compare {type(self).__name__!r} "
            f"with {type(other).__name__!r}"
        )

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __bool__(self) -> bool:
        return True

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, (self.relation, self.terms))

    @property
    def arity(self) -> int:
        """Number of argument positions."""
        return len(self.terms)

    @property
    def is_fact(self) -> bool:
        """True when the atom contains no variables."""
        return not any(isinstance(t, Variable) for t in self.terms)

    def variables(self) -> Tuple[Variable, ...]:
        """The variables of the atom, in order of first occurrence."""
        seen: Dict[Variable, None] = {}
        for term in self.terms:
            if isinstance(term, Variable) and term not in seen:
                seen[term] = None
        return tuple(seen)

    def nulls(self) -> Tuple[Null, ...]:
        """The labelled nulls of the atom, in order of first occurrence."""
        seen: Dict[Null, None] = {}
        for term in self.terms:
            if isinstance(term, Null) and term not in seen:
                seen[term] = None
        return tuple(seen)

    def constants(self) -> Tuple[Constant, ...]:
        """The schema constants of the atom, in order of first occurrence."""
        seen: Dict[Constant, None] = {}
        for term in self.terms:
            if isinstance(term, Constant) and term not in seen:
                seen[term] = None
        return tuple(seen)

    def apply(self, substitution: "Substitution") -> "Atom":
        """Apply a substitution, returning a new atom."""
        terms = self.terms
        image = map(substitution._mapping.get, terms, terms)
        return _new_tuple(Atom, (self.relation, tuple(image)))

    def rename_relation(self, relation: str) -> "Atom":
        """The same atom over a different relation name."""
        return _new_tuple(Atom, (relation, self.terms))

    def __repr__(self) -> str:
        args = ", ".join(repr(t) for t in self.terms)
        return f"{self.relation}({args})"


class Substitution:
    """An immutable-by-convention mapping from terms to terms.

    Only variables and nulls are meaningful keys; schema constants are
    never remapped.  ``Substitution`` supports functional extension
    (:meth:`extended`) so backtracking search can share prefixes cheaply.
    """

    __slots__ = ("_mapping",)

    def __init__(self, mapping: Optional[Mapping[Term, Term]] = None) -> None:
        self._mapping: Dict[Term, Term] = dict(mapping) if mapping else {}

    def get(self, term: Term, default: Optional[Term] = None) -> Optional[Term]:
        """Mapping lookup with a default."""
        return self._mapping.get(term, default)

    def __getitem__(self, term: Term) -> Term:
        return self._mapping[term]

    def __contains__(self, term: Term) -> bool:
        return term in self._mapping

    def __len__(self) -> int:
        return len(self._mapping)

    def __iter__(self) -> Iterator[Term]:
        return iter(self._mapping)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Substitution):
            return self._mapping == other._mapping
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._mapping.items()))

    def items(self) -> Iterable[Tuple[Term, Term]]:
        """The (key, image) pairs of the mapping."""
        return self._mapping.items()

    def as_dict(self) -> Dict[Term, Term]:
        """A plain-dict copy of the mapping."""
        return dict(self._mapping)

    @classmethod
    def adopting(cls, mapping: Dict[Term, Term]) -> "Substitution":
        """The substitution over ``mapping`` itself, not a copy of it:
        for a caller that built the dict and keeps no reference to it."""
        new = cls.__new__(cls)
        new._mapping = mapping
        return new

    def extended(self, term: Term, image: Term) -> "Substitution":
        """A new substitution with one extra binding."""
        mapping = dict(self._mapping)
        mapping[term] = image
        return Substitution.adopting(mapping)

    def restrict(self, keys: Iterable[Term]) -> "Substitution":
        """The substitution restricted to the given keys."""
        wanted = set(keys)
        return Substitution(
            {k: v for k, v in self._mapping.items() if k in wanted}
        )

    def compose(self, other: "Substitution") -> "Substitution":
        """``self`` then ``other``: ``(self.compose(other))(t) = other(self(t))``."""
        result: Dict[Term, Term] = {}
        for key, value in self._mapping.items():
            result[key] = other.get(value, value)
        for key, value in other.items():
            if key not in result:
                result[key] = value
        return Substitution(result)

    def apply(self, term: Term) -> Term:
        """The image of one term (identity when unmapped)."""
        return self._mapping.get(term, term)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{k!r}->{v!r}" for k, v in sorted(
            self._mapping.items(), key=lambda kv: repr(kv[0])))
        return f"{{{pairs}}}"


def apply_to_atoms(
    atoms: Iterable[Atom], substitution: Substitution
) -> Tuple[Atom, ...]:
    """Apply a substitution to every atom in a sequence."""
    return tuple(atom.apply(substitution) for atom in atoms)
