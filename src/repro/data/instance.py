"""Database instances: ground relational data.

An :class:`Instance` assigns each relation a set of tuples of schema
constants.  Instances can be queried directly (for computing the *true*
answer of a query when checking that a plan is complete) and are wrapped
by :class:`~repro.data.source.InMemorySource` for access-restricted
execution.
"""

from __future__ import annotations

from math import copysign
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD
from repro.logic.homomorphisms import FactIndex, find_homomorphism
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Constant, InstanceError, Term, _to_constant


class Instance:
    """A finite database instance (relation name -> set of tuples).

    ``version`` is a monotone mutation counter: it bumps on every
    successful insert.  Derived structures (the fact index, per-method
    access indexes in :class:`~repro.data.source.InMemorySource`) use it
    to detect staleness cheaply instead of re-hashing the data.  It is a
    plain attribute because every access reads it; only :meth:`add`
    writes it.

    Equal cells are shared: a stored row holds one :class:`Constant`
    object per ``(type(value), value)`` across every row and relation of
    the instance (and of its :meth:`copy`), so the keys an access
    command builds from one answer find the rows of the next by
    identity, without a Python-level ``__eq__``.  ``Constant(1)``,
    ``Constant(1.0)`` and ``Constant(True)`` stay three objects with
    their own ``value``, and so do ``Constant(0.0)`` and
    ``Constant(-0.0)``; two NaN objects stay two constants.  The table
    holds exactly the cells of stored rows, so it is bounded by the
    instance's own domain.
    """

    def __init__(
        self, data: Optional[Mapping[str, Iterable[Sequence[object]]]] = None
    ) -> None:
        self._data: Dict[str, Set[Tuple[Constant, ...]]] = {}
        self._cells: Dict[Tuple[type, object], Constant] = {}
        self._index: Optional[FactIndex] = None
        self.version = 0
        if data:
            for relation, tuples in data.items():
                for row in tuples:
                    self.add(relation, row)

    def add(self, relation: str, row: Sequence[object]) -> bool:
        """Insert one tuple (values are coerced to schema constants)."""
        constants = tuple(map(_to_constant, row))
        bucket = self._data.setdefault(relation, set())
        if constants in bucket:
            return False
        cells = self._cells
        shared = []
        for cell in constants:
            value = cell.value
            kind = value.__class__
            if kind is float and not value:
                # 0.0 == -0.0: the sign is part of a zero's key.
                key = (kind, value, copysign(1.0, value))
            else:
                key = (kind, value)
            shared.append(cells.setdefault(key, cell))
        bucket.add(tuple(shared))
        self._index = None
        self.version += 1
        return True

    def add_fact(self, fact: Atom) -> bool:
        """Insert a ground atom; returns False on duplicates."""
        if not fact.is_fact:
            raise InstanceError(f"not ground: {fact!r}")
        return self.add(fact.relation, fact.terms)

    def tuples(self, relation: str) -> FrozenSet[Tuple[Constant, ...]]:
        """The stored tuples of one relation (empty when unknown)."""
        return frozenset(self._data.get(relation, ()))

    def relations(self) -> Tuple[str, ...]:
        """Names of relations with at least one stored tuple."""
        return tuple(self._data.keys())

    def size(self, relation: Optional[str] = None) -> int:
        """Tuple count of one relation, or of the whole instance."""
        if relation is not None:
            return len(self._data.get(relation, ()))
        return sum(len(bucket) for bucket in self._data.values())

    def facts(self) -> Iterator[Atom]:
        """Every stored tuple as a ground atom."""
        for relation, bucket in self._data.items():
            for row in bucket:
                yield Atom(relation, row)

    def domain(self) -> FrozenSet[Constant]:
        """The active domain: every value occurring in some tuple."""
        values: Set[Constant] = set()
        for bucket in self._data.values():
            for row in bucket:
                values.update(row)
        return frozenset(values)

    def fact_index(self) -> FactIndex:
        """A (cached) fact index for homomorphism-based evaluation."""
        if self._index is None:
            self._index = FactIndex(self.facts())
        return self._index

    # -------------------------------------------------------- semantics
    def evaluate(self, query: ConjunctiveQuery) -> Set[Tuple[Term, ...]]:
        """The exact answer of a CQ over this instance."""
        return query.evaluate(self.fact_index())

    def satisfies(self, tgd: TGD) -> bool:
        """Integrity check: every body match extends to a head match."""
        index = self.fact_index()
        from repro.logic.homomorphisms import find_homomorphisms

        for hom in find_homomorphisms(list(tgd.body), index):
            binding = hom.restrict(tgd.frontier())
            if find_homomorphism(list(tgd.head), index, binding) is None:
                return False
        return True

    def satisfies_all(self, constraints: Iterable[TGD]) -> bool:
        """Whether every constraint holds on this data."""
        return all(self.satisfies(tgd) for tgd in constraints)

    def violations(self, constraints: Iterable[TGD]) -> Tuple[TGD, ...]:
        """The constraints that do not hold."""
        return tuple(
            tgd for tgd in constraints if not self.satisfies(tgd)
        )

    def copy(self) -> "Instance":
        """An independent deep copy of the stored data."""
        clone = Instance()
        clone._data = {r: set(b) for r, b in self._data.items()}
        clone._cells = dict(self._cells)
        clone.version = self.version
        return clone

    # ---------------------------------------------------- serialization
    def to_dict(self) -> Dict[str, list]:
        """A canonical JSON-able dump: relation -> sorted value rows.

        Cell values are the raw scalars behind the stored constants
        (instances hold ground data only), and both relations and rows
        are emitted in sorted order, so equal instances serialize to
        equal bytes -- which is what lets a worker process rehydrate
        "the same source" from a spec instead of receiving pickles.
        """
        return {
            relation: sorted(
                [cell.value for cell in row] for row in bucket
            )
            for relation, bucket in sorted(self._data.items())
            if bucket
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[Sequence[object]]]) -> "Instance":
        """Rebuild an instance serialized by :meth:`to_dict`."""
        return cls(data)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Instance):
            mine = {r: b for r, b in self._data.items() if b}
            theirs = {r: b for r, b in other._data.items() if b}
            return mine == theirs
        return NotImplemented

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{r}:{len(b)}" for r, b in sorted(self._data.items())
        )
        return f"Instance({parts})"
