"""Database instances: ground relational data.

An :class:`Instance` assigns each relation a set of tuples of schema
constants.  Instances can be queried directly (for computing the *true*
answer of a query when checking that a plan is complete) and are wrapped
by :class:`~repro.data.source.InMemorySource` for access-restricted
execution.

The direct answer is the oracle every plan is checked against, so it is
computed here, over the stored tuples, by code that shares nothing with
the plans, executors and sources it checks: a set-at-a-time join that
takes the atoms greedily (most bound positions first, then the smaller
relation), probes each through a hash index of the relation's rows on
the bound positions, and keeps after each join only the variables the
head or a later atom reads.
"""

from __future__ import annotations

from math import copysign
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import (
    Constant,
    InstanceError,
    Term,
    Variable,
    _to_constant,
)

Row = Tuple[Constant, ...]
#: An index's shape: the arity of the rows it holds, the positions its
#: keys read, and the position pairs a row must hold equal cells at.
Shape = Tuple[int, Tuple[int, ...], Tuple[Tuple[int, int], ...]]


class Instance:
    """A finite database instance (relation name -> set of tuples).

    ``version`` is a monotone mutation counter: it bumps on every
    successful insert, and :meth:`version_of` answers the value it took
    when one relation last grew (0 for a relation never written).  A
    duplicate insert moves neither.  Derived structures outside the
    instance use the two to detect staleness cheaply instead of
    re-hashing the data: the per-method access indexes of
    :class:`~repro.data.source.InMemorySource` and the entries of the
    :class:`~repro.exec.cache.AccessCache` compare ``version`` first and
    read a relation's version only when ``version`` has moved, so an
    insert into one relation leaves what was derived from the others
    standing.  ``version`` is a plain attribute because every access
    reads it; only :meth:`add` writes it.  The instance's own join
    indexes, which :meth:`evaluate` and :meth:`satisfies` build on
    first use, are kept per relation, and an insert drops only those
    of the relation it grows.

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
        # relation -> shape -> key -> rows; see ``_rows_by``.
        self._indexes: Dict[str, Dict[Shape, Dict[Row, List[Row]]]] = {}
        # relation -> the ``version`` its last insert took.
        self._versions: Dict[str, int] = {}
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
        self._indexes.pop(relation, None)
        # The relation's version first: whoever sees ``version`` move
        # must find the relation that moved it already stamped.
        version = self.version + 1
        self._versions[relation] = version
        self.version = version
        return True

    def version_of(self, relation: str) -> int:
        """The :attr:`version` at which ``relation`` last grew (0: never)."""
        return self._versions.get(relation, 0)

    def add_fact(self, fact: Atom) -> bool:
        """Insert a ground atom; returns False on duplicates."""
        if not fact.is_fact:
            raise InstanceError(f"not ground: {fact!r}")
        return self.add(fact.relation, fact.terms)

    def tuples(self, relation: str) -> FrozenSet[Tuple[Constant, ...]]:
        """The stored tuples of one relation (empty when unknown)."""
        return frozenset(self._data.get(relation, ()))

    def rows(self, relation: str) -> List[Tuple[Constant, ...]]:
        """The stored tuples of one relation, as a list.

        A point-in-time copy, safe to read while another thread
        inserts.  Neither copy hashes a row again, but a list is cheaper
        than :meth:`tuples`' frozenset both to make and to walk, which
        is what a one-pass index build does with it.
        """
        return list(self._data.get(relation, ()))

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

    # -------------------------------------------------------- semantics
    def evaluate(self, query: ConjunctiveQuery) -> Set[Tuple[Term, ...]]:
        """The exact answer of a CQ over this instance."""
        return self._join(query.atoms, query.head)

    def satisfies(self, tgd: TGD) -> bool:
        """Integrity check: every body match extends to a head match.

        That is, the body's matches projected onto the frontier are
        among the head's matches projected onto it.
        """
        frontier = tuple(tgd.frontier())
        body = self._join(tgd.body, frontier)
        return not body or body <= self._join(tgd.head, frontier)

    def satisfies_all(self, constraints: Iterable[TGD]) -> bool:
        """Whether every constraint holds on this data."""
        return all(self.satisfies(tgd) for tgd in constraints)

    def violations(self, constraints: Iterable[TGD]) -> Tuple[TGD, ...]:
        """The constraints that do not hold."""
        return tuple(
            tgd for tgd in constraints if not self.satisfies(tgd)
        )

    def _join(
        self, atoms: Sequence[Atom], output: Sequence[Variable]
    ) -> Set[Tuple[Term, ...]]:
        """The matches of ``atoms`` in the stored rows, projected on ``output``.

        Intermediate results are sets of tuples over ``columns``.  Each
        step joins the pending atom with the most positions bound (by a
        constant or an earlier atom; ties to the smaller relation) and
        keeps only the columns that ``output`` or a later atom reads.
        """
        pending = list(atoms)
        columns: Tuple[Variable, ...] = ()
        rows: Set[tuple] = {()}
        while pending and rows:
            atom = pending.pop(self._next_atom(pending, columns))
            live = set(output)
            for later in pending:
                live.update(later.variables())
            key_at: List[int] = []
            probe: List[int] = []
            constants: List[Term] = []
            first: Dict[Variable, int] = {}
            equal: List[Tuple[int, int]] = []
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    key_at.append(position)
                    probe.append(len(columns) + len(constants))
                    constants.append(term)
                elif term in columns:
                    key_at.append(position)
                    probe.append(columns.index(term))
                elif term in first:
                    equal.append((first[term], position))
                else:
                    first[term] = position
            index = self._rows_by(
                atom.relation, (len(atom.terms), tuple(key_at), tuple(equal))
            )
            kept = [i for i, v in enumerate(columns) if v in live]
            fresh = [(v, p) for v, p in first.items() if v in live]
            left = _reader(kept)
            right = _reader([p for _, p in fresh])
            key_of = _reader(probe)
            extra = tuple(constants)
            rows = {
                left(row) + right(match)
                for row in rows
                for match in index.get(key_of(row + extra), ())
            }
            columns = tuple(columns[i] for i in kept) + tuple(
                v for v, _ in fresh
            )
        if not rows:
            return set()
        reorder = _reader([columns.index(v) for v in output])
        return {reorder(row) for row in rows}

    def _next_atom(
        self, pending: Sequence[Atom], columns: Sequence[Variable]
    ) -> int:
        """The position in ``pending`` of the atom to join next."""
        best, best_rank = 0, None
        for i, atom in enumerate(pending):
            bound = sum(
                1
                for term in atom.terms
                if not isinstance(term, Variable) or term in columns
            )
            rank = (-bound, self.size(atom.relation))
            if best_rank is None or rank < best_rank:
                best, best_rank = i, rank
        return best

    def _rows_by(self, relation: str, shape: Shape) -> Dict[Row, List[Row]]:
        """The rows of ``relation`` fitting ``shape``, by their key cells.

        Built on first use and kept until :meth:`add` grows the
        relation.  A row fits when it has the shape's arity and equal
        cells at each of its position pairs (a variable repeated within
        an atom); its key is its cells at the shape's positions.
        """
        by_shape = self._indexes.setdefault(relation, {})
        index = by_shape.get(shape)
        if index is None:
            arity, positions, equal = shape
            key_of = _reader(positions)
            index = {}
            for row in self._data.get(relation, ()):
                if len(row) == arity and all(row[p] == row[q] for p, q in equal):
                    index.setdefault(key_of(row), []).append(row)
            by_shape[shape] = index
        return index

    def copy(self) -> "Instance":
        """An independent deep copy of the stored data."""
        clone = Instance()
        clone._data = {r: set(b) for r, b in self._data.items()}
        clone._cells = dict(self._cells)
        clone._versions = dict(self._versions)
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


def _reader(slots: Sequence[int]) -> Callable[[tuple], tuple]:
    """A function taking a tuple to the tuple of its cells at ``slots``."""
    if not slots:
        return lambda row: ()
    if len(slots) == 1:
        (slot,) = slots
        return lambda row: (row[slot],)
    return itemgetter(*slots)
