"""Relational-algebra expressions over named-attribute temporary tables.

Expressions evaluate against an *environment*: a mapping from temporary
table names to :class:`NamedTable` values.  Cells hold ground terms
(schema :class:`~repro.logic.terms.Constant` values; labelled nulls never
reach the runtime).  Joins are natural joins on shared attribute names --
the proof-to-plan algorithms arrange for attribute names (chase constants)
to encode exactly the intended join conditions.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExecutionError
from repro.logic.terms import Constant, Term


class EvaluationError(ExecutionError):
    """Raised when an expression is evaluated against an unfit environment."""


Row = Tuple[Term, ...]


def row_picker(columns: Sequence[int]) -> Callable[[Row], Row]:
    """``row -> tuple(row[c] for c in columns)`` without a Python frame.

    ``itemgetter`` returns a bare cell for one column and rejects zero
    columns; a one- or zero-width slice yields the tuple in those cases.
    """
    if len(columns) > 1:
        return itemgetter(*columns)
    start = columns[0] if columns else 0
    return itemgetter(slice(start, start + len(columns)))


@dataclass(frozen=True)
class NamedTable:
    """An immutable relation with named attributes."""

    attributes: Tuple[str, ...]
    rows: FrozenSet[Tuple[Term, ...]]

    def __post_init__(self) -> None:
        if len(set(self.attributes)) != len(self.attributes):
            raise EvaluationError(
                f"duplicate attribute in {self.attributes}"
            )
        width = len(self.attributes)
        wrong_widths = set(map(len, self.rows)) - {width}
        if wrong_widths:
            raise EvaluationError(
                f"row width {min(wrong_widths)} != {width} attrs"
            )

    @classmethod
    def from_rows(
        cls, attributes: Sequence[str], rows: Iterable[Sequence[Term]]
    ) -> "NamedTable":
        """Build a table from attribute names and row iterables."""
        return cls(tuple(attributes), frozenset(tuple(r) for r in rows))

    @classmethod
    def empty(cls, attributes: Sequence[str]) -> "NamedTable":
        """An empty table with the given attributes."""
        return cls(tuple(attributes), frozenset())

    @classmethod
    def singleton(cls) -> "NamedTable":
        """The zero-attribute table with one (empty) row: logical TRUE."""
        return cls((), frozenset({()}))

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def is_empty(self) -> bool:
        """True when the table has no rows."""
        return not self.rows

    def column_map(self) -> Dict[str, int]:
        """Attribute -> index map, computed once per table and cached.

        The cache lives outside the dataclass fields (set via
        ``object.__setattr__`` on the frozen instance), so equality and
        hashing still consider only ``attributes`` and ``rows``.
        """
        try:
            return self._colmap  # type: ignore[attr-defined]
        except AttributeError:
            colmap = {a: i for i, a in enumerate(self.attributes)}
            object.__setattr__(self, "_colmap", colmap)
            return colmap

    def column(self, attribute: str) -> int:
        """Index of an attribute (raises on unknown names)."""
        try:
            return self.column_map()[attribute]
        except KeyError:
            raise EvaluationError(
                f"no attribute {attribute!r} in {self.attributes}"
            ) from None

    def project(self, attributes: Sequence[str]) -> "NamedTable":
        """Duplicate-eliminating projection.

        Projecting onto exactly the table's own attributes returns the
        table itself: tables are immutable, so the alias is unobservable.
        """
        attributes = tuple(attributes)
        if attributes == self.attributes:
            return self
        pick = row_picker([self.column(a) for a in attributes])
        return NamedTable(attributes, frozenset(map(pick, self.rows)))

    def rename(self, mapping: Mapping[str, str]) -> "NamedTable":
        """A copy with attributes renamed."""
        new_attrs = tuple(mapping.get(a, a) for a in self.attributes)
        return NamedTable(new_attrs, self.rows)

    def __repr__(self) -> str:
        return f"NamedTable({list(self.attributes)}, {len(self.rows)} rows)"


Environment = Mapping[str, NamedTable]


# --------------------------------------------------------------- conditions
@dataclass(frozen=True)
class EqAttr:
    """Selection condition: two attributes are equal."""

    left: str
    right: str

    def holds(self, table: NamedTable, row: Tuple[Term, ...]) -> bool:
        """Whether the condition holds for one row of the table."""
        return row[table.column(self.left)] == row[table.column(self.right)]

    def __repr__(self) -> str:
        return f"{self.left}={self.right}"


@dataclass(frozen=True)
class EqConst:
    """Selection condition: attribute equals a constant."""

    attribute: str
    value: Constant

    def holds(self, table: NamedTable, row: Tuple[Term, ...]) -> bool:
        """Whether the condition holds for one row of the table."""
        return row[table.column(self.attribute)] == self.value

    def __repr__(self) -> str:
        return f"{self.attribute}={self.value!r}"


@dataclass(frozen=True)
class NeqAttr:
    """Inequality between two attributes (the E in ESPJ)."""

    left: str
    right: str

    def holds(self, table: NamedTable, row: Tuple[Term, ...]) -> bool:
        """Whether the condition holds for one row of the table."""
        return row[table.column(self.left)] != row[table.column(self.right)]

    def __repr__(self) -> str:
        return f"{self.left}!={self.right}"


@dataclass(frozen=True)
class NeqConst:
    """Inequality between an attribute and a constant."""

    attribute: str
    value: Constant

    def holds(self, table: NamedTable, row: Tuple[Term, ...]) -> bool:
        """Whether the condition holds for one row of the table."""
        return row[table.column(self.attribute)] != self.value

    def __repr__(self) -> str:
        return f"{self.attribute}!={self.value!r}"


Condition = (EqAttr, EqConst, NeqAttr, NeqConst)


def _compile_conditions(conditions, colmap: Mapping[str, int]):
    """Index-based row predicates for the built-in condition types.

    ``colmap`` maps attribute names to row indexes (a table's cached
    :meth:`NamedTable.column_map`).  Returns ``None`` when some
    condition is not one of the four known classes (the caller must then
    fall back to ``holds``-based filtering).  Unknown attribute names
    raise :class:`EvaluationError`, matching what ``holds`` would have
    raised.
    """

    def _col(name: str) -> int:
        try:
            return colmap[name]
        except KeyError:
            raise EvaluationError(
                f"no attribute {name!r} in {tuple(colmap)}"
            ) from None

    checks = []
    for cond in conditions:
        if isinstance(cond, EqAttr):
            left, right = _col(cond.left), _col(cond.right)
            checks.append(lambda row, l=left, r=right: row[l] == row[r])
        elif isinstance(cond, EqConst):
            index, value = _col(cond.attribute), cond.value
            checks.append(lambda row, i=index, v=value: row[i] == v)
        elif isinstance(cond, NeqAttr):
            left, right = _col(cond.left), _col(cond.right)
            checks.append(lambda row, l=left, r=right: row[l] != row[r])
        elif isinstance(cond, NeqConst):
            index, value = _col(cond.attribute), cond.value
            checks.append(lambda row, i=index, v=value: row[i] != v)
        else:
            return None
    return checks


def _filtered(rows: Iterable[Row], checks) -> Iterable[Row]:
    """The rows passing every compiled check (a conjunction, lazily)."""
    for check in checks:
        rows = filter(check, rows)
    return rows


def split_conditions(
    conditions: Iterable[object],
    left_attrs: Sequence[str],
    right_attrs: Sequence[str],
) -> Tuple[Tuple[object, ...], Tuple[object, ...], Tuple[object, ...]]:
    """Partition a join's selection into (left-only, right-only, residual).

    A condition whose attributes all belong to one input can be applied
    to that input before the join: ``σ_c(L ⋈ R) = σ_c(L) ⋈ R`` when
    ``attrs(c) ⊆ attrs(L)``.  One that reads only shared attributes goes
    left -- the natural join equates the shared columns, so either side
    would do.  Everything else (two-sided conditions, unknown attribute
    names, condition classes other than the built-in four) is residual
    and must see the joined row.
    """
    left_only, right_only, residual = [], [], []
    for cond in conditions:
        if isinstance(cond, (EqAttr, NeqAttr)):
            read = (cond.left, cond.right)
        elif isinstance(cond, (EqConst, NeqConst)):
            read = (cond.attribute,)
        else:
            residual.append(cond)
            continue
        if all(a in left_attrs for a in read):
            left_only.append(cond)
        elif all(a in right_attrs for a in read):
            right_only.append(cond)
        else:
            residual.append(cond)
    return tuple(left_only), tuple(right_only), tuple(residual)


def _select_by_holds(table: NamedTable, conditions) -> NamedTable:
    """Row-at-a-time selection through ``holds``: any condition object.

    Unknown attributes raise here only when a row is actually checked.
    """
    return NamedTable(
        table.attributes,
        frozenset(
            row
            for row in table.rows
            if all(cond.holds(table, row) for cond in conditions)
        ),
    )


def _join_tables(
    left: NamedTable,
    right: NamedTable,
    conditions: Tuple[object, ...],
    project_to: Optional[Tuple[str, ...]],
) -> NamedTable:
    """``π[project_to](σ[conditions](left ⋈ right))``, set-at-a-time.

    One-sided conditions filter their input before the hash table is
    built, so no pair is formed that such a condition would discard; the
    hash table is built on the *smaller* filtered input; only residual
    conditions see joined rows, which are narrowed to the output columns
    as they enter the result set.  Semantically identical to joining,
    then filtering, then projecting.
    """
    left_attrs = left.attributes
    shared = [a for a in right.attributes if a in left_attrs]
    extra = [a for a in right.attributes if a not in left_attrs]
    out_attrs = left_attrs + tuple(extra)
    out_colmap = {a: i for i, a in enumerate(out_attrs)}
    left_conds, right_conds, residual = split_conditions(
        conditions, left_attrs, right.attributes
    )
    try:
        checks = _compile_conditions(residual, out_colmap)
        left_checks = _compile_conditions(left_conds, left.column_map())
        right_checks = _compile_conditions(right_conds, right.column_map())
    except EvaluationError:
        checks = None
    if checks is None:
        # Unknown condition type or attribute: keep the unfused (lazy)
        # behaviour, which only raises when a joined row is checked.
        table = _select_by_holds(
            _join_tables(left, right, (), None), conditions
        )
        return table.project(project_to) if project_to is not None else table
    attributes = out_attrs
    pick_out = None
    if project_to is not None and tuple(project_to) != out_attrs:
        attributes = tuple(project_to)
        for attr in attributes:
            if attr not in out_colmap:
                raise EvaluationError(
                    f"no attribute {attr!r} in {out_attrs}"
                )
        pick_out = row_picker([out_colmap[a] for a in attributes])
    left_rows = (
        list(_filtered(left.rows, left_checks)) if left_checks else left.rows
    )
    right_rows = (
        list(_filtered(right.rows, right_checks))
        if right_checks
        else right.rows
    )
    left_key = row_picker([left.column(a) for a in shared])
    right_key = row_picker([right.column(a) for a in shared])
    suffix = row_picker([right.column(a) for a in extra])
    buckets: Dict[Row, List[Row]] = defaultdict(list)
    matches = buckets.get
    if len(right_rows) <= len(left_rows):
        # Build on the right, probe with the left (the classic shape).
        for row in right_rows:
            buckets[right_key(row)].append(suffix(row))
        joined = (
            row + tail
            for row in left_rows
            for tail in matches(left_key(row), ())
        )
    else:
        # Left side is smaller: build on it, probe with the right.
        for row in left_rows:
            buckets[left_key(row)].append(row)
        joined = (
            head + suffix(row)
            for row in right_rows
            for head in matches(right_key(row), ())
        )
    joined = _filtered(joined, checks)
    if pick_out is not None:
        joined = map(pick_out, joined)
    return NamedTable(attributes, frozenset(joined))


# -------------------------------------------------------------- expressions
class Expression:
    """Base class for RA expressions.

    Subclasses implement :meth:`attributes` (static schema) and
    :meth:`evaluate`.  ``uses_union``/``uses_difference``/
    ``uses_inequality`` drive plan-language classification.
    """

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        raise NotImplementedError

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        raise NotImplementedError

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        raise NotImplementedError

    @property
    def uses_union(self) -> bool:
        """Whether a union operator occurs in the subtree."""
        return any(child.uses_union for child in self.children())

    @property
    def uses_difference(self) -> bool:
        """Whether a difference operator occurs in the subtree."""
        return any(child.uses_difference for child in self.children())

    @property
    def uses_inequality(self) -> bool:
        """Whether an inequality condition occurs in the subtree."""
        return any(child.uses_inequality for child in self.children())

    def children(self) -> Tuple["Expression", ...]:
        """Immediate subexpressions."""
        return ()


@dataclass(frozen=True)
class Singleton(Expression):
    """The TRUE table: no attributes, one empty row.

    Used as the input expression of input-free access commands (the
    paper's ``T <- mt <- {}`` convention).
    """

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        return ()

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        return NamedTable.singleton()

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return frozenset()

    def __repr__(self) -> str:
        return "{()}"


@dataclass(frozen=True)
class Literal(Expression):
    """An inline constant table (e.g. the schema constants)."""

    table: NamedTable

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        return self.table.attributes

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        return self.table

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return frozenset()

    def __repr__(self) -> str:
        return f"lit[{','.join(self.table.attributes)};{len(self.table)}]"


@dataclass(frozen=True)
class Scan(Expression):
    """Read a temporary table by name."""

    table: str

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        try:
            return env_schema[self.table]
        except KeyError:
            raise EvaluationError(f"unknown table {self.table!r}") from None

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        try:
            return env[self.table]
        except KeyError:
            raise EvaluationError(f"unknown table {self.table!r}") from None

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return frozenset({self.table})

    def __repr__(self) -> str:
        return self.table


@dataclass(frozen=True)
class Project(Expression):
    """Duplicate-eliminating projection onto named attributes."""

    child: Expression
    attrs: Tuple[str, ...]

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        child_attrs = self.child.attributes(env_schema)
        for attr in self.attrs:
            if attr not in child_attrs:
                raise EvaluationError(
                    f"projection attribute {attr!r} not in {child_attrs}"
                )
        return self.attrs

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        if isinstance(self.child, Join):
            return self.child._evaluate_fused(env, (), self.attrs)
        if isinstance(self.child, Select) and isinstance(
            self.child.child, Join
        ):
            return self.child.child._evaluate_fused(
                env, self.child.conditions, self.attrs
            )
        return self.child.evaluate(env).project(self.attrs)

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return self.child.tables_read()

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.child,)

    def __repr__(self) -> str:
        return f"π[{','.join(self.attrs)}]({self.child!r})"


@dataclass(frozen=True)
class Select(Expression):
    """Selection by a conjunction of (in)equality conditions."""

    child: Expression
    conditions: Tuple[object, ...]

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        return self.child.attributes(env_schema)

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        if isinstance(self.child, Join):
            return self.child._evaluate_fused(env, self.conditions, None)
        table = self.child.evaluate(env)
        try:
            checks = _compile_conditions(self.conditions, table.column_map())
        except EvaluationError:
            checks = None
        if checks is None:
            return _select_by_holds(table, self.conditions)
        return NamedTable(
            table.attributes, frozenset(_filtered(table.rows, checks))
        )

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return self.child.tables_read()

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.child,)

    @property
    def uses_inequality(self) -> bool:
        """Whether an inequality condition occurs in the subtree."""
        if any(isinstance(c, (NeqAttr, NeqConst)) for c in self.conditions):
            return True
        return self.child.uses_inequality

    def __repr__(self) -> str:
        conds = " & ".join(repr(c) for c in self.conditions)
        return f"σ[{conds}]({self.child!r})"


@dataclass(frozen=True)
class Join(Expression):
    """Natural join on shared attribute names."""

    left: Expression
    right: Expression

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        left_attrs = self.left.attributes(env_schema)
        right_attrs = self.right.attributes(env_schema)
        extra = tuple(a for a in right_attrs if a not in left_attrs)
        return left_attrs + extra

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        return self._evaluate_fused(env, (), None)

    def _evaluate_fused(
        self,
        env: Environment,
        conditions: Tuple[object, ...],
        project_to: Optional[Tuple[str, ...]],
    ) -> NamedTable:
        """The join with a selection and projection directly above it.

        ``σ``/``π`` over a join are evaluated by :func:`_join_tables` in
        the same pass, so the full join result is never materialized.
        """
        return _join_tables(
            self.left.evaluate(env),
            self.right.evaluate(env),
            conditions,
            project_to,
        )

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return self.left.tables_read() | self.right.tables_read()

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"({self.left!r} ⋈ {self.right!r})"


@dataclass(frozen=True)
class Union(Expression):
    """Set union; the right side is reordered to the left's attributes."""

    left: Expression
    right: Expression

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        left_attrs = self.left.attributes(env_schema)
        right_attrs = self.right.attributes(env_schema)
        if set(left_attrs) != set(right_attrs):
            raise EvaluationError(
                f"union attribute mismatch: {left_attrs} vs {right_attrs}"
            )
        return left_attrs

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        left = self.left.evaluate(env)
        right = self.right.evaluate(env).project(left.attributes)
        return NamedTable(left.attributes, left.rows | right.rows)

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return self.left.tables_read() | self.right.tables_read()

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.left, self.right)

    @property
    def uses_union(self) -> bool:
        """Whether a union operator occurs in the subtree."""
        return True

    def __repr__(self) -> str:
        return f"({self.left!r} ∪ {self.right!r})"


@dataclass(frozen=True)
class Difference(Expression):
    """Set difference; attribute sets must coincide."""

    left: Expression
    right: Expression

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        left_attrs = self.left.attributes(env_schema)
        right_attrs = self.right.attributes(env_schema)
        if set(left_attrs) != set(right_attrs):
            raise EvaluationError(
                f"difference attribute mismatch: {left_attrs} vs {right_attrs}"
            )
        return left_attrs

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        left = self.left.evaluate(env)
        right = self.right.evaluate(env).project(left.attributes)
        return NamedTable(left.attributes, left.rows - right.rows)

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return self.left.tables_read() | self.right.tables_read()

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.left, self.right)

    @property
    def uses_difference(self) -> bool:
        """Whether a difference operator occurs in the subtree."""
        return True

    def __repr__(self) -> str:
        return f"({self.left!r} − {self.right!r})"


@dataclass(frozen=True)
class Rename(Expression):
    """Attribute renaming."""

    child: Expression
    mapping: Tuple[Tuple[str, str], ...]

    def __post_init__(self) -> None:
        # Outside the dataclass fields, like NamedTable._colmap: built
        # once per instance, invisible to equality and hashing.
        object.__setattr__(self, "_renames", dict(self.mapping))

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        renames = self._renames
        return tuple(
            renames.get(a, a) for a in self.child.attributes(env_schema)
        )

    def evaluate(self, env: Environment) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        return self.child.evaluate(env).rename(self._renames)

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        return self.child.tables_read()

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.child,)

    def __repr__(self) -> str:
        pairs = ",".join(f"{a}->{b}" for a, b in self.mapping)
        return f"ρ[{pairs}]({self.child!r})"
