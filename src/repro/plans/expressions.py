"""Relational-algebra expressions over named-attribute temporary tables.

Expressions evaluate against an *environment*: a mapping from temporary
table names to :class:`NamedTable` values.  Cells hold ground terms
(schema :class:`~repro.logic.terms.Constant` values; labelled nulls never
reach the runtime).  Joins are natural joins on shared attribute names --
the proof-to-plan algorithms arrange for attribute names (chase constants)
to encode exactly the intended join conditions.

``evaluate`` is the plain reference semantics, operator by operator.
The engines run a plan's rewritten form instead
(:mod:`repro.plans.rewrite`): selections pushed below joins and the
σ/π directly above a join folded into the :class:`Join` node itself.

``evaluate`` also takes a request's *bindings*: a mapping from schema
constants to the constants that stand for them in this run
(``docs/theory.md``, "Rebinding a plan").  An expression reads a
constant in two places -- an ``EqConst``/``NeqConst`` condition of a
selection or a fused join, and a literal table's cells -- and reads
each through the mapping there, so a bound run evaluates the plan's
expressions as they stand.  An unbound run passes :data:`NO_BINDINGS`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from operator import itemgetter, not_
from itertools import chain, compress
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

#: A request's bindings: each renamed schema constant to its stand-in.
Bindings = Mapping[Constant, Constant]

#: The bindings of an unbound run: no constant is renamed.
NO_BINDINGS: Bindings = MappingProxyType({})


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

    def subset(self, rows: Iterable[Row]) -> "NamedTable":
        """The table of ``rows``, which must be rows of this table.

        Their width was checked when this table was built, so it is not
        checked again.
        """
        return _unchecked(self.attributes, frozenset(rows))

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
        return _unchecked(_distinct(attributes), frozenset(map(pick, self.rows)))

    def rename(self, mapping: Mapping[str, str]) -> "NamedTable":
        """A copy with attributes renamed, and its answers by key with them.

        A rename cannot change a row's width, so the rows are not
        checked again; two attributes renamed to one name still raise.
        """
        new_attrs = tuple(mapping.get(a, a) for a in self.attributes)
        table = _unchecked(_distinct(new_attrs), self.rows)
        keyed = self.answers_by_key()
        if keyed is not None:
            key_attrs, answers = keyed
            table.keep_answers(
                tuple(mapping.get(a, a) for a in key_attrs), answers
            )
        return table

    def keep_answers(
        self, key_attrs: Tuple[str, ...], answers: Mapping[Row, Sequence[Row]]
    ) -> None:
        """Remember this access table's rows grouped by the key they answer.

        ``answers`` maps each key an access command dispatched -- the
        values of ``key_attrs``, in order -- to the rows it fetched;
        every row of the table is under its own key, and no other row
        has that key.  Like the column map it lives outside the
        dataclass fields: equality and hashing ignore it, no IR or
        payload carries it, :meth:`rename` passes it on and every other
        operator builds a table without it.
        """
        object.__setattr__(self, "_answers", (key_attrs, answers))

    def answers_by_key(
        self,
    ) -> Optional[Tuple[Tuple[str, ...], Mapping[Row, Sequence[Row]]]]:
        """``(key attributes, key -> rows)`` kept by :meth:`keep_answers`."""
        return self.__dict__.get("_answers")

    def __repr__(self) -> str:
        return f"NamedTable({list(self.attributes)}, {len(self.rows)} rows)"


def _distinct(attributes: Tuple[str, ...]) -> Tuple[str, ...]:
    """``attributes``, unless a name occurs twice (:class:`EvaluationError`)."""
    if len(set(attributes)) != len(attributes):
        raise EvaluationError(f"duplicate attribute in {attributes}")
    return attributes


def _unchecked(attributes: Tuple[str, ...], rows: FrozenSet[Row]) -> NamedTable:
    """A table whose rows are known to be ``len(attributes)`` wide.

    Built the way ``__post_init__`` would leave it, without its pass
    over the rows: for tables derived from checked ones.
    """
    table = object.__new__(NamedTable)
    object.__setattr__(table, "attributes", attributes)
    object.__setattr__(table, "rows", rows)
    return table


Environment = Mapping[str, NamedTable]


# --------------------------------------------------------------- conditions
@dataclass(frozen=True)
class EqAttr:
    """Selection condition: two attributes are equal."""

    left: str
    right: str

    def __repr__(self) -> str:
        return f"{self.left}={self.right}"


@dataclass(frozen=True)
class EqConst:
    """Selection condition: attribute equals a constant."""

    attribute: str
    value: Constant

    def __repr__(self) -> str:
        return f"{self.attribute}={self.value!r}"


@dataclass(frozen=True)
class NeqAttr:
    """Inequality between two attributes (the E in ESPJ)."""

    left: str
    right: str

    def __repr__(self) -> str:
        return f"{self.left}!={self.right}"


@dataclass(frozen=True)
class NeqConst:
    """Inequality between an attribute and a constant."""

    attribute: str
    value: Constant

    def __repr__(self) -> str:
        return f"{self.attribute}!={self.value!r}"


#: The plan language's conditions: exactly the four the plan IR encodes.
Condition = (EqAttr, EqConst, NeqAttr, NeqConst)


def _not_a_condition(condition: object) -> TypeError:
    return TypeError(
        f"{condition!r} is not a condition: the plan language has "
        "EqAttr, EqConst, NeqAttr and NeqConst"
    )


def condition_reads(condition: object) -> Tuple[str, ...]:
    """The attributes a condition reads (``TypeError`` on a non-condition)."""
    if isinstance(condition, (EqAttr, NeqAttr)):
        return (condition.left, condition.right)
    if isinstance(condition, (EqConst, NeqConst)):
        return (condition.attribute,)
    raise _not_a_condition(condition)


def _check_names(names: Iterable[str], attributes: Sequence[str]) -> None:
    """Raise :class:`EvaluationError` on the first name not in ``attributes``."""
    for name in names:
        if name not in attributes:
            raise EvaluationError(
                f"no attribute {name!r} in {tuple(attributes)}"
            )


def _check_conditions(conditions, attributes: Sequence[str]) -> None:
    _check_names(chain.from_iterable(map(condition_reads, conditions)), attributes)


# A compiled condition: the rows of an iterable that pass it, lazily.
Stage = Callable[[Iterable[Row]], Iterable[Row]]


def _const_stage(index: int, value: Constant, negate: bool) -> Stage:
    """``row[index] == value`` (or ``!=``) as membership in ``{value}``.

    A set compares hashes first, then identity, and calls
    ``Constant.__eq__`` only on a hash match, so the answer is
    ``Constant.__eq__``'s (``docs/theory.md`` §What a small request
    pays) and a cell that cannot match costs no Python call.  The stage
    reads its rows twice, the cells and then the rows kept, so a stream
    is listed first; a set or a list is read as it is.
    """
    cell = itemgetter(index)
    member = frozenset((value,)).__contains__

    def stage(rows: Iterable[Row]) -> Iterable[Row]:
        """The rows whose cell is (or, negated, is not) ``value``."""
        if not isinstance(rows, (frozenset, list)):
            rows = list(rows)
        flags = map(member, map(cell, rows))
        return compress(rows, map(not_, flags) if negate else flags)

    return stage


def _attr_stage(left: int, right: int, negate: bool) -> Stage:
    """``row[left] == row[right]`` (or ``!=``), one row at a time.

    Two cells that are not the same object are told apart only by
    ``Constant.__eq__``, so no form of this test saves the Python call
    per row; filtering the stream as it comes lets a join's pairs die
    as they are checked, where listing them first would keep them all.
    """
    if negate:
        return partial(filter, lambda row: row[left] != row[right])
    return partial(filter, lambda row: row[left] == row[right])


def _compile_conditions(
    conditions, colmap: Mapping[str, int], bindings: Bindings = NO_BINDINGS
) -> List[Stage]:
    """One filter stage per condition, for a selection or a join.

    ``colmap`` maps attribute names to row indexes (a table's cached
    :meth:`NamedTable.column_map`).  A constant is compared as
    ``bindings`` renames it, once per stage, never per row.  An unknown
    attribute raises :class:`EvaluationError` whether or not any row
    would reach it.
    """
    stages = []
    try:
        for cond in conditions:
            if isinstance(cond, (EqAttr, NeqAttr)):
                stages.append(
                    _attr_stage(
                        colmap[cond.left],
                        colmap[cond.right],
                        isinstance(cond, NeqAttr),
                    )
                )
            elif isinstance(cond, (EqConst, NeqConst)):
                stages.append(
                    _const_stage(
                        colmap[cond.attribute],
                        bindings.get(cond.value, cond.value),
                        isinstance(cond, NeqConst),
                    )
                )
            else:
                raise _not_a_condition(cond)
    except KeyError as missing:
        raise EvaluationError(
            f"no attribute {missing.args[0]!r} in {tuple(colmap)}"
        ) from None
    return stages


def _filtered(rows: Iterable[Row], stages: Sequence[Stage]) -> Iterable[Row]:
    """The rows passing every stage (a conjunction, lazily)."""
    for stage in stages:
        rows = stage(rows)
    return rows


def _join_key(table: NamedTable, attrs: Sequence[str], bare: bool):
    """The cells of ``attrs`` in a row of ``table``: a join's key.

    One attribute is keyed by the bare cell when ``bare``; a ready map
    of answers (:meth:`NamedTable.answers_by_key`) is keyed by tuples.
    """
    columns = [table.column(a) for a in attrs]
    if bare and len(columns) == 1:
        return itemgetter(columns[0])
    return row_picker(columns)


def _ready_answers(
    table: NamedTable, shared: Sequence[str]
) -> Optional[Tuple[Tuple[str, ...], Mapping[Row, Sequence[Row]]]]:
    """The table's answers by key, when they are a join's hash table.

    Only when the key attributes are exactly the shared ones, and there
    is at least one: the answers to a key are then exactly the table's
    rows that join a row carrying that key.  A key that is a strict
    subset of the shared attributes would pair rows the other shared
    attributes reject.  The empty key of an input-free access holds
    every row under one key, so it selects nothing: it is left to the
    hash path even where no attribute is shared.
    """
    keyed = table.answers_by_key()
    if keyed is None:
        return None
    key_attrs = keyed[0]
    if not key_attrs or set(key_attrs) != set(shared):
        return None
    return keyed


def _join_tables(
    left: NamedTable,
    right: NamedTable,
    conditions: Tuple[object, ...],
    project_to: Optional[Tuple[str, ...]],
    bindings: Bindings = NO_BINDINGS,
) -> NamedTable:
    """``π[project_to](σ[conditions](left ⋈ right))``, set-at-a-time.

    The hash table is the answers an access command already grouped by
    the key they were fetched by, when one input carries them keyed on
    exactly the shared attributes (:func:`_ready_answers`, the right
    input first); otherwise it is built on the *smaller* input.  The
    other input probes it.  A pair is the two rows side by side; the
    conditions see it, and it is narrowed to the output columns -- the
    right input's copy of each shared attribute dropped, and anything
    the projection leaves out -- as it enters the result set, so the
    full join result is never materialized.  A condition that reads one
    input only belongs below the join: the rewrite puts it there, so no
    pair is formed that it would discard.
    """
    left_attrs = left.attributes
    extra = [a for a in right.attributes if a not in left_attrs]
    shared = [a for a in right.attributes if a in left_attrs]
    out_attrs = left_attrs + tuple(extra)
    # Where each output attribute sits in a pair: a shared one on the left.
    pair_colmap = {a: i for i, a in enumerate(left_attrs)}
    for a in extra:
        pair_colmap[a] = len(left_attrs) + right.column(a)
    stages = _compile_conditions(conditions, pair_colmap, bindings)
    attributes = out_attrs
    if project_to is not None and tuple(project_to) != out_attrs:
        attributes = _distinct(tuple(project_to))
        _check_names(attributes, out_attrs)
    pick_out = None
    if shared or attributes != out_attrs:
        pick_out = row_picker([pair_colmap[a] for a in attributes])
    buckets: Optional[Mapping[Row, Sequence[Row]]] = None
    key_attrs: Sequence[str] = shared
    ready = _ready_answers(right, shared)
    build_right = ready is not None
    if not build_right:
        ready = _ready_answers(left, shared)
        build_right = ready is None and len(right.rows) <= len(left.rows)
    if ready is not None:
        key_attrs, buckets = ready
    left_key = _join_key(left, key_attrs, ready is None)
    right_key = _join_key(right, key_attrs, ready is None)
    if build_right:
        # Build on the right, probe with the left (the classic shape).
        if buckets is None:
            buckets = defaultdict(list)
            for row in right.rows:
                buckets[right_key(row)].append(row)
        matches = buckets.get
        joined = (
            row + tail for row in left.rows for tail in matches(left_key(row), ())
        )
    else:
        # Build on the left, probe with the right.
        if buckets is None:
            buckets = defaultdict(list)
            for row in left.rows:
                buckets[left_key(row)].append(row)
        matches = buckets.get
        joined = (
            head + row for row in right.rows for head in matches(right_key(row), ())
        )
    joined = _filtered(joined, stages)
    if pick_out is not None:
        joined = map(pick_out, joined)
    return _unchecked(attributes, frozenset(joined))


# -------------------------------------------------------------- expressions
class Expression:
    """Base class for RA expressions.

    Subclasses implement :meth:`attributes` (static schema, checked:
    every name an operator reads must exist) and :meth:`evaluate`,
    which hands its ``bindings`` to every child it evaluates.
    ``uses_union``/``uses_difference``/``uses_inequality`` drive
    plan-language classification.  :meth:`map_children` is the one
    structural walk: a rewrite of the tree rebuilds each node over its
    rewritten children and touches only the node kinds it cares about.
    """

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        raise NotImplementedError

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
        """Evaluate against the environment, constants renamed per
        ``bindings`` (see :class:`Expression`)."""
        raise NotImplementedError

    def children(self) -> Tuple["Expression", ...]:
        """Immediate subexpressions."""
        return ()

    def map_children(
        self, function: Callable[["Expression"], "Expression"]
    ) -> "Expression":
        """This node over ``function(child)`` for each child.

        The node itself when every child comes back as the same object
        (a leaf always does), so a walk that changes nothing shares the
        whole tree.
        """
        return self

    def tables_read(self) -> FrozenSet[str]:
        """Temporary tables this expression scans."""
        read: FrozenSet[str] = frozenset()
        for child in self.children():
            read = read | child.tables_read() if read else child.tables_read()
        return read

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


def _any_inequality(conditions) -> bool:
    return any(isinstance(c, (NeqAttr, NeqConst)) for c in conditions)


@dataclass(frozen=True)
class Singleton(Expression):
    """The TRUE table: no attributes, one empty row.

    Used as the input expression of input-free access commands (the
    paper's ``T <- mt <- {}`` convention).
    """

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        return ()

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        return NamedTable.singleton()

    def __repr__(self) -> str:
        return "{()}"


@dataclass(frozen=True)
class Literal(Expression):
    """An inline constant table (e.g. the schema constants)."""

    table: NamedTable

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        return self.table.attributes

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
        """The table, each cell renamed per ``bindings`` (see
        :class:`Expression`); unbound, the table itself."""
        if not bindings:
            return self.table
        get = bindings.get
        return _unchecked(
            self.table.attributes,
            frozenset(tuple(map(get, row, row)) for row in self.table.rows),
        )

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

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
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
        _check_names(self.attrs, self.child.attributes(env_schema))
        return self.attrs

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        return self.child.evaluate(env, bindings).project(self.attrs)

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.child,)

    def map_children(self, function) -> Expression:
        """This node over ``function(child)`` (see :class:`Expression`)."""
        child = function(self.child)
        return self if child is self.child else Project(child, self.attrs)

    def __repr__(self) -> str:
        return f"π[{','.join(self.attrs)}]({self.child!r})"


@dataclass(frozen=True)
class Select(Expression):
    """Selection by a conjunction of (in)equality conditions."""

    child: Expression
    conditions: Tuple[object, ...]

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        attributes = self.child.attributes(env_schema)
        _check_conditions(self.conditions, attributes)
        return attributes

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        table = self.child.evaluate(env, bindings)
        stages = _compile_conditions(self.conditions, table.column_map(), bindings)
        return table.subset(_filtered(table.rows, stages))

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.child,)

    def map_children(self, function) -> Expression:
        """This node over ``function(child)`` (see :class:`Expression`)."""
        child = function(self.child)
        return self if child is self.child else Select(child, self.conditions)

    @property
    def uses_inequality(self) -> bool:
        """Whether an inequality condition occurs in the subtree."""
        return _any_inequality(self.conditions) or self.child.uses_inequality

    def __repr__(self) -> str:
        conds = " & ".join(repr(c) for c in self.conditions)
        return f"σ[{conds}]({self.child!r})"


@dataclass(frozen=True)
class Join(Expression):
    """Natural join on shared attribute names, with its fused σ/π.

    ``Join(l, r, conditions, project_to)`` is ``π[project_to](σ[conditions]
    (l ⋈ r))`` evaluated in one pass (:func:`_join_tables`).  Only the
    rewrite (:mod:`repro.plans.rewrite`) sets the two fused fields; a
    plan as built, serialized and cached has plain joins (``()`` and
    ``None``), and the plan IR refuses to lower a fused one.
    """

    left: Expression
    right: Expression
    conditions: Tuple[object, ...] = ()
    project_to: Optional[Tuple[str, ...]] = None

    @property
    def is_fused(self) -> bool:
        """Whether a selection or projection is folded into this join."""
        return bool(self.conditions) or self.project_to is not None

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        left_attrs = self.left.attributes(env_schema)
        right_attrs = self.right.attributes(env_schema)
        joined = left_attrs + tuple(a for a in right_attrs if a not in left_attrs)
        _check_conditions(self.conditions, joined)
        if self.project_to is None:
            return joined
        _check_names(self.project_to, joined)
        return self.project_to

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        return _join_tables(
            self.left.evaluate(env, bindings),
            self.right.evaluate(env, bindings),
            self.conditions,
            self.project_to,
            bindings,
        )

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.left, self.right)

    def map_children(self, function) -> Expression:
        """This node over ``function(child)`` (see :class:`Expression`)."""
        left, right = function(self.left), function(self.right)
        if left is self.left and right is self.right:
            return self
        return Join(left, right, self.conditions, self.project_to)

    @property
    def uses_inequality(self) -> bool:
        """Whether an inequality condition occurs in the subtree."""
        return _any_inequality(self.conditions) or super().uses_inequality

    def __repr__(self) -> str:
        text = f"({self.left!r} ⋈ {self.right!r})"
        if self.conditions:
            conds = " & ".join(repr(c) for c in self.conditions)
            text = f"σ[{conds}]{text}"
        if self.project_to is not None:
            text = f"π[{','.join(self.project_to)}]({text})"
        return text


@dataclass(frozen=True)
class _SetOperation(Expression):
    """Union or difference: the right side is reordered to the left's
    attributes, and the attribute sets must coincide."""

    left: Expression
    right: Expression

    def attributes(self, env_schema: Mapping[str, Tuple[str, ...]]) -> Tuple[str, ...]:
        """Static output attributes (see :class:`Expression`)."""
        left = self.left.attributes(env_schema)
        right = self.right.attributes(env_schema)
        if set(left) != set(right):
            raise EvaluationError(
                f"{type(self).__name__.lower()} attribute mismatch: "
                f"{left} vs {right}"
            )
        return left

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        left = self.left.evaluate(env, bindings)
        right = self.right.evaluate(env, bindings).project(left.attributes)
        return NamedTable(left.attributes, self._combine(left.rows, right.rows))

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.left, self.right)

    def map_children(self, function) -> Expression:
        """This node over ``function(child)`` (see :class:`Expression`)."""
        left, right = function(self.left), function(self.right)
        if left is self.left and right is self.right:
            return self
        return type(self)(left, right)

    def __repr__(self) -> str:
        return f"({self.left!r} {self._symbol} {self.right!r})"


@dataclass(frozen=True, repr=False)
class Union(_SetOperation):
    """Set union; the right side is reordered to the left's attributes."""

    _combine = staticmethod(frozenset.union)
    _symbol = "∪"

    @property
    def uses_union(self) -> bool:
        """Whether a union operator occurs in the subtree."""
        return True


@dataclass(frozen=True, repr=False)
class Difference(_SetOperation):
    """Set difference; attribute sets must coincide."""

    _combine = staticmethod(frozenset.difference)
    _symbol = "−"

    @property
    def uses_difference(self) -> bool:
        """Whether a difference operator occurs in the subtree."""
        return True


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
        attributes = tuple(
            renames.get(a, a) for a in self.child.attributes(env_schema)
        )
        if len(set(attributes)) != len(attributes):
            raise EvaluationError(f"duplicate attribute in {attributes}")
        return attributes

    def evaluate(self, env: Environment, bindings: Bindings = NO_BINDINGS) -> NamedTable:
        """Evaluate against the environment (see :class:`Expression`)."""
        return self.child.evaluate(env, bindings).rename(self._renames)

    def children(self) -> Tuple[Expression, ...]:
        """Immediate subexpressions."""
        return (self.child,)

    def map_children(self, function) -> Expression:
        """This node over ``function(child)`` (see :class:`Expression`)."""
        child = function(self.child)
        return self if child is self.child else Rename(child, self.mapping)

    def __repr__(self) -> str:
        pairs = ",".join(f"{a}->{b}" for a, b in self.mapping)
        return f"ρ[{pairs}]({self.child!r})"
