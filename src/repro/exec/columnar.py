"""The columnar executor: vectorized plan execution over numpy columns.

The tuple-at-a-time interpreter in :mod:`repro.plans.expressions` pays
Python-level cost per *row*; after PR 3's indexing and caching the
remaining execution time on row-heavy plans is exactly that per-row
overhead.  This backend pays Python cost per *operator* instead: a
:class:`ColumnarPlan` is compiled from the plan's executable form (the
expression trees :mod:`repro.plans.rewrite` produced, the same ones the
interpreter runs) into a pipeline over **dictionary-encoded column
arrays** -- every ground term is interned to a small integer code once
per execution, relations become one ``int64`` array per attribute, and
the relational operators become array programs:

* selections are boolean mask vectors (``EqAttr``/``EqConst``/
  ``NeqAttr``/``NeqConst`` compile to ``==``/``!=`` over code arrays --
  sound because dictionary codes preserve exactly term equality, the
  only predicate the plan language ever tests);
* natural joins are vectorized hash joins: the *smaller* side is
  sorted by its composite key (the build), the larger side probes via
  binary search, and matching row-index pairs are expanded with
  ``repeat``/``cumsum`` arithmetic -- no Python-level row loop;
* a fused join (the rewrite folded the σ/π above it into the node)
  masks the matched index pairs with its conditions and gathers only
  the surviving, needed columns; selections the rewrite pushed below
  the join mask its inputs before any pair is formed;
* unions, differences and duplicate elimination reduce to grouping on
  a joint row-id encoding of the participating tables.

The rewrite decided where every condition goes and resolved every
attribute name, so nothing here inspects a child node to fuse, and an
unknown name has raised before the first access.

Set semantics are preserved operator by operator (tables are
deduplicated exactly where the interpreter's ``frozenset`` semantics
deduplicate), so every intermediate table has the same cardinality the
interpreter sees -- which is what makes the shared
:class:`~repro.exec.stats.ExecStats` accounting, the
:class:`~repro.exec.budget.ResourceBudget` result check and the
deterministic truncation prefix *identical* across backends.

Access commands are columnar on the input side only: the input
expression is evaluated columnar, the distinct binding tuples are
computed by one vectorized grouping, and only those are decoded back to
terms and handed to the access step the interpreter uses
(:func:`repro.plans.commands.access_keys`: the same batch-or-per-key
decision, cache, resilience stack and dedup/cache/retry accounting).
The command loop is shared too (:func:`repro.plans.plan.run_commands`).

``Plan.execute(..., executor="differential")`` runs this backend and
the interpreter back to back and asserts identical sorted answers; the
interpreter remains the oracle.  Soundness arguments live in
``docs/theory.md`` ("Columnar execution and the plan IR").
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

try:  # numpy is a baked-in dependency; fail with guidance, not a stack dump
    import numpy as np
except ImportError as exc:  # pragma: no cover
    raise ImportError(
        "the columnar executor requires numpy; "
        "use executor='interpreter' on installs without it"
    ) from exc

from repro.errors import ExecutionError
from repro.exec.cache import AccessCache
from repro.exec.context import ExecutionContext
from repro.logic.terms import Constant, Term
from repro.plans.commands import AccessCommand, access_keys
from repro.plans.expressions import (
    Difference,
    EqAttr,
    EqConst,
    EvaluationError,
    Expression,
    Join,
    Literal,
    NamedTable,
    NeqAttr,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union,
)
from repro.plans.plan import run_commands
from repro.plans.rewrite import Executable

__all__ = [
    "ColumnarPlan",
    "compile_columnar",
    "execute_differential",
    "DifferentialMismatch",
]


class DifferentialMismatch(ExecutionError):
    """Raised when the columnar and interpreter answers disagree."""


# ----------------------------------------------------------------- encoding
class _Codec:
    """Per-execution term dictionary: ground term <-> int64 code.

    Codes preserve equality and nothing else, which is all the plan
    language's conditions ever test.  One codec spans one plan
    execution, so every table in the environment speaks the same
    dictionary.
    """

    __slots__ = ("_codes", "_terms")

    def __init__(self) -> None:
        self._codes: Dict[Term, int] = {}
        self._terms: List[Term] = []

    def code(self, term: Term) -> int:
        """The (interning) code of one term."""
        code = self._codes.get(term)
        if code is None:
            code = len(self._terms)
            self._codes[term] = code
            self._terms.append(term)
        return code

    def encode_rows(
        self, attributes: Tuple[str, ...], rows
    ) -> "_ColTable":
        """Encode an iterable of term tuples into a column table."""
        width = len(attributes)
        codes = self._codes
        terms = self._terms
        columns = [[] for _ in range(width)]
        count = 0
        for row in rows:
            count += 1
            for position in range(width):
                term = row[position]
                code = codes.get(term)
                if code is None:
                    code = len(terms)
                    codes[term] = code
                    terms.append(term)
                columns[position].append(code)
        return _ColTable(
            attributes,
            tuple(
                np.asarray(column, dtype=np.int64) for column in columns
            ),
            count,
        )

    def decode_table(self, table: "_ColTable") -> NamedTable:
        """Materialize a column table back into a :class:`NamedTable`."""
        if not table.attributes:
            rows = frozenset({()}) if table.nrows else frozenset()
            return NamedTable((), rows)
        # ``fromiter`` stores each term as it is; ``np.array`` would first
        # ask every term whether it is a sequence (a term is a tuple
        # subclass whose ``len`` raises), at a Python frame apiece.
        terms = self._terms
        lookup = np.fromiter(terms, dtype=object, count=len(terms))
        decoded = [lookup[column[: table.nrows]] for column in table.columns]
        return NamedTable(table.attributes, frozenset(zip(*decoded)))

    def decode(self, code: int) -> Term:
        """The term behind one code."""
        return self._terms[code]


class _ColEnv(dict):
    """One run's temporary tables and the term dictionary they share."""

    __slots__ = ("codec",)

    def __init__(self) -> None:
        super().__init__()
        self.codec = _Codec()


class _ColTable:
    """An immutable relation as one int64 code array per attribute."""

    __slots__ = ("attributes", "columns", "nrows", "_colmap")

    def __init__(
        self,
        attributes: Tuple[str, ...],
        columns: Tuple[np.ndarray, ...],
        nrows: int,
    ) -> None:
        if len(set(attributes)) != len(attributes):
            raise EvaluationError(f"duplicate attribute in {attributes}")
        self.attributes = attributes
        self.columns = columns
        self.nrows = nrows
        self._colmap = {a: i for i, a in enumerate(attributes)}

    def column(self, attribute: str) -> np.ndarray:
        """The code array of an attribute (raises on unknown names)."""
        try:
            return self.columns[self._colmap[attribute]]
        except KeyError:
            raise EvaluationError(
                f"no attribute {attribute!r} in {self.attributes}"
            ) from None

    def has(self, attribute: str) -> bool:
        """True if the table carries the attribute."""
        return attribute in self._colmap

    def take(self, indexes: np.ndarray) -> "_ColTable":
        """Row subset by index array (no dedup)."""
        return _ColTable(
            self.attributes,
            tuple(column[indexes] for column in self.columns),
            len(indexes),
        )

    def mask(self, keep: np.ndarray) -> "_ColTable":
        """Row subset by boolean mask (no dedup)."""
        return _ColTable(
            self.attributes,
            tuple(column[keep] for column in self.columns),
            int(np.count_nonzero(keep)),
        )

    def __repr__(self) -> str:
        return f"_ColTable({list(self.attributes)}, {self.nrows} rows)"


def _row_ids(columns: Sequence[np.ndarray], nrows: int) -> np.ndarray:
    """One int64 id per row such that equal rows get equal ids.

    Columns are folded pairwise, ``ids * (max + 1) + column``, so ids
    order rows lexicographically by their codes.  The running ids are
    recompressed to a dense range (their rank, which keeps that order)
    only before a fold whose product could reach 2**63: codes are dense
    per run, so two or three columns never need it.
    """
    if not columns:
        return np.zeros(nrows, dtype=np.int64)
    ids = columns[0].astype(np.int64, copy=False)
    bound = int(ids.max()) + 1 if ids.size else 1
    for column in columns[1:]:
        multiplier = int(column.max()) + 1 if column.size else 1
        if bound * multiplier >= 2**63:
            _, ids = np.unique(ids, return_inverse=True)
            bound = int(ids.max()) + 1 if ids.size else 1
        ids = ids * np.int64(multiplier) + column
        bound *= multiplier
    return ids


def _dedup(table: _ColTable) -> _ColTable:
    """Duplicate elimination (the frozenset semantics of NamedTable)."""
    if not table.attributes:
        return _ColTable((), (), min(table.nrows, 1))
    if table.nrows <= 1:
        return table
    ids = _row_ids(table.columns, table.nrows)
    _, first = np.unique(ids, return_index=True)
    if len(first) == table.nrows:
        return table
    return table.take(first)


# ------------------------------------------------------------- expressions
class _CExpr:
    """Base class of compiled IR expressions."""

    __slots__ = ()

    def eval(self, env: Dict[str, _ColTable], codec: _Codec) -> _ColTable:
        """Evaluate this node over ``env`` into a column table."""
        raise NotImplementedError


class _CScan(_CExpr):
    __slots__ = ("table",)

    def __init__(self, table: str) -> None:
        self.table = table

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        try:
            return env[self.table]
        except KeyError:
            raise EvaluationError(f"unknown table {self.table!r}") from None


class _CLiteral(_CExpr):
    __slots__ = ("attrs", "rows")

    def __init__(self, attrs: Tuple[str, ...], rows: Tuple[Tuple[Term, ...], ...]):
        self.attrs = attrs
        self.rows = rows

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        return codec.encode_rows(self.attrs, self.rows)


class _CProject(_CExpr):
    __slots__ = ("child", "attrs")

    def __init__(self, child: _CExpr, attrs: Tuple[str, ...]) -> None:
        self.child = child
        self.attrs = attrs

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        table = self.child.eval(env, codec)
        columns = tuple(table.column(a) for a in self.attrs)
        return _dedup(_ColTable(self.attrs, columns, table.nrows))


def _condition_mask(condition, table_column, codec: _Codec) -> np.ndarray:
    """Boolean keep-mask of one condition, given a column resolver."""
    if isinstance(condition, EqAttr):
        return table_column(condition.left) == table_column(condition.right)
    if isinstance(condition, NeqAttr):
        return table_column(condition.left) != table_column(condition.right)
    if isinstance(condition, EqConst):
        return table_column(condition.attribute) == codec.code(condition.value)
    return table_column(condition.attribute) != codec.code(condition.value)


def _conditions_mask(conditions, table_column, codec: _Codec):
    """The conjunction's keep-mask (``None``: no conditions, keep all)."""
    keep: Optional[np.ndarray] = None
    for condition in conditions:
        mask = _condition_mask(condition, table_column, codec)
        keep = mask if keep is None else (keep & mask)
    return keep


class _CSelect(_CExpr):
    __slots__ = ("child", "conditions")

    def __init__(self, child: _CExpr, conditions: Tuple[object, ...]) -> None:
        self.child = child
        self.conditions = conditions

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        table = self.child.eval(env, codec)
        keep = _conditions_mask(self.conditions, table.column, codec)
        return table if keep is None else table.mask(keep)


class _CRename(_CExpr):
    __slots__ = ("child", "mapping")

    def __init__(self, child: _CExpr, mapping: Tuple[Tuple[str, str], ...]):
        self.child = child
        self.mapping = dict(mapping)

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        table = self.child.eval(env, codec)
        attrs = tuple(self.mapping.get(a, a) for a in table.attributes)
        return _ColTable(attrs, table.columns, table.nrows)


class _CUnion(_CExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: _CExpr, right: _CExpr) -> None:
        self.left = left
        self.right = right

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        left = self.left.eval(env, codec)
        right = self.right.eval(env, codec)
        right_cols = tuple(right.column(a) for a in left.attributes)
        if not left.attributes:
            return _ColTable((), (), min(left.nrows + right.nrows, 1))
        columns = tuple(
            np.concatenate((lc, rc))
            for lc, rc in zip(left.columns, right_cols)
        )
        return _dedup(
            _ColTable(left.attributes, columns, left.nrows + right.nrows)
        )


class _CDifference(_CExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: _CExpr, right: _CExpr) -> None:
        self.left = left
        self.right = right

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        left = self.left.eval(env, codec)
        right = self.right.eval(env, codec)
        right_cols = [right.column(a) for a in left.attributes]
        if not left.attributes:
            kept = left.nrows if right.nrows == 0 else 0
            return _ColTable((), (), min(kept, 1))
        joint = [
            np.concatenate((lc, rc))
            for lc, rc in zip(left.columns, right_cols)
        ]
        ids = _row_ids(joint, left.nrows + right.nrows)
        left_ids, right_ids = ids[: left.nrows], ids[left.nrows:]
        keep = np.isin(left_ids, right_ids, invert=True)
        return left.mask(keep)


class _CJoin(_CExpr):
    """A natural join with its fused selection/projection over the probe.

    ``conditions``/``project_to`` are the fused join's own fields: the
    conditions mask the matched row-index pairs and only surviving,
    needed columns are gathered -- the full join result is never
    materialized.
    """

    __slots__ = ("left", "right", "conditions", "project_to")

    def __init__(
        self,
        left: _CExpr,
        right: _CExpr,
        conditions: Tuple[object, ...],
        project_to: Optional[Tuple[str, ...]],
    ) -> None:
        self.left = left
        self.right = right
        self.conditions = conditions
        self.project_to = project_to

    def eval(self, env, codec):
        """Evaluate this node over ``env`` into a column table."""
        left = self.left.eval(env, codec)
        right = self.right.eval(env, codec)
        shared = [a for a in right.attributes if left.has(a)]
        extra = [a for a in right.attributes if not left.has(a)]
        left_idx, right_idx = _match_pairs(left, right, shared)

        def pair_column(attribute: str) -> np.ndarray:
            """One attribute's codes over the matched pairs."""
            if left.has(attribute):
                return left.column(attribute)[left_idx]
            return right.column(attribute)[right_idx]

        keep = _conditions_mask(self.conditions, pair_column, codec)
        if keep is not None:
            left_idx = left_idx[keep]
            right_idx = right_idx[keep]
        attrs = self.project_to
        if attrs is None:
            attrs = left.attributes + tuple(extra)
        table = _ColTable(attrs, tuple(map(pair_column, attrs)), len(left_idx))
        # A natural join of two duplicate-free tables is duplicate-free
        # (shared + extra covers every right attribute); only an actual
        # projection can collapse rows.
        return table if self.project_to is None else _dedup(table)


def _match_pairs(
    left: _ColTable, right: _ColTable, shared: List[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """Matching (left index, right index) pairs of the natural join.

    The smaller side is sorted by its composite key (the build side of
    a classic hash join); the larger side probes with binary search and
    match runs are expanded with repeat/cumsum arithmetic.
    """
    if not shared:
        left_idx = np.repeat(np.arange(left.nrows), right.nrows)
        right_idx = np.tile(np.arange(right.nrows), left.nrows)
        return left_idx, right_idx
    joint = [
        np.concatenate((left.column(a), right.column(a))) for a in shared
    ]
    ids = _row_ids(joint, left.nrows + right.nrows)
    left_ids, right_ids = ids[: left.nrows], ids[left.nrows:]
    if right.nrows <= left.nrows:
        build_ids, probe_ids = right_ids, left_ids
        swap = False
    else:
        build_ids, probe_ids = left_ids, right_ids
        swap = True
    order = np.argsort(build_ids, kind="stable")
    sorted_ids = build_ids[order]
    starts = np.searchsorted(sorted_ids, probe_ids, side="left")
    ends = np.searchsorted(sorted_ids, probe_ids, side="right")
    counts = ends - starts
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(len(probe_ids)), counts)
    run_starts = np.cumsum(counts) - counts
    within = np.arange(total) - np.repeat(run_starts, counts)
    build_idx = order[np.repeat(starts, counts) + within]
    if swap:
        return build_idx, probe_idx
    return probe_idx, build_idx


# ---------------------------------------------------------------- commands
class _CAccess:
    """A compiled access command: batched input, tuple-level dispatch."""

    __slots__ = (
        "target", "method", "input_expr", "binding", "output_map",
        "input_attrs",
    )
    kind = "access"

    def __init__(self, command: AccessCommand) -> None:
        self.target = command.target
        self.method = command.method
        self.input_expr = _compile_expr(command.input_expr)
        self.binding = command.input_binding
        self.output_map = command.output_map
        self.input_attrs = command.input_attrs

    def execute(self, env, source, context=None, bindings=None):
        """Run this compiled command, writing its table into ``env``.

        ``bindings`` is the command loop's and always empty here: only
        the interpreter serves a bound request.
        """
        codec = env.codec
        inputs = self.input_expr.eval(env, codec)
        columns = [inputs.column(a) for a in self.input_attrs]
        # Distinct binding tuples via one vectorized grouping; only the
        # representatives are decoded back to terms for dispatch.
        if columns:
            ids = _row_ids(columns, inputs.nrows)
            _, first = np.unique(ids, return_index=True)
            distinct_rows = [
                tuple(int(column[i]) for column in columns) for i in first
            ]
        else:
            distinct_rows = [()] if inputs.nrows else []
        attr_pos = {a: i for i, a in enumerate(self.input_attrs)}
        bindings = []
        for codes in distinct_rows:
            bindings.append(
                tuple(
                    entry
                    if isinstance(entry, Constant)
                    else codec.decode(codes[attr_pos[entry]])
                    for entry in self.binding
                )
            )
        batches = access_keys(
            source, self.method, bindings, context, inputs.nrows
        )
        env[self.target] = self._encode_output(batches, codec)

    def _encode_output(self, batches, codec) -> _ColTable:
        """Batch-map the accessed tuples into the output column table.

        The per-row path this replaces built a Python value set per
        output attribute per accessed row (the repeated-position
        equality filter), inserted mapped tuples into a Python set, and
        then re-interned every cell in ``encode_rows``.  Here each
        *referenced source position* is interned exactly once into an
        int64 code array, the equality filter is a vectorized mask over
        those arrays, and set semantics are restored by the same
        ``_dedup`` grouping the middleware boundary uses.
        """
        rows: List[Tuple[Term, ...]] = list(chain.from_iterable(batches))
        if not self.output_map:
            # Boolean access: any surviving row witnesses the empty tuple.
            return _ColTable((), (), 1 if rows else 0)
        positions = sorted(
            {p for _attr, ps in self.output_map for p in ps}
        )
        code = codec.code
        arrays = {
            p: np.asarray([code(row[p]) for row in rows], dtype=np.int64)
            for p in positions
        }
        # A repeated output position (attr <- positions p0, p1, ...) is an
        # equality filter: the row survives only when all agree.
        mask = None
        for _attr, ps in self.output_map:
            for extra in ps[1:]:
                eq = arrays[ps[0]] == arrays[extra]
                mask = eq if mask is None else mask & eq
        columns = tuple(
            arrays[ps[0]][mask] if mask is not None else arrays[ps[0]]
            for _attr, ps in self.output_map
        )
        kept = int(columns[0].shape[0])
        out_attrs = tuple(attr for attr, _ in self.output_map)
        return _dedup(_ColTable(out_attrs, columns, kept))


class _CMiddleware:
    """A compiled middleware command: local columnar algebra."""

    __slots__ = ("target", "expr")
    kind = "middleware"

    def __init__(self, target: str, expr: _CExpr) -> None:
        self.target = target
        self.expr = expr

    def execute(self, env, source, context=None, bindings=None):
        """Run this compiled command, writing its table into ``env``
        (``bindings``: as :meth:`_CAccess.execute`)."""
        env[self.target] = self.expr.eval(env, env.codec)


# ---------------------------------------------------------------- compiler
def _compile_expr(expr: Expression) -> _CExpr:
    """The columnar operator tree of one (rewritten) expression."""
    if isinstance(expr, Scan):
        return _CScan(expr.table)
    if isinstance(expr, (Singleton, Literal)):
        table = expr.evaluate({})
        # Sorted, as the plan IR lists them: the order terms are first
        # interned in, and hence the code order, never depends on
        # frozenset iteration.
        return _CLiteral(table.attributes, tuple(sorted(table.rows)))
    if isinstance(expr, Project):
        return _CProject(_compile_expr(expr.child), expr.attrs)
    if isinstance(expr, Select):
        return _CSelect(_compile_expr(expr.child), expr.conditions)
    if isinstance(expr, Rename):
        return _CRename(_compile_expr(expr.child), expr.mapping)
    if isinstance(expr, Join):
        return _CJoin(
            _compile_expr(expr.left),
            _compile_expr(expr.right),
            expr.conditions,
            expr.project_to,
        )
    if isinstance(expr, Union):
        return _CUnion(_compile_expr(expr.left), _compile_expr(expr.right))
    if isinstance(expr, Difference):
        return _CDifference(
            _compile_expr(expr.left), _compile_expr(expr.right)
        )
    raise TypeError(f"columnar backend cannot compile {expr!r}")


def _compile_command(command):
    if isinstance(command, AccessCommand):
        return _CAccess(command)
    return _CMiddleware(command.target, _compile_expr(command.expr))


class ColumnarPlan:
    """A plan's executable form compiled into the columnar pipeline."""

    def __init__(self, form: Executable, name: str = "plan") -> None:
        self.name = name
        self.output_table = form.output_table
        self.commands = tuple(_compile_command(c) for c in form.commands)
        self._frees = form.frees

    def execute(
        self, source, context: Optional[ExecutionContext] = None
    ) -> NamedTable:
        """Run the compiled pipeline; same contract as ``Plan.execute``.

        The loop is the interpreter's
        (:func:`~repro.plans.plan.run_commands`) over an environment of
        dictionary-encoded column tables; the output is decoded to a
        :class:`NamedTable` before ``budget.admit_result`` sees it, so
        the deterministic truncation prefix and ``truncated_rows`` match
        across backends.
        """
        env = _ColEnv()
        return run_commands(
            self.commands,
            self.output_table,
            self._frees,
            env,
            source,
            context if context is not None else ExecutionContext(),
            attrgetter("nrows"),
            env.codec.decode_table,
        )

    def __repr__(self) -> str:
        return (
            f"ColumnarPlan({self.name}: {len(self.commands)} commands, "
            f"out={self.output_table})"
        )


def compile_columnar(plan) -> ColumnarPlan:
    """Compile a plan for columnar execution (cached on the plan)."""
    try:
        return plan._columnar_compiled  # type: ignore[attr-defined]
    except AttributeError:
        compiled = ColumnarPlan(plan.executable(), plan.name)
        object.__setattr__(plan, "_columnar_compiled", compiled)
        return compiled


# ------------------------------------------------------------ differential
def execute_differential(
    plan, source, context: Optional[ExecutionContext] = None
) -> NamedTable:
    """Run columnar AND interpreter, assert identical sorted answers.

    The columnar backend is the measured run (its ``stats`` and
    ``truncated_rows`` are the context's); the interpreter replays as
    the oracle under a context of its own with the same budget and the
    *same* access cache -- when the context has none a private one is
    created for the pair of runs, so the oracle's accesses are answered
    from memory instead of re-invoking (and re-charging) the source.  Answers are compared as
    sorted row lists plus attribute tuples -- byte-identical output --
    and budget truncation must have dropped the same row count.  A
    mismatch raises :class:`DifferentialMismatch`; this mode is for
    verification, not performance.
    """
    context = context if context is not None else ExecutionContext()
    measured = replace(
        context,
        cache=context.cache if context.cache is not None else AccessCache(),
    )
    oracle = replace(measured, stats=None)
    columnar_output = compile_columnar(plan).execute(source, measured)
    oracle_output = plan.execute(source, oracle)
    if columnar_output.attributes != oracle_output.attributes:
        raise DifferentialMismatch(
            f"plan {plan.name}: columnar attributes "
            f"{columnar_output.attributes} != interpreter "
            f"{oracle_output.attributes}"
        )
    if sorted(columnar_output.rows) != sorted(oracle_output.rows):
        raise DifferentialMismatch(
            f"plan {plan.name}: columnar answer ({len(columnar_output.rows)} "
            f"rows) differs from the interpreter oracle "
            f"({len(oracle_output.rows)} rows)"
        )
    if measured.truncated_rows != oracle.truncated_rows:
        raise DifferentialMismatch(
            f"plan {plan.name}: columnar truncated "
            f"{measured.truncated_rows} rows, interpreter "
            f"{oracle.truncated_rows}"
        )
    context.truncated_rows = measured.truncated_rows
    return columnar_output
