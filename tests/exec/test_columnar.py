"""The columnar backend: operator units, stats parity, differential mode.

The columnar executor must be *observationally identical* to the
interpreter -- same answers, same per-command stats, same cache and
budget accounting -- just faster.  These tests check the vectorized
operators one by one and the end-to-end contract; the scenario-wide
differential sweep lives in ``test_exec_soundness.py``.
"""

import numpy as np
import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec import AccessCache, ExecStats, ExecutionContext, ResourceBudget
from repro.exec.columnar import (
    ColumnarPlan,
    DifferentialMismatch,
    _Codec,
    _dedup,
    _match_pairs,
    _row_ids,
    compile_columnar,
    execute_differential,
)
from repro.logic.terms import Constant
from repro.plans.commands import (
    AccessCommand,
    MiddlewareCommand,
    identity_output_map,
)
from repro.plans.expressions import (
    Difference,
    EqAttr,
    EqConst,
    EvaluationError,
    Join,
    NamedTable,
    NeqConst,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union,
)
from repro.plans.plan import Plan
from repro.schema.core import SchemaBuilder


def C(value):
    return Constant(value)


@pytest.fixture
def schema():
    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[0], cost=1.0)
        .build()
    )


@pytest.fixture
def source(schema):
    instance = Instance(
        {
            "R": [(f"k{i % 4}", f"v{i}") for i in range(12)],
            "S": [(f"k{i}", f"s{i}") for i in range(6)],
        }
    )
    return InMemorySource(schema, instance)


def scan_r(target="T_R"):
    return AccessCommand(
        target, "mt_R", Singleton(), (), identity_output_map(("x", "y"))
    )


def run_both(plan, source_factory, **kwargs):
    interp = plan.execute(source_factory(), **kwargs)
    columnar = plan.execute(source_factory(), executor="columnar", **kwargs)
    assert columnar.attributes == interp.attributes
    assert columnar.rows == interp.rows
    return interp, columnar


class TestPrimitives:
    def test_row_ids_group_equal_rows(self):
        a = np.array([1, 2, 1, 2, 1], dtype=np.int64)
        b = np.array([5, 5, 5, 6, 5], dtype=np.int64)
        ids = _row_ids([a, b], 5)
        assert ids[0] == ids[2] == ids[4]
        assert ids[0] != ids[1] != ids[3]

    def test_row_ids_zero_columns(self):
        assert list(_row_ids([], 3)) == [0, 0, 0]

    @pytest.mark.parametrize("top", [8, 2**30], ids=["small", "re-ranked"])
    def test_row_ids_order_rows_lexicographically(self, top):
        # At 2**30 the third fold would pass 2**63 and re-ranks first;
        # either way the ids sort (and group) exactly as the rows do,
        # which is the order every dedup and dispatch takes.
        rng = np.random.default_rng(1)
        columns = [rng.integers(0, top, 60, dtype=np.int64) for _ in range(3)]
        columns = [np.concatenate((c, c[:10])) for c in columns]
        ids = [int(i) for i in _row_ids(columns, 70)]
        rows = list(zip(*(map(int, c) for c in columns)))
        for i in range(70):
            for j in range(70):
                assert (ids[i] < ids[j]) == (rows[i] < rows[j])
                assert (ids[i] == ids[j]) == (rows[i] == rows[j])

    def test_match_pairs_equals_python_join(self):
        rng = np.random.default_rng(0)
        codec = _Codec()
        left = codec.encode_rows(
            ("a",), [(C(int(v)),) for v in rng.integers(0, 8, 40)]
        )
        right = codec.encode_rows(
            ("a", "b"),
            [
                (C(int(v)), C(int(w)))
                for v, w in zip(
                    rng.integers(0, 8, 25), rng.integers(0, 99, 25)
                )
            ],
        )
        li, ri = _match_pairs(left, right, ["a"])
        got = {(int(l), int(r)) for l, r in zip(li, ri)}
        want = {
            (l, r)
            for l in range(left.nrows)
            for r in range(right.nrows)
            if left.columns[0][l] == right.columns[0][r]
        }
        assert got == want

    def test_match_pairs_cross_product(self):
        codec = _Codec()
        left = codec.encode_rows(("a",), [(C(1),), (C(2),)])
        right = codec.encode_rows(("b",), [(C(3),), (C(4),), (C(5),)])
        li, ri = _match_pairs(left, right, [])
        assert len(li) == len(ri) == 6
        assert {(int(l), int(r)) for l, r in zip(li, ri)} == {
            (l, r) for l in range(2) for r in range(3)
        }

    def test_dedup(self):
        codec = _Codec()
        table = codec.encode_rows(
            ("a", "b"), [(C(1), C(2)), (C(1), C(2)), (C(3), C(4))]
        )
        assert _dedup(table).nrows == 2

    def test_codec_decode_round_trips(self):
        codec = _Codec()
        rows = [(C("a"), C(1)), (C("b"), C(2.5))]
        table = codec.encode_rows(("x", "y"), rows)
        named = codec.decode_table(table)
        assert named.rows == frozenset(rows)
        assert named.attributes == ("x", "y")


def middleware_plan(expr):
    return Plan((scan_r(), MiddlewareCommand("OUT", expr)), "OUT")


class TestOperators:
    """Each RA operator, columnar vs interpreter on the same source."""

    def make_source(self, schema_source):
        return schema_source

    @pytest.mark.parametrize(
        "expr",
        [
            Project(Scan("T_R"), ("x",)),
            Select(Scan("T_R"), (EqConst("x", C("k1")),)),
            Select(Scan("T_R"), (NeqConst("x", C("k1")), EqAttr("x", "x"))),
            Rename(Scan("T_R"), (("x", "z"),)),
            Union(Scan("T_R"), Scan("T_R")),
            Difference(
                Scan("T_R"), Select(Scan("T_R"), (EqConst("x", C("k0")),))
            ),
            Join(Scan("T_R"), Rename(Scan("T_R"), (("y", "w"),))),
            Project(
                Select(
                    Join(Scan("T_R"), Rename(Scan("T_R"), (("y", "w"),))),
                    (NeqConst("w", C("v0")),),
                ),
                ("x", "w"),
            ),
        ],
        ids=[
            "project",
            "select-eq",
            "select-multi",
            "rename",
            "union",
            "difference",
            "join",
            "fused-select-project-join",
        ],
    )
    def test_operator_parity(self, source, schema, expr):
        instance = source  # the fixture IS the source
        plan = middleware_plan(expr)
        interp = plan.execute(source)
        columnar = plan.execute(source, executor="columnar")
        assert columnar.attributes == interp.attributes
        assert columnar.rows == interp.rows

    def test_unknown_attribute_raises_like_interpreter(self, source):
        plan = middleware_plan(Project(Scan("T_R"), ("nope",)))
        with pytest.raises(EvaluationError, match="no attribute 'nope'"):
            plan.execute(source, executor="columnar")
        with pytest.raises(EvaluationError, match="no attribute 'nope'"):
            plan.execute(source)

    @pytest.mark.parametrize("rows", [0, 12], ids=["empty", "non-empty"])
    def test_unknown_attr_raises_before_any_access(
        self, schema, rows
    ):
        # Attributes are resolved when the plan is rewritten, so the
        # error comes before the first access, whatever the data.
        instance = Instance(
            {"R": [(f"k{i}", f"v{i}") for i in range(rows)], "S": []}
        )
        source = InMemorySource(schema, instance)
        plan = middleware_plan(
            Select(Scan("T_R"), (EqConst("ghost", C("x")),))
        )
        for executor in ("interpreter", "columnar"):
            with pytest.raises(EvaluationError, match="no attribute 'ghost'"):
                plan.execute(source, executor=executor)
        assert source.total_invocations == 0

    def test_one_sided_selection_forms_no_discarded_pair(
        self, schema, source, monkeypatch
    ):
        # T_R has 3 rows per key, the renamed copy too; the condition on
        # w keeps one row of the copy, so 3 pairs are matched, not 9.
        formed = []

        def counting(left, right, shared):
            pairs = _match_pairs(left, right, shared)
            formed.append(len(pairs[0]))
            return pairs

        monkeypatch.setattr("repro.exec.columnar._match_pairs", counting)
        plan = middleware_plan(
            Project(
                Select(
                    Join(
                        Select(Scan("T_R"), (EqConst("x", C("k1")),)),
                        Rename(Scan("T_R"), (("y", "w"),)),
                    ),
                    (EqConst("w", C("v5")),),
                ),
                ("y", "w"),
            )
        )
        columnar = plan.execute(source, executor="columnar")
        assert columnar.rows == plan.execute(source).rows
        assert len(columnar.rows) == 3
        assert formed == [3]


class TestBoundAccess:
    def bound_plan(self):
        return Plan(
            (
                scan_r(),
                AccessCommand(
                    "OUT",
                    "mt_S",
                    # Unprojected input: the access command itself must
                    # dedup the 12 (x, y) rows to 4 distinct x bindings.
                    Scan("T_R"),
                    ("x",),
                    identity_output_map(("x", "s")),
                ),
            ),
            "OUT",
        )

    def test_bound_access_parity_and_dedup(self, schema, source):
        stats_i, stats_c = ExecStats(), ExecStats()
        interp = self.bound_plan().execute(
            source,
            ExecutionContext(stats=stats_i),
        )
        columnar = self.bound_plan().execute(
            source,
            ExecutionContext(stats=stats_c),
            executor="columnar",
        )
        assert columnar.rows == interp.rows
        ci, cc = stats_i.commands[-1], stats_c.commands[-1]
        assert (ci.rows_in, ci.dispatched, ci.deduped) == (
            cc.rows_in,
            cc.dispatched,
            cc.deduped,
        )
        assert cc.deduped > 0  # the 12 R-rows share 4 distinct keys

    def test_constant_in_binding(self, schema):
        instance = Instance({"R": [], "S": [("fixed", "hit")]})
        source = InMemorySource(schema, instance)
        plan = Plan(
            (
                AccessCommand(
                    "OUT",
                    "mt_S",
                    Singleton(),
                    (C("fixed"),),
                    identity_output_map(("k", "s")),
                ),
            ),
            "OUT",
        )
        interp = plan.execute(source)
        columnar = plan.execute(source, executor="columnar")
        assert columnar.rows == interp.rows == frozenset(
            {(C("fixed"), C("hit"))}
        )

    def test_cache_accounting_parity(self, schema, source):
        cache_i, cache_c = AccessCache(), AccessCache()
        for _ in range(3):
            self.bound_plan().execute(source, ExecutionContext(cache=cache_i))
            self.bound_plan().execute(
                source,
                ExecutionContext(cache=cache_c),
                executor="columnar",
            )
        assert (cache_i.hits, cache_i.misses) == (cache_c.hits, cache_c.misses)


class TestRuntimeContract:
    def test_compiled_plan_is_cached_on_the_plan(self, source):
        plan = Plan((scan_r(),), "T_R")
        first = compile_columnar(plan)
        assert compile_columnar(plan) is first
        assert isinstance(first, ColumnarPlan)

    def test_stats_resident_and_freed_parity(self, schema, source):
        plan = Plan(
            (
                scan_r(),
                MiddlewareCommand("T2", Project(Scan("T_R"), ("x",))),
                MiddlewareCommand("OUT", Scan("T2")),
            ),
            "OUT",
        )
        si, sc = ExecStats(), ExecStats()
        plan.execute(source, ExecutionContext(stats=si))
        plan.execute(source, ExecutionContext(stats=sc), executor="columnar")
        assert si.peak_resident_rows == sc.peak_resident_rows
        assert [c.freed_tables for c in si.commands] == [
            c.freed_tables for c in sc.commands
        ]

    def test_budget_truncation_parity(self, source):
        plan = Plan((scan_r(),), "T_R")
        budget = ResourceBudget(max_result_rows=5)
        ci, cc = ExecutionContext(budget=budget), ExecutionContext(budget=budget)
        interp = plan.execute(source, ci)
        columnar = plan.execute(source, cc, executor="columnar")
        assert columnar.rows == interp.rows
        assert cc.truncated_rows == ci.truncated_rows > 0

    def test_differential_mode_passes_and_returns_answer(self, source):
        plan = Plan((scan_r(),), "T_R")
        reference = plan.execute(source)
        assert (
            plan.execute(source, executor="differential").rows
            == reference.rows
        )

    def test_differential_mismatch_raises(self, source):
        plan = Plan((scan_r(),), "T_R")
        compiled = compile_columnar(plan)

        class Lying:
            """Columnar half that drops a row."""

            def execute(self, *args, **kwargs):
                table = compiled.execute(*args, **kwargs)
                return NamedTable(
                    table.attributes, frozenset(list(table.rows)[1:])
                )

        object.__setattr__(plan, "_columnar_compiled", Lying())
        with pytest.raises(DifferentialMismatch):
            execute_differential(plan, source)

    def test_unknown_executor_rejected(self, source):
        with pytest.raises(ValueError, match="unknown executor"):
            Plan((scan_r(),), "T_R").execute(source, executor="turbo")


class TestAccessOutputEncoding:
    """The batched access-output path (one interning pass per column)."""

    def repeated_position_plan(self):
        # ("x", (0, 1)): both cell positions feed the same output
        # attribute, so only rows where they agree survive -- the
        # interpreter's per-row equality check, vectorized as a mask.
        return Plan(
            (
                AccessCommand(
                    "OUT",
                    "mt_R",
                    Singleton(),
                    (),
                    (("x", (0, 1)),),
                ),
            ),
            "OUT",
        )

    def test_repeated_position_equality_filter_parity(self, schema):
        instance = Instance(
            {
                "R": [("same", "same"), ("a", "b"), ("c", "c"), ("d", "e")],
                "S": [],
            }
        )
        plan = self.repeated_position_plan()
        interp, columnar = run_both(
            plan, lambda: InMemorySource(schema, instance)
        )
        assert interp.rows == frozenset(
            {(C("same"),), (C("c"),)}
        )

    def test_repeated_position_all_filtered(self, schema):
        instance = Instance({"R": [("a", "b"), ("c", "d")], "S": []})
        interp, columnar = run_both(
            self.repeated_position_plan(),
            lambda: InMemorySource(schema, instance),
        )
        assert interp.rows == frozenset()

    def test_boolean_access_empty_output_map(self, schema):
        # No output columns: the access answers a yes/no question with
        # a zero-attribute table (one empty row iff anything matched).
        plan = Plan(
            (AccessCommand("OUT", "mt_R", Singleton(), (), ()),),
            "OUT",
        )
        nonempty = Instance({"R": [("a", "b")], "S": []})
        interp, columnar = run_both(
            plan, lambda: InMemorySource(schema, nonempty)
        )
        assert interp.rows == frozenset({()})
        empty = Instance({"R": [], "S": []})
        interp, columnar = run_both(
            plan, lambda: InMemorySource(schema, empty)
        )
        assert interp.rows == frozenset()

    def test_access_output_dedups_projected_rows(self, schema):
        # Projecting to the key column collapses the 12 rows to the 4
        # distinct keys; the columnar path must dedup just as the
        # interpreter's set semantics do.
        instance = Instance(
            {
                "R": [(f"k{i % 4}", f"v{i}") for i in range(12)],
                "S": [],
            }
        )
        plan = Plan(
            (
                AccessCommand(
                    "OUT", "mt_R", Singleton(), (), (("x", (0,)),)
                ),
            ),
            "OUT",
        )
        stats = ExecStats()
        columnar = plan.execute(
            InMemorySource(schema, instance),
            ExecutionContext(stats=stats),
            executor="columnar",
        )
        interp = plan.execute(InMemorySource(schema, instance))
        assert columnar.rows == interp.rows
        assert len(columnar.rows) == 4
        assert stats.commands[-1].rows_out == 4
