"""Resource budgets: row ceilings, marked truncation, Plan.execute wiring."""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import RowBudgetExceeded
from repro.exec import ExecStats, ExecutionContext, ResourceBudget
from repro.exec.budget import ERROR
from repro.logic.terms import Constant
from repro.plans.commands import AccessCommand, identity_output_map
from repro.plans.expressions import NamedTable, Singleton
from repro.plans.plan import Plan


@pytest.fixture
def schema():
    from repro.schema.core import SchemaBuilder

    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .build()
    )


@pytest.fixture
def source(schema):
    rows = [(f"k{i}", f"v{i}") for i in range(6)]
    return InMemorySource(schema, Instance({"R": rows}))


def scan_plan():
    return Plan(
        (
            AccessCommand(
                "OUT",
                "mt_R",
                Singleton(),
                (),
                identity_output_map(("k", "v")),
            ),
        ),
        "OUT",
    )


class TestBudgetUnit:
    def test_resident_overflow_is_typed(self):
        budget = ResourceBudget(max_resident_rows=5)
        budget.check_resident(5)  # at the ceiling is fine
        with pytest.raises(RowBudgetExceeded) as info:
            budget.check_resident(6)
        assert info.value.kind == "resident"
        assert info.value.rows == 6
        assert info.value.budget == 5

    def test_truncation_is_a_deterministic_prefix(self):
        table = NamedTable.from_rows(
            ("x",), [(Constant(c),) for c in "fbdace"]
        )
        budget = ResourceBudget(max_result_rows=3)
        kept = budget.admit_result(table)
        assert kept.rows == frozenset(sorted(table.rows)[:3])
        assert budget.truncated_rows == 3
        assert budget.truncated
        # Re-admitting the same table truncates identically.
        assert budget.fresh().admit_result(table).rows == kept.rows

    def test_error_policy_raises_instead(self):
        table = NamedTable.from_rows(
            ("x",), [(Constant("a"),), (Constant("b"),)]
        )
        budget = ResourceBudget(max_result_rows=1, on_result_overflow=ERROR)
        with pytest.raises(RowBudgetExceeded) as info:
            budget.admit_result(table)
        assert info.value.kind == "result"

    def test_within_budget_is_untouched(self):
        table = NamedTable.from_rows(("x",), [(Constant("a"),)])
        budget = ResourceBudget(max_result_rows=5)
        assert budget.admit_result(table) is table
        assert not budget.truncated

    def test_fresh_resets_outcome_not_ceilings(self):
        budget = ResourceBudget(max_result_rows=1, truncated_rows=9)
        clean = budget.fresh()
        assert clean.truncated_rows == 0
        assert clean.max_result_rows == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBudget(max_result_rows=-1)
        with pytest.raises(ValueError):
            ResourceBudget(on_result_overflow="explode")
        shipped = ExecutionContext(budget=ResourceBudget()).to_payload()
        assert "max_result_rows" in shipped["budget"]


class TestPlanExecuteWiring:
    def test_result_budget_truncates_plan_output(self, source):
        budget = ResourceBudget(max_result_rows=2)
        out = scan_plan().execute(source, ExecutionContext(budget=budget))
        assert len(out.rows) == 2
        assert budget.truncated_rows == 4
        # The kept rows are the deterministic sorted prefix.
        full = scan_plan().execute(source)
        assert out.rows == frozenset(sorted(full.rows)[:2])

    def test_resident_budget_aborts_plan(self, source):
        with pytest.raises(RowBudgetExceeded):
            scan_plan().execute(
                source,
                ExecutionContext(budget=ResourceBudget(max_resident_rows=2)),
            )

    def test_budget_and_stats_compose(self, source):
        stats = ExecStats()
        budget = ResourceBudget(max_result_rows=100)
        out = scan_plan().execute(
            source,
            ExecutionContext(stats=stats, budget=budget),
        )
        assert len(out.rows) == 6
        assert stats.peak_resident_rows == 6
        assert not budget.truncated

    def test_no_budget_is_the_fast_path(self, source):
        assert len(scan_plan().execute(source).rows) == 6


class TestColumnarBudgetParity:
    """Truncation must be backend-independent: same sorted prefix, same
    ``truncated_rows`` -- the columnar executor routes its decoded
    output through the identical ``admit_result`` path."""

    def test_same_prefix_and_truncated_count(self, source):
        interp_budget = ResourceBudget(max_result_rows=2)
        columnar_budget = ResourceBudget(max_result_rows=2)
        interp = scan_plan().execute(
            source,
            ExecutionContext(budget=interp_budget),
        )
        columnar = scan_plan().execute(
            source,
            ExecutionContext(budget=columnar_budget),
            executor="columnar",
        )
        assert columnar.rows == interp.rows
        assert columnar_budget.truncated_rows == interp_budget.truncated_rows == 4
        full = scan_plan().execute(source)
        assert columnar.rows == frozenset(sorted(full.rows)[:2])

    def test_differential_checks_truncation_too(self, source):
        budget = ResourceBudget(max_result_rows=2)
        out = scan_plan().execute(
            source,
            ExecutionContext(budget=budget),
            executor="differential",
        )
        assert len(out.rows) == 2
        assert budget.truncated_rows == 4

    def test_resident_budget_aborts_columnar_too(self, source):
        with pytest.raises(RowBudgetExceeded):
            scan_plan().execute(
                source,
                ExecutionContext(budget=ResourceBudget(max_resident_rows=2)),
                executor="columnar",
            )
