"""Resource budgets: the result-row ceiling, marked truncation,
Plan.execute wiring."""

import dataclasses

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
    def test_a_budget_is_two_frozen_fields(self):
        assert [f.name for f in dataclasses.fields(ResourceBudget)] == [
            "max_result_rows", "on_result_overflow",
        ]
        with pytest.raises(dataclasses.FrozenInstanceError):
            ResourceBudget().max_result_rows = 1

    def test_truncation_is_a_deterministic_prefix(self):
        table = NamedTable.from_rows(
            ("x",), [(Constant(c),) for c in "fbdace"]
        )
        budget = ResourceBudget(max_result_rows=3)
        kept, dropped = budget.admit_result(table)
        assert kept.rows == frozenset(sorted(table.rows)[:3])
        assert dropped == 3
        # Re-admitting the same table truncates identically.
        assert budget.admit_result(table) == (kept, 3)

    def test_error_policy_raises_instead(self):
        table = NamedTable.from_rows(
            ("x",), [(Constant("a"),), (Constant("b"),)]
        )
        budget = ResourceBudget(max_result_rows=1, on_result_overflow=ERROR)
        with pytest.raises(RowBudgetExceeded) as info:
            budget.admit_result(table)
        assert (info.value.rows, info.value.budget) == (2, 1)

    def test_within_budget_is_untouched(self):
        table = NamedTable.from_rows(("x",), [(Constant("a"),)])
        budget = ResourceBudget(max_result_rows=5)
        kept, dropped = budget.admit_result(table)
        assert kept is table
        assert dropped == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceBudget(max_result_rows=-1)
        with pytest.raises(ValueError):
            ResourceBudget(on_result_overflow="explode")
        shipped = ExecutionContext(budget=ResourceBudget()).to_payload()
        assert set(shipped["budget"]) == {
            "max_result_rows", "on_result_overflow",
        }


class TestPlanExecuteWiring:
    def test_result_budget_truncates_plan_output(self, source):
        context = ExecutionContext(budget=ResourceBudget(max_result_rows=2))
        out = scan_plan().execute(source, context)
        assert len(out.rows) == 2
        assert context.truncated_rows == 4
        # The kept rows are the deterministic sorted prefix.
        full = scan_plan().execute(source)
        assert out.rows == frozenset(sorted(full.rows)[:2])

    def test_one_budget_under_two_contexts_records_each_run(self, source):
        budget = ResourceBudget(max_result_rows=5)
        first = ExecutionContext(budget=budget)
        second = ExecutionContext(budget=budget)
        scan_plan().execute(source, first)
        scan_plan().execute(source, second)
        assert first.truncated_rows == second.truncated_rows == 1
        assert budget == ResourceBudget(max_result_rows=5)

    def test_budget_and_stats_compose(self, source):
        stats = ExecStats()
        context = ExecutionContext(
            stats=stats, budget=ResourceBudget(max_result_rows=100)
        )
        out = scan_plan().execute(source, context)
        assert len(out.rows) == 6
        assert stats.peak_resident_rows == 6
        assert context.truncated_rows == 0

    def test_no_budget_is_the_fast_path(self, source):
        assert len(scan_plan().execute(source).rows) == 6


class TestColumnarBudgetParity:
    """Truncation must be backend-independent: same sorted prefix, same
    ``truncated_rows`` -- the columnar executor routes its decoded
    output through the identical ``admit_result`` path."""

    def test_same_prefix_and_truncated_count(self, source):
        budget = ResourceBudget(max_result_rows=2)
        interp_context = ExecutionContext(budget=budget)
        columnar_context = ExecutionContext(budget=budget)
        interp = scan_plan().execute(source, interp_context)
        columnar = scan_plan().execute(
            source, columnar_context, executor="columnar"
        )
        assert columnar.rows == interp.rows
        assert (
            columnar_context.truncated_rows
            == interp_context.truncated_rows
            == 4
        )
        full = scan_plan().execute(source)
        assert columnar.rows == frozenset(sorted(full.rows)[:2])

    def test_differential_checks_truncation_too(self, source):
        context = ExecutionContext(budget=ResourceBudget(max_result_rows=2))
        out = scan_plan().execute(source, context, executor="differential")
        assert len(out.rows) == 2
        assert context.truncated_rows == 4
