"""Tests for the budget decorator, alone and under the access cache."""

import pytest

from repro.data.decorators import (
    AccessBudgetExceeded,
    BudgetedSource,
    budgeted,
)
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec.budget import ResourceBudget
from repro.exec.cache import AccessCache
from repro.planner.search import find_best_plan
from repro.scenarios import example1
from repro.schema.core import SchemaBuilder


@pytest.fixture
def backend():
    schema = (
        SchemaBuilder("s")
        .relation("R", 2)
        .access("mt_key", "R", inputs=[0], cost=3.0)
        .free_access("R")
        .build()
    )
    instance = Instance({"R": [("a", "1"), ("b", "2")]})
    return InMemorySource(schema, instance)


class TestBudgetedSource:
    def test_invocation_budget_enforced(self, backend):
        source = BudgetedSource(backend, max_invocations=2)
        source.access("mt_R")
        source.access("mt_R")
        with pytest.raises(AccessBudgetExceeded):
            source.access("mt_R")

    def test_cost_budget_enforced(self, backend):
        source = BudgetedSource(backend, max_cost=4.0)
        source.access("mt_key", ("a",))  # cost 3
        with pytest.raises(AccessBudgetExceeded):
            source.access("mt_key", ("b",))  # would exceed 4
        assert source.spent == pytest.approx(3.0)

    def test_plan_within_budget_succeeds(self):
        scenario = example1(professors=3, directory_extra=0)
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        backend = InMemorySource(scenario.schema, scenario.instance(0))
        # 1 scan + 3 probes fits in 10 invocations.
        source = BudgetedSource(backend, max_invocations=10)
        plan.run(source)

    def test_plan_over_budget_aborts(self):
        scenario = example1(professors=50, directory_extra=100)
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        backend = InMemorySource(scenario.schema, scenario.instance(0))
        source = BudgetedSource(backend, max_invocations=3)
        with pytest.raises(AccessBudgetExceeded):
            plan.run(source)


class TestComposition:
    def test_budget_behind_cache(self, backend):
        """A budget under the access cache: repeats don't consume budget."""
        budget = BudgetedSource(backend, max_invocations=1)
        fetch = AccessCache().bind(budget, "mt_key")
        for _ in range(5):
            fetch(("a",))
        assert budget.invocations == 1
        assert backend.total_invocations == 1


class TestBudgetGuard:
    """``budgeted``: the one place a ResourceBudget wraps a source."""

    def test_no_access_ceiling_means_no_wrapper(self, backend):
        assert budgeted(backend, None) is backend
        assert budgeted(backend, ResourceBudget(max_result_rows=3)) is backend

    def test_either_ceiling_wraps(self, backend):
        by_count = budgeted(backend, ResourceBudget(max_accesses=2))
        assert isinstance(by_count, BudgetedSource)
        assert (by_count.max_invocations, by_count.max_cost) == (2, None)
        by_cost = budgeted(backend, ResourceBudget(max_cost=4.0))
        assert (by_cost.max_invocations, by_cost.max_cost) == (None, 4.0)
        assert by_cost.inner is backend
