"""The caller's cost feedback loop and admission-time size checks.

Three contracts:

* a served response's observed row flow folds into the caller's
  :class:`~repro.cost.calibration.CalibrationStore` -- the service
  runs the plan it is given and keeps no store of its own;
* a calibration bump moves the cost model's identity and therefore the
  plan-cache key -- the cached best plan is invalidated and Algorithm 1
  re-runs (regression for the cache-soundness requirement);
* plans whose static result-size bound exceeds a hard (error-mode)
  result ceiling are rejected at admission with a typed
  :class:`~repro.errors.PlanInadmissible` -- and the check stays
  permissive for truncate-mode budgets and unknown (infinite) bounds.
"""

import math

import pytest

from repro.cost.bounds import SizeBounds
from repro.cost.calibration import CalibrationStore
from repro.cost.functions import CardinalityCostFunction, SimpleCostFunction
from repro.data.source import InMemorySource
from repro.errors import PlanInadmissible
from repro.exec.budget import ERROR, TRUNCATE, ResourceBudget
from repro.planner.plan_cache import PlanCache
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example5
from repro.service import QueryService


@pytest.fixture
def scenario():
    return example1()


@pytest.fixture
def planned(scenario):
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=5)
    )
    assert result.found
    return result.best_plan


@pytest.fixture
def source(scenario):
    return InMemorySource(scenario.schema, scenario.instance(0))


def relations(scenario):
    """Method name -> relation, what the caller folds observations under."""
    return {m.name: m.relation for m in scenario.schema.methods}


def served_into_a_store(scenario, source, plan):
    """Serve ``plan`` once and fold its stats into a fresh store."""
    store = CalibrationStore()
    with QueryService(source) as service:
        response = service.serve(plan, timeout=10)
    assert response.ok
    assert store.observe_stats(response.stats, relations(scenario)) > 0
    return store


class TestFeedbackLoop:
    def test_served_requests_feed_the_calibration_store(
        self, scenario, source, planned
    ):
        store = served_into_a_store(scenario, source, planned)
        assert store.version == 1
        for method in planned.methods_used():
            assert store.method_calibration(method) is not None

    def test_observed_relation_names_come_from_the_schema(
        self, scenario, source, planned
    ):
        store = served_into_a_store(scenario, source, planned)
        method = planned.methods_used()[0]
        expected = scenario.schema.method(method).relation
        assert store.method_calibration(method).relation == expected


class TestCacheInvalidation:
    def test_calibration_bump_invalidates_the_cached_plan(
        self, scenario, source
    ):
        store = CalibrationStore()
        options = SearchOptions(
            max_accesses=5,
            cost=CardinalityCostFunction(
                relation_cardinality={}, calibration=store
            ),
        )
        # Only the cost function holds the store; the caller feeds it
        # what a served request observed.
        with QueryService(source, plan_cache=PlanCache()) as service:
            response = service.submit_query(
                scenario.query, search_options=options
            ).result(10)
            assert response.ok
            assert service.health().planned == 1
            service.submit_query(
                scenario.query, search_options=options
            ).result(10)
            # Unchanged calibration: the cached plan is reused.
            assert service.health().planned == 1
            assert store.observe_stats(response.stats, relations(scenario))
            service.submit_query(
                scenario.query, search_options=options
            ).result(10)
            # The bump moved the cost identity, hence the cache key.
            assert service.health().planned == 2

    def test_a_first_plan_request_never_touches_the_cache(self):
        """The key covers no search option, so the cache may hold optima
        only: ``stop_on_first`` under the method order stops at a
        three-access plan of cost 9 where the optimum costs 6."""
        scenario = example5(sources=3, source_costs=[5.0, 1.0, 3.0])
        source = InMemorySource(scenario.schema, scenario.instance(0))
        first = SearchOptions(stop_on_first=True, candidate_order="method")
        cache = PlanCache()
        cost = SimpleCostFunction.from_schema(scenario.schema)
        with QueryService(source, plan_cache=cache) as service:
            any_plan = service.plan_for(scenario.query, search_options=first)
            assert cost.plan_cost(any_plan) == 9.0
            assert len(cache) == 0
            best = service.plan_for(scenario.query)
            assert cost.plan_cost(best) == 6.0
            assert len(best.methods_used()) == 2
            # Nor is the optimum, now cached, served to a first-plan
            # request: it searches again.
            again = service.plan_for(scenario.query, search_options=first)
            assert cost.plan_cost(again) == 9.0
            assert service.health().planned == 3
            assert service.plan_for(scenario.query) is best


class TestAdmissionBounds:
    def bounds(self, scenario):
        return SizeBounds.from_instance(
            scenario.schema, scenario.instance(0)
        )

    def doomed_budget(self, bound):
        assert not math.isinf(bound) and bound >= 1
        return ResourceBudget(
            max_result_rows=int(bound) - 1 or 1,
            on_result_overflow=ERROR,
        )

    def test_doomed_error_mode_plan_rejected_typed(
        self, scenario, source, planned
    ):
        size_bounds = self.bounds(scenario)
        bound = size_bounds.result_bound(planned)
        budget = ResourceBudget(
            max_result_rows=max(0, int(bound) - 1),
            on_result_overflow=ERROR,
        )
        with QueryService(source, size_bounds=size_bounds) as service:
            with pytest.raises(PlanInadmissible) as info:
                service.submit(planned, budget=budget)
            assert info.value.kind == "result"
            assert info.value.bound == pytest.approx(bound)
            assert info.value.ceiling == budget.max_result_rows
            health = service.health()
        assert health.rejected_inadmissible == 1
        assert health.as_dict()["rejected_inadmissible"] == 1

    def test_truncate_mode_is_always_admitted(
        self, scenario, source, planned
    ):
        size_bounds = self.bounds(scenario)
        bound = size_bounds.result_bound(planned)
        budget = ResourceBudget(
            max_result_rows=max(0, int(bound) - 1),
            on_result_overflow=TRUNCATE,
        )
        with QueryService(source, size_bounds=size_bounds) as service:
            response = service.serve(planned, budget=budget, timeout=10)
        assert response.error is None

    def test_generous_ceiling_is_admitted(self, scenario, source, planned):
        size_bounds = self.bounds(scenario)
        bound = size_bounds.result_bound(planned)
        budget = ResourceBudget(
            max_result_rows=int(bound) + 10, on_result_overflow=ERROR
        )
        with QueryService(source, size_bounds=size_bounds) as service:
            response = service.serve(planned, budget=budget, timeout=10)
        # Admitted finite-bound plans provably never trip the ceiling.
        assert response.ok

    def test_unknown_bound_stays_permissive(self, scenario, source, planned):
        # No relation sizes declared: every bound is inf, nothing can be
        # proven doomed, everything is admitted.
        size_bounds = SizeBounds(scenario.schema, {})
        budget = ResourceBudget(
            max_result_rows=0, on_result_overflow=ERROR
        )
        with QueryService(source, size_bounds=size_bounds) as service:
            ticket = service.submit(planned, budget=budget)
            ticket.result(10)

    def test_without_size_bounds_no_admission_check(
        self, scenario, source, planned
    ):
        budget = ResourceBudget(
            max_result_rows=0, on_result_overflow=ERROR
        )
        with QueryService(source) as service:
            service.submit(planned, budget=budget).result(10)
