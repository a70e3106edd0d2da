"""The caller's cost feedback loop.

Two contracts:

* a served response's observed row flow folds into the caller's
  :class:`~repro.cost.calibration.CalibrationStore` -- the service
  runs the plan it is given and keeps no store of its own;
* a calibration bump moves the cost model's identity and therefore the
  plan-cache key -- the cached best plan is invalidated and Algorithm 1
  re-runs (regression for the cache-soundness requirement).

No request is refused on a static size bound: an error-mode row ceiling
is decided by the run (``test_request_path``).
"""

import pytest

from repro.cost.calibration import CalibrationStore
from repro.cost.functions import CardinalityCostFunction, SimpleCostFunction
from repro.data.source import InMemorySource
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
