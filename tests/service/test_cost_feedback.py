"""The caller's cost feedback: the cost model is part of the plan-cache key.

A cached best plan is only best relative to the cost model that picked
it.  A caller that recalibrates its method weights -- here from the row
flow a served response reports per access command -- moves the cost
model's identity and therefore the plan-cache key: the cached plan is
not served and Algorithm 1 re-runs.  A search that may stop before the
optimum never touches the cache at all.
"""

from collections import Counter

from repro.cost.functions import SimpleCostFunction
from repro.data.source import InMemorySource
from repro.planner.plan_cache import PlanCache
from repro.planner.search import SearchOptions
from repro.scenarios import example1, example5
from repro.service import QueryService


def recalibrated(cost, stats):
    """``cost`` with each method's weight raised by the rows its
    accesses fetched in one served run."""
    fetched = Counter()
    for command in stats.commands:
        if command.method is not None:
            fetched[command.method] += command.rows_fetched
    return SimpleCostFunction(
        {
            name: weight + fetched[name]
            for name, weight in cost.per_method.items()
        },
        default=cost.default,
    )


class TestCacheInvalidation:
    def test_calibration_bump_invalidates_the_cached_plan(self):
        scenario = example1()
        source = InMemorySource(scenario.schema, scenario.instance(0))
        declared = SimpleCostFunction.from_schema(scenario.schema)

        def serve(service, cost):
            response = service.submit_query(
                scenario.query,
                search_options=SearchOptions(max_accesses=5, cost=cost),
            ).result(10)
            assert response.ok
            return response

        with QueryService(source, plan_cache=PlanCache()) as service:
            response = serve(service, declared)
            assert service.health().planned == 1
            serve(service, declared)
            # An unchanged cost model reuses the cached plan.
            assert service.health().planned == 1
            bumped = recalibrated(declared, response.stats)
            assert bumped.identity() != declared.identity()
            serve(service, bumped)
            # The new weights land on a new key and search again.
            assert service.health().planned == 2
            serve(service, bumped)
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
