"""Every search runs the chase policy its schema derives.

The policy is a function of the constraint class
(:meth:`repro.schema.core.Schema.chase_policy`) and no option sets
another, so the service's searches, too, run guarded-bag blocking on a
guarded schema whose chase does not terminate.  When a search without an
explicit policy chased under the default one, this schema cost two
saturations cut at the 100 000-firing budget (about 12 s) for the same
one-access plan.
"""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.queries import parse_cq
from repro.planner.search import SearchOptions, find_best_plan
from repro.schema.core import SchemaBuilder
from repro.service import QueryService
from repro.service import service as service_module

pytestmark = pytest.mark.timeout(120)

QUERY = parse_cq("Q(x) :- S(x), R(x, y)")
BUDGETS = [2, 3, 4]


def diverging_schema():
    """Guarded and not weakly acyclic: ``R(x, y) -> R(y, z)`` never
    reaches a fixpoint."""
    return (
        SchemaBuilder("diverging")
        .relation("S", 1)
        .relation("R", 2)
        .access("ms", "S", inputs=[])
        .access("mr", "R", inputs=[0])
        .tgd("S(x) -> R(x, y)")
        .tgd("R(x, y) -> R(y, z)")
        .build()
    )


def assert_blocked_search(result):
    # S(x) entails R(x, y): scanning S answers the query.
    assert result.best_cost == 1.0
    assert result.best_plan.methods_used() == ("ms",)
    assert result.stats.chase.triggers_fired <= 10
    # Blocked saturations are incomplete: no certificate either way.
    assert not result.exhausted


@pytest.mark.parametrize("max_accesses", BUDGETS)
def test_find_best_plan_blocks(max_accesses):
    assert_blocked_search(
        find_best_plan(
            diverging_schema(),
            QUERY,
            SearchOptions(max_accesses=max_accesses),
        )
    )


@pytest.mark.parametrize("max_accesses", BUDGETS)
def test_the_service_plans_under_blocking(monkeypatch, max_accesses):
    searches = []
    search = service_module.find_plan_avoiding

    def recording(*args):
        searches.append(search(*args))
        return searches[-1]

    monkeypatch.setattr(service_module, "find_plan_avoiding", recording)
    schema = diverging_schema()
    instance = Instance({"S": [("a",)], "R": [("a", "b"), ("b", "a")]})
    with QueryService(InMemorySource(schema, instance), workers=1) as service:
        response = service.serve_query(
            QUERY,
            search_options=SearchOptions(max_accesses=max_accesses),
            deadline=0.5,
        )
    assert response.complete, response.describe()
    assert set(response.table.rows) == instance.evaluate(QUERY)
    (result,) = searches
    assert_blocked_search(result)
