"""A bound query request is answered by a plan for the bound query.

The service plans a query once and serves its bindings by rewriting the
cached plan's constants.  That is sound only when no constraint
mentions a rebound constant and no binding merges two constants of the
query (``docs/theory.md``, "Rebinding a plan"); otherwise the bound
query is planned itself.
"""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.queries import parse_cq
from repro.planner import PlanCache
from repro.planner.search import SearchOptions
from repro.scenarios import webservices
from repro.schema.core import SchemaBuilder
from repro.service import ProcessWorkerPool, QueryService

TIERS = ["in-process", "process"]


def emp_special():
    """``Emp(x,'smith') -> Special(x)``: the rule names the constant."""
    schema = (
        SchemaBuilder("emp")
        .relation("Emp", 2)
        .relation("Special", 1)
        .constant("smith")
        .access("memp", "Emp", inputs=[1])
        .access("mspecial", "Special", inputs=[0])
        .tgd("Emp(x,'smith') -> Special(x)")
        .build()
    )
    instance = Instance(
        {"Emp": [("b", "smith"), ("a", "jones")], "Special": [("b",)]}
    )
    return InMemorySource(schema, instance)


def service_on(source, tier):
    pool = (
        ProcessWorkerPool(source, workers=1, start_method="fork")
        if tier == "process"
        else None
    )
    return QueryService(
        source, workers=1, worker_pool=pool, plan_cache=PlanCache()
    )


def rows(response):
    assert response.error is None, response.describe()
    assert response.complete
    return sorted(tuple(term.value for term in row) for row in response.table.rows)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("tier", TIERS)
def test_a_binding_a_constraint_names_is_planned_for(tier):
    source = emp_special()
    query = parse_cq("Q(x) :- Emp(x,'smith'), Special(x)")
    bound = parse_cq("Q(x) :- Emp(x,'jones'), Special(x)")
    with service_on(source, tier) as service:
        assert rows(service.serve_query(query, timeout=60)) == [("b",)]
        ticket = service.submit_query(query, bindings={"smith": "jones"})
        answer = rows(ticket.result(60))
        health = service.health()
    # The certain answer of the bound query: jones's employee a is not
    # known to be special.  The rewritten one-access plan said [('a',)].
    assert answer == sorted(source.instance.evaluate(bound)) == []
    assert [c.method for c in ticket.request.plan.access_commands] == [
        "memp", "mspecial",
    ]
    assert health.planned == 2


@pytest.mark.timeout(120)
@pytest.mark.parametrize("tier", TIERS)
def test_a_binding_that_merges_two_query_constants_is_planned_for(tier):
    schema = (
        SchemaBuilder("merge")
        .relation("R", 2)
        .constant("a")
        .constant("b")
        .access("mr", "R", inputs=[1])
        .build()
    )
    source = InMemorySource(
        schema, Instance({"R": [("x1", "a"), ("x1", "b"), ("x2", "b")]})
    )
    query = parse_cq("Q(x) :- R(x,'a'), R(x,'b')")
    with service_on(source, tier) as service:
        assert rows(service.serve_query(query, timeout=60)) == [("x1",)]
        merged = service.serve_query(query, bindings={"a": "b"}, timeout=60)
        health = service.health()
    assert rows(merged) == [("x1",), ("x2",)]
    assert health.planned == 2


def test_many_bindings_of_one_template_plan_once():
    scenario = webservices(6, 3, 1)
    source = InMemorySource(scenario.schema, scenario.instance(0))
    query = parse_cq("Qvenue(t, a) :- Articles(d, t, 'venue0'), AuthorOf(d, a)")
    options = SearchOptions(max_accesses=8)
    with QueryService(source, workers=1, plan_cache=PlanCache()) as service:
        for venue in range(6):
            response = service.serve_query(
                query,
                search_options=options,
                bindings={"venue0": f"venue{venue}"},
                timeout=60,
            )
            expected = source.instance.evaluate(
                parse_cq(
                    "Qvenue(t, a) :- "
                    f"Articles(d, t, 'venue{venue}'), AuthorOf(d, a)"
                )
            )
            assert response.complete
            assert response.table.rows == frozenset(expected)
        assert service.health().planned == 1
