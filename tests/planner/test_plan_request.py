"""The planning front, called as a function: no service, no thread.

:func:`repro.planner.front.plan_request` turns a request's query into a
plan or a verdict.  These tests pin what it does with the plan cache,
the dead set and a request's bindings, and check that the plan it
returns, run with the bindings it returns, answers the bound query.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec.batch import run_request
from repro.exec.context import ExecutionContext
from repro.logic.atoms import Atom
from repro.logic.queries import ConjunctiveQuery, parse_cq
from repro.logic.terms import Constant
from repro.planner.front import NoPlan, Planned, accessible_answer, plan_request
from repro.planner.plan_cache import PlanCache
from repro.planner.search import SearchOptions
from repro.scenarios import example1, webservices
from repro.schema.core import Schema, SchemaBuilder

QUERY = parse_cq("q(a, c) :- R(a, 'b0') & S('b0', c)")


def outage_schema(*r_methods):
    """R reachable by the named free methods (the first the cheapest)."""
    builder = SchemaBuilder("outage").relation("R", 2).relation("S", 2)
    for cost, method in enumerate(r_methods, start=1):
        builder.access(method, "R", inputs=[], cost=float(cost))
    return builder.access("mt_S", "S", inputs=[], cost=1.0).build()


def small_instance():
    return Instance(
        {
            "R": [(f"a{i}", f"b{i % 3}") for i in range(9)],
            "S": [(f"b{i % 3}", f"c{i}") for i in range(9)],
        }
    )


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
    return schema, instance


def merge():
    """Two constants of the query, one input position."""
    schema = (
        SchemaBuilder("merge")
        .relation("R", 2)
        .constant("a")
        .constant("b")
        .access("mr", "R", inputs=[1])
        .build()
    )
    instance = Instance({"R": [("x1", "a"), ("x1", "b"), ("x2", "b")]})
    return schema, instance


def bound(query, bindings):
    """``query`` with ``bindings`` substituted, as the test states it."""
    mapping = {Constant(k): Constant(v) for k, v in bindings.items()}
    return ConjunctiveQuery(
        query.head,
        tuple(
            Atom(atom.relation, tuple(mapping.get(t, t) for t in atom.terms))
            for atom in query.atoms
        ),
        name=query.name,
    )


def answer(schema, instance, planned):
    source = InMemorySource(schema, instance)
    table = run_request(
        source, planned.plan, planned.bindings, ExecutionContext()
    )
    return table.rows


# ------------------------------------------------------------ the cache
class TestThePlanCache:
    def test_a_miss_searches_and_stores_a_hit_does_not_search(self):
        schema, cache = outage_schema("mt_R"), PlanCache()
        first = plan_request(schema, QUERY, cache=cache)
        second = plan_request(schema, QUERY, cache=cache)
        assert isinstance(first, Planned) and first.searched
        assert isinstance(second, Planned) and not second.searched
        assert second.plan is first.plan
        counters = cache.counters()
        assert (counters["misses"], counters["hits"]) == (1, 1)
        assert counters["stores"] == 1

    def test_no_cache_always_searches(self):
        schema = outage_schema("mt_R")
        assert plan_request(schema, QUERY).searched
        assert plan_request(schema, QUERY).searched

    def test_stop_on_first_neither_reads_nor_writes_the_cache(self):
        schema, cache = outage_schema("mt_R"), PlanCache()
        plan_request(schema, QUERY, cache=cache)
        before = cache.counters()
        first = SearchOptions(stop_on_first=True)
        for _ in range(2):
            outcome = plan_request(schema, QUERY, options=first, cache=cache)
            assert outcome.searched
        assert cache.counters() == before

    def test_a_dead_set_keys_its_own_entry(self):
        schema, cache = outage_schema("primary_R", "backup_R"), PlanCache()
        healthy = plan_request(schema, QUERY, cache=cache)
        degraded = plan_request(
            schema, QUERY, dead=("primary_R",), cache=cache
        )
        assert healthy.searched and degraded.searched
        assert "primary_R" in healthy.plan.methods_used()
        assert "primary_R" not in degraded.plan.methods_used()
        assert cache.counters()["entries"] == 2
        again = plan_request(schema, QUERY, dead=("primary_R",), cache=cache)
        assert not again.searched and again.plan is degraded.plan
        assert plan_request(schema, QUERY, cache=cache).plan is healthy.plan

    @pytest.mark.parametrize("cached", [False, True])
    def test_the_surviving_schema_is_built_once(self, monkeypatch, cached):
        schema, cache = outage_schema("primary_R", "backup_R"), PlanCache()
        if cached:
            plan_request(schema, QUERY, dead=("primary_R",), cache=cache)
        builds = []
        without_methods = Schema.without_methods

        def counting(self, names):
            builds.append(tuple(names))
            return without_methods(self, names)

        monkeypatch.setattr(Schema, "without_methods", counting)
        outcome = plan_request(schema, QUERY, dead=("primary_R",), cache=cache)
        assert outcome.searched is not cached
        assert builds == [("primary_R",)]


# ------------------------------------------------------------- no plan
class TestNoPlan:
    def test_no_plan_carries_the_dead_set_and_the_bound_query(self):
        schema = outage_schema("mt_R")
        outcome = plan_request(
            schema, QUERY, bindings={"b0": "b1"}, dead=["mt_R"],
            cache=PlanCache(),
        )
        assert isinstance(outcome, NoPlan) and outcome.searched
        assert outcome.dead == ("mt_R",)
        assert outcome.query == bound(QUERY, {"b0": "b1"})
        assert "mt_R" not in {m.name for m in outcome.schema.methods}
        table = accessible_answer(
            outcome.schema, small_instance(), outcome.query
        )
        # Nothing of R is reachable: the sound answer is empty.
        assert table.rows == frozenset()
        assert table.rows <= small_instance().evaluate(outcome.query)

    def test_no_method_dead_and_no_plan_within_the_budget(self):
        outcome = plan_request(
            outage_schema("mt_R"), QUERY,
            options=SearchOptions(max_accesses=0),
        )
        assert isinstance(outcome, NoPlan)
        assert outcome.dead == () and outcome.query == QUERY


# ------------------------------------------------------------ rebinding
class TestRebinding:
    """``tests/service/test_rebinding.py``'s cases, at function level."""

    def test_a_binding_a_constraint_names_plans_the_bound_query(self):
        schema, instance = emp_special()
        query = parse_cq("Q(x) :- Emp(x,'smith'), Special(x)")
        template = plan_request(schema, query)
        assert [c.method for c in template.plan.access_commands] == ["memp"]
        outcome = plan_request(schema, query, bindings={"smith": "jones"})
        assert isinstance(outcome, Planned) and outcome.searched
        assert outcome.bindings is None
        assert [c.method for c in outcome.plan.access_commands] == [
            "memp", "mspecial",
        ]
        assert answer(schema, instance, outcome) == frozenset()

    def test_a_binding_that_merges_two_query_constants_is_planned_for(self):
        schema, instance = merge()
        query = parse_cq("Q(x) :- R(x,'a'), R(x,'b')")
        outcome = plan_request(schema, query, bindings={"a": "b"})
        assert isinstance(outcome, Planned) and outcome.bindings is None
        expected = instance.evaluate(bound(query, {"a": "b"}))
        assert answer(schema, instance, outcome) == frozenset(expected)
        assert len(expected) == 2

    def test_a_sound_rewrite_keeps_the_cached_plan_and_its_bindings(self):
        schema, instance = merge()
        query = parse_cq("Q(x) :- R(x,'a'), R(x,'b')")
        cache = PlanCache()
        template = plan_request(schema, query, cache=cache)
        outcome = plan_request(
            schema, query, bindings={"a": "x1"}, cache=cache
        )
        assert not outcome.searched and outcome.plan is template.plan
        assert outcome.bindings == {Constant("a"): Constant("x1")}


# ----------------------------------------------------- the bound answer
def venue_template():
    scenario = webservices(6, 3, 1)
    return (
        scenario.schema,
        scenario.instance(0),
        parse_cq("Qvenue(t, a) :- Articles(d, t, 'venue0'), AuthorOf(d, a)"),
        SearchOptions(max_accesses=8),
    )


def small_case(build, text):
    schema, instance = build()
    return schema, instance, parse_cq(text), None


def example1_case():
    scenario = example1(professors=10, directory_extra=15)
    return scenario.schema, scenario.instance(0), scenario.query, None


CASES = {
    "example1": example1_case(),
    "venue": venue_template(),
    "emp_special": small_case(
        emp_special, "Q(x) :- Emp(x,'smith'), Special(x)"
    ),
    "merge": small_case(merge, "Q(x) :- R(x,'a'), R(x,'b')"),
}


@st.composite
def requests(draw):
    """A case and bindings of some of its query's constants, each to a
    value of the instance's active domain or to a fresh one."""
    name = draw(st.sampled_from(sorted(CASES)))
    _, instance, query, _ = CASES[name]
    domain = sorted(
        {term.value for fact in instance.facts() for term in fact.terms}
    )
    values = st.sampled_from(domain) | st.sampled_from(["fresh0", "fresh1"])
    keys = sorted(constant.value for constant in query.constants())
    chosen = draw(st.lists(st.sampled_from(keys), unique=True))
    return name, {key: draw(values) for key in chosen}


@settings(max_examples=80, deadline=None)
@given(requests())
@example(("emp_special", {"smith": "jones"}))
@example(("merge", {"a": "b"}))
def test_the_plan_run_with_its_bindings_answers_the_bound_query(request):
    name, bindings = request
    schema, instance, query, options = CASES[name]
    expected = frozenset(instance.evaluate(bound(query, bindings)))
    cache = PlanCache()
    for searched in (True, False):  # a miss, then a hit
        outcome = plan_request(
            schema, query, bindings=bindings, options=options, cache=cache
        )
        assert isinstance(outcome, Planned) and outcome.searched is searched
        assert answer(schema, instance, outcome) == expected
