"""The harness's books over service generations: carried by ``absorb``."""

from repro.chaos.harness import ScenarioHarness
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec import ResourceBudget
from repro.logic.queries import parse_cq
from repro.planner.search import find_best_plan
from repro.schema.core import SchemaBuilder
from repro.service import QueryService, ServiceBooks

SCHEMA = (
    SchemaBuilder("generations")
    .relation("R", 2)
    .access("mR", "R", inputs=[], cost=1.0)
    .build()
)
INSTANCE = Instance({"R": [(f"a{i}", f"b{i}") for i in range(5)]})
QUERY = parse_cq("Q(a, b) :- R(a, b)")


def generation():
    return QueryService(InMemorySource(SCHEMA, INSTANCE), workers=1)


def test_carried_books_are_the_absorb_of_both_generations():
    plan = find_best_plan(SCHEMA, QUERY).best_plan
    oracle = frozenset(INSTANCE.evaluate(QUERY))
    harness = ScenarioHarness("generations", 0, 60.0, oracle)
    first = generation()
    with first:
        for _ in range(3):
            harness.submit(first.submit, plan)
        harness.collect()
    # A retired generation still refuses at the door, and books it.
    assert harness.submit(first.submit, plan) is None
    harness.carry_over(first)
    second = generation()
    with second:
        harness.submit(second.submit, plan)
        harness.submit(
            second.submit, plan, budget=ResourceBudget(max_result_rows=2)
        )
        harness.collect()
        report = harness.finish(second)
    expected = ServiceBooks()
    expected.absorb(first.health())
    expected.absorb(second.health())
    assert harness.books(second) == expected
    assert (expected.completed, expected.partial, expected.rejected) == (
        4, 1, 1,
    )
    assert expected.served == 5
    assert report.ok, [str(v) for v in report.violations]
    # The final generation alone would not balance the run's books.
    assert second.health().served == 2
    assert report.outcomes == {"complete": 4, "partial": 1, "rejected": 1}
