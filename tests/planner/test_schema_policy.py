"""Every search runs the chase policy its schema derives.

The policy is a function of the constraint class
(:meth:`repro.schema.core.Schema.chase_policy`) and no option sets
another, so the service's searches, too, run guarded-bag blocking on a
guarded schema whose chase does not terminate.  When a search without an
explicit policy chased under the default one, this schema cost two
saturations cut at the 100 000-firing budget (about 12 s) for the same
one-access plan.  A schema neither weakly acyclic nor guarded gets a
depth cap and a tight work budget, and its searches return in well
under a second.
"""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import ReproError
from repro.logic.queries import parse_cq
from repro.planner import front, proof_to_plan
from repro.planner.answerability import Answerability, decide_answerability
from repro.planner.search import SearchOptions, find_best_plan
from repro.schema.core import SchemaBuilder
from repro.service import QueryService

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
    search = front.find_best_plan

    def recording(*args):
        searches.append(search(*args))
        return searches[-1]

    monkeypatch.setattr(front, "find_best_plan", recording)
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


# ------------------------------------------- neither acyclic nor guarded
def work_schema():
    """Not weakly acyclic and not guarded (the second rule's body is two
    unrelated atoms), so only the work budget stops a saturation.  Most
    of its matches find their head already holds: the work is head
    checks, and few triggers fire."""
    return (
        SchemaBuilder("unguarded")
        .relation("S", 1)
        .relation("R", 2)
        .access("ms", "S", inputs=[])
        .access("mr", "R", inputs=[0])
        .tgd("S(x) -> R(x, y)")
        .tgd("R(x, y) & R(u, v) -> R(y, w) & R(w, v)")
        .build()
    )


def recording_saturations(monkeypatch):
    """Each planner saturation's result and configuration size, in order."""
    runs = []
    saturate = proof_to_plan.saturate

    def recording(config, *args, **kwargs):
        result = saturate(config, *args, **kwargs)
        runs.append((result, len(config)))
        return result

    monkeypatch.setattr(proof_to_plan, "saturate", recording)
    return runs


@pytest.mark.parametrize("max_accesses", [1, 2, 3])
def test_find_best_plan_returns_within_the_work_budget(
    monkeypatch, max_accesses
):
    schema = work_schema()
    runs = recording_saturations(monkeypatch)
    result = find_best_plan(
        schema, QUERY, SearchOptions(max_accesses=max_accesses)
    )
    budget = schema.chase_policy().max_work
    assert result.best_cost == 1.0
    assert result.best_plan.methods_used() == ("ms",)
    # Budget-cut saturations certify nothing.
    assert not result.exhausted
    assert runs and result.stats.chase.incomplete == len(runs)
    for run, facts in runs:
        assert not run.reached_fixpoint
        # Past the last check, one match's work: its body join and its
        # head check, each well under one scan per fact here.
        assert budget < run.stats.hom.candidates_scanned <= budget + facts


def test_answerability_is_unknown_not_a_certified_negative():
    verdict = decide_answerability(work_schema(), parse_cq("Q(y) :- R(x, y)"))
    assert verdict is Answerability.UNKNOWN


def test_the_service_resolves_and_keeps_its_books():
    schema = work_schema()
    instance = Instance({"S": [("a",)], "R": [("a", "b"), ("b", "a")]})
    with QueryService(InMemorySource(schema, instance), workers=1) as service:
        response = service.serve_query(
            QUERY,
            search_options=SearchOptions(max_accesses=2),
            deadline=5.0,
        )
        if response.complete:
            assert set(response.table.rows) == instance.evaluate(QUERY)
        else:
            assert isinstance(response.error, ReproError)
        assert service.wait_idle(timeout=10)
        health = service.health()
    # Each failover is one more submission.
    submitted = 1 + response.failovers
    assert health.served + health.shed + health.rejected == submitted
