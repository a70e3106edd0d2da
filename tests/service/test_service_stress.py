"""Stress: many submitter threads, one service, exact stats accounting.

Eight-plus client threads hammer one :class:`QueryService` (which runs
eight worker threads of its own over a shared source, cache and breaker
registry).  Afterwards the service-level aggregate
:class:`~repro.exec.stats.ExecStats` must equal the *sum* of the
per-request stats -- additive counters exactly, peaks as maxima --
which fails if any absorb was lost or double-counted under contention.

The tests carry ``pytest.mark.timeout`` (enforced in CI where
pytest-timeout is installed) and every blocking wait has its own
timeout, so a deadlock fails fast instead of hanging the suite.
"""

import threading

import pytest

from repro.data.source import InMemorySource
from repro.exec import AccessCache
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example5
from repro.service import PRIORITY_CLASSES, QueryService

CLIENTS = 8
REQUESTS_PER_CLIENT = 6


@pytest.mark.timeout(120)
def test_aggregate_stats_equal_sum_of_per_request_stats():
    scenario = example5()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=4)
    )
    assert result.found
    plan = result.best_plan
    instance = scenario.instance(0)
    reference = plan.execute(InMemorySource(scenario.schema, instance))
    source = InMemorySource(scenario.schema, instance)
    service = QueryService(
        source,
        workers=8,
        max_queue=CLIENTS * REQUESTS_PER_CLIENT,
        cache=AccessCache(),
    )
    responses = []
    responses_lock = threading.Lock()
    errors = []

    def client(index):
        try:
            mine = []
            for i in range(REQUESTS_PER_CLIENT):
                priority = PRIORITY_CLASSES[
                    (index + i) % len(PRIORITY_CLASSES)
                ]
                ticket = service.submit(plan, priority=priority)
                mine.append(ticket.result(timeout=60))
            with responses_lock:
                responses.extend(mine)
        except Exception as error:  # surfaced after the join below
            errors.append(error)

    with service:
        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=90)
            assert not thread.is_alive(), "client thread hung"
    assert not errors, errors

    total = CLIENTS * REQUESTS_PER_CLIENT
    assert len(responses) == total
    for response in responses:
        assert response.complete, response.describe()
        assert response.table.rows == reference.rows

    aggregate = service.stats
    assert aggregate is not None
    per_request = [r.stats for r in responses]
    assert all(stats is not None for stats in per_request)
    # Additive counters match exactly.
    assert aggregate.runs == sum(s.runs for s in per_request) == total
    # The ledger keeps totals, not every request's command transcript.
    assert aggregate.commands == []
    for total_name in (
        "accesses_dispatched", "accesses_deduped", "cache_hits",
        "rows_out", "retries", "faults", "breaker_trips",
    ):
        assert getattr(aggregate, total_name) == sum(
            getattr(s, total_name) for s in per_request
        ), total_name
    assert aggregate.wall_time == pytest.approx(
        sum(s.wall_time for s in per_request)
    )
    # Peaks absorb as maxima, not sums.
    assert aggregate.peak_resident_rows == max(
        s.peak_resident_rows for s in per_request
    )

    health = service.health()
    assert health.served == total
    assert health.completed == total
    assert health.shed == 0
    # Cache accounting is consistent under contention: every dispatch
    # was either a hit, or a miss that reached the source.
    cache = health.cache
    assert cache["hits"] + cache["misses"] == aggregate.accesses_dispatched
    assert cache["misses"] == source.total_invocations


@pytest.mark.timeout(120)
def test_submissions_race_with_drain_without_losing_requests():
    """Every submitted request resolves even when drain races submits."""
    scenario = example5()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=4)
    )
    plan = result.best_plan
    source = InMemorySource(scenario.schema, scenario.instance(0))
    service = QueryService(source, workers=4, max_queue=8)
    outcomes = []
    outcomes_lock = threading.Lock()

    def client():
        from repro.errors import ServiceError

        for _ in range(10):
            try:
                response = service.submit(plan).result(timeout=60)
                outcome = "ok" if response.ok else type(response.error).__name__
            except ServiceError as error:
                outcome = type(error).__name__
            with outcomes_lock:
                outcomes.append(outcome)

    service.start()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    service.drain(timeout=60)
    for thread in threads:
        thread.join(timeout=90)
        assert not thread.is_alive(), "client thread hung"
    # Every attempt is accounted for: served, shed, or typed-rejected.
    assert len(outcomes) == CLIENTS * 10
    assert set(outcomes) <= {"ok", "ServiceOverloaded", "ServiceStopped"}
    assert "ok" in outcomes
