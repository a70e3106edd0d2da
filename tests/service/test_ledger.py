"""The service's books: bounded, complete, and attributed per request.

Three properties of ``QueryService.stats`` (the ledger) and of each
response's own ``ExecStats``:

* the ledger holds totals, not a transcript: after hundreds of requests
  it has no command records and its ``health()`` form is the size it was
  after a handful, while every total is still the sum over the
  responses;
* a failed request keeps what it did: the dispatches, retries and faults
  of the command that raised are on its record and in the ledger, on
  every tier (in-process, thread, process);
* a breaker trip is booked to the request whose failure opened the
  breaker, and to no other request, on every tier.
"""

import json

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import MethodOutage, SourceUnavailable
from repro.exec import AccessCache, RetryPolicy
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.logic.queries import parse_cq
from repro.planner.search import find_best_plan
from repro.scenarios import example2
from repro.schema.core import SchemaBuilder
from repro.service import ProcessWorkerPool, QueryService, ThreadWorkerPool

TIERS = ("in-process", "thread", "process")
TOTALS = (
    "runs", "accesses_dispatched", "accesses_deduped", "cache_hits",
    "rows_out", "retries", "faults", "breaker_trips",
)


def tier_pool(tier, source):
    if tier == "thread":
        return ThreadWorkerPool(source, workers=1)
    if tier == "process":
        return ProcessWorkerPool(source, workers=1, start_method="fork")
    return None


def lookup():
    schema = (
        SchemaBuilder("lookup")
        .relation("R", 2)
        .relation("S", 1)
        .access("mR", "R", inputs=[0], cost=1.0)
        .access("mS", "S", inputs=[], cost=1.0)
        .build()
    )
    instance = Instance(
        {
            "R": [(f"a{i}", f"b{i}") for i in range(10)],
            "S": [(f"a{i}",) for i in range(6)],
        }
    )
    return schema, instance


def plan_of(schema, query):
    result = find_best_plan(schema, parse_cq(query))
    assert result.found
    return result.best_plan


@pytest.mark.timeout(120)
def test_the_ledger_keeps_totals_not_every_command():
    scenario = example2()
    plan = find_best_plan(scenario.schema, scenario.query).best_plan
    source = InMemorySource(scenario.schema, scenario.instance(0))
    responses = []
    with QueryService(
        source, workers=2, max_queue=512, cache=AccessCache()
    ) as service:

        def serve(count):
            tickets = [service.submit(plan) for _ in range(count)]
            responses.extend(ticket.result(60) for ticket in tickets)
            assert service.wait_idle(60)
            return json.dumps(service.health().stats)

        few = serve(5)
        many = serve(495)
        ledger = service.stats
    assert all(response.complete for response in responses)
    assert all(response.stats.commands for response in responses)
    assert ledger.commands == []
    # Only the numbers grew (a digit or two each), not the structure.
    assert json.loads(many).keys() == json.loads(few).keys()
    assert abs(len(many) - len(few)) < 64
    for name in TOTALS:
        assert getattr(ledger, name) == sum(
            getattr(r.stats, name) for r in responses
        ), name
    assert ledger.runs == 500


@pytest.mark.timeout(120)
@pytest.mark.parametrize("tier", TIERS)
def test_a_failed_request_keeps_its_counters(tier):
    schema, instance = lookup()
    plan = plan_of(schema, "Q(a) :- S(a)")
    # The one key fails on its first 10 attempts; three are allowed.
    source = FaultInjectingSource(
        InMemorySource(schema, instance),
        FaultPolicy(unavailable_rate=1.0, burst=10),
    )
    with QueryService(
        source,
        workers=1,
        worker_pool=tier_pool(tier, source),
        retry=RetryPolicy(max_attempts=3),
    ) as service:
        response = service.submit(plan).result(60)
        ledger = service.stats
    assert isinstance(response.error, SourceUnavailable)
    stats = response.stats
    assert len(stats.commands) == 1
    (record,) = stats.commands
    assert (record.dispatched, record.retries, record.faults) == (1, 2, 3)
    assert record.raised == 1 and record.rows_fetched == 0
    assert (stats.accesses_dispatched, stats.retries, stats.faults) == (
        1, 2, 3,
    )
    assert (ledger.accesses_dispatched, ledger.retries, ledger.faults) == (
        1, 2, 3,
    )
    assert ledger.runs == 0  # the run did not complete


@pytest.mark.timeout(120)
@pytest.mark.parametrize("tier", TIERS)
def test_a_trip_is_booked_to_the_request_that_caused_it(tier):
    schema, instance = lookup()
    outage = plan_of(schema, "Q(b) :- S(a), R(a, b)")
    healthy = plan_of(schema, "Q(a) :- S(a)")
    source = FaultInjectingSource(
        InMemorySource(schema, instance), FaultPolicy(outages={"mR": 0})
    )
    with QueryService(
        source, workers=1, worker_pool=tier_pool(tier, source)
    ) as service:
        responses = [
            service.submit(plan).result(60)
            for plan in (outage, healthy, healthy)
        ]
        ledger = service.stats
    assert isinstance(responses[0].error, MethodOutage)
    assert all(r.ok for r in responses[1:])
    assert [r.stats.breaker_trips for r in responses] == [1, 0, 0]
    assert ledger.breaker_trips == 1
