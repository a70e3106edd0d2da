"""One request path: a query is admitted before it is planned.

``submit_query`` mints the request's id and starts its deadline before
``plan_for`` runs, and every outcome -- queued and served by a worker,
or resolved in the submitting thread because planning failed, ran out
of time or found only the accessible part -- lands in exactly one book:
``served + shed + rejected == submitted``.  The dead-method set is the
breakers' forced-open set, whichever tier met the outage.
"""

import sys
import threading

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    MethodOutage,
    RowBudgetExceeded,
    ServiceError,
    ServiceOverloaded,
    ServiceStopped,
)
from repro.exec.budget import ERROR, ResourceBudget
from repro.faults import FaultInjectingSource, FaultPolicy, VirtualClock
from repro.logic.queries import parse_cq
from repro.planner import front
from repro.planner.plan_cache import PlanCache
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example5
from repro.schema.core import SchemaBuilder
from repro.service import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CLASSES,
    PRIORITY_HIGH,
    ProcessWorkerPool,
    QueryService,
)
from tests.service.test_service import GateSource, planned

pytestmark = pytest.mark.timeout(120)


def assert_books(service, submitted):
    """Every submission in exactly one book, nothing left in flight."""
    assert service.wait_idle(timeout=10)
    health = service.health()
    assert health.served + health.shed + health.rejected == submitted
    assert health.served == health.completed + health.partial + health.failed
    assert health.in_flight == 0
    return health


def test_a_query_with_no_plan_resolves_a_typed_failure():
    scenario = example5()
    source = InMemorySource(scenario.schema, scenario.instance(0))
    with QueryService(source, workers=1) as service:
        ticket = service.submit_query(
            scenario.query, search_options=SearchOptions(max_accesses=0)
        )
        response = ticket.result(10)
        assert type(response.error) is ExecutionError
        assert "no plan within the search budget" in str(response.error)
        assert ticket.request.request_id == response.request_id == "q1"
        assert ticket.request.plan is None
        health = assert_books(service, 1)
        assert (health.served, health.failed, health.planned) == (1, 1, 1)
    assert source.total_invocations == 0


def test_a_search_that_overruns_the_deadline_never_reaches_the_source(
    monkeypatch,
):
    scenario = example5()
    clock = VirtualClock()
    source = InMemorySource(scenario.schema, scenario.instance(0))
    search = front.find_best_plan

    def slow_search(*args):
        """The real search, then ten simulated seconds."""
        result = search(*args)
        clock.advance(10.0)
        return result

    monkeypatch.setattr(front, "find_best_plan", slow_search)
    with QueryService(source, workers=1, clock=clock) as service:
        ticket = service.submit_query(scenario.query, deadline=5.0)
        response = ticket.result(10)
        assert isinstance(response.error, DeadlineExceeded)
        assert "planning" in str(response.error)
        # The plan was found, and kept on the request, but never run.
        assert ticket.request.plan is not None
        health = assert_books(service, 1)
        assert (health.failed, health.planned) == (1, 1)
    assert source.total_invocations == 0


def test_a_stopped_service_refuses_before_planning():
    scenario = example5()
    service = QueryService(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    with pytest.raises(ServiceStopped):
        service.submit_query(scenario.query)
    with service:
        assert service.submit_query(scenario.query).result(10).complete
    with pytest.raises(ServiceStopped):
        service.submit_query(scenario.query)
    health = assert_books(service, 3)
    assert (health.served, health.rejected, health.planned) == (1, 2, 1)


def test_every_refusal_is_one_book_entry():
    scenario, plan = planned(example1, 3)
    source = GateSource(InMemorySource(scenario.schema, scenario.instance(0)))
    tight = ResourceBudget(max_result_rows=0, on_result_overflow=ERROR)
    service = QueryService(source, workers=1, max_queue=1).start()
    try:
        running = service.submit(plan)
        assert source.entered.wait(10)
        victim = service.submit_query(
            scenario.query, priority=PRIORITY_BEST_EFFORT
        )
        winner = service.submit(plan, priority=PRIORITY_HIGH)
        with pytest.raises(ServiceOverloaded):
            service.submit_query(scenario.query)
        assert victim.result(10).error.shed
        source.gate.set()
        assert running.result(10).complete
        assert winner.result(10).complete
        # An error-mode budget is no refusal: the request is admitted
        # and its overflow fails it at run time.
        overflow = service.submit(plan, budget=tight).result(10)
        assert isinstance(overflow.error, RowBudgetExceeded)
    finally:
        source.gate.set()
        service.shutdown(timeout=10)
    with pytest.raises(ServiceStopped):
        service.submit(plan)
    health = assert_books(service, 6)
    assert (health.served, health.shed, health.rejected) == (3, 1, 2)
    assert (health.completed, health.failed) == (2, 1)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("tier", ["in-process", "process"])
def test_an_error_budget_is_decided_by_the_run_on_every_tier(tier):
    """example1's best plan returns 10 rows: a 10-row error-mode ceiling
    is served, a 9-row one fails typed with the same counts on every
    tier."""
    scenario = example1()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=5)
    )
    source = InMemorySource(scenario.schema, scenario.instance(0))
    pool = ProcessWorkerPool(source, workers=1) if tier == "process" else None
    with QueryService(source, workers=1, worker_pool=pool) as service:
        fits, over = [
            service.serve(
                result.best_plan,
                budget=ResourceBudget(
                    max_result_rows=ceiling, on_result_overflow=ERROR
                ),
                timeout=30,
            )
            for ceiling in (10, 9)
        ]
        assert fits.complete and len(fits.table.rows) == 10
        assert isinstance(over.error, RowBudgetExceeded)
        assert (over.error.rows, over.error.budget) == (10, 9)
        health = assert_books(service, 2)
        assert (health.completed, health.failed, health.rejected) == (1, 1, 0)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("tier", ["in-process", "process"])
def test_an_outage_opens_the_services_breaker_on_every_tier(tier):
    schema = (
        SchemaBuilder("tier_outage")
        .relation("R", 2)
        .relation("S", 2)
        .access("primary_R", "R", inputs=[], cost=1.0)
        .access("backup_R", "R", inputs=[], cost=5.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )
    instance = Instance(
        {
            "R": [(f"a{i}", f"b{i % 3}") for i in range(9)],
            "S": [(f"b{i % 3}", f"c{i}") for i in range(9)],
        }
    )
    query = parse_cq("q(a, c) :- R(a, b) & S(b, c)")
    source = FaultInjectingSource(
        InMemorySource(schema, instance), FaultPolicy.outage("primary_R")
    )
    pool = (
        ProcessWorkerPool(source, workers=2, start_method="fork")
        if tier == "process"
        else None
    )
    with QueryService(
        source, workers=2, worker_pool=pool, plan_cache=PlanCache(capacity=8)
    ) as service:
        first = service.submit_query(query).result(30)
        assert isinstance(first.error, MethodOutage)
        # Planned before anything was dead: not a degraded serving.
        assert not first.degraded
        assert service.current_dead_methods() == ("primary_R",)
        assert service.health().breakers["primary_R"] == "open"
        second = service.submit_query(query).result(30)
        assert second.complete and second.degraded
        assert frozenset(second.table.rows) == frozenset(
            instance.evaluate(query)
        )
        health = assert_books(service, 2)
        assert health.dead_methods == ["primary_R"]
        assert health.outages_observed == 1
        assert health.replans == 1
        assert service.mark_method_recovered("primary_R") is True
        assert service.mark_method_recovered("primary_R") is False
        assert service.current_dead_methods() == ()
        assert service.health().recoveries == 1


def test_racing_query_clients_and_a_drain_keep_the_books_exact():
    """Eight clients submit queries while the service drains under them."""
    scenario = example5()
    source = InMemorySource(scenario.schema, scenario.instance(0))
    service = QueryService(
        source, workers=4, max_queue=4, plan_cache=PlanCache(capacity=8)
    )
    outcomes = {"refused": 0, "shed": 0, "served": 0}
    lock = threading.Lock()

    def client(index):
        for i in range(10):
            priority = PRIORITY_CLASSES[(index + i) % len(PRIORITY_CLASSES)]
            try:
                response = service.submit_query(
                    scenario.query, priority=priority
                ).result(timeout=60)
                outcome = "shed" if getattr(
                    response.error, "shed", False
                ) else "served"
            except ServiceError:
                outcome = "refused"
            with lock:
                outcomes[outcome] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        service.start()
        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(8)
        ]
        for thread in threads:
            thread.start()
        service.drain(timeout=60)
        for thread in threads:
            thread.join(timeout=90)
            assert not thread.is_alive(), "client thread hung"
    finally:
        sys.setswitchinterval(interval)
    health = assert_books(service, 80)
    assert (health.served, health.shed, health.rejected) == (
        outcomes["served"], outcomes["shed"], outcomes["refused"]
    )
    assert health.queue_depth == 0
