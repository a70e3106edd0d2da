"""QueryService behaviour: soundness, governance, overload, lifecycle.

The centrepiece is differential soundness under concurrency: for every
scenario in the library, an 8-worker service sharing one source, one
access cache and one breaker registry answers every request exactly as
a sequential ``Plan.execute`` does -- including under injected
transient faults.  The rest pins the governance surface: typed
overload shedding, priority preemption, per-request budgets degrading
to marked partial answers, deadlines that cover queue time, and the
drain/shutdown lifecycle.
"""

import threading
import time

import pytest

from repro.data.decorators import LatencySource
from repro.data.source import InMemorySource
from repro.errors import (
    DeadlineExceeded,
    RowBudgetExceeded,
    ServiceOverloaded,
    ServiceStopped,
)
from repro.exec import AccessCache, ResourceBudget, RetryPolicy
from repro.exec.budget import ERROR
from repro.faults import FaultInjectingSource, FaultPolicy, VirtualClock
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import (
    example1,
    example2,
    example5,
    referential_chain,
    view_stack_scenario,
    webservices,
)
from repro.service import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_HIGH,
    QueryService,
)

SCENARIOS = [
    ("example1", example1, 3),
    ("example2", example2, 4),
    ("example5", example5, 4),
    ("chain2", lambda: referential_chain(2), 4),
    ("views", view_stack_scenario, 4),
    ("webservices", webservices, 5),
]


def planned(factory, budget):
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    assert result.found, scenario.name
    return scenario, result.best_plan


class GateSource:
    """A source whose accesses block until the test opens the gate."""

    def __init__(self, inner):
        self.inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()

    @property
    def schema(self):
        return self.inner.schema

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def access(self, method_name, inputs=()):
        self.entered.set()
        assert self.gate.wait(30), "test gate never opened"
        return self.inner.access(method_name, inputs)


@pytest.fixture
def served():
    """A started 2-worker service over example1 plus its reference."""
    scenario, plan = planned(example1, 3)
    source = InMemorySource(scenario.schema, scenario.instance(0))
    reference = plan.execute(source)
    service = QueryService(source, workers=2, max_queue=16).start()
    yield service, plan, reference
    service.shutdown(timeout=10)


# ---------------------------------------------------- differential soundness
@pytest.mark.parametrize(
    "name,factory,budget", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
def test_concurrent_answers_match_sequential(name, factory, budget):
    scenario, plan = planned(factory, budget)
    instance = scenario.instance(0)
    source = InMemorySource(scenario.schema, instance)
    reference = plan.execute(InMemorySource(scenario.schema, instance))
    service = QueryService(
        source, workers=8, max_queue=64, cache=AccessCache()
    )
    with service:
        tickets = [service.submit(plan) for _ in range(16)]
        for ticket in tickets:
            response = ticket.result(timeout=30)
            assert response.complete, response.describe()
            assert response.table.attributes == reference.attributes
            assert response.table.rows == reference.rows
    health = service.health()
    assert health.served == 16
    assert health.completed == 16
    assert health.shed == 0


def test_fault_injected_service_is_still_sound():
    scenario, plan = planned(example5, 4)
    instance = scenario.instance(0)
    reference = plan.execute(InMemorySource(scenario.schema, instance))
    clock = VirtualClock()
    source = FaultInjectingSource(
        InMemorySource(scenario.schema, instance),
        FaultPolicy.transient(0.3, seed=3),
        clock=clock,
    )
    service = QueryService(
        source,
        workers=8,
        max_queue=64,
        cache=AccessCache(),
        retry=RetryPolicy(max_attempts=10, seed=3),
        clock=clock,
    )
    # Retries, not the breakers, are under test: never trip one.
    service.breakers.failure_threshold = 10_000
    with service:
        tickets = [service.submit(plan) for _ in range(12)]
        responses = [ticket.result(timeout=60) for ticket in tickets]
    for response in responses:
        assert response.complete, response.describe()
        assert response.table.rows == reference.rows
    assert source.stats.injected_total > 0, "the fault schedule never fired"


# ------------------------------------------------------ per-request governance
def test_result_budget_degrades_to_marked_partial(served):
    service, plan, reference = served
    assert len(reference.rows) > 1
    response = service.serve(
        plan, budget=ResourceBudget(max_result_rows=1), timeout=10
    )
    assert response.ok and response.partial and not response.complete
    assert len(response.table.rows) == 1
    assert response.truncated_rows == len(reference.rows) - 1
    # Truncation is deterministic: the sorted-prefix answer repeats.
    again = service.serve(
        plan, budget=ResourceBudget(max_result_rows=1), timeout=10
    )
    assert again.table.rows == response.table.rows


def test_error_budget_fails_typed(served):
    service, plan, reference = served
    response = service.serve(
        plan,
        budget=ResourceBudget(max_result_rows=0, on_result_overflow=ERROR),
        timeout=10,
    )
    assert not response.ok
    assert isinstance(response.error, RowBudgetExceeded)
    assert response.error.rows == len(reference.rows)
    assert response.error.budget == 0


def test_deadline_covers_queue_time():
    scenario, plan = planned(example1, 3)
    source = GateSource(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    service = QueryService(source, workers=1, max_queue=4).start()
    try:
        blocker = service.submit(plan)
        assert source.entered.wait(10)
        # Queued behind the gated request; its tiny deadline expires
        # before any worker picks it up.
        doomed = service.submit(plan, deadline=0.001)
        time.sleep(0.05)
        source.gate.set()
        assert blocker.result(timeout=10).complete
        response = doomed.result(timeout=10)
        assert isinstance(response.error, DeadlineExceeded)
        assert "admission queue" in str(response.error)
    finally:
        source.gate.set()
        service.shutdown(timeout=10)


# ------------------------------------------------------------------- overload
def test_door_rejection_is_typed_and_counted():
    scenario, plan = planned(example1, 3)
    source = GateSource(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    service = QueryService(source, workers=1, max_queue=1).start()
    try:
        running = service.submit(plan)
        assert source.entered.wait(10)
        queued = service.submit(plan)
        with pytest.raises(ServiceOverloaded) as info:
            service.submit(plan)
        assert info.value.queue_depth == 1
        assert info.value.retry_after > 0
        source.gate.set()
        assert running.result(timeout=10).complete
        assert queued.result(timeout=10).complete
        health = service.health()
        assert health.rejected == 1
        assert health.shed == 0
        assert health.served == 2
        assert health.served + health.shed + health.rejected == 3
    finally:
        source.gate.set()
        service.shutdown(timeout=10)


def test_high_priority_preempts_queued_best_effort():
    scenario, plan = planned(example1, 3)
    source = GateSource(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    service = QueryService(source, workers=1, max_queue=1).start()
    try:
        running = service.submit(plan)
        assert source.entered.wait(10)
        victim = service.submit(plan, priority=PRIORITY_BEST_EFFORT)
        winner = service.submit(plan, priority=PRIORITY_HIGH)
        shed = victim.result(timeout=10)
        assert isinstance(shed.error, ServiceOverloaded)
        assert shed.error.shed
        assert shed.error.retry_after is not None
        source.gate.set()
        assert running.result(timeout=10).complete
        assert winner.result(timeout=10).complete
        health = service.health()
        assert health.preempted == 1
        assert health.shed == 1
    finally:
        source.gate.set()
        service.shutdown(timeout=10)


# ------------------------------------------------------------------ lifecycle
def test_submit_before_start_raises():
    scenario, plan = planned(example1, 3)
    service = QueryService(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    with pytest.raises(ServiceStopped):
        service.submit(plan)


def test_drain_finishes_inflight_and_rejects_new():
    scenario, plan = planned(example1, 3)
    source = GateSource(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    service = QueryService(source, workers=1, max_queue=4).start()
    inflight = service.submit(plan)
    assert source.entered.wait(10)
    drainer = threading.Thread(target=service.drain)
    drainer.start()
    for _ in range(200):
        if not service.health().accepting:
            break
        time.sleep(0.005)
    with pytest.raises(ServiceStopped):
        service.submit(plan)
    source.gate.set()
    drainer.join(timeout=10)
    assert not drainer.is_alive()
    assert inflight.result(timeout=1).complete
    assert not service.health().running


def test_shutdown_without_drain_sheds_queued_work():
    scenario, plan = planned(example1, 3)
    source = GateSource(
        InMemorySource(scenario.schema, scenario.instance(0))
    )
    service = QueryService(source, workers=1, max_queue=4).start()
    inflight = service.submit(plan)
    assert source.entered.wait(10)
    queued = service.submit(plan)
    stopper = threading.Thread(
        target=lambda: service.shutdown(drain=False, timeout=10)
    )
    stopper.start()
    # The queued (never-started) request is resolved as stopped even
    # while the in-flight one is still blocked on the gate.
    response = queued.result(timeout=10)
    assert isinstance(response.error, ServiceStopped)
    source.gate.set()
    stopper.join(timeout=10)
    assert inflight.result(timeout=1).complete


def test_health_snapshot_shape(served):
    service, plan, reference = served
    for _ in range(3):
        assert service.serve(plan, timeout=10).complete
    health = service.health()
    assert health.running and health.accepting
    assert health.workers == 2
    assert health.served == 3 and health.completed == 3
    assert health.queue_depth == 0 and health.in_flight == 0
    assert health.mean_service_time > 0
    assert isinstance(health.breakers, dict)
    assert health.stats["runs"] == 3
    snapshot = health.as_dict()
    assert snapshot["served"] == 3
    assert "3 served" in health.summary()


def test_context_manager_round_trip():
    scenario, plan = planned(example1, 3)
    source = InMemorySource(scenario.schema, scenario.instance(0))
    with QueryService(source, workers=2) as service:
        assert service.serve(plan, timeout=10).complete
    assert not service.health().running
    with pytest.raises(ServiceStopped):
        service.submit(plan)
