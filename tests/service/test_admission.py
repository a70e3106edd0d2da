"""Unit tests for the bounded, priority-aware admission queue."""

import pytest

from repro.errors import ServiceOverloaded, ServiceStopped
from repro.service import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_HIGH,
    PRIORITY_NORMAL,
    AdmissionQueue,
    QueryRequest,
    Ticket,
)
from repro.plans.commands import MiddlewareCommand
from repro.plans.expressions import Literal, NamedTable
from repro.plans.plan import Plan


def tiny_plan():
    return Plan(
        (
            MiddlewareCommand(
                "OUT", Literal(NamedTable.from_rows(("x",), []))
            ),
        ),
        "OUT",
    )


def ticket(priority=PRIORITY_NORMAL, rid=""):
    return Ticket(
        QueryRequest(plan=tiny_plan(), priority=priority, request_id=rid)
    )


class TestOrdering:
    def test_fifo_within_one_class(self):
        queue = AdmissionQueue(capacity=4)
        for rid in ("a", "b", "c"):
            queue.offer(ticket(rid=rid))
        assert [queue.take(0).request.request_id for _ in range(3)] == [
            "a", "b", "c",
        ]

    def test_strict_priority_across_classes(self):
        queue = AdmissionQueue(capacity=8)
        queue.offer(ticket(PRIORITY_BEST_EFFORT, "be"))
        queue.offer(ticket(PRIORITY_NORMAL, "n"))
        queue.offer(ticket(PRIORITY_HIGH, "h"))
        assert [queue.take(0).request.request_id for _ in range(3)] == [
            "h", "n", "be",
        ]

    def test_take_times_out_empty(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.take(timeout=0.01) is None


class TestOverflow:
    def test_rejection_is_typed_with_depth_and_hint(self):
        queue = AdmissionQueue(capacity=2)
        queue.offer(ticket())
        queue.offer(ticket())
        with pytest.raises(ServiceOverloaded) as info:
            queue.offer(ticket(), retry_after=1.5)
        assert info.value.queue_depth == 2
        assert info.value.retry_after == pytest.approx(1.5)
        # Refused at the door, not shed: the queue keeps no books, the
        # error is the whole record of the refusal.
        assert info.value.shed is False
        assert queue.depth() == 2

    def test_high_priority_preempts_newest_lower(self):
        queue = AdmissionQueue(capacity=2)
        queue.offer(ticket(PRIORITY_BEST_EFFORT, "be1"))
        queue.offer(ticket(PRIORITY_BEST_EFFORT, "be2"))
        evicted = queue.offer(ticket(PRIORITY_HIGH, "h"))
        # The *newest* queued best-effort request was evicted and handed
        # back, unresolved, for the caller to resolve shed and count.
        assert isinstance(evicted, Ticket)
        assert evicted.request.request_id == "be2"
        assert not evicted.done()
        assert [queue.take(0).request.request_id for _ in range(2)] == [
            "h", "be1",
        ]

    def test_preemption_picks_the_worst_class_first(self):
        queue = AdmissionQueue(capacity=2)
        queue.offer(ticket(PRIORITY_NORMAL, "n"))
        queue.offer(ticket(PRIORITY_BEST_EFFORT, "be"))
        evicted = queue.offer(ticket(PRIORITY_HIGH, "h"))
        assert evicted.request.request_id == "be"

    def test_no_preemption_among_peers(self):
        queue = AdmissionQueue(capacity=1)
        queue.offer(ticket(PRIORITY_NORMAL, "n1"))
        with pytest.raises(ServiceOverloaded):
            queue.offer(ticket(PRIORITY_NORMAL, "n2"))

    def test_best_effort_never_preempts_anyone(self):
        queue = AdmissionQueue(capacity=1)
        queue.offer(ticket(PRIORITY_BEST_EFFORT))
        with pytest.raises(ServiceOverloaded):
            queue.offer(ticket(PRIORITY_BEST_EFFORT))


class TestLifecycle:
    def test_closed_queue_refuses_offers(self):
        queue = AdmissionQueue(capacity=2)
        queue.close()
        with pytest.raises(ServiceStopped):
            queue.offer(ticket())

    def test_closed_queue_drains_then_returns_none(self):
        queue = AdmissionQueue(capacity=2)
        queue.offer(ticket(rid="a"))
        queue.close()
        assert queue.take().request.request_id == "a"
        assert queue.take() is None

    def test_reopen_accepts_again(self):
        queue = AdmissionQueue(capacity=2)
        queue.close()
        queue.reopen()
        assert queue.offer(ticket()) is None
        assert queue.depth() == 1

    def test_evict_all_empties_every_class(self):
        queue = AdmissionQueue(capacity=4)
        queue.offer(ticket(PRIORITY_HIGH, "h"))
        queue.offer(ticket(PRIORITY_BEST_EFFORT, "be"))
        evicted = queue.evict_all()
        assert {t.request.request_id for t in evicted} == {"h", "be"}
        assert queue.depth() == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


class TestRequestValidation:
    def test_bad_priority_rejected(self):
        with pytest.raises(ValueError):
            QueryRequest(plan=tiny_plan(), priority=7)

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            QueryRequest(plan=tiny_plan(), deadline_seconds=0)

    def test_ticket_result_timeout(self):
        pending = ticket()
        with pytest.raises(TimeoutError):
            pending.result(timeout=0.01)
