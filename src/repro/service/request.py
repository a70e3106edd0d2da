"""Requests, responses, and tickets of the concurrent query service.

A :class:`QueryRequest` is everything one serving needs: the plan (or a
plan plus parameter bindings rewritten via
:func:`~repro.exec.batch.substitute_constants`), a priority class, an
optional per-request deadline, and an optional
:class:`~repro.exec.budget.ResourceBudget`.  Submitting one yields a
:class:`Ticket` -- a tiny thread-safe future the caller blocks on --
and the worker resolves it with a :class:`QueryResponse`, whose
outcome is always *explicitly marked* (``complete`` / ``partial`` /
``error``), never silently degraded.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.exec.budget import ResourceBudget
from repro.exec.stats import ExecStats
from repro.plans.plan import Plan

# Priority classes, lower = more important.  Admission preempts queue
# slots strictly downwards: a HIGH arrival may evict a queued
# BEST_EFFORT (or NORMAL) request, never a peer or better.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_BEST_EFFORT = 2
PRIORITY_CLASSES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_BEST_EFFORT)
PRIORITY_NAMES = {
    PRIORITY_HIGH: "high",
    PRIORITY_NORMAL: "normal",
    PRIORITY_BEST_EFFORT: "best-effort",
}


@dataclass
class QueryRequest:
    """One unit of admitted work: a plan run with its governance.

    ``plan`` is ``None`` from admission until a query request is
    planned (and stays ``None`` when no plan was found);
    ``submitted_at`` is the service clock's reading when the request
    entered the admission queue, from which ``queue_wait`` is measured.
    """

    plan: Optional[Plan]
    bindings: Optional[Mapping[object, object]] = None
    priority: int = PRIORITY_NORMAL
    deadline_seconds: Optional[float] = None
    budget: Optional[ResourceBudget] = None
    request_id: str = ""
    submitted_at: float = 0.0

    def __post_init__(self) -> None:
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"priority must be one of {PRIORITY_CLASSES}, "
                f"got {self.priority!r}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")


@dataclass
class QueryResponse:
    """The explicitly marked outcome of one served request.

    Exactly one of the three shapes holds: ``complete`` (full answer),
    ``partial`` (a marked under-approximation: a result-row budget
    truncated the output, or no plan avoids the dead methods and the
    accessible part answered), or neither with ``error`` set (the
    request failed or was shed; the error is always a typed
    :class:`~repro.errors.ReproError`).
    """

    request_id: str
    table: Optional[object] = None
    complete: bool = False
    partial: bool = False
    error: Optional[Exception] = None
    truncated_rows: int = 0
    stats: Optional[ExecStats] = None
    queue_wait: float = 0.0
    wall_time: float = 0.0
    #: True when this response was served while the service's
    #: dead-method set was nonempty -- planning was degraded
    #: (the plan avoids the dead methods, or the answer is the marked
    #: accessible-part fallback).  Orthogonal to complete/partial: a
    #: degraded *complete* response is still the certain answers.
    degraded: bool = False
    #: How many times :meth:`QueryService.serve_query` re-submitted the
    #: query around a newly dead method before this response.
    failovers: int = 0

    @property
    def ok(self) -> bool:
        """Whether any answer (complete or partial) was produced."""
        return self.table is not None

    def describe(self) -> str:
        """A one-line human-readable digest."""
        if self.complete:
            status = "complete"
            if self.degraded:
                status = "complete (degraded planning)"
        elif self.partial and self.degraded and not self.truncated_rows:
            status = "PARTIAL (accessible-part fallback)"
        elif self.partial:
            status = f"PARTIAL ({self.truncated_rows} rows truncated)"
        else:
            status = f"FAILED ({self.error})"
        if self.failovers:
            status += f" after {self.failovers} failover(s)"
        rows = len(self.table.rows) if self.table is not None else 0
        return (
            f"{self.request_id or 'request'}: {status}, {rows} rows, "
            f"waited {self.queue_wait * 1e3:.1f} ms, "
            f"ran {self.wall_time * 1e3:.1f} ms"
        )


class Ticket:
    """A thread-safe handle on one submitted request's future response."""

    def __init__(self, request: QueryRequest) -> None:
        self.request = request
        self._done = threading.Event()
        self._response: Optional[QueryResponse] = None

    def resolve(self, response: QueryResponse) -> None:
        """Deliver the response and wake every waiter (service-internal)."""
        self._response = response
        self._done.set()

    def done(self) -> bool:
        """Whether the response has arrived."""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> QueryResponse:
        """Block until the response arrives and return it.

        Raises :class:`TimeoutError` if ``timeout`` elapses first; the
        request itself keeps running (or queued) -- a result() timeout
        is the caller giving up on *waiting*, not a cancellation.
        """
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"no response for {self.request.request_id or 'request'} "
                f"within {timeout}s"
            )
        assert self._response is not None
        return self._response

    def __repr__(self) -> str:
        state = "done" if self.done() else "pending"
        return f"Ticket({self.request.request_id or 'request'}: {state})"
