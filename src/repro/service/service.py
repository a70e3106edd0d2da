"""The concurrent query service: a bounded worker pool over one runtime.

Many clients submit plan runs concurrently to :class:`QueryService`; a
fixed pool of worker threads executes them over *shared* runtime state
(one source with its per-method indexes, one
:class:`~repro.exec.cache.AccessCache`, one
:class:`~repro.exec.resilience.BreakerRegistry`), and the service stays
correct and responsive at any offered load:

* **one request path** -- :meth:`submit` (a plan) and
  :meth:`submit_query` (a query, planned in the submitting thread)
  admit a request the same way -- its id, budget and
  :class:`~repro.exec.resilience.Deadline` exist before any planning
  -- and every outcome, from a worker or from the submitting thread,
  is resolved and accounted by one tail.  Every submission lands in
  exactly one book: ``served + shed + rejected == submitted``.
* **admission control** -- a bounded priority queue
  (:class:`~repro.service.admission.AdmissionQueue`); overload is shed
  fast with typed :class:`~repro.errors.ServiceOverloaded` errors
  carrying queue depth and a retry-after hint, and high-priority
  arrivals may preempt queued best-effort work.
* **per-request governance** -- each request runs under its own
  deadline (measured from *admission*, so planning and time spent
  queued count) and :class:`~repro.exec.budget.ResourceBudget` (a
  result-row ceiling inside
  :meth:`Plan.execute <repro.plans.plan.Plan.execute>`), so one
  pathological request degrades to a typed error or an explicitly
  marked partial answer instead of starving the pool.
* **isolation of mutable state** -- workers share only lock-protected
  structures; every request gets its own
  :class:`~repro.exec.resilience.ResilientDispatcher` (built over the
  shared breakers) and its own :class:`~repro.exec.stats.ExecStats`,
  absorbed into the service's totals (``stats``, no command transcript)
  under the service lock, failed requests included.
* **degraded planning** -- the dead-method set is the breakers'
  forced-open set: an outage force-opens its method's breaker, and
  planning (:func:`repro.planner.front.plan_request`, booked here)
  avoids those methods.
* **lifecycle** -- :meth:`start` / :meth:`drain` / :meth:`shutdown`
  with the drain guarantee (in-flight and queued requests finish, new
  ones are rejected) and a :meth:`health` snapshot for operators.

Soundness of the sharing is argued in ``docs/theory.md`` ("Concurrent
serving"): memoization and breaker state are *monotone observations* of
a deterministic source, so interleaving requests cannot change any
request's answer -- the differential test suite asserts exactly that.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    MethodOutage,
    NoViablePlan,
    ReproError,
    ServiceOverloaded,
    ServiceStopped,
)
from repro.exec.batch import run_request
from repro.exec.budget import ResourceBudget
from repro.exec.cache import AccessCache
from repro.exec.context import ExecutionContext
from repro.exec.resilience import (
    BreakerRegistry,
    Deadline,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.exec.stats import ExecStats
from repro.logic.queries import ConjunctiveQuery
from repro.obs import PER_RUN, Record
from repro.planner.front import NoPlan, Planned, accessible_answer, plan_request
from repro.planner.plan_cache import PlanCache, canonical_query_text
from repro.planner.search import SearchOptions
from repro.plans.ir import table_from_ir
from repro.plans.plan import Plan
from repro.service.admission import AdmissionQueue
from repro.service.workers import (
    LatencyTracker,
    ProcessWorkerPool,
    encode_bindings,
    encoded_plan_ir,
    rebuild_error,
)
from repro.service.request import (
    PRIORITY_NORMAL,
    QueryRequest,
    QueryResponse,
    Ticket,
)

#: retry-after floor when the service has not served anything yet.
_DEFAULT_SERVICE_TIME = 0.05


def _typed(error: Exception, doing: str) -> ReproError:
    """``error`` itself when typed, else an :class:`ExecutionError` saying so.

    The untyped error stays attached as the cause, traceback included.
    """
    if isinstance(error, ReproError):
        return error
    typed = ExecutionError(f"{doing}: {error!r}")
    typed.__cause__ = error
    return typed


def _outage_method(error: Optional[Exception]) -> Optional[str]:
    """The method a hard :class:`MethodOutage` names, else ``None``.

    The outage may come direct from in-process execution or rebuilt
    with its method context from a worker-tier failure dict.
    """
    if isinstance(error, MethodOutage):
        return getattr(error, "method", None) or None
    return None


@dataclass
class ServiceBooks(Record):
    """What a :class:`QueryService` has done: its counters, one record.

    The service updates them under its lock.  Every submission lands in
    exactly one of ``served`` (derived: ``completed + partial +
    failed``), ``shed`` and ``rejected``.
    """

    completed: int = 0
    partial: int = 0
    failed: int = 0
    #: Admitted requests resolved shed: preempted from the queue by a
    #: higher-priority arrival, or evicted by a non-draining stop.
    shed: int = 0
    #: Submissions refused at the door with a typed error (overload or
    #: stopped service); they never got a ticket.  Nothing is refused
    #: on a static size bound: an upper bound over a row ceiling proves
    #: no overflow, so the run-time row check decides every admitted
    #: request.
    rejected: int = 0
    #: Of the shed, queued requests a higher-priority arrival evicted.
    preempted: int = 0
    #: How many times Algorithm 1 search actually ran for a query.
    planned: int = 0
    #: Of those, searches over a degraded schema (a nonempty dead set).
    replans: int = 0
    outages_observed: int = 0
    recoveries: int = 0
    #: Responses served while some method was dead.
    degraded_served: int = 0

    derived = ("served",)

    @property
    def served(self) -> int:
        """Requests the service resolved and accounted, in any outcome."""
        return self.completed + self.partial + self.failed


def _gauge(**kwargs):
    """A point-in-time reading, not a count: ``absorb`` leaves it alone."""
    return field(metadata=PER_RUN, **kwargs)


@dataclass
class ServiceHealth(ServiceBooks):
    """A point-in-time snapshot of a :class:`QueryService`: its books,
    then the gauges and the components' own snapshots."""

    running: bool = _gauge(default=False)
    accepting: bool = _gauge(default=False)
    workers: int = _gauge(default=0)
    queue_depth: int = _gauge(default=0)
    queue_capacity: int = _gauge(default=0)
    in_flight: int = _gauge(default=0)
    mean_service_time: float = _gauge(default=0.0)
    breakers: Dict[str, str] = _gauge(default_factory=dict)
    #: The methods planning avoids now: the breakers' forced-open set.
    dead_methods: List[str] = _gauge(default_factory=list)
    #: The components' snapshots, None where there is no such component
    #: (no ``worker_tier``: plans run in the service's own threads).
    cache: Optional[Dict[str, Any]] = _gauge(default=None)
    stats: Optional[Dict[str, Any]] = _gauge(default=None)
    worker_tier: Optional[Dict[str, Any]] = _gauge(default=None)
    plan_cache: Optional[Dict[str, Any]] = _gauge(default=None)

    def summary(self) -> str:
        """A one-line human-readable digest."""
        open_breakers = [
            method for method, state in self.breakers.items()
            if state != "closed"
        ]
        return (
            f"{'running' if self.running else 'stopped'}"
            f"{'' if self.accepting else ' (draining)'}: "
            f"{self.in_flight} in flight, "
            f"{self.queue_depth}/{self.queue_capacity} queued, "
            f"{self.served} served "
            f"({self.completed} complete / {self.partial} partial / "
            f"{self.failed} failed), {self.shed} shed, "
            f"{self.rejected} rejected"
            + (f", breakers not closed: {open_breakers}" if open_breakers else "")
            + (
                f", worker tier {self.worker_tier['tier']} DEGRADED"
                if self.worker_tier and not self.worker_tier.get("alive")
                else ""
            )
        )


class QueryService:
    """Serve plan runs concurrently over one shared, locked runtime.

    ``clock`` is the one injected time source: deadlines and breaker
    recovery windows read it, and backoff waits call its ``sleep``
    when it has one (a :class:`~repro.faults.clock.VirtualClock`
    advances instead of blocking); under a clock without ``sleep``
    (the default wall clock) a wait is recorded, not slept.
    """

    def __init__(
        self,
        source,
        *,
        workers: int = 4,
        max_queue: int = 64,
        cache: Optional[AccessCache] = None,
        retry: Optional[RetryPolicy] = None,
        default_deadline: Optional[float] = None,
        clock=time.monotonic,
        name: str = "service",
        worker_pool: Optional[ProcessWorkerPool] = None,
        plan_cache: Optional[PlanCache] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        self.source = source
        self.workers = workers
        self.cache = cache
        # The execution tier: None keeps plan runs in this process's
        # worker threads; a ProcessWorkerPool ships them (plan IR +
        # bindings + budget, never pickles) to worker processes, which
        # is what escapes the GIL.
        self.worker_pool = worker_pool
        # Cross-request plan cache, read and written by the planning front.
        self.plan_cache = plan_cache
        self.retry = retry
        self.breakers = BreakerRegistry(clock=clock)
        self.default_deadline = default_deadline
        self.clock = clock
        self._sleep = getattr(clock, "sleep", None)
        self.name = name
        self.stats = ExecStats()
        self._queue = AdmissionQueue(max_queue)
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._threads: List[threading.Thread] = []
        self._running = False
        self._accepting = False
        self._ids = itertools.count(1)
        self._books = ServiceBooks()
        # Admitted requests a thread holds: being planned in the
        # submitting thread or executed by a worker.  The rest of the
        # admitted, unresolved requests are the queue's depth.
        self._in_flight = 0
        # Of those, the requests handed to the execution tier.
        self._on_tier = 0
        # Service times of served requests; its mean feeds the
        # retry-after hint.
        self._service_time = LatencyTracker()

    # ----------------------------------------------------------- lifecycle
    def start(self) -> "QueryService":
        """Spawn the worker pool and begin accepting requests."""
        with self._lock:
            if self._running:
                return self
            self._queue.reopen()
            self._running = True
            self._accepting = True
        if self.worker_pool is not None:
            self.worker_pool.start()
        with self._lock:
            self._threads = [
                threading.Thread(
                    target=self._worker_loop,
                    name=f"{self.name}-worker-{i}",
                    daemon=True,
                )
                for i in range(self.workers)
            ]
        for thread in self._threads:
            thread.start()
        return self

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: finish queued + in-flight work, reject new.

        Returns True when everything finished within ``timeout``.
        """
        return self.shutdown(drain=True, timeout=timeout)

    def shutdown(
        self, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Stop the service; with ``drain=False`` queued work is shed.

        Already-executing requests always run to completion (their
        tickets resolve); with ``drain=False`` still-queued tickets are
        resolved with a typed :class:`ServiceStopped` error instead of
        executing.  Returns True when every worker exited in time.
        """
        with self._lock:
            self._accepting = False
        if not drain:
            for ticket in self._queue.evict_all():
                self._resolve_shed(
                    ticket,
                    ServiceStopped(
                        "service stopped before this request was served"
                    ),
                )
        self._queue.close()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        finished = True
        for thread in self._threads:
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            thread.join(remaining)
            finished = finished and not thread.is_alive()
        if self.worker_pool is not None:
            self.worker_pool.shutdown()
        with self._lock:
            self._running = not finished
        return finished

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    # ---------------------------------------------------------- submission
    def submit(
        self,
        plan: Plan,
        *,
        bindings: Optional[Mapping[object, object]] = None,
        priority: int = PRIORITY_NORMAL,
        deadline: Optional[float] = None,
        budget: Optional[ResourceBudget] = None,
        request_id: Optional[str] = None,
    ) -> Ticket:
        """Admit one request; returns its :class:`Ticket` immediately.

        Raises :class:`~repro.errors.ServiceOverloaded` (fast, typed,
        with queue depth and retry-after hint) when admission control
        refuses the request at the door, and
        :class:`~repro.errors.ServiceStopped` when the service is not
        accepting; each counts as ``rejected``.  A lower-priority ticket
        preempted by this admission is resolved with the same typed
        overload error and counts as ``shed`` -- every submitted request
        is accounted for.
        Whether ``plan`` with ``bindings`` applied answers the query the
        caller means is the caller's to know (``docs/theory.md``,
        "Rebinding a plan"); :meth:`submit_query` checks it.
        """
        ticket = self._admit(
            bindings=bindings,
            priority=priority,
            deadline=deadline,
            budget=budget,
            request_id=request_id,
        )
        ticket.request.plan = plan
        self._enqueue(ticket)
        return ticket

    def _admit(
        self,
        *,
        bindings: Optional[Mapping[object, object]] = None,
        priority: int = PRIORITY_NORMAL,
        deadline: Optional[float] = None,
        budget: Optional[ResourceBudget] = None,
        request_id: Optional[str] = None,
    ) -> Ticket:
        """The door every submission passes, before any planning.

        Mints the request's id and starts its deadline on the service
        clock; the request's ``plan`` is ``None`` until planned.  The
        returned ticket is held by the calling thread (it counts as in
        flight) until :meth:`_enqueue` or :meth:`_finish` takes it.  Raises
        :class:`~repro.errors.ServiceStopped`, counted as rejected,
        when the service is not accepting.
        """
        seconds = deadline if deadline is not None else self.default_deadline
        request = QueryRequest(
            plan=None,
            bindings=bindings,
            priority=priority,
            deadline_seconds=seconds,
            budget=budget,
        )
        with self._lock:
            if not (self._running and self._accepting):
                self._books.rejected += 1
                raise ServiceStopped(
                    f"service {self.name!r} is not accepting requests"
                )
            request.request_id = request_id or f"q{next(self._ids)}"
            self._in_flight += 1
        ticket = Ticket(request)
        ticket.deadline = (
            Deadline(seconds, clock=self.clock) if seconds is not None else None
        )
        return ticket

    def _enqueue(self, ticket: Ticket) -> None:
        """Hand an admitted, planned request to the admission queue.

        A typed refusal at the door (a full queue, a stopping service)
        is counted as rejected and raised to the submitter; a queued
        request this one preempted is resolved shed.
        """
        request = ticket.request
        retry_after = self._retry_after_hint()
        refused, evicted = True, None
        try:
            request.submitted_at = self.clock()
            evicted = self._queue.offer(ticket, retry_after=retry_after)
            refused = False
        finally:
            with self._lock:  # the ticket is queued now, or refused
                self._in_flight -= 1
                if refused:
                    self._books.rejected += 1
                elif evicted is not None:
                    self._books.preempted += 1
                self._idle.notify_all()
        if evicted is not None:
            self._resolve_shed(
                evicted,
                ServiceOverloaded(
                    "request shed from the admission queue by a "
                    "higher-priority arrival",
                    queue_depth=self._queue.depth(),
                    retry_after=self._retry_after_hint(),
                    shed=True,
                ),
            )

    def serve(
        self,
        plan: Plan,
        *,
        timeout: Optional[float] = None,
        **kwargs,
    ) -> QueryResponse:
        """Submit and block for the response (convenience wrapper)."""
        return self.submit(plan, **kwargs).result(timeout)

    # ------------------------------------------------------ query planning
    def current_dead_methods(self) -> tuple:
        """The dead-method set planning must avoid right now, sorted.

        It is the breakers' forced-open set: a hard
        :class:`~repro.errors.MethodOutage` force-opens its method's
        breaker (in-process dispatch does so itself; an outage a worker
        tier reports is applied by :meth:`_observe_outage`), and a
        forced-open breaker never half-opens, so a method leaves the
        set only through :meth:`mark_method_recovered`.
        """
        return self.breakers.forced_open_methods()

    def mark_method_recovered(self, method: str) -> bool:
        """Declare one method's outage over (operator/probe action).

        Resets the method's breaker (a *forced*-open breaker never
        half-opens by itself), so the next planning pass sees the full
        schema again -- whose cached plan, keyed by the healthy schema
        fingerprint, is still warm.  Returns True when the method was
        dead.
        """
        dead = method in self.current_dead_methods()
        self.breakers.reset_method(method)
        if dead:
            with self._lock:
                self._books.recoveries += 1
        return dead

    def plan_for(
        self,
        query: ConjunctiveQuery,
        *,
        search_options: Optional[SearchOptions] = None,
    ) -> Plan:
        """The best plan for a query, via the plan cache when configured.

        :func:`~repro.planner.front.plan_request` plans over the source's
        schema minus the dead-method set, in the calling thread.  The
        degraded schema keys its own cache entry, so an outage costs one
        re-plan until recovery swings the key back.  Concurrent misses on
        one key may both search and store the same plan: wasted work at
        worst, never a wrong plan.  Raises typed
        :class:`~repro.errors.NoViablePlan` when no plan avoids the dead
        methods, and :class:`~repro.errors.ExecutionError` when no method
        is dead and the search found no plan.
        """
        outcome = self._plan_request(query, search_options)
        if isinstance(outcome, NoPlan):
            raise NoViablePlan(
                f"no plan for {query.name} avoids the dead methods",
                dead_methods=outcome.dead,
            )
        return outcome.plan

    def _plan_request(
        self,
        query: ConjunctiveQuery,
        search_options: Optional[SearchOptions],
        bindings: Optional[Mapping[object, object]] = None,
    ) -> Union[Planned, NoPlan]:
        """The front under the current dead set, booked: a search counts
        in ``planned`` (and in ``replans`` under an outage), and finding
        nothing with no method dead is an :class:`ExecutionError`."""
        dead = self.current_dead_methods()
        outcome = plan_request(
            self.source.schema, query, bindings=bindings, dead=dead,
            options=search_options, cache=self.plan_cache,
        )
        if outcome.searched:
            with self._lock:
                self._books.planned += 1
                if dead:
                    self._books.replans += 1
        if isinstance(outcome, NoPlan) and not dead:
            raise ExecutionError(
                f"no plan within the search budget for query "
                f"{canonical_query_text(outcome.query)}"
            )
        return outcome

    def submit_query(
        self,
        query: ConjunctiveQuery,
        *,
        search_options: Optional[SearchOptions] = None,
        **kwargs,
    ) -> Ticket:
        """Admit a query, plan it (cache-first), and queue the plan run.

        ``kwargs`` are those of :meth:`submit`.  The request is admitted
        first -- its id, budget and deadline exist before the search
        runs -- then planned as :meth:`plan_for` plans, with its bindings
        (``docs/theory.md``, "Rebinding a plan"), then queued exactly as
        :meth:`submit` queues a plan.

        A request that cannot be queued is resolved on the spot, typed
        and accounted like any served request: the search found no plan
        (:class:`~repro.errors.ExecutionError`), or the deadline ran
        out while planning (:class:`~repro.errors.DeadlineExceeded`).
        When the dead-method set leaves *no* viable plan the request is
        served anyway, from the accessible part of the surviving schema,
        marked ``partial`` and ``degraded``: a sound under-approximation
        of the certain answers, never a silent wrong one.  Door refusals
        raise as in :meth:`submit`.
        """
        ticket = self._admit(**kwargs)
        request = ticket.request
        try:
            outcome = self._plan_request(
                query, search_options, request.bindings
            )
            if isinstance(outcome, Planned):
                request.plan, request.bindings = outcome.plan, outcome.bindings
                if ticket.deadline is not None:
                    ticket.deadline.check("planning")
        except Exception as error:  # resolved typed, never raised
            response = QueryResponse(
                request.request_id,
                error=_typed(error, "unexpected planning failure"),
            )
        else:
            if isinstance(outcome, Planned):
                self._enqueue(ticket)
                return ticket
            response = self._accessible_part(ticket, outcome)
        self._finish(ticket, response)
        return ticket

    def serve_query(
        self,
        query: ConjunctiveQuery,
        *,
        search_options: Optional[SearchOptions] = None,
        timeout: Optional[float] = None,
        **kwargs,
    ) -> QueryResponse:
        """Submit a query, block, and re-plan around the outage it meets.

        The request that observes an outage is answered too: while an
        attempt fails and the dead-method set grew because of it, the
        query is submitted again, and planned around the dead methods or
        answered from the accessible part.  Every round grows the dead
        set, so there are at most as many rounds as methods; each attempt
        is an ordinarily admitted and accounted request.  A ``deadline``
        covers the whole call: a later attempt gets what is left of it.
        The last attempt's response is returned, ``failovers`` = attempts - 1.
        """
        seconds = kwargs.get("deadline")
        if seconds is None:
            seconds = self.default_deadline
        overall = (
            Deadline(seconds, clock=self.clock) if seconds is not None else None
        )
        failovers = 0
        while True:
            dead = set(self.current_dead_methods())
            if overall is not None:
                kwargs["deadline"] = max(overall.remaining(), 1e-9)
            response = self.submit_query(
                query, search_options=search_options, **kwargs
            ).result(timeout)
            if response.error is None or dead.issuperset(
                self.current_dead_methods()
            ):
                response.failovers = failovers
                return response
            failovers += 1

    def _accessible_part(
        self, ticket: Ticket, no_plan: NoPlan
    ) -> QueryResponse:
        """Answer a no-viable-plan query from the accessible part, marked.

        :func:`~repro.planner.front.accessible_answer` of the bound query
        over the schema the search ran over comes back ``partial`` +
        ``degraded``.  The request's governance is the healthy path's:
        the table goes through the budget's result-row check (a marked
        truncation, or the typed budget error), and an answer finished
        past the deadline is a typed :class:`~repro.errors.DeadlineExceeded`.
        """
        request = ticket.request
        table = failure = None
        truncated = 0
        started = perf_counter()
        try:
            table = accessible_answer(
                no_plan.schema, self.source.instance, no_plan.query
            )
            if ticket.deadline is not None:
                ticket.deadline.check("the accessible-part fallback")
            if request.budget is not None:
                table, truncated = request.budget.admit_result(table)
        except Exception as error:  # resolved typed, never raised
            table = None
            failure = _typed(error, "unexpected accessible-part failure")
        return QueryResponse(
            request.request_id,
            table=table,
            error=failure,
            partial=failure is None,
            truncated_rows=truncated,
            degraded=True,
            wall_time=perf_counter() - started,
        )

    # ------------------------------------------------------------- workers
    def _worker_loop(self) -> None:
        while True:
            ticket = self._queue.take()
            if ticket is None:
                return
            with self._lock:
                self._in_flight += 1
            try:
                response = self._execute(ticket)
            except Exception as error:  # never leave a ticket hanging
                response = QueryResponse(
                    ticket.request.request_id,
                    error=_typed(error, "unexpected worker failure"),
                )
            self._finish(ticket, response)

    def _finish(self, ticket: Ticket, response: QueryResponse) -> None:
        """The one tail of every admitted request that is not shed.

        A worker's response and one resolved in the submitting thread
        (a planning failure, an expired deadline, the accessible-part
        answer) take the same steps: the degraded flag, the outage
        observation, the resolve, the books.
        """
        outage = _outage_method(response.error)
        if not response.degraded and any(
            method != outage for method in self.current_dead_methods()
        ):
            # Anything served while another method is dead is visibly
            # flagged: the answer may be complete (a re-planned full
            # plan still computes the certain answers) but the serving
            # regime is degraded.  The outage this response met itself
            # does not count: in-process dispatch has already
            # force-opened its breaker, but the request was planned
            # without knowing.
            response.degraded = True
        if outage is not None:
            # Before the waiter wakes: whoever reads the response
            # must find the dead set it implies (serve_query does).
            self._observe_outage(outage)
        ticket.resolve(response)
        self._account(response)

    def _execute(self, ticket: Ticket) -> QueryResponse:
        request = ticket.request
        queue_wait = max(0.0, self.clock() - request.submitted_at)
        deadline: Optional[Deadline] = ticket.deadline
        if deadline is not None and deadline.expired:
            return QueryResponse(
                request.request_id,
                error=DeadlineExceeded(
                    f"deadline of {request.deadline_seconds}s expired "
                    f"before execution, after {queue_wait:.3f}s in the "
                    f"admission queue"
                ),
                stats=ExecStats(),
                queue_wait=queue_wait,
            )
        context = ExecutionContext(
            cache=self.cache,
            stats=ExecStats(),
            resilience=ResilientDispatcher(
                retry=self.retry,
                breakers=self.breakers,
                deadline=deadline,
                sleep=self._sleep,
            ),
            budget=request.budget,
        )
        table = failure = None
        truncated = 0
        started = perf_counter()
        try:
            if self.worker_pool is not None:
                table = self._run_on_pool(request, context)
            else:
                table = run_request(
                    self.source, request.plan, request.bindings, context
                )
            truncated = context.truncated_rows
        except ReproError as error:
            failure = error
        return QueryResponse(
            request.request_id,
            table=table,
            error=failure,
            complete=failure is None and truncated == 0,
            partial=truncated > 0,
            truncated_rows=truncated,
            stats=context.stats,
            queue_wait=queue_wait,
            wall_time=perf_counter() - started,
        )

    def _run_on_pool(self, request: QueryRequest, context: ExecutionContext):
        """Ship one admitted request to the execution tier.

        It crosses as data -- plan IR, term-IR bindings, the context's
        wire form -- and the answer comes back as sorted rows plus a
        stats dict (also on failure), which becomes ``context.stats``,
        and a truncation count, which becomes ``context.truncated_rows``.
        The deadline is enforced twice: by the worker on its own clock
        (an expired request frees its slot) and here as the wait
        timeout.  A tier-level failure (killed worker, timeout) or the
        typed error a worker reported is raised, on this request only.
        """
        payload = {
            # Memoized per plan object: a hot plan is encoded once.
            "plan": encoded_plan_ir(request.plan),
            "bindings": encode_bindings(request.bindings),
            **context.to_payload(),
        }
        with self._lock:
            self._on_tier += 1
        try:
            result = self.worker_pool.run_request(
                payload, timeout=payload["deadline"]
            )
        finally:
            with self._lock:
                self._on_tier -= 1
        if result.get("stats"):
            context.stats = ExecStats.from_dict(result["stats"])
        if not result.get("ok"):
            raise rebuild_error(result)
        context.truncated_rows = int(result.get("truncated", 0))
        return table_from_ir(result["table"])

    def _observe_outage(self, method: str) -> None:
        """Force-open a hard-down method's breaker: planning avoids it.

        In-process dispatch has already force-opened it; a worker
        tier's workers never touch this service's breakers, so the
        outage they report is applied here.
        """
        self.breakers.for_method(method).record_failure(permanent=True)
        with self._lock:
            self._books.outages_observed += 1

    def _account(self, response: QueryResponse) -> None:
        if response.wall_time:
            self._service_time.observe(response.wall_time)
        books = self._books
        with self._lock:
            self._in_flight -= 1
            if response.degraded:
                books.degraded_served += 1
            if response.complete:
                books.completed += 1
            elif response.partial:
                books.partial += 1
            else:
                books.failed += 1
            if response.stats is not None:
                self.stats.absorb(response.stats)
            self._idle.notify_all()

    def _resolve_shed(self, ticket: Ticket, error: ReproError) -> None:
        ticket.resolve(
            QueryResponse(ticket.request.request_id, error=error)
        )
        with self._lock:
            self._books.shed += 1

    def _retry_after_hint(self) -> float:
        """Expected seconds until capacity frees up (a hint, not a vow).

        Little's-law shape: (work waiting) x (mean service time) /
        (effective parallelism).  With an execution tier configured the
        effective width is the *narrower* of the service thread pool
        and the tier's worker count -- a 2-process tier behind 8
        service threads drains 2 requests at a time, not 8 -- and the
        tier's own backlog beyond the requests this service handed to
        it (other clients of a shared pool) counts as waiting work too.
        A request still planning in its submitting thread is in flight
        but not on the tier.
        """
        mean = self._service_time.mean or _DEFAULT_SERVICE_TIME
        with self._lock:
            waiting = self._queue.depth() + self._in_flight
        width = self.workers
        if self.worker_pool is not None:
            width = min(width, self.worker_pool.workers)
            backlog = self.worker_pool.backlog()
            with self._lock:
                waiting += max(0, backlog - self._on_tier)
        return max(mean, waiting * mean / width)

    # ---------------------------------------------------------- inspection
    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or in flight (for tests/drains)."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        with self._idle:
            while self._in_flight or self._queue.depth():
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining if remaining is not None else 0.1)
        return True

    def health(self) -> ServiceHealth:
        """The service's books (:class:`ServiceBooks`) with a
        point-in-time reading of queue, tiers, breakers and caches.

        ``worker_tier`` reports the execution tier's liveness (its
        ``alive`` flag goes false when a broken process pool could not
        be replaced -- the degradation is visible here, and requests
        fail with typed :class:`~repro.errors.WorkerCrashed`, never
        hang); ``plan_cache`` carries the hit/miss/store
        counters and ``planned`` how often search actually ran.
        """
        worker_tier = (
            self.worker_pool.health() if self.worker_pool is not None else None
        )
        plan_cache = (
            self.plan_cache.counters() if self.plan_cache is not None else None
        )
        dead = self.current_dead_methods()
        with self._lock:
            return ServiceHealth(
                **vars(self._books),
                running=self._running,
                accepting=self._accepting,
                workers=self.workers,
                queue_depth=self._queue.depth(),
                queue_capacity=self._queue.capacity,
                in_flight=self._in_flight,
                mean_service_time=self._service_time.mean,
                breakers=self.breakers.states(),
                dead_methods=list(dead),
                cache=self.cache.as_dict() if self.cache is not None else None,
                stats=self.stats.as_dict(),
                worker_tier=worker_tier,
                plan_cache=plan_cache,
            )

    def __repr__(self) -> str:
        return f"QueryService({self.name}: {self.health().summary()})"
