"""The concurrent query service: a bounded worker pool over one runtime.

:class:`QueryService` is the serving loop the ROADMAP's "heavy traffic"
north star needs: many clients submit plan runs concurrently, a fixed
pool of worker threads executes them over *shared* runtime state (one
:class:`~repro.data.source.InMemorySource` with its per-method indexes,
one :class:`~repro.exec.cache.AccessCache`, one
:class:`~repro.exec.resilience.BreakerRegistry`), and the service stays
correct and responsive no matter the offered load:

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
  queued count) and :class:`~repro.exec.budget.ResourceBudget` (row
  budgets inside :meth:`Plan.execute <repro.plans.plan.Plan.execute>`,
  access/cost budgets via
  :class:`~repro.data.decorators.BudgetedSource`), so one pathological
  request degrades to a typed error or an explicitly marked partial
  answer instead of starving the pool.
* **isolation of mutable state** -- workers share only lock-protected
  structures; every request gets its own
  :class:`~repro.exec.resilience.ResilientDispatcher` (built over the
  shared breakers) and its own :class:`~repro.exec.stats.ExecStats`,
  absorbed into the service's totals (``stats``, no command transcript)
  under the service lock, failed requests included.
* **degraded planning** -- the dead-method set is the breakers'
  forced-open set: an outage force-opens its method's breaker, and
  :meth:`plan_for` plans over the schema minus those methods.
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
import math
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional

from repro.cost.bounds import SizeBounds
from repro.cost.calibration import CalibrationStore
from repro.data.instance import _to_constant
from repro.errors import (
    DeadlineExceeded,
    ExecutionError,
    MethodOutage,
    NoViablePlan,
    PlanFailed,
    PlanInadmissible,
    ReproError,
    ServiceOverloaded,
    ServiceStopped,
)
from repro.exec.batch import run_request
from repro.exec.budget import ERROR, ResourceBudget
from repro.exec.cache import AccessCache
from repro.exec.context import ExecutionContext
from repro.exec.resilience import (
    BreakerRegistry,
    Deadline,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.exec.stats import ExecStats
from repro.logic.atoms import Atom
from repro.logic.queries import ConjunctiveQuery
from repro.obs import PER_RUN, Record
from repro.planner.plan_cache import PlanCache, canonical_query_text, plan_cache_key
from repro.planner.search import (
    SearchOptions,
    accessible_answer,
    find_plan_avoiding,
)
from repro.plans.ir import table_from_ir
from repro.plans.plan import Plan
from repro.service.admission import AdmissionQueue
from repro.service.workers import (
    LatencyTracker,
    WorkerPool,
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

    The outage may come direct from in-process execution, rebuilt with
    its method context from a worker-tier failure dict, or wrapped in a
    :class:`PlanFailed`.
    """
    if isinstance(error, PlanFailed) and error.cause is not None:
        error = error.cause
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
    #: Submissions refused at the door with a typed error (overload,
    #: stopped service, inadmissible plan); they never got a ticket.
    rejected: int = 0
    #: Of those, plans whose static result-size bound already exceeded
    #: the budget's hard row ceiling.
    rejected_inadmissible: int = 0
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
    calibration: Optional[Dict[str, Any]] = _gauge(default=None)

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
        default_budget: Optional[ResourceBudget] = None,
        clock=time.monotonic,
        name: str = "service",
        executor: str = "interpreter",
        worker_pool: Optional[WorkerPool] = None,
        plan_cache: Optional[PlanCache] = None,
        calibration: Optional[CalibrationStore] = None,
        size_bounds: Optional[SizeBounds] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        self.source = source
        self.workers = workers
        self.cache = cache
        self.executor = executor
        # Feedback loop: every served request's ExecStats are folded
        # into the calibration store (per-method fan-out/selectivity),
        # which cost functions holding the store read on the next plan.
        self.calibration = calibration
        # Static size bounds backing admission-time inadmissibility
        # checks: a plan whose provable result-size floor already
        # exceeds the request's hard row ceiling is rejected typed,
        # before a single access is dispatched.
        self.size_bounds = size_bounds
        schema = getattr(source, "schema", None)
        self._method_relations: Dict[str, str] = (
            {m.name: m.relation for m in schema.methods}
            if schema is not None
            else {}
        )
        # The execution tier: None keeps plan runs in this process's
        # worker threads; a WorkerPool ships them (plan IR + bindings +
        # budget, never pickles) to the tier -- typically a
        # ProcessWorkerPool, which is what escapes the GIL.
        self.worker_pool = worker_pool
        # Cross-request plan cache consulted by submit_query before
        # invoking Algorithm 1 search.
        self.plan_cache = plan_cache
        self.retry = retry
        self.breakers = BreakerRegistry(clock=clock)
        self.default_deadline = default_deadline
        self.default_budget = default_budget
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
        refuses the request at the door,
        :class:`~repro.errors.ServiceStopped` when the service is not
        accepting, and :class:`~repro.errors.PlanInadmissible` when the
        plan's static result bound dooms its budget; each counts as
        ``rejected``.  A lower-priority ticket preempted by this
        admission is resolved with the same typed overload error and
        counts as ``shed`` -- every submitted request is accounted for.
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

        Mints the request's id, gives it a fresh copy of the default
        budget and starts its deadline on the service clock; the
        request's ``plan`` is ``None`` until planned.  The returned
        ticket is held by the calling thread (it counts as in flight)
        until :meth:`_enqueue` or :meth:`_finish` takes it.  Raises
        :class:`~repro.errors.ServiceStopped`, counted as rejected,
        when the service is not accepting.
        """
        seconds = deadline if deadline is not None else self.default_deadline
        if budget is None and self.default_budget is not None:
            budget = self.default_budget.fresh()
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

        A typed refusal at the door (an inadmissible plan, a full
        queue, a stopping service) is counted as rejected and raised
        to the submitter; a queued request this one preempted is
        resolved shed.
        """
        request = ticket.request
        retry_after = self._retry_after_hint()
        refused, evicted = True, None
        try:
            self._check_admissible(request.plan, request.budget)
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

    def _check_admissible(
        self, plan: Plan, budget: Optional[ResourceBudget]
    ) -> None:
        """Reject plans whose static result bound dooms the budget.

        Only fires when static size bounds are configured, the budget's
        result ceiling is a hard error (``on_result_overflow="error"``
        -- truncate-mode requests succeed partially, so they are never
        doomed), and the bound is *finite*: an unknown (infinite) bound
        proves nothing, and admission stays permissive on no-proof.
        Conversely a finite bound at or under the ceiling proves the
        admitted request can never trip the result check.
        """
        if (
            self.size_bounds is None
            or budget is None
            or budget.max_result_rows is None
            or budget.on_result_overflow != ERROR
        ):
            return
        bound = self.size_bounds.result_bound(plan)
        if math.isinf(bound) or bound <= budget.max_result_rows:
            return
        with self._lock:
            self._books.rejected_inadmissible += 1
        raise PlanInadmissible(
            f"plan {plan.name!r} statically bounded to "
            f"{bound:.0f} result rows, over the hard budget ceiling of "
            f"{budget.max_result_rows}; rejected before execution",
            kind="result",
            bound=bound,
            ceiling=budget.max_result_rows,
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

        The cache key covers the canonical query text, the schema
        fingerprint and the cost-model identity (see
        :mod:`repro.planner.plan_cache`): what decides *which plan is
        cheapest*.  It covers no search option, so the cache holds
        optima only: a ``stop_on_first`` request asks for any plan,
        neither reads nor writes the cache, and always searches.  (A
        service whose callers vary ``max_accesses`` or the chase policy
        caches what the first of them found.)  On a miss the search
        runs here, in the calling thread -- for :meth:`submit_query`
        the submitting one, after admission, so the request's deadline
        is running -- and the result is stored for every later request.  Concurrent misses on the same key may
        both search; both store the same answer, so this is wasted work
        at worst, never a wrong plan.

        Under a nonempty dead-method set, planning runs over
        ``schema.without_methods(dead)``: the degraded schema has a
        *different fingerprint*, so the dead set is part of the cache
        key by construction -- an outage costs one re-plan (a cache
        miss on the degraded key), then every request hits the degraded
        entry until recovery swings the key back.  Raises typed
        :class:`~repro.errors.NoViablePlan` when no plan avoids the
        dead methods.
        """
        options = search_options if search_options is not None else SearchOptions()
        dead = self.current_dead_methods()
        schema = self.source.schema
        key = None
        if self.plan_cache is not None and not options.stop_on_first:
            # The key is asked for before any search, so the degraded
            # schema is built here as well as inside find_plan_avoiding.
            surviving = schema.without_methods(dead) if dead else schema
            key = plan_cache_key(query, surviving, options.cost)
            hit = self.plan_cache.get(key)
            if hit is not None:
                return hit.plan
        with self._lock:
            self._books.planned += 1
            if dead:
                self._books.replans += 1
        try:
            result = find_plan_avoiding(schema, query, dead, options)
        except NoViablePlan as error:
            if dead:
                raise
            raise ExecutionError(
                f"no plan within the search budget for query "
                f"{canonical_query_text(query)}"
            ) from error
        if key is not None:
            meta = {
                "query": canonical_query_text(query),
                "schema": surviving.fingerprint(),
            }
            if dead:
                meta["dead_methods"] = list(dead)
            self.plan_cache.put(key, result.best_plan, result.best_cost, meta=meta)
        return result.best_plan

    def submit_query(
        self,
        query: ConjunctiveQuery,
        *,
        search_options: Optional[SearchOptions] = None,
        **kwargs,
    ) -> Ticket:
        """Admit a query, plan it (cache-first), and queue the plan run.

        ``kwargs`` are those of :meth:`submit` (bindings, priority,
        deadline, budget, request id).  The request is admitted first
        -- its id, budget and deadline exist before the search runs --
        then planned by :meth:`plan_for` in the submitting thread (so
        back-to-back calls search serially), then queued exactly as
        :meth:`submit` queues a plan.  With a warm :class:`PlanCache`
        the search step disappears and only execution remains.

        A request that cannot be queued is resolved on the spot, typed
        and accounted like any served request: the search found no plan
        (:class:`~repro.errors.ExecutionError`), or the deadline ran
        out while planning (:class:`~repro.errors.DeadlineExceeded`).
        When the dead-method set leaves *no* viable plan the request is
        served anyway: the query is evaluated over the accessible part
        of the surviving schema and the response comes back explicitly
        marked ``partial`` and ``degraded`` -- a sound under-approximation
        of the certain answers, never a silent wrong answer and never a
        per-request error storm.  Door refusals raise as in
        :meth:`submit`.
        """
        ticket = self._admit(**kwargs)
        try:
            ticket.request.plan = self.plan_for(
                query, search_options=search_options
            )
            if ticket.deadline is not None:
                ticket.deadline.check("planning")
        except NoViablePlan:
            response = self._accessible_part(ticket, query)
        except Exception as error:  # resolved typed, never raised
            response = QueryResponse(
                ticket.request.request_id,
                error=_typed(error, "unexpected planning failure"),
            )
        else:
            self._enqueue(ticket)
            return ticket
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
        query is submitted again -- :meth:`plan_for` then plans over
        the schema minus the dead methods, or :meth:`submit_query`
        degrades to the accessible part.  Every round grows the dead
        set, so there are at most as many rounds as methods, and each
        attempt is an ordinarily admitted and accounted request.  A
        ``deadline`` covers the whole call: it is measured from the
        first submission and a later attempt gets what is left of it.
        The response of the last attempt is returned, with
        ``failovers`` = attempts - 1.
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
        self, ticket: Ticket, query: ConjunctiveQuery
    ) -> QueryResponse:
        """Answer a no-viable-plan query from the accessible part, marked.

        The answer is computed in the submitting thread
        (:func:`~repro.planner.search.accessible_answer`, read off the
        wrapped instance) and comes back ``partial`` + ``degraded``.
        The request's governance is the healthy path's: the table goes
        through the budget's result-row check (a marked truncation, or
        the typed budget error), and an answer finished past the
        deadline is a typed :class:`~repro.errors.DeadlineExceeded`.
        """
        request = ticket.request
        budget = request.budget
        table = failure = None
        started = perf_counter()
        try:
            table = accessible_answer(
                self.source.schema,
                self.source.instance,
                self._bind_query(query, request.bindings),
                self.current_dead_methods(),
            )
            if ticket.deadline is not None:
                ticket.deadline.check("the accessible-part fallback")
            if budget is not None:
                table = budget.admit_result(table)
        except Exception as error:  # resolved typed, never raised
            table = None
            failure = _typed(error, "unexpected accessible-part failure")
        return QueryResponse(
            request.request_id,
            table=table,
            error=failure,
            partial=failure is None,
            truncated_rows=budget.truncated_rows if budget is not None else 0,
            degraded=True,
            wall_time=perf_counter() - started,
        )

    @staticmethod
    def _bind_query(
        query: ConjunctiveQuery,
        bindings: Optional[Mapping[object, object]],
    ) -> ConjunctiveQuery:
        """Substitute parameter constants into a query's body atoms."""
        if not bindings:
            return query
        mapping = {
            _to_constant(key): _to_constant(value)
            for key, value in bindings.items()
        }
        atoms = tuple(
            Atom(
                atom.relation,
                tuple(mapping.get(term, term) for term in atom.terms),
            )
            for atom in query.atoms
        )
        return ConjunctiveQuery(query.head, atoms, name=query.name)

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
                    self.source,
                    request.plan,
                    request.bindings,
                    context,
                    executor=self.executor,
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
        and a truncation count for ``context.budget``.  The deadline is
        enforced twice: by the worker on its own clock (an expired
        request frees its slot) and here as the wait
        timeout.  A tier-level failure (killed worker, timeout) or the
        typed error a worker reported is raised, on this request only.
        """
        payload = {
            # Memoized per plan object: a hot plan (and every hedge
            # duplicate the tier issues for it) is encoded once.
            "plan": encoded_plan_ir(request.plan),
            "bindings": encode_bindings(request.bindings),
            "executor": self.executor,
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
        if context.budget is not None:
            context.budget.truncated_rows = int(result.get("truncated", 0))
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
        # Fold the request's observed row flow into the calibration
        # store *outside* the service lock -- the store has its own --
        # so planning threads reading estimates never wait on accounting.
        if self.calibration is not None and response.stats is not None:
            try:
                self.calibration.observe_stats(
                    response.stats, relation_of=self._method_relations
                )
            except Exception:  # pragma: no cover -- feedback is advisory
                # The calibration fold must never stop the books from
                # balancing: the ticket is already resolved, and an
                # unaccounted request breaks served-counter invariants.
                pass
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
        but not on the tier.  The backlog counts each request once:
        hedge duplicates are not in it.
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
        hang); ``plan_cache`` carries the hit/miss/invalidation
        counters and ``planned`` how often search actually ran.
        """
        worker_tier = (
            self.worker_pool.health() if self.worker_pool is not None else None
        )
        plan_cache = (
            self.plan_cache.counters() if self.plan_cache is not None else None
        )
        calibration = (
            self.calibration.counters()
            if self.calibration is not None
            else None
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
                calibration=calibration,
            )

    def __repr__(self) -> str:
        return f"QueryService({self.name}: {self.health().summary()})"
