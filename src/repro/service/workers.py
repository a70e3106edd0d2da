"""The process-parallel worker tier: ship plans and specs, not pickles.

CPython's GIL means the thread pool inside :class:`~repro.service.
QueryService` only scales when requests *wait* (the `LatencySource`
benchmark); CPU-bound chase/search/columnar work serializes.  This
module moves plan execution into worker **processes** while keeping the
service's externally observable behaviour bit-identical:

* **What crosses the boundary is data, never live objects.**  A
  :func:`source_to_spec` *source spec* (plain JSON-able dict: schema
  serialization, canonical instance dump, wrapper stack) is shipped
  once per worker via the executor's initializer, so each worker
  rehydrates its own source -- with its own per-method indexes -- once,
  not per request.  Requests then ship only the plan IR
  (:mod:`repro.plans.ir`), encoded bindings and the wire form of their
  :class:`~repro.exec.context.ExecutionContext` (budget, retry policy,
  the seconds the deadline has left); answers
  come back as sorted row lists (:func:`~repro.plans.ir.table_to_ir`)
  plus an ``ExecStats.as_dict()`` payload the parent rebuilds and
  merges.  No pickled closures, no live sources -- which is also what
  makes the tier ``spawn``-safe (the default start method here).

* **What does NOT cross the boundary** -- the parent's
  :class:`~repro.exec.cache.AccessCache`, circuit breakers and fault
  wrapper attempt counters -- is per-process state in the workers.
  That is still sound: caches and breakers are *monotone observations*
  of a deterministic source (docs/theory.md, "Concurrent serving"), so
  partitioning observations among processes can change efficiency,
  never answers; the seeded fault schedule is keyed by
  ``(seed, method, inputs)`` (not by call order), so a faulty access
  fails the same way in any process.

* **Crashes are typed, not hung.**  A killed worker breaks the whole
  ``ProcessPoolExecutor``; :class:`ProcessWorkerPool` maps that to a
  typed :class:`~repro.errors.WorkerCrashed` for the affected request,
  recreates the pool, and counts the restart -- surfaced through
  ``QueryService.health()``.

:class:`ThreadWorkerPool` keeps the old in-process behaviour behind the
same interface (useful on small data, where serialization dominates,
and as the degraded fallback when processes are unavailable).
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from multiprocessing import get_context
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import repro.errors as errors_module
from repro.data.decorators import LatencySource, StormyLatencySource
from repro.data.instance import Instance, _to_constant
from repro.data.source import InMemorySource
from repro.errors import (
    AccessError,
    DeadlineExceeded,
    ExecutionError,
    ReproError,
    WorkerCrashed,
    WorkerStalled,
)
from repro.exec.batch import run_request
from repro.exec.context import ExecutionContext
from repro.faults.source import FaultInjectingSource
from repro.logic.terms import Constant
from repro.plans.ir import (
    ir_to_plan,
    plan_to_ir,
    table_to_ir,
    term_from_ir,
    term_to_ir,
)
from repro.schema.serialize import schema_from_dict
from repro.source_contract import (
    SPEC_KIND,
    SPEC_VERSION,
    SourceSpecError,
    SourceWrapper,
    source_epoch,
    source_to_spec,
)
from repro.sources.base import PacedSource
from repro.sources.http import HTTPSource
from repro.sources.sqlite import SQLiteSource

# -------------------------------------------------------------- source spec
#: Every class a spec can name, by the kind its ``to_spec()`` writes.
#: Explicit, not self-registration at import: a ``spawn`` worker imports
#: only what this module imports.
SPEC_CLASSES = {
    cls.spec_kind: cls
    for cls in (
        InMemorySource,
        SQLiteSource,
        HTTPSource,
        LatencySource,
        StormyLatencySource,
        PacedSource,
        FaultInjectingSource,
    )
}


def spec_to_source(spec: Mapping[str, Any]):
    """Rehydrate the source (stack) described by :func:`source_to_spec`.

    A ``"wrap"`` spec names a wrapper class and nests its ``"inner"``;
    any other must carry the format header and names a backend ``"kind"``.
    """
    wrapped = "wrap" in spec
    if not wrapped and (
        spec.get("format") != SPEC_KIND or spec.get("version") != SPEC_VERSION
    ):
        raise SourceSpecError(
            f"not a source spec (format={spec.get('format')!r}, "
            f"version={spec.get('version')!r})"
        )
    kind = spec["wrap" if wrapped else "kind"]
    cls = SPEC_CLASSES.get(kind)
    if cls is None or issubclass(cls, SourceWrapper) != wrapped:
        raise SourceSpecError(f"unknown source spec kind {kind!r}")
    if wrapped:
        return cls.from_spec(spec, spec_to_source(spec["inner"]))
    return cls.from_spec(
        spec,
        schema_from_dict(spec["schema"]),
        Instance.from_dict(spec["instance"]),
    )


# ----------------------------------------------------------- request payload
def encode_bindings(
    bindings: Optional[Mapping[object, object]]
) -> Optional[List[List[Dict[str, Any]]]]:
    """Encode a constant-substitution mapping as term-IR pairs."""
    if not bindings:
        return None
    return [
        [term_to_ir(_to_constant(key)), term_to_ir(_to_constant(value))]
        for key, value in bindings.items()
    ]


def decode_bindings(
    encoded: Optional[List[List[Dict[str, Any]]]]
) -> Optional[Dict[Constant, Constant]]:
    """Inverse of :func:`encode_bindings`."""
    if not encoded:
        return None
    return {
        term_from_ir(key): term_from_ir(value) for key, value in encoded
    }


# Encoded-plan memo: hedged process-tier dispatch ships the full plan IR
# per duplicate, and a hot plan (plan-cache hit) is re-encoded for every
# request.  Keyed weakly by the (frozen, hashable) Plan object so the
# memo lives exactly as long as the plan-cache entry that keeps the plan
# alive; encoding happens at most once per plan object.
_ENCODED_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_ENCODED_PLANS_LOCK = threading.Lock()


def encoded_plan_ir(plan) -> Dict[str, Any]:
    """``plan_to_ir(plan)``, memoized per plan object.

    The dispatch-path encoder: every pool payload (and every hedge
    duplicate of it) shares one encoded IR dict per plan.  Sound
    because plans are immutable and :func:`~repro.plans.ir.ir_to_plan`
    never mutates its input.  Unhashable/unweakreferenceable plans fall
    back to plain encoding.
    """
    try:
        with _ENCODED_PLANS_LOCK:
            cached = _ENCODED_PLANS.get(plan)
    except TypeError:
        return plan_to_ir(plan)
    if cached is not None:
        return cached
    encoded = plan_to_ir(plan)
    try:
        with _ENCODED_PLANS_LOCK:
            _ENCODED_PLANS[plan] = encoded
    except TypeError:
        pass
    return encoded


def execute_payload(
    source, payload: Mapping[str, Any], cancel=None
) -> Dict[str, Any]:
    """Run one shipped request against a source; return a plain dict.

    This is the single execution path both pool flavours share: the
    process tier calls it in the worker against the rehydrated source,
    the thread tier calls it in-process against the shared source.  The
    payload is ``plan`` (IR), ``bindings``, ``executor`` and the wire
    form of an :class:`~repro.exec.context.ExecutionContext`
    (``collect_stats``, ``budget``, ``retry``, ``deadline``), every key
    but ``plan`` optional; the run itself is
    :func:`~repro.exec.batch.run_request`, as in the service.
    Errors come back as ``{"ok": False, "error_type", "error"}`` so the
    parent can re-raise the matching typed :mod:`repro.errors` class --
    exception *instances* never cross the boundary.

    ``cancel`` (thread tier only) is a :class:`threading.Event` the
    command loop polls between commands: a hedge duplicate whose twin
    already won stops cooperatively instead of running to completion.
    A successful result carries the source's epoch token (``"epoch"``)
    so callers can tell which backend snapshot answered.
    """
    try:
        context = ExecutionContext.from_payload(payload, cancel=cancel)
        table = run_request(
            source,
            ir_to_plan(payload["plan"]),
            decode_bindings(payload.get("bindings")),
            context,
            executor=payload.get("executor", "interpreter"),
        )
        stats = context.stats
        return {
            "ok": True,
            "table": table_to_ir(table),
            "truncated": context.truncated_rows,
            "stats": stats.as_dict() if stats is not None else None,
            "epoch": source_epoch(source),
        }
    except ReproError as error:
        failure = {
            "ok": False,
            "error_type": type(error).__name__,
            "error": str(error),
        }
        # Access-layer context crosses the boundary too: the service's
        # method-health registry needs to know *which* method died, and
        # a string message is not a protocol.
        for attribute in ("method", "relation"):
            value = getattr(error, attribute, None)
            if isinstance(value, str):
                failure[attribute] = value
        return failure


def rebuild_error(result: Mapping[str, Any]) -> ReproError:
    """Rebuild the typed error a worker reported for one request.

    Access errors are rebuilt *with* their method/relation context when
    the worker shipped it, so parent-side consumers (the service's
    method-health registry) see the same typed
    error they would have seen executing in-process.
    """
    error_type = result.get("error_type", "ExecutionError")
    error_class = getattr(errors_module, error_type, ExecutionError)
    if not (
        isinstance(error_class, type) and issubclass(error_class, ReproError)
    ):
        error_class = ExecutionError
    message = str(result.get("error", "worker failure"))
    kwargs: Dict[str, Any] = {}
    if issubclass(error_class, AccessError):
        for attribute in ("method", "relation"):
            value = result.get(attribute)
            if isinstance(value, str):
                kwargs[attribute] = value
    try:
        return error_class(message, **kwargs)
    except TypeError:
        return ExecutionError(message)


# ------------------------------------------------------- worker process side
#: The once-per-worker rehydrated source (set by the pool initializer).
_WORKER_SOURCE = None


def _init_worker(spec: Mapping[str, Any]) -> None:
    """Executor initializer: rehydrate the source once per process."""
    global _WORKER_SOURCE
    _WORKER_SOURCE = spec_to_source(spec)


def _run_payload_task(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The task the parent submits; referenced by name, so spawn-safe."""
    if _WORKER_SOURCE is None:
        return {
            "ok": False,
            "error_type": "ExecutionError",
            "error": "worker process was never initialized with a source spec",
        }
    return execute_payload(_WORKER_SOURCE, payload)


# -------------------------------------------------------- latency tracking
class LatencyTracker:
    """Streaming EWMA mean + P95 estimate of request service times.

    The P95 is a Robbins-Monro stochastic quantile approximation: each
    sample nudges the estimate up by a ``quantile`` fraction of one
    step when the sample lies above it, down by ``1 - quantile`` when
    below, with the step scaled to the current mean -- so the tail
    estimate converges without storing any samples.  :meth:`hedge_delay`
    is what hedged dispatch waits before duplicating a request: the
    current P95 (clamped into ``[min_delay, max_delay]``), i.e. long
    enough that ~95% of requests come back unhedged and only the tail
    pays for a duplicate.  Until ``warmup`` samples arrive the tracker
    answers ``initial_delay`` -- a cold estimator should not hedge
    aggressively.
    """

    def __init__(
        self,
        alpha: float = 0.2,
        quantile: float = 0.95,
        initial_delay: float = 0.05,
        min_delay: float = 0.001,
        max_delay: float = 5.0,
        warmup: int = 5,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be within (0, 1]")
        if not 0 < quantile < 1:
            raise ValueError("quantile must be within (0, 1)")
        self.alpha = alpha
        self.quantile = quantile
        self.initial_delay = initial_delay
        self.min_delay = min_delay
        self.max_delay = max_delay
        self.warmup = warmup
        self._lock = threading.Lock()
        self.samples = 0
        self.mean = 0.0
        self.p95 = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one observed request service time in."""
        if seconds < 0:
            return
        with self._lock:
            self.samples += 1
            if self.samples == 1:
                self.mean = seconds
                self.p95 = seconds
                return
            self.mean += self.alpha * (seconds - self.mean)
            step = self.alpha * max(self.mean, 1e-6)
            if seconds > self.p95:
                self.p95 += step * self.quantile
            else:
                self.p95 = max(0.0, self.p95 - step * (1.0 - self.quantile))

    def hedge_delay(self) -> float:
        """How long to wait before issuing a hedge duplicate."""
        with self._lock:
            if self.samples < self.warmup:
                return self.initial_delay
            return min(self.max_delay, max(self.min_delay, self.p95))

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-able snapshot (surfaced by pool ``health()``)."""
        with self._lock:
            return {
                "samples": self.samples,
                "mean": self.mean,
                "p95": self.p95,
            }


# ------------------------------------------------------------------- pools
class WorkerPool:
    """The execution-tier interface ``QueryService`` dispatches through.

    One blocking call per request: :meth:`run_request` takes the plain
    payload dict and returns the plain result dict of
    :func:`execute_payload` (raising typed errors only for tier-level
    failures: crash, stall, timeout).  ``start``/``shutdown`` bracket
    the tier's lifetime; :meth:`health` is a JSON-able liveness
    snapshot.

    Both concrete tiers share two opt-in resilience features:

    * a **watchdog** (``watchdog_seconds``): a stall bound per request,
      independent of (and typically much tighter than) the request
      deadline.  A request that exceeds it while its worker is alive
      but stuck surfaces typed :class:`~repro.errors.WorkerStalled`
      instead of blocking its slot forever -- the process tier also
      kills and recreates the pool to reclaim the slot;
    * **hedged dispatch** (``hedge=True``): after an adaptive
      EWMA-P95-based delay (see :class:`LatencyTracker`) the request is
      duplicated to a second worker and the first result wins, cutting
      tail latency.  Safe because plan execution is deterministic and
      accesses are idempotent under set semantics (docs/theory.md,
      "Chaos model, hedging, and degraded serving").
    """

    kind = "none"

    def _init_resilience(
        self,
        watchdog_seconds: Optional[float],
        hedge: bool,
        hedge_delay: Optional[float],
    ) -> None:
        """Shared constructor plumbing for watchdog + hedging state."""
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive")
        if hedge_delay is not None and hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive")
        self.watchdog_seconds = watchdog_seconds
        self.hedge = hedge
        self._hedge_delay = hedge_delay
        self.latency = LatencyTracker()
        self.stalls = 0
        self.watchdog_kills = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_waste = 0
        self.hedge_cancelled = 0
        self._pending = 0

    def hedge_delay(self) -> float:
        """The delay before a hedge duplicate (fixed or adaptive)."""
        if self._hedge_delay is not None:
            return self._hedge_delay
        return self.latency.hedge_delay()

    def alive(self) -> bool:
        """Whether the tier can currently take requests."""
        with self._lock:
            return self._started and self._executor is not None

    def _stall_bound(self, timeout: Optional[float]) -> Optional[float]:
        """The wait on one request: deadline or watchdog, the nearer."""
        if self.watchdog_seconds is None or timeout is None:
            return timeout if timeout is not None else self.watchdog_seconds
        return min(timeout, self.watchdog_seconds)

    def backlog(self) -> int:
        """Requests currently inside the tier (submitted, unfinished)."""
        with self._lock:
            return self._pending

    def _resilience_health(self) -> Dict[str, Any]:
        """The watchdog/hedging slice of ``health()``; caller holds lock."""
        return {
            "pending": self._pending,
            "watchdog_seconds": self.watchdog_seconds,
            "stalls": self.stalls,
            "watchdog_kills": self.watchdog_kills,
            "hedge": self.hedge,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "hedge_waste": self.hedge_waste,
            "hedge_cancelled": self.hedge_cancelled,
            "latency": self.latency.as_dict(),
        }

    def _wait_hedged(
        self,
        primary: Future,
        submit: Callable[[], Future],
        timeout: Optional[float],
    ) -> Dict[str, Any]:
        """Await a request future, duplicating it after the hedge delay.

        Returns the winner's result dict; raises ``FutureTimeoutError``
        when neither copy answered within ``timeout`` (both copies are
        cancelled best-effort first) and whatever the winner raised
        otherwise.  Counter protocol: ``hedges`` counts duplicates
        issued, ``hedge_wins`` duplicates that answered first,
        ``hedge_waste`` duplicates outrun by their primary.
        """
        started = time.monotonic()
        delay = self.hedge_delay()
        if not self.hedge or (timeout is not None and delay >= timeout):
            return primary.result(timeout=timeout)
        try:
            return primary.result(timeout=delay)
        except FutureTimeoutError:
            pass
        hedge = submit()
        with self._lock:
            self.hedges += 1
        remaining = (
            None
            if timeout is None
            else max(0.0, timeout - (time.monotonic() - started))
        )
        done, _ = futures_wait(
            [primary, hedge], timeout=remaining, return_when=FIRST_COMPLETED
        )
        if not done:
            self._cancel_loser(hedge)
            raise FutureTimeoutError()
        # Prefer the primary when both raced to completion: its result
        # is identical (deterministic execution) and the accounting
        # then calls the duplicate what it was -- waste.
        winner = primary if primary in done else hedge
        loser = hedge if winner is primary else primary
        with self._lock:
            if winner is hedge:
                self.hedge_wins += 1
            else:
                self.hedge_waste += 1
        self._cancel_loser(loser)
        return winner.result()

    def _cancel_loser(self, future: Future) -> None:
        """Reclaim a hedge loser's slot, best-effort.

        The base behaviour is ``Future.cancel()`` -- which only helps
        while the loser is still queued.  Tiers that can reach into a
        *running* duplicate (the thread tier's cancellation tokens)
        override this.
        """
        future.cancel()

    def start(self) -> "WorkerPool":
        """Bring the tier up; returns ``self`` for ``with``-chaining."""
        return self

    def shutdown(self) -> None:  # pragma: no cover - trivial default
        """Tear the tier down; idempotent."""
        pass

    def run_request(
        self, payload: Mapping[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Execute one request payload and return its result dict."""
        raise NotImplementedError

    def health(self) -> Dict[str, Any]:
        """A JSON-able liveness/counters snapshot of the tier."""
        return {"tier": self.kind, "alive": True}

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class ProcessWorkerPool(WorkerPool):
    """Plan execution on a ``ProcessPoolExecutor`` over a source spec.

    ``start_method`` defaults to ``"spawn"``: slowest to start but
    immune to fork-time lock/thread hazards, and it proves the spec
    path carries *everything* a worker needs (fork can silently lean on
    inherited state).  The differential tests run both.

    A broken pool (a worker killed mid-request) fails the affected
    request with :class:`~repro.errors.WorkerCrashed` and the pool is
    recreated immediately, so the next request is served by fresh
    workers -- liveness is reported via :meth:`health`.
    """

    kind = "process"

    def __init__(
        self,
        source_spec: Mapping[str, Any],
        workers: int = 8,
        start_method: str = "spawn",
        watchdog_seconds: Optional[float] = None,
        hedge: bool = False,
        hedge_delay: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        self.source_spec = dict(source_spec)
        self.workers = workers
        self.start_method = start_method
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._started = False
        self.tasks = 0
        self.crashes = 0
        self.restarts = 0
        self._init_resilience(watchdog_seconds, hedge, hedge_delay)

    @classmethod
    def for_source(
        cls, source, workers: int = 8, start_method: str = "spawn", **kwargs
    ) -> "ProcessWorkerPool":
        """Build a pool from a live source (via :func:`source_to_spec`)."""
        return cls(
            source_to_spec(source),
            workers=workers,
            start_method=start_method,
            **kwargs,
        )

    def start(self) -> "ProcessWorkerPool":
        """Spin up the process executor (workers rehydrate the spec)."""
        with self._lock:
            self._started = True
            self._ensure_executor()
        return self

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """Create (or recreate) the executor; caller holds the lock."""
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context(self.start_method),
                initializer=_init_worker,
                initargs=(self.source_spec,),
            )
        return self._executor

    def shutdown(self) -> None:
        """Stop the executor and mark the tier not-started."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._started = False
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def run_request(
        self, payload: Mapping[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Ship one payload to a worker process and await its result.

        A broken pool (killed worker) raises typed :class:`WorkerCrashed`
        and recreates the executor so the next request can succeed.
        With a watchdog configured, a request that exceeds its stall
        bound while its worker is alive-but-stuck raises typed
        :class:`~repro.errors.WorkerStalled` and the pool is killed and
        recreated -- the slot is reclaimed instead of blocked forever
        (collateral in-flight requests on the killed pool surface as
        :class:`WorkerCrashed`, typed, never hung).  With ``hedge``
        enabled the request is duplicated to a second worker after the
        adaptive hedge delay and the first result wins.
        """
        with self._lock:
            if not self._started:
                raise WorkerCrashed(
                    "process worker pool is not running",
                    restarts=self.restarts,
                )
            executor = self._ensure_executor()
            self.tasks += 1
            self._pending += 1
        effective = self._stall_bound(timeout)
        started = time.monotonic()
        future: Optional[Future] = None
        try:
            future = executor.submit(_run_payload_task, dict(payload))
            submit = lambda: executor.submit(_run_payload_task, dict(payload))
            result = self._wait_hedged(future, submit, effective)
            self.latency.observe(time.monotonic() - started)
            return result
        except FutureTimeoutError:
            raise self._timeout_error(
                executor, future, timeout, effective
            ) from None
        except BrokenExecutor as broken:
            restarts = self._recreate(executor)
            raise WorkerCrashed(
                f"worker process died executing this request: {broken}",
                restarts=restarts,
            ) from broken
        finally:
            with self._lock:
                self._pending -= 1

    def _timeout_error(
        self,
        executor: ProcessPoolExecutor,
        future: Optional[Future],
        timeout: Optional[float],
        effective: Optional[float],
    ) -> ReproError:
        """Map one request timeout to its typed error (watchdog-aware)."""
        watchdog_fired = self.watchdog_seconds is not None and (
            timeout is None or self.watchdog_seconds < timeout
        )
        cancelled = future.cancel() if future is not None else True
        if not watchdog_fired:
            # The request's own deadline expired first.  The worker runs
            # under the same deadline (shipped as seconds remaining), so
            # it stops at its next key and the slot comes back; a worker
            # stuck *inside* an access is merely abandoned without a
            # watchdog, killed with one.
            if not cancelled and self.watchdog_seconds is not None:
                self._watchdog_recycle(executor)
            return DeadlineExceeded(
                f"worker did not answer within {timeout:.3f}s"
            )
        with self._lock:
            self.stalls += 1
            stalls = self.stalls
        if cancelled:
            # Never started: the whole tier is busy (likely stuck
            # behind other stalled requests).  The slot was reclaimed
            # by the cancel, so no kill is needed.
            return WorkerStalled(
                f"request waited {effective:.3f}s unstarted in the worker "
                f"tier (watchdog bound {self.watchdog_seconds}s): all "
                f"workers busy",
                stalls=stalls,
                killed=False,
            )
        self._watchdog_recycle(executor)
        return WorkerStalled(
            f"worker made no progress within the {self.watchdog_seconds}s "
            "watchdog bound; pool killed and recreated",
            stalls=stalls,
            killed=True,
        )

    def _watchdog_recycle(self, stuck: ProcessPoolExecutor) -> None:
        """Kill a stuck executor's workers and install a fresh pool.

        ``Future.cancel`` cannot stop a *running* task, so reclaiming
        the slot means killing the worker processes.  Requests in
        flight on the killed pool fail with typed
        :class:`WorkerCrashed` via the normal broken-pool path --
        collateral, but never a hang and never a wrong answer.
        """
        with self._lock:
            self.watchdog_kills += 1
            if self._executor is stuck:
                self._executor = None
                if self._started:
                    self.restarts += 1
                    self._ensure_executor()
        processes = getattr(stuck, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover -- already dead
                pass
        stuck.shutdown(wait=False, cancel_futures=True)

    def _recreate(self, broken: ProcessPoolExecutor) -> int:
        """Replace a broken executor with a fresh one; returns restarts."""
        with self._lock:
            self.crashes += 1
            if self._executor is broken:
                self._executor = None
                if self._started:
                    self.restarts += 1
                    self._ensure_executor()
            restarts = self.restarts
        broken.shutdown(wait=False, cancel_futures=True)
        return restarts

    def health(self) -> Dict[str, Any]:
        """A JSON-able liveness/counters snapshot of the tier."""
        with self._lock:
            snapshot = {
                "tier": self.kind,
                "alive": self._started and self._executor is not None,
                "workers": self.workers,
                "start_method": self.start_method,
                "tasks": self.tasks,
                "crashes": self.crashes,
                "restarts": self.restarts,
            }
            snapshot.update(self._resilience_health())
            return snapshot

    def __repr__(self) -> str:
        state = "alive" if self.alive() else "stopped"
        return (
            f"ProcessWorkerPool({self.workers} x {self.start_method}, "
            f"{state}, {self.tasks} tasks, {self.crashes} crashes)"
        )


class ThreadWorkerPool(WorkerPool):
    """The same payload protocol, executed in-process over a shared source.

    The fallback tier: no serialization, no processes, no GIL escape.
    Useful on small data (where shipping rows costs more than computing
    them) and in environments where spawning processes is not allowed.
    Answers are byte-identical to the process tier by construction --
    both run :func:`execute_payload`.
    """

    kind = "thread"

    def __init__(
        self,
        source,
        workers: int = 8,
        watchdog_seconds: Optional[float] = None,
        hedge: bool = False,
        hedge_delay: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        self.source = source
        self.workers = workers
        self._lock = threading.Lock()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._started = False
        self.tasks = 0
        # future -> its cooperative cancellation token.  Weak keys: an
        # entry lives exactly as long as something still holds the
        # future (the executor while running, the caller while waiting).
        self._cancel_tokens: "weakref.WeakKeyDictionary" = (
            weakref.WeakKeyDictionary()
        )
        self._init_resilience(watchdog_seconds, hedge, hedge_delay)

    def start(self) -> "ThreadWorkerPool":
        """Spin up the thread executor over the shared live source."""
        with self._lock:
            self._started = True
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="exec-tier",
                )
        return self

    def shutdown(self) -> None:
        """Stop the executor and mark the tier not-started."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._started = False
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def run_request(
        self, payload: Mapping[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Execute one payload on a pool thread against the live source.

        The watchdog surfaces a stuck request as typed
        :class:`~repro.errors.WorkerStalled` -- but unlike the process
        tier it cannot reclaim the slot: Python threads cannot be
        killed, so the stalled thread leaks until its task finishes
        (counted in ``stalls``; documented, not hidden).  Hedging works
        as on the process tier.
        """
        with self._lock:
            if not self._started or self._executor is None:
                raise WorkerCrashed("thread worker pool is not running")
            executor = self._executor
            self.tasks += 1
            self._pending += 1
        effective = self._stall_bound(timeout)
        started = time.monotonic()
        future: Optional[Future] = None

        def submit() -> Future:
            """Submit one copy of the request with its own cancel token.

            ``_cancel_loser`` sets the token when the copy loses a
            hedge race while already running, so the duplicate stops at
            its next between-commands check instead of finishing.
            """
            token = threading.Event()
            submitted = executor.submit(
                execute_payload, self.source, payload, cancel=token
            )
            with self._lock:
                self._cancel_tokens[submitted] = token
            return submitted

        try:
            future = submit()
            result = self._wait_hedged(future, submit, effective)
            self.latency.observe(time.monotonic() - started)
            return result
        except FutureTimeoutError:
            watchdog_fired = self.watchdog_seconds is not None and (
                timeout is None or self.watchdog_seconds < timeout
            )
            cancelled = future.cancel() if future is not None else True
            if future is not None and not cancelled:
                # Already running: ask it to stop between commands so
                # the leaked thread frees its slot early (best-effort;
                # not counted as a hedge cancellation).
                with self._lock:
                    token = self._cancel_tokens.get(future)
                if token is not None:
                    token.set()
            if not watchdog_fired:
                raise DeadlineExceeded(
                    f"worker did not answer within {timeout:.3f}s"
                ) from None
            with self._lock:
                self.stalls += 1
                stalls = self.stalls
            detail = (
                "all workers busy"
                if cancelled
                else "worker thread leaked until its task finishes"
            )
            raise WorkerStalled(
                f"request made no progress within the "
                f"{self.watchdog_seconds}s watchdog bound ({detail})",
                stalls=stalls,
                killed=False,
            ) from None
        finally:
            with self._lock:
                self._pending -= 1

    def _cancel_loser(self, future: Future) -> None:
        """Reclaim a hedge loser's slot: dequeue it, or flag it down.

        A loser still queued is plainly cancelled.  A loser already
        *running* cannot be killed (Python threads), but its
        cancellation token is set, so it raises
        :class:`~repro.errors.PlanCancelled` at its next
        between-commands check and frees its slot early -- counted in
        ``hedge_cancelled`` (the result is never read: the winner
        already answered).
        """
        if future.cancel():
            return
        with self._lock:
            token = self._cancel_tokens.get(future)
            if token is not None and not token.is_set():
                token.set()
                self.hedge_cancelled += 1

    def health(self) -> Dict[str, Any]:
        """A JSON-able liveness/counters snapshot of the tier."""
        with self._lock:
            snapshot = {
                "tier": self.kind,
                "alive": self._started and self._executor is not None,
                "workers": self.workers,
                "tasks": self.tasks,
                "crashes": 0,
                "restarts": 0,
            }
            snapshot.update(self._resilience_health())
            return snapshot

    def __repr__(self) -> str:
        state = "alive" if self.alive() else "stopped"
        return f"ThreadWorkerPool({self.workers} threads, {state})"
