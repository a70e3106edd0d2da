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
and as the degraded fallback when processes are unavailable).  Both
tiers share one request path (:class:`WorkerPool`); a tier is only an
executor, a submit and a reclaim rule.
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    CancelledError,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures import wait as futures_wait
from multiprocessing import get_context
from typing import Any, Dict, List, Mapping, Optional

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
        # Access-layer context crosses the boundary too: the service
        # must know *which* method died to force-open its breaker, and
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
    outage observation) see the same typed error they would have seen
    executing in-process.
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
#: The weight of a new sample in :class:`LatencyTracker`'s mean.
_EWMA_ALPHA = 0.2


class LatencyTracker:
    """Streaming EWMA mean of request service times (no samples stored);
    ``QueryService``'s retry-after hint prices waiting work with it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.samples = 0
        self.mean = 0.0

    def observe(self, seconds: float) -> None:
        """Fold one observed request service time in."""
        if seconds < 0:
            return
        with self._lock:
            self.samples += 1
            if self.samples == 1:
                self.mean = seconds
            else:
                self.mean += _EWMA_ALPHA * (seconds - self.mean)


# ------------------------------------------------------------------- pools
class WorkerPool:
    """The execution tier ``QueryService`` dispatches through.

    One blocking call per request: :meth:`run_request` takes the plain
    payload dict and returns the plain result dict of
    :func:`execute_payload` (raising typed errors only for tier-level
    failures: crash, stall, timeout).  ``start``/``shutdown`` bracket
    the tier's lifetime; :meth:`health` is a JSON-able snapshot.

    This class is the whole request path; a tier supplies three hooks:
    :meth:`_new_executor`, :meth:`_submit` (one copy of a payload) and
    :meth:`_reclaim` (the slot of a running copy).  Two opt-in
    resilience features ride on the one path:

    * a **watchdog** (``watchdog_seconds``): a stall bound per request,
      independent of (and typically much tighter than) the request
      deadline.  A request that exceeds it surfaces typed
      :class:`~repro.errors.WorkerStalled` instead of blocking its slot
      forever;
    * **hedged dispatch** (``hedge_delay`` seconds; ``None`` hedges
      nothing): a request that has not answered after the delay is
      submitted a second time and the first result wins, cutting tail
      latency.  Safe because plan execution is deterministic and
      accesses are idempotent under set semantics (docs/theory.md,
      "Chaos model, hedging, and degraded serving").
    """

    kind = "none"

    def __init__(
        self,
        workers: int,
        watchdog_seconds: Optional[float],
        hedge_delay: Optional[float],
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive")
        if hedge_delay is not None and hedge_delay <= 0:
            raise ValueError("hedge_delay must be positive")
        self.workers = workers
        self.watchdog_seconds = watchdog_seconds
        self.hedge_delay = hedge_delay
        self._lock = threading.Lock()
        self._executor: Optional[Executor] = None
        self._started = False
        self._pending = 0
        self.tasks = 0
        self.crashes = 0
        self.restarts = 0
        self.stalls = 0
        self.watchdog_kills = 0
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_waste = 0
        self.hedge_cancelled = 0

    # ------------------------------------------------------- a tier's hooks
    def _new_executor(self) -> Executor:
        """A fresh executor of ``self.workers`` workers."""
        raise NotImplementedError

    def _submit(self, executor, payload) -> Future:
        """Submit one copy of ``payload`` to ``executor``."""
        raise NotImplementedError

    def _reclaim(self, executor, future, kill: bool) -> Optional[bool]:
        """Get back the slot of a copy that is already running.

        ``kill`` is true when a watchdog is set and the copy's request
        timed out: the tier may then kill the copy's worker.  Returns
        ``True`` when it did, ``False`` when it asked the copy to stop
        at its next command, ``None`` when the copy runs on.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "WorkerPool":
        """Bring the tier up; returns ``self`` for ``with``-chaining."""
        with self._lock:
            self._started = True
            self._current_executor()
        return self

    def shutdown(self) -> None:
        """Stop the executor and mark the tier not-started; idempotent."""
        with self._lock:
            executor, self._executor = self._executor, None
            self._started = False
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def _current_executor(self) -> Executor:
        """The installed executor, built if none is; caller holds the lock."""
        if self._executor is None:
            self._executor = self._new_executor()
        return self._executor

    def _replace(self, executor: Executor) -> int:
        """Install a fresh executor in place of ``executor``; returns restarts.

        Nothing is installed when another request already replaced it.
        Copies still queued on ``executor`` are cancelled.
        """
        with self._lock:
            if self._executor is executor:
                self._executor = None
                if self._started:
                    self.restarts += 1
                    self._current_executor()
            restarts = self.restarts
        executor.shutdown(wait=False, cancel_futures=True)
        return restarts

    def backlog(self) -> int:
        """Requests inside the tier, each once however many copies run."""
        with self._lock:
            return self._pending

    # ---------------------------------------------------------- one request
    def run_request(
        self, payload: Mapping[str, Any], timeout: Optional[float] = None
    ) -> Dict[str, Any]:
        """Execute one request payload and return its result dict.

        The wait is bounded by the nearer of ``timeout`` (the request's
        deadline) and the watchdog (:meth:`_timed_out` types a miss).
        A broken executor (a killed worker) fails the request with
        :class:`~repro.errors.WorkerCrashed` and is replaced; so does a
        copy whose executor another request replaced (submit refused,
        or queued copy cancelled) -- that replace's collateral.
        """
        with self._lock:
            if not self._started:
                raise WorkerCrashed(
                    f"{self.kind} worker pool is not running",
                    restarts=self.restarts,
                )
            executor = self._current_executor()
            self.tasks += 1
            self._pending += 1
        bounds = [b for b in (timeout, self.watchdog_seconds) if b is not None]
        future: Optional[Future] = None
        try:
            future = self._submit_copy(executor, payload)
            return self._wait_hedged(
                executor, future, payload, min(bounds) if bounds else None
            )
        except FutureTimeoutError:
            raise self._timed_out(executor, future, timeout) from None
        except BrokenExecutor as broken:
            with self._lock:
                self.crashes += 1
            raise WorkerCrashed(
                f"a worker died executing this request: {broken}",
                restarts=self._replace(executor),
            ) from broken
        except CancelledError as cancelled:
            raise self._replaced(cancelled) from cancelled
        finally:
            with self._lock:
                self._pending -= 1

    def _submit_copy(
        self, executor: Executor, payload: Mapping[str, Any]
    ) -> Future:
        """:meth:`_submit`, with a refusal by a replaced executor typed."""
        try:
            return self._submit(executor, payload)
        except BrokenExecutor:
            raise
        except RuntimeError as refused:  # "cannot schedule new futures"
            raise self._replaced(refused) from refused

    def _replaced(self, cause: BaseException) -> WorkerCrashed:
        """The error of a copy whose executor was replaced under it."""
        return WorkerCrashed(
            f"the executor this request was sent to was replaced: {cause!r}",
            restarts=self.restarts,
        )

    def _wait_hedged(
        self,
        executor: Executor,
        primary: Future,
        payload: Mapping[str, Any],
        bound: Optional[float],
    ) -> Dict[str, Any]:
        """Await a request's copy, duplicating it after the hedge delay.

        Returns the winner's result dict; raises ``FutureTimeoutError``
        when no copy answered within ``bound`` (the duplicate is
        reclaimed first) and whatever the winner raised otherwise.
        Counter protocol: ``hedges`` counts duplicates issued,
        ``hedge_wins`` duplicates that answered first, ``hedge_waste``
        duplicates outrun by their primary.
        """
        delay = self.hedge_delay
        if delay is None or (bound is not None and delay >= bound):
            return primary.result(timeout=bound)
        started = time.monotonic()
        try:
            return primary.result(timeout=delay)
        except FutureTimeoutError:
            pass
        hedge = self._submit_copy(executor, payload)
        with self._lock:
            self.hedges += 1
        remaining = (
            None
            if bound is None
            else max(0.0, bound - (time.monotonic() - started))
        )
        done, _ = futures_wait(
            [primary, hedge], timeout=remaining, return_when=FIRST_COMPLETED
        )
        if not done:
            self._cancel_loser(executor, hedge)
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
        self._cancel_loser(executor, loser)
        return winner.result()

    def _cancel_loser(self, executor: Executor, future: Future) -> None:
        """Reclaim a hedge loser's slot: dequeue it, or flag it down.

        A running loser asked to stop is counted in ``hedge_cancelled``
        (its result is never read: the winner already answered).
        """
        if future.cancel():
            return
        if self._reclaim(executor, future, False) is False:
            with self._lock:
                self.hedge_cancelled += 1

    def _timed_out(
        self, executor: Executor, future: Future, timeout: Optional[float]
    ) -> ReproError:
        """Map a request that answered within neither bound to its error.

        A queued copy is cancelled; a running one is reclaimed (killed
        only when a watchdog is set and the tier can kill).  The error
        is ``DeadlineExceeded`` when the request's own deadline was the
        nearer bound, else a counted ``WorkerStalled``.
        """
        queued = future.cancel()
        killed = not queued and (
            self._reclaim(executor, future, self.watchdog_seconds is not None)
            is True
        )
        if self.watchdog_seconds is None or (
            timeout is not None and timeout <= self.watchdog_seconds
        ):
            return DeadlineExceeded(
                f"worker did not answer within {timeout:.3f}s"
            )
        with self._lock:
            self.stalls += 1
            stalls = self.stalls
        detail = (
            "all workers busy" if queued
            else "its worker was killed and replaced" if killed
            else "its worker runs on until the task ends"
        )
        return WorkerStalled(
            f"request made no progress within the {self.watchdog_seconds}s "
            f"watchdog bound ({detail})",
            stalls=stalls,
            killed=killed,
        )

    def health(self) -> Dict[str, Any]:
        """A JSON-able liveness/counters snapshot of the tier."""
        with self._lock:
            return {
                "tier": self.kind,
                "alive": self._started and self._executor is not None,
                "workers": self.workers,
                "tasks": self.tasks,
                "crashes": self.crashes,
                "restarts": self.restarts,
                "pending": self._pending,
                "watchdog_seconds": self.watchdog_seconds,
                "stalls": self.stalls,
                "watchdog_kills": self.watchdog_kills,
                "hedge_delay": self.hedge_delay,
                "hedges": self.hedges,
                "hedge_wins": self.hedge_wins,
                "hedge_waste": self.hedge_waste,
                "hedge_cancelled": self.hedge_cancelled,
            }

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


class ProcessWorkerPool(WorkerPool):
    """Plan execution on a ``ProcessPoolExecutor`` over a source spec.

    ``source`` crosses as :func:`source_to_spec`, rehydrated once per
    worker.  ``start_method`` defaults to ``"spawn"``: slowest to start
    but immune to fork-time lock/thread hazards, and it proves the spec
    path carries *everything* a worker needs (fork can silently lean on
    inherited state).  The differential tests run both.

    ``Future.cancel`` cannot stop a running task, so a running copy's
    slot comes back only by killing: with a watchdog set, the
    executor's workers are killed and a fresh pool installed (requests
    in flight on the killed pool fail typed
    :class:`~repro.errors.WorkerCrashed` -- collateral, but never a
    hang and never a wrong answer).  Without one the copy finishes on
    its own; the worker enforces the shipped deadline itself.
    """

    kind = "process"

    def __init__(
        self,
        source,
        workers: int = 8,
        start_method: str = "spawn",
        watchdog_seconds: Optional[float] = None,
        hedge_delay: Optional[float] = None,
    ) -> None:
        super().__init__(workers, watchdog_seconds, hedge_delay)
        self.source_spec = source_to_spec(source)
        self.start_method = start_method

    def _new_executor(self) -> ProcessPoolExecutor:
        """A process pool whose workers rehydrate the source spec."""
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=get_context(self.start_method),
            initializer=_init_worker,
            initargs=(self.source_spec,),
        )

    def _submit(self, executor, payload):
        """Ship the payload to a worker process."""
        return executor.submit(_run_payload_task, dict(payload))

    def _reclaim(self, executor, future, kill):
        """Kill the executor's workers and install a fresh pool."""
        if not kill:
            return None
        processes = list((executor._processes or {}).values())
        with self._lock:
            self.watchdog_kills += 1
        self._replace(executor)
        for process in processes:
            try:
                process.kill()
            except Exception:  # pragma: no cover -- already dead
                pass
        return True

    def health(self) -> Dict[str, Any]:
        """The shared snapshot plus the start method."""
        return dict(super().health(), start_method=self.start_method)


class ThreadWorkerPool(WorkerPool):
    """The same payload protocol, executed in-process over a shared source.

    The fallback tier: no serialization, no processes, no GIL escape.
    Useful on small data (where shipping rows costs more than computing
    them) and in environments where spawning processes is not allowed.
    Answers are byte-identical to the process tier by construction --
    both run :func:`execute_payload`.

    Python threads cannot be killed: a running copy's slot comes back
    when the copy stops at its next between-commands check, after its
    cancellation token is set (``killed`` stays False).
    """

    kind = "thread"

    def __init__(
        self,
        source,
        workers: int = 8,
        watchdog_seconds: Optional[float] = None,
        hedge_delay: Optional[float] = None,
    ) -> None:
        super().__init__(workers, watchdog_seconds, hedge_delay)
        self.source = source

    def _new_executor(self) -> ThreadPoolExecutor:
        """A thread pool over the shared live source."""
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="exec-tier"
        )

    def _submit(self, executor, payload):
        """Submit one copy carrying its own cancellation token."""
        token = threading.Event()
        future = executor.submit(
            execute_payload, self.source, payload, cancel=token
        )
        future.cancel_token = token
        return future

    def _reclaim(self, executor, future, kill):
        """Set the copy's token: it stops at its next command."""
        with self._lock:
            if future.cancel_token.is_set():
                return None
            future.cancel_token.set()
        return False
