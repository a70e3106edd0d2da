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
  plus an ``ExecStats.as_dict()`` payload (on failure too) the parent
  rebuilds as the response's record.  No pickled closures, no live
  sources -- which is also what makes the tier ``spawn``-safe (the
  default start method here).

* **A tier request shares no cache and no breakers.**
  ``ExecutionContext.from_payload`` gives each request no access
  cache and a fresh ``BreakerRegistry``: a breaker its transient
  faults open dies with it (a hard outage comes back as its error, and
  the service force-opens its own breaker).  Sound: caches and
  breakers are *monotone observations* of a deterministic source
  (docs/theory.md, "Concurrent serving"), so observing less changes
  efficiency, never answers; the fault schedule is keyed by ``(seed,
  method, inputs)``, so a faulty access fails alike in any process.

* **Crashes are typed, not hung.**  A killed worker breaks the whole
  ``ProcessPoolExecutor``; :class:`ProcessWorkerPool` maps that to a
  typed :class:`~repro.errors.WorkerCrashed` for the affected request,
  recreates the pool, and counts the restart -- surfaced through
  ``QueryService.health()``.

There is one tier and it has no hedging of its own: a slow access is
re-issued by :class:`~repro.data.decorators.HedgedSource`, a source
wrapper that ships in the spec like any other, so a worker hedges the
accesses it makes.
"""

from __future__ import annotations

import threading
import weakref
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Any, Dict, List, Mapping, Optional

import repro.errors as errors_module
from repro.data.decorators import (
    HedgedSource,
    LatencySource,
    StormyLatencySource,
)
from repro.data.instance import Instance, _to_constant
from repro.data.source import InMemorySource
from repro.errors import (
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
from repro.obs import Record
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
        HedgedSource,
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


# Encoded-plan memo: a hot plan (plan-cache hit) would otherwise be
# re-encoded for every request.  Keyed weakly by the (frozen, hashable)
# Plan object so the memo lives exactly as long as the plan-cache entry
# that keeps the plan alive; encoding happens at most once per plan
# object.
_ENCODED_PLANS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
_ENCODED_PLANS_LOCK = threading.Lock()


def encoded_plan_ir(plan) -> Dict[str, Any]:
    """``plan_to_ir(plan)``, memoized per plan object.

    The dispatch-path encoder: every pool payload shares one encoded
    IR dict per plan.  Sound
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


#: The context attributes a typed error keeps across the worker
#: boundary, each with the type its value must have to be sent.
_ERROR_CONTEXT = (
    ("method", str),
    ("relation", str),
    ("rows", int),
    ("budget", int),
)


def execute_payload(source, payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one shipped request against a source; return a plain dict.

    The process tier calls it in the worker against the rehydrated
    source; any caller may call it in-process.  The payload is ``plan``
    (IR), ``bindings`` and the wire form of an
    :class:`~repro.exec.context.ExecutionContext` (``collect_stats``,
    ``budget``, ``retry``, ``deadline``), every key but ``plan``
    optional, and any other key ignored; the run itself is
    :func:`~repro.exec.batch.run_request`, as in the service.  Errors
    come back as ``{"ok": False, "error_type", "error"}`` so the parent
    can re-raise the matching typed :mod:`repro.errors` class --
    exception *instances* never cross the boundary -- with the
    ``stats`` of what the run did before it failed.  A successful
    result carries the source's epoch token (``"epoch"``) so callers
    can tell which backend snapshot answered.
    """
    context = ExecutionContext.from_payload(payload)
    stats = context.stats
    try:
        table = run_request(
            source,
            ir_to_plan(payload["plan"]),
            decode_bindings(payload.get("bindings")),
            context,
        )
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
            "stats": stats.as_dict() if stats is not None else None,
        }
        # The error's context crosses the boundary too: the service
        # must know *which* method died to force-open its breaker, a
        # row-budget failure reports its counts, and a string message
        # is not a protocol.
        for attribute, kind in _ERROR_CONTEXT:
            value = getattr(error, attribute, None)
            if isinstance(value, kind):
                failure[attribute] = value
        return failure


def rebuild_error(result: Mapping[str, Any]) -> ReproError:
    """Rebuild the typed error a worker reported for one request.

    Errors are rebuilt *with* the context the worker shipped (an access
    error's method/relation, a row-budget error's rows/budget), so
    parent-side consumers (the service's outage observation, a caller
    reading the counts) see the same typed error they would have seen
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
    for attribute, kind in _ERROR_CONTEXT:
        value = result.get(attribute)
        if isinstance(value, kind):
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
    """The task the parent submits; referenced by name, so spawn-safe.

    The worker's source lives as long as the process, and nothing reads
    its access log (the books cross back in the result's ``stats``), so
    the log is cleared after every task instead of growing for ever.
    """
    if _WORKER_SOURCE is None:
        return {
            "ok": False,
            "error_type": "ExecutionError",
            "error": "worker process was never initialized with a source spec",
        }
    try:
        return execute_payload(_WORKER_SOURCE, payload)
    finally:
        _WORKER_SOURCE.reset_log()


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


# -------------------------------------------------------------------- pool
@dataclass
class TierBooks(Record):
    """What a :class:`ProcessWorkerPool` has done: its counters, one record."""

    tasks: int = 0
    crashes: int = 0
    restarts: int = 0
    #: Requests that outlived the watchdog bound, and the kills it made.
    stalls: int = 0
    watchdog_kills: int = 0


class ProcessWorkerPool:
    """Plan execution on a ``ProcessPoolExecutor`` over a source spec.

    The execution tier ``QueryService`` dispatches through.  One
    blocking call per request: :meth:`run_request` takes the plain
    payload dict and returns the plain result dict of
    :func:`execute_payload` (raising typed errors only for tier-level
    failures: crash, stall, timeout).  ``start``/``shutdown`` bracket
    the tier's lifetime; :meth:`health` is a JSON-able snapshot.

    ``source`` crosses as :func:`source_to_spec`, rehydrated once per
    worker.  ``start_method`` defaults to ``"spawn"``: slowest to start
    but immune to fork-time lock/thread hazards, and it proves the spec
    path carries *everything* a worker needs (fork can silently lean on
    inherited state).  The differential tests run both.

    A **watchdog** (``watchdog_seconds``) is a stall bound per request,
    independent of (and typically much tighter than) the request
    deadline: a request that exceeds it surfaces typed
    :class:`~repro.errors.WorkerStalled` instead of blocking its slot
    forever.  ``Future.cancel`` cannot stop a running task, so a running
    request's slot comes back only by killing: with a watchdog set, the
    executor's workers are killed and a fresh pool installed (requests
    in flight on the killed pool fail typed
    :class:`~repro.errors.WorkerCrashed` -- collateral, but never a
    hang and never a wrong answer).  Without one the request finishes
    on its own; the worker enforces the shipped deadline itself.
    """

    def __init__(
        self,
        source,
        workers: int = 8,
        start_method: str = "spawn",
        watchdog_seconds: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("worker count must be positive")
        if watchdog_seconds is not None and watchdog_seconds <= 0:
            raise ValueError("watchdog_seconds must be positive")
        self.workers = workers
        self.watchdog_seconds = watchdog_seconds
        self.source_spec = source_to_spec(source)
        self.start_method = start_method
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._started = False
        self._pending = 0
        self._books = TierBooks()

    # ------------------------------------------------------------ lifecycle
    def start(self) -> "ProcessWorkerPool":
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

    def _current_executor(self) -> ProcessPoolExecutor:
        """The installed executor, built if none is; caller holds the lock.

        A fresh executor's workers rehydrate the source spec.
        """
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context(self.start_method),
                initializer=_init_worker,
                initargs=(self.source_spec,),
            )
        return self._executor

    def _replace(self, executor: ProcessPoolExecutor) -> int:
        """Install a fresh executor in place of ``executor``; returns restarts.

        Nothing is installed when another request already replaced it.
        Requests still queued on ``executor`` are cancelled.
        """
        with self._lock:
            if self._executor is executor:
                self._executor = None
                if self._started:
                    self._books.restarts += 1
                    self._current_executor()
            restarts = self._books.restarts
        executor.shutdown(wait=False, cancel_futures=True)
        return restarts

    def backlog(self) -> int:
        """Requests inside the tier."""
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
        request whose executor another request replaced (submit
        refused, or queued request cancelled) -- that replace's
        collateral.
        """
        with self._lock:
            if not self._started:
                raise WorkerCrashed(
                    "process worker pool is not running",
                    restarts=self._books.restarts,
                )
            executor = self._current_executor()
            self._books.tasks += 1
            self._pending += 1
        bounds = [b for b in (timeout, self.watchdog_seconds) if b is not None]
        future: Optional[Future] = None
        try:
            future = executor.submit(_run_payload_task, dict(payload))
            return future.result(timeout=min(bounds) if bounds else None)
        except FutureTimeoutError:
            raise self._timed_out(executor, future, timeout) from None
        except BrokenExecutor as broken:
            with self._lock:
                self._books.crashes += 1
            raise WorkerCrashed(
                f"a worker died executing this request: {broken}",
                restarts=self._replace(executor),
            ) from broken
        except (CancelledError, RuntimeError) as replaced:
            if future is not None and not future.cancelled():
                raise  # the task's own error, not a replace
            # A submit refused by a shut-down executor ("cannot schedule
            # new futures"), or a queued request cancelled by a replace.
            raise WorkerCrashed(
                "the executor this request was sent to was replaced: "
                f"{replaced!r}",
                restarts=self._books.restarts,
            ) from replaced
        finally:
            with self._lock:
                self._pending -= 1

    def _kill(self, executor: ProcessPoolExecutor) -> None:
        """Kill ``executor``'s workers and install a fresh pool."""
        processes = list((executor._processes or {}).values())
        with self._lock:
            self._books.watchdog_kills += 1
        self._replace(executor)
        for process in processes:
            try:
                process.kill()
            except Exception:  # pragma: no cover -- already dead
                pass

    def _timed_out(
        self,
        executor: ProcessPoolExecutor,
        future: Future,
        timeout: Optional[float],
    ) -> ReproError:
        """Map a request that answered within neither bound to its error.

        A queued request is cancelled; a running one's workers are
        killed when a watchdog is set.  The error is
        ``DeadlineExceeded`` when the request's own deadline was the
        nearer bound, else a counted ``WorkerStalled``.
        """
        queued = future.cancel()
        killed = not queued and self.watchdog_seconds is not None
        if killed:
            self._kill(executor)
        if self.watchdog_seconds is None or (
            timeout is not None and timeout <= self.watchdog_seconds
        ):
            return DeadlineExceeded(
                f"worker did not answer within {timeout:.3f}s"
            )
        with self._lock:
            self._books.stalls += 1
            stalls = self._books.stalls
        detail = (
            "all workers busy" if queued
            else "its worker was killed and replaced"
        )
        return WorkerStalled(
            f"request made no progress within the {self.watchdog_seconds}s "
            f"watchdog bound ({detail})",
            stalls=stalls,
            killed=killed,
        )

    def health(self) -> Dict[str, Any]:
        """The tier's gauges, then its books (:class:`TierBooks`)."""
        with self._lock:
            return {
                "tier": "process",
                "alive": self._started and self._executor is not None,
                "workers": self.workers,
                "pending": self._pending,
                "watchdog_seconds": self.watchdog_seconds,
                "start_method": self.start_method,
                **self._books.as_dict(),
            }

    def __enter__(self) -> "ProcessWorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
