"""The adapter layer's defensive I/O: token buckets and three wrappers.

What makes a *real* backend safe to put behind the planner:
:class:`PacedSource` (client-side token-bucket pacing mapped to the
existing :class:`~repro.errors.RateLimited`),
:class:`AdaptiveConcurrencySource` (AIMD concurrency control per
source) and :class:`CoalescingSource` (single-flight collapse of
identical concurrent accesses).  Like the :mod:`repro.data.decorators`
wrappers they subclass the one base,
:class:`repro.source_contract.SourceWrapper` (where the adapter
protocol, epochs and metering live too), and all three name a
``spec_kind``, so the process tier rehydrates the full defensive stack
per worker.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import RateLimited
from repro.source_contract import SourceWrapper


# ----------------------------------------------------------- token buckets
class TokenBucket:
    """A thread-safe token bucket with an injectable clock.

    ``rate`` tokens refill per second up to ``capacity``.  The bucket
    never sleeps: :meth:`acquire` answers how long the caller must wait
    (0.0 when a token was granted immediately), so both the client-side
    pacer (which sleeps) and the server-side stub (which answers 429 +
    ``Retry-After``) share one implementation.
    """

    def __init__(
        self,
        rate: float,
        capacity: float,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError("token refill rate must be positive")
        if capacity < 1:
            raise ValueError("bucket capacity must be at least 1")
        self.rate = rate
        self.capacity = float(capacity)
        self._clock = clock
        self._tokens = float(capacity)
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.capacity, self._tokens + elapsed * self.rate)
        self._updated = now

    def acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` now if available; else the seconds to wait.

        Returns 0.0 when the tokens were granted.  A positive return
        means *nothing was taken* -- the caller should wait that long
        (or give up) and try again.
        """
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate

    def available(self) -> float:
        """The current token count (after refill), for introspection."""
        with self._lock:
            self._refill(self._clock())
            return self._tokens


# ------------------------------------------------------ defensive wrappers
class PacedSource(SourceWrapper):
    """Client-side token-bucket pacing in front of any source.

    A mediator that knows its backend's advertised call budget paces
    itself *below* it instead of slamming into server-side policing:
    each access first takes a token; when the bucket is dry the wrapper
    sleeps out the shortfall (up to ``max_wait`` seconds, injectable
    ``sleep``) and proceeds -- beyond that it refuses with the existing
    typed :class:`~repro.errors.RateLimited`, which the retry layer
    already knows how to back off from.  With the pacer matched to the
    server's budget the server observes *zero* over-budget requests
    (``benchmarks/bench_adapters.py`` asserts exactly that).
    """

    spec_kind = "paced"
    spec_fields = ("rate", "capacity", "max_wait")

    def __init__(
        self,
        inner,
        rate: float,
        capacity: float = 1.0,
        max_wait: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        super().__init__(inner)
        self.rate = rate
        self.capacity = capacity
        self.max_wait = max_wait
        self.bucket = TokenBucket(rate, capacity, clock=clock)
        self._sleep = sleep
        self._lock = threading.Lock()
        self.paced_waits = 0
        self.wait_seconds = 0.0
        self.refusals = 0

    def _pace(self, method_name: str, values: Tuple) -> None:
        wait = self.bucket.acquire()
        while wait > 0.0:
            if wait > self.max_wait:
                with self._lock:
                    self.refusals += 1
                raise RateLimited(
                    f"client-side pacer refused: bucket dry for "
                    f"{wait:.3f}s > max_wait {self.max_wait}s",
                    method=method_name,
                    inputs=values,
                )
            with self._lock:
                self.paced_waits += 1
                self.wait_seconds += wait
            self._sleep(wait)
            wait = self.bucket.acquire()

    def access(self, method_name: str, inputs: Sequence[object] = ()):
        """Invoke an access method (see the class docstring)."""
        self._pace(method_name, tuple(inputs))
        return self.inner.access(method_name, inputs)

    def access_batch(self, method_name: str, inputs_list):
        """Batch through the pacer: one token per distinct input tuple."""
        for values in inputs_list:
            self._pace(method_name, tuple(values))
        inner_batch = getattr(self.inner, "access_batch", None)
        if callable(inner_batch):
            return inner_batch(method_name, inputs_list)
        return {
            tuple(values): self.inner.access(method_name, values)
            for values in inputs_list
        }


class AdaptiveConcurrencySource(SourceWrapper):
    """AIMD concurrency control per source, TCP style.

    The in-flight access count is gated by an adaptive limit: every
    success grows it additively (``increase / limit`` per call, i.e.
    +1 per round of ``limit`` successes), every backpressure signal --
    a typed :class:`~repro.errors.RateLimited` or
    :class:`~repro.errors.AccessTimeout` from below -- halves it
    (multiplicative decrease, floored at 1).  Callers over the limit
    block on a condition variable, so a misbehaving backend throttles
    the whole service *smoothly* instead of via an error storm.  A
    spec carries the ceiling, not the evolved limit: workers probe anew.
    """

    spec_kind = "aimd"
    spec_fields = ("max_concurrency", "increase")

    def __init__(
        self,
        inner,
        max_concurrency: int = 32,
        initial: Optional[float] = None,
        increase: float = 1.0,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        super().__init__(inner)
        self.max_concurrency = max_concurrency
        self.increase = increase
        self._limit = float(
            min(max_concurrency, initial if initial is not None else 4.0)
        )
        self._inflight = 0
        self._cond = threading.Condition()
        self.throttle_events = 0
        self.peak_inflight = 0
        self.waits = 0

    @property
    def limit(self) -> float:
        """The current adaptive concurrency ceiling."""
        with self._cond:
            return self._limit

    def _enter(self) -> None:
        with self._cond:
            while self._inflight >= max(1, int(self._limit)):
                self.waits += 1
                self._cond.wait(timeout=1.0)
            self._inflight += 1
            self.peak_inflight = max(self.peak_inflight, self._inflight)

    def _exit(self, backpressure: bool) -> None:
        with self._cond:
            self._inflight -= 1
            if backpressure:
                self._limit = max(1.0, self._limit / 2.0)
                self.throttle_events += 1
            else:
                self._limit = min(
                    float(self.max_concurrency),
                    self._limit + self.increase / max(1.0, self._limit),
                )
            self._cond.notify_all()

    def access(self, method_name: str, inputs: Sequence[object] = ()):
        """Invoke an access method (see the class docstring)."""
        from repro.errors import AccessTimeout  # local: avoid fanout

        self._enter()
        try:
            result = self.inner.access(method_name, inputs)
        except (RateLimited, AccessTimeout):
            self._exit(backpressure=True)
            raise
        except BaseException:
            self._exit(backpressure=False)
            raise
        self._exit(backpressure=False)
        return result

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-able counters snapshot (used by the benchmarks)."""
        with self._cond:
            return {
                "limit": self._limit,
                "max_concurrency": self.max_concurrency,
                "throttle_events": self.throttle_events,
                "peak_inflight": self.peak_inflight,
                "waits": self.waits,
            }


class CoalescingSource(SourceWrapper):
    """Single-flight collapse of identical concurrent accesses.

    When several threads ask for the same ``(method, inputs)`` at the
    same moment, only the first reaches the backend; the rest wait on
    its completion and share the answer (sound: accesses are
    deterministic reads within an epoch).  Unlike
    :class:`~repro.exec.cache.AccessCache` nothing is *retained* --
    this is request coalescing at the I/O boundary, not memoization,
    so it composes under a cache without double-bookkeeping.  A waiter
    whose leader failed retries itself, so errors reach everyone who
    asked.
    """

    spec_kind = "coalescing"

    def __init__(self, inner) -> None:
        super().__init__(inner)
        self._lock = threading.Lock()
        self._inflight: Dict[Tuple, "_Flight"] = {}
        self.coalesced = 0
        self.leaders = 0

    def access(self, method_name: str, inputs: Sequence[object] = ()):
        """Invoke an access method (see the class docstring)."""
        key = (method_name, tuple(inputs))
        while True:
            with self._lock:
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _Flight()
                    self._inflight[key] = flight
                    self.leaders += 1
                    leader = True
                else:
                    leader = False
            if leader:
                break
            flight.event.wait()
            if not flight.failed:
                with self._lock:
                    self.coalesced += 1
                return flight.result
            # Leader failed: fall through and try to lead ourselves.
        try:
            result = self.inner.access(method_name, inputs)
        except BaseException:
            with self._lock:
                flight.failed = True
                self._inflight.pop(key, None)
            flight.event.set()
            raise
        flight.result = result
        with self._lock:
            self._inflight.pop(key, None)
        flight.event.set()
        return result


class _Flight:
    """One in-progress access other threads can wait on."""

    __slots__ = ("event", "failed", "result")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.failed = False
        self.result = None
