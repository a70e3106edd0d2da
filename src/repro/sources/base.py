"""The adapter layer's defensive I/O: the token bucket and the pacer.

What makes a *real* backend safe to put behind the planner:
:class:`PacedSource` (client-side token-bucket pacing mapped to the
existing :class:`~repro.errors.RateLimited`).  Like the
:mod:`repro.data.decorators` wrappers it subclasses the one base,
:class:`repro.source_contract.SourceWrapper` (where the adapter
protocol, epochs and metering live too), and names a ``spec_kind``, so
the process tier rehydrates the pacer per worker.  (Single-flight
collapse of identical concurrent accesses is the access cache's:
:meth:`repro.exec.cache.AccessCache.bind`.)
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence, Tuple

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
