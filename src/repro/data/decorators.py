"""Source decorators: latency and hedging.

Real restricted interfaces are metered and slow.  These wrappers
compose around any source exposing ``access(method, inputs)``; their
base -- shared with :mod:`repro.sources.base` and
:mod:`repro.faults.source` -- is
:class:`repro.source_contract.SourceWrapper`.

* :class:`LatencySource` -- a fixed real-time delay per access,
  modelling remote-call latency; this is what makes worker threads in a
  :class:`~repro.service.QueryService` overlap usefully (the sleep
  releases the GIL), so the service benchmark measures real concurrency
  wins rather than pure-Python contention.
* :class:`StormyLatencySource` -- latency with a deterministic slow
  tail, the regime hedging targets.
* :class:`HedgedSource` -- re-issue an access that is slow to answer
  and take the first answer.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Callable, Sequence

from repro.errors import SourceUnavailable  # noqa: F401
from repro.source_contract import SourceWrapper


class LatencySource(SourceWrapper):
    """Delay every access by a fixed latency (default: real sleep).

    ``sleep`` is injectable for tests; the production default
    ``time.sleep`` releases the GIL, so concurrent workers genuinely
    overlap their waits.  The call counter is lock-protected -- this
    wrapper is meant to sit under a multi-threaded service.
    """

    spec_kind = "latency"
    spec_fields = ("latency",)

    def __init__(self, inner, latency: float, sleep: Callable[[float], None] = time.sleep) -> None:
        if latency < 0:
            raise ValueError("latency must be non-negative")
        super().__init__(inner)
        self.latency = latency
        self._sleep = sleep
        self._lock = threading.Lock()
        self.calls = 0
        self.slept = 0.0

    def access(self, method_name: str, inputs: Sequence[object] = ()):
        """Invoke an access method (see the class docstring)."""
        if self.latency:
            self._sleep(self.latency)
        with self._lock:
            self.calls += 1
            self.slept += self.latency
        return self.inner.access(method_name, inputs)


class StormyLatencySource(SourceWrapper):
    """Latency with a deterministic tail: every k-th access is slow.

    Models the P99 regime hedging targets -- a backend that is usually
    fast but periodically stalls (GC pause, cold replica, page fault
    storm).  Every access sleeps ``base_latency`` except each
    ``slow_every``-th one (per *instance* call counter, 1-based), which
    sleeps ``slow_latency`` instead.  The counter is lock-protected and
    per instance, so two worker processes rehydrating the same spec
    storm independently.  A :class:`HedgedSource` duplicate above it
    lands on the next tick of the same counter, so with
    ``slow_every > 1`` it dodges the slow tick its primary drew.
    Timing-only nondeterminism, so the wrapper is safe to ship as a spec.
    """

    spec_kind = "storm"
    spec_fields = ("base_latency", "slow_latency", "slow_every")

    def __init__(
        self,
        inner,
        base_latency: float,
        slow_latency: float,
        slow_every: int,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if base_latency < 0 or slow_latency < 0:
            raise ValueError("latencies must be non-negative")
        if slow_every < 1:
            raise ValueError("slow_every must be at least 1")
        super().__init__(inner)
        self.base_latency = base_latency
        self.slow_latency = slow_latency
        self.slow_every = slow_every
        self._sleep = sleep
        self._lock = threading.Lock()
        self.calls = 0
        self.slow_calls = 0

    def access(self, method_name: str, inputs: Sequence[object] = ()):
        """Invoke an access method (see the class docstring)."""
        with self._lock:
            self.calls += 1
            slow = self.calls % self.slow_every == 0
            if slow:
                self.slow_calls += 1
        delay = self.slow_latency if slow else self.base_latency
        if delay:
            self._sleep(delay)
        return self.inner.access(method_name, inputs)


class HedgedSource(SourceWrapper):
    """Re-issue an access unanswered after ``delay`` seconds; first wins.

    An access is a deterministic read (paper, Section 2): two copies of
    one access return the same rows, so taking whichever answers first
    changes when the answer comes, never what it is.  ``access`` runs
    the inner access on a daemon thread and waits up to ``delay``; if
    nothing has arrived, one duplicate starts and the first copy to
    finish wins -- its rows, or its typed error.  The loser is one
    idempotent read: it finishes on its own and its result is dropped.

    Both copies reach the backend, so its log holds two records of a
    hedged key: charged cost sees two calls, ``distinct_accesses()``
    (Theorem 8's measure) one.  Under an
    :class:`~repro.exec.cache.AccessCache` only the single-flight
    leader of a key reaches this wrapper, so a key hedges once however
    many requests want it.  ``hedges == hedge_wins + hedge_waste``: a
    win is a duplicate that answered first, a waste one its primary
    outran.
    """

    spec_kind = "hedge"
    spec_fields = ("delay",)

    def __init__(self, inner, delay: float) -> None:
        if delay <= 0:
            raise ValueError("delay must be positive")
        super().__init__(inner)
        self.delay = delay
        self._lock = threading.Lock()
        self.hedges = 0
        self.hedge_wins = 0
        self.hedge_waste = 0

    def access(self, method_name: str, inputs: Sequence[object] = ()):
        """Invoke an access method (see the class docstring)."""
        answers: "queue.SimpleQueue" = queue.SimpleQueue()

        def copy(duplicate: bool) -> None:
            """Run one copy of the access; queue its rows or its error."""
            try:
                answer = self.inner.access(method_name, inputs)
            except BaseException as error:
                answer = error
            answers.put((duplicate, answer))

        threading.Thread(target=copy, args=(False,), daemon=True).start()
        try:
            _, answer = answers.get(timeout=self.delay)
        except queue.Empty:
            threading.Thread(target=copy, args=(True,), daemon=True).start()
            duplicate, answer = answers.get()
            with self._lock:
                self.hedges += 1
                if duplicate:
                    self.hedge_wins += 1
                else:
                    self.hedge_waste += 1
        if isinstance(answer, BaseException):
            raise answer
        return answer
