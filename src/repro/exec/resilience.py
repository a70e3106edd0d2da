"""Fault tolerance for plan execution: retries, deadlines, breakers.

The execution runtime (PR 3) assumed every access method always
answers; this module is what makes a *flaky* method survivable and a
*dead* one detectable.  Three cooperating pieces, all with injectable
time so fault scenarios run deterministically in simulated seconds:

* :class:`RetryPolicy` -- exponential backoff with deterministic jitter
  (a seeded hash of ``(method, inputs, attempt)``, never ``random``),
  retrying exactly the :class:`~repro.errors.TransientAccessError`
  kinds; per-access attempt caps.
* :class:`Deadline` -- an overall wall-clock budget for a plan run;
  dispatch refuses to start (or to back off) past it, raising
  :class:`~repro.errors.DeadlineExceeded`.
* :class:`CircuitBreaker` / :class:`BreakerRegistry` -- the classic
  closed / open / half-open state machine, one breaker per access
  method.  Enough consecutive failures trip the breaker; while open,
  calls fail fast with :class:`~repro.errors.CircuitOpen` without
  touching the source; after the recovery window one probe is let
  through (half-open) and either closes or re-trips it.  A
  :class:`~repro.errors.MethodOutage` force-opens the breaker
  immediately -- hard outages should not burn the whole threshold.

:class:`ResilientDispatcher` ties them together as the ``resilience``
field of the :class:`~repro.exec.context.ExecutionContext` a plan runs
under.
An access command *binds* it once (:meth:`ResilientDispatcher.bind`,
through :func:`repro.plans.commands.bound_access`): the method's
breaker, the retry policy and the deadline are the same for every key
of the command and are resolved then; the callable it returns runs the
per-key protocol -- deadline check, breaker admission, fetch, breaker
feedback, retry and backoff -- once per dispatched access.
:meth:`ResilientDispatcher.call` is the same loop for a single call (a
batched access is one).  Its counters surface in
:class:`~repro.exec.stats.ExecStats` (retries, faults, breaker trips).
Plan-level *failover* -- re-planning around dead methods -- lives one
layer up, in :meth:`QueryService.serve_query
<repro.service.service.QueryService.serve_query>`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, Type

from repro.errors import (
    AccessError,
    CircuitOpen,
    DeadlineExceeded,
    MethodOutage,
    TransientAccessError,
)
from repro.faults.policy import unit_interval

Clock = Callable[[], float]
Sleep = Callable[[float], None]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and an attempt cap.

    ``max_attempts`` counts the first try: 1 means "never retry".  The
    wait before retry ``n`` (1-based) is ``base_delay * multiplier**(n-1)``
    capped at ``max_delay``, stretched by up to ``jitter`` of itself --
    where the stretch factor is a seeded hash of the access identity and
    attempt number, so two runs of the same workload back off
    identically (no thundering-herd *and* no flaky tests).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    retry_on: Tuple[Type[BaseException], ...] = (TransientAccessError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether ``error`` on (1-based) ``attempt`` deserves another try."""
        return attempt < self.max_attempts and isinstance(
            error, self.retry_on
        )

    def delay(self, attempt: int, method: str = "", inputs: Tuple = ()) -> float:
        """Backoff before retry ``attempt`` (1-based), jitter included."""
        raw = self.base_delay * self.multiplier ** (attempt - 1)
        capped = min(raw, self.max_delay)
        stretch = unit_interval(self.seed, method, inputs, attempt)
        return capped * (1.0 + self.jitter * stretch)


class Deadline:
    """An absolute time budget shared by everything in one plan run."""

    def __init__(self, seconds: float, clock: Clock = time.monotonic) -> None:
        if seconds <= 0:
            raise ValueError("deadline must be positive")
        self.seconds = seconds
        self.clock = clock
        self.started = clock()

    @property
    def expired(self) -> bool:
        """Whether the budget has run out."""
        return self.remaining() <= 0

    def remaining(self) -> float:
        """Seconds left (negative when past the deadline)."""
        return self.seconds - (self.clock() - self.started)

    def check(self, doing: str = "execution") -> None:
        """Raise :class:`DeadlineExceeded` when the budget has run out."""
        if self.expired:
            raise DeadlineExceeded(
                f"plan deadline of {self.seconds}s expired during {doing} "
                f"({-self.remaining():.3f}s over)"
            )

    def __repr__(self) -> str:
        return f"Deadline({self.remaining():.3f}s of {self.seconds}s left)"


class CircuitBreaker:
    """Closed / open / half-open breaker for one access method.

    State transitions are serialized by an internal lock, so one
    breaker may be shared by every worker of a concurrent service; the
    allow/record protocol itself stays check-then-report (two calls),
    which is the standard breaker contract -- a probe admitted by one
    thread may overlap another thread's failure report, and the state
    machine is correct under any interleaving of reports.

    ``state`` and ``consecutive_failures`` (the failures reported since
    the last success) are plain attributes, written only under the lock
    and readable without it.  A caller may skip a call that its own
    unlocked read shows to be a no-op -- :meth:`allow` unless ``state``
    is ``OPEN``, :meth:`record_success` while ``state`` is ``CLOSED``
    with no failure outstanding -- which is what the dispatch of
    :meth:`ResilientDispatcher.bind` does (``docs/theory.md``, "The
    quiet path").
    """

    def __init__(
        self,
        method: str,
        failure_threshold: int = 3,
        recovery_time: float = 30.0,
        half_open_successes: int = 1,
        clock: Clock = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if half_open_successes < 1:
            raise ValueError("half_open_successes must be at least 1")
        self.method = method
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_successes = half_open_successes
        self.clock = clock
        self.state = CLOSED
        self.trips = 0
        self.forced = False  # opened by a MethodOutage: never half-opens
        self.consecutive_failures = 0
        self._probe_successes = 0
        self._opened_at = 0.0
        self._lock = threading.Lock()

    def allow(self) -> bool:
        """Whether a call may proceed now (may move open -> half-open)."""
        with self._lock:
            if self.state == OPEN:
                if self.forced:
                    return False
                if self.clock() - self._opened_at >= self.recovery_time:
                    self.state = HALF_OPEN
                    self._probe_successes = 0
                    return True
                return False
            return True

    def record_success(self) -> None:
        """Feed back a successful call."""
        with self._lock:
            if self.state == HALF_OPEN:
                self._probe_successes += 1
                if self._probe_successes >= self.half_open_successes:
                    self.state = CLOSED
                    self.consecutive_failures = 0
            else:
                self.consecutive_failures = 0

    def record_failure(self, permanent: bool = False) -> None:
        """Feed back a failed call; ``permanent`` force-opens."""
        with self._lock:
            self.consecutive_failures += 1
            if permanent:
                self.forced = True
            if self.state == HALF_OPEN or permanent or (
                self.consecutive_failures >= self.failure_threshold
            ):
                self._trip()

    def _trip(self) -> None:
        # Caller holds self._lock.
        if self.state != OPEN:
            self.trips += 1
        self.state = OPEN
        self._opened_at = self.clock()
        self._probe_successes = 0

    def reset(self) -> None:
        """Close the breaker unconditionally (operator/recovery action).

        This is the one transition the state machine cannot take by
        itself: a *forced*-open breaker (hard :class:`MethodOutage`)
        never half-opens, so when the outage is known to be over --
        an operator says so, or the service's method-health recovery
        loop does -- the breaker must be reset explicitly.  Clears the
        forced flag and the failure run; ``trips`` history is kept.
        """
        with self._lock:
            self.state = CLOSED
            self.forced = False
            self.consecutive_failures = 0
            self._probe_successes = 0

    def refuse(self, inputs: Tuple = ()) -> CircuitOpen:
        """The error describing why a call was refused right now."""
        return CircuitOpen(
            f"circuit open ({self.consecutive_failures} consecutive "
            f"failures{', hard outage' if self.forced else ''})",
            method=self.method,
            inputs=inputs,
        )

    def __repr__(self) -> str:
        return f"CircuitBreaker({self.method}: {self.state}, {self.trips} trips)"


class BreakerRegistry:
    """One lazily created breaker per access method, shared settings."""

    def __init__(
        self,
        failure_threshold: int = 3,
        recovery_time: float = 30.0,
        half_open_successes: int = 1,
        clock: Clock = time.monotonic,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        self.half_open_successes = half_open_successes
        self.clock = clock
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def for_method(self, method: str) -> CircuitBreaker:
        """The breaker guarding one method (created on first use)."""
        with self._lock:
            breaker = self._breakers.get(method)
            if breaker is None:
                breaker = CircuitBreaker(
                    method,
                    failure_threshold=self.failure_threshold,
                    recovery_time=self.recovery_time,
                    half_open_successes=self.half_open_successes,
                    clock=self.clock,
                )
                self._breakers[method] = breaker
            return breaker

    def _snapshot(self) -> Tuple[Tuple[str, CircuitBreaker], ...]:
        with self._lock:
            return tuple(self._breakers.items())

    def open_methods(self) -> Tuple[str, ...]:
        """Methods whose breaker is currently open, sorted."""
        return tuple(
            sorted(
                name
                for name, breaker in self._snapshot()
                if breaker.state == OPEN
            )
        )

    def forced_open_methods(self) -> Tuple[str, ...]:
        """Methods force-opened by a hard outage (never self-recover)."""
        return tuple(
            sorted(
                name
                for name, breaker in self._snapshot()
                if breaker.state == OPEN and breaker.forced
            )
        )

    def reset_method(self, method: str) -> bool:
        """Reset one method's breaker if it exists; True when it did."""
        with self._lock:
            breaker = self._breakers.get(method)
        if breaker is None:
            return False
        breaker.reset()
        return True

    def states(self) -> Dict[str, str]:
        """Method -> breaker state, a point-in-time health snapshot."""
        return {name: breaker.state for name, breaker in self._snapshot()}

    @property
    def trips(self) -> int:
        """Total breaker trips across all methods."""
        return sum(b.trips for _, b in self._snapshot())

    def __repr__(self) -> str:
        return (
            f"BreakerRegistry({len(self._breakers)} breakers, "
            f"{self.trips} trips, open={list(self.open_methods())})"
        )


@dataclass
class ResilientDispatcher:
    """Retry + breaker + deadline wrapping of single access dispatches.

    ``sleep`` is what backoff waits call; the default ``None`` records
    the wait (``backoff_waited``) without blocking, which is right for
    simulations and benchmarks -- pass ``time.sleep`` (or a
    :meth:`VirtualClock.sleep <repro.faults.clock.VirtualClock.sleep>`)
    when waiting matters.

    A dispatcher's *counters* are plain attributes and therefore
    per-request state: concurrent callers must not share one dispatcher.
    The (locked) breaker registry, the frozen retry policy and the sleep
    callable are shareable, which is how every request of a
    :class:`~repro.service.QueryService` gets its own dispatcher, and
    so its own counters, over one breaker state.
    """

    retry: Optional[RetryPolicy] = None
    breakers: Optional[BreakerRegistry] = None
    deadline: Optional[Deadline] = None
    sleep: Optional[Sleep] = None
    # Counters (their per-command deltas go into CommandStats).
    retries: int = 0
    faults: int = 0
    giveups: int = 0
    backoff_waited: float = 0.0

    def check_deadline(self, doing: str = "execution") -> None:
        """Deadline check usable between commands, not just per access."""
        if self.deadline is not None:
            self.deadline.check(doing)

    def bind(
        self, fetch: Callable[[Tuple], object], method: str
    ) -> Callable[[Tuple], object]:
        """The per-key dispatch of one access command: ``inputs -> rows``.

        ``fetch`` takes one key's input tuple and touches the source
        (directly or through the access cache).  What does not depend
        on the key is decided here, once: the method's breaker (the
        registry creates a breaker once and never replaces it --
        :meth:`BreakerRegistry.reset_method` resets it in place -- so
        the object resolved now is the one every later key would have
        been handed), the retry policy, the deadline and the text the
        deadline check reports.  Everything else is decided per key by
        the callable returned: deadline check, breaker admission,
        fetch, and on a failure the breaker feedback and the retry
        decision.  Transient errors are retried per the policy;
        permanent ones propagate immediately with the breaker informed
        either way.

        The breaker's locked protocol is entered exactly when it can
        decide something: ``allow()`` when the breaker reads ``OPEN``,
        ``record_success()`` when it is not ``CLOSED`` or a failure is
        outstanding (in any other state both are no-ops), so a key of a
        healthy method takes no breaker lock.
        """
        breaker = (
            self.breakers.for_method(method)
            if self.breakers is not None
            else None
        )
        retry = self.retry
        deadline = self.deadline
        doing = f"access {method}"

        def dispatch(inputs: Tuple):
            """One key: deadline, breaker, fetch, retries."""
            attempt = 0
            while True:
                if deadline is not None:
                    deadline.check(doing)
                # A breaker that does not read OPEN admits every call
                # and changes nothing doing so: only an open one is asked.
                if (
                    breaker is not None
                    and breaker.state == OPEN
                    and not breaker.allow()
                ):
                    raise breaker.refuse(inputs)
                attempt += 1
                try:
                    result = fetch(inputs)
                except TransientAccessError as error:
                    self.faults += 1
                    if breaker is not None:
                        breaker.record_failure()
                    if retry is None or not retry.should_retry(
                        error, attempt
                    ):
                        self.giveups += 1
                        error.attempts = attempt
                        raise
                    wait = retry.delay(attempt, method, inputs)
                    if deadline is not None and wait > deadline.remaining():
                        self.giveups += 1
                        raise DeadlineExceeded(
                            f"backoff of {wait:.3f}s before retrying "
                            f"{method} would overrun the plan deadline "
                            f"(remaining {deadline.remaining():.3f}s)"
                        ) from error
                    self.backoff_waited += wait
                    if self.sleep is not None:
                        self.sleep(wait)
                    self.retries += 1
                except AccessError as error:
                    # Permanent: breaker learns, caller decides (failover).
                    if breaker is not None:
                        breaker.record_failure(
                            permanent=isinstance(error, MethodOutage)
                        )
                    error.attempts = attempt
                    raise
                else:
                    # A success is news to the breaker only when it is
                    # probing or a failure is outstanding.
                    if breaker is not None and (
                        breaker.consecutive_failures
                        or breaker.state != CLOSED
                    ):
                        breaker.record_success()
                    return result

        return dispatch

    def call(
        self, fetch: Callable[[], object], method: str, inputs: Tuple = ()
    ):
        """Run one dispatch of a zero-argument ``fetch`` thunk.

        :meth:`bind` for a single call: what a batched access (one
        round trip for many keys) and a caller with one key use.
        ``inputs`` only identifies the call -- to the retry jitter and
        to a :class:`~repro.errors.CircuitOpen`.
        """
        return self.bind(lambda _inputs: fetch(), method)(inputs)

    @property
    def breaker_trips(self) -> int:
        """Total trips across the registry (0 without breakers)."""
        return self.breakers.trips if self.breakers is not None else 0

    def summary(self) -> str:
        """A one-line human-readable digest."""
        return (
            f"{self.retries} retries, {self.faults} faults seen, "
            f"{self.giveups} giveups, {self.breaker_trips} breaker trips, "
            f"{self.backoff_waited:.2f}s backoff"
        )
