"""The fault-injecting source wrapper.

:class:`FaultInjectingSource` composes like the decorators in
:mod:`repro.data.decorators`: a
:class:`~repro.source_contract.SourceWrapper`, it delegates everything
to the wrapped source and intercepts ``access``, consulting the
:class:`~repro.faults.policy.FaultPolicy` schedule each time:

* a permanently-out method refuses with
  :class:`~repro.errors.MethodOutage` *without* touching the backend;
* a key scheduled for a transient kind fails its first ``burst``
  attempts with the matching error
  (:class:`~repro.errors.SourceUnavailable`,
  :class:`~repro.errors.AccessTimeout`,
  :class:`~repro.errors.RateLimited`), again without touching the
  backend -- the failed call is not logged or charged, matching a
  request that never got an answer;
* a key scheduled for truncation *does* reach the backend (the call was
  made and paid for) but raises :class:`~repro.errors.ResultTruncated`
  carrying only ``truncation_keep`` rows, so a result-bounded interface
  is visible to the caller rather than silently incomplete;
* everything else is delivered, with ``policy.latency`` seconds accrued
  on the optional :class:`~repro.faults.clock.VirtualClock`.

Attempt counting is per ``(method, inputs)`` key, so retrying the same
access walks through the burst deterministically while other keys are
unaffected -- the property the differential fault tests rely on.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import (
    AccessTimeout,
    MethodOutage,
    RateLimited,
    ResultTruncated,
    SourceUnavailable,
)
from repro.faults.clock import VirtualClock
from repro.faults.policy import (
    KIND_RATE_LIMIT,
    KIND_TIMEOUT,
    KIND_TRUNCATION,
    KIND_UNAVAILABLE,
    FaultPolicy,
    FaultStats,
)
from repro.logic.terms import Constant
from repro.source_contract import SourceWrapper, constant_inputs

_Key = Tuple[str, Tuple[Constant, ...]]


class FaultInjectingSource(SourceWrapper):
    """Wrap any source with a seeded, deterministic fault schedule.

    The batch endpoint stays blocked: the chaos/differential suites
    rely on every access being in the schedule's scope.  A spec carries
    the policy only; the schedule is keyed by ``(seed, method, inputs)``,
    not by call order, so a rehydrated copy faults in the same places.
    """

    spec_kind = "faults"

    def __init__(
        self,
        inner,
        policy: FaultPolicy,
        clock: Optional[VirtualClock] = None,
    ) -> None:
        super().__init__(inner)
        self.policy = policy
        self.clock = clock
        self.stats = FaultStats()
        self._attempts: Dict[_Key, int] = {}
        self._method_calls: Dict[str, int] = {}
        # Guards the attempt/invocation counters and stats, so the
        # schedule replays deterministically per key even when many
        # service workers hammer the same wrapper.
        self._lock = threading.Lock()

    # ------------------------------------------------------------- spec
    def spec_config(self) -> Dict[str, Any]:
        """The policy in its JSON form."""
        return {"policy": self.policy.to_dict()}

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], inner):
        """Rebuild the wrapper with fresh attempt counters."""
        return cls(inner, FaultPolicy.from_dict(spec["policy"]))

    # ----------------------------------------------------------- access
    def access(self, method_name: str, inputs: Sequence[object] = ()):
        """Invoke a method through the fault schedule.

        Raises the scheduled :mod:`repro.errors` type when the schedule
        says so; otherwise returns the wrapped source's answer.
        """
        values = constant_inputs(inputs)
        key = (method_name, values)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
            invocation = self._method_calls.get(method_name, 0)
            self._method_calls[method_name] = invocation + 1
            # One access counts on one stats object from start to
            # finish, whatever ``reset_faults`` swaps in meanwhile.
            stats = self.stats
            stats.calls += 1

        relation = self._relation_of(method_name)
        if self.policy.is_out(method_name, invocation):
            with self._lock:
                stats.outage_refusals += 1
            raise MethodOutage(
                f"method is hard-down (invocation #{invocation})",
                method=method_name,
                relation=relation,
                inputs=values,
            )
        kind = self.policy.kind_for(method_name, values)
        if kind is not None and attempt < self.policy.burst:
            if kind == KIND_TRUNCATION:
                rows = self.inner.access(method_name, values)
                kept = frozenset(sorted(rows)[: self.policy.truncation_keep])
                with self._lock:
                    stats.injected[kind] += 1
                raise ResultTruncated(
                    f"result truncated to {len(kept)} of {len(rows)} rows "
                    f"(attempt {attempt})",
                    rows=kept,
                    method=method_name,
                    relation=relation,
                    inputs=values,
                )
            with self._lock:
                stats.injected[kind] += 1
            error = {
                KIND_UNAVAILABLE: SourceUnavailable,
                KIND_TIMEOUT: AccessTimeout,
                KIND_RATE_LIMIT: RateLimited,
            }[kind]
            raise error(
                f"injected {kind} fault (attempt {attempt})",
                method=method_name,
                relation=relation,
                inputs=values,
            )
        if self.policy.latency:
            with self._lock:
                stats.injected_latency += self.policy.latency
            if self.clock is not None:
                self.clock.advance(self.policy.latency)
        with self._lock:
            stats.delivered += 1
        return self.inner.access(method_name, values)

    def _relation_of(self, method_name: str) -> Optional[str]:
        try:
            return self.schema.method(method_name).relation
        except Exception:
            return None

    # ------------------------------------------------------- inspection
    def reset_faults(self) -> None:
        """Forget attempt history and stats (the schedule is unchanged)."""
        with self._lock:
            self.stats = FaultStats()
            self._attempts.clear()
            self._method_calls.clear()

    def __repr__(self) -> str:
        return f"FaultInjectingSource({self.inner!r}, {self.stats.summary()})"
