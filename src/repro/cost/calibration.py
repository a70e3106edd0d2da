"""Feedback-driven cost calibration from observed executions.

The planner's :class:`~repro.cost.functions.CardinalityCostFunction`
historically *guessed*: a flat ``select_selectivity`` of 0.5 and a flat
``default_cardinality`` for every access's output.  But the runtime has
been recording the truth since PR 3 -- :class:`~repro.exec.stats.ExecStats`
carries, per access command, how many distinct input tuples were
dispatched, how many raw rows the source answered with, and how many
rows survived the output mapping.  This module closes the loop:

* :class:`MethodCalibration` accumulates those counters per
  (relation, access method), with a log2 fan-out histogram for
  operators inspecting the distribution;
* :class:`CalibrationStore` aggregates observations across runs
  (thread-safe, deterministic -- plain integer sums) and answers
  ``fan_out(method)`` / ``selectivity(method)`` queries with
  hit/fallback accounting.

The loop closes at the caller: whoever executes a plan hands its
``ExecStats`` to :meth:`CalibrationStore.observe_stats` and plans the
next query with a cost function over the store (``demo --calibrated``
and ``benchmarks/bench_cost.py`` do exactly that).  The query service
runs the plan it is given and keeps no store of its own: the cost
function is an input of Algorithm 1, not a product of serving.

Two derived statistics feed the estimator:

``fan_out(method)``
    mean *emitted* rows per dispatched input tuple -- the calibrated
    replacement for the flat per-access output-cardinality guess.
``selectivity(method)``
    emitted / fetched rows -- the fraction of raw source answers that
    survive the output mapping's equality filter and set-semantics
    dedup.  By construction this lies in ``(0, 1]`` (clamped away from
    zero so downstream estimates stay positive), which is exactly the
    sound range the estimator's ``select_selectivity`` knob demands.

**Cache-key soundness.**  :meth:`CalibrationStore.identity` exposes a
monotone ``version`` plus a content digest; a cost function holding a
store includes that identity in its own
:meth:`~repro.cost.functions.CostFunction.identity`, so every
observation batch that moves the estimates lands plan-cache lookups on
a *different* key.  A cached best plan is only best relative to the
estimates that picked it -- when the estimates move, the stale entry
becomes unreachable instead of wrong.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.obs import Record

#: Selectivities are clamped into (EPSILON, 1.0]: zero would make
#: downstream size estimates vanish (and divide costs to nothing).
EPSILON = 1e-6


def _fanout_bucket(fan_out: float) -> str:
    """The log2 histogram bucket label of one per-command fan-out."""
    if fan_out <= 0:
        return "0"
    power = 0
    ceiling = 1
    while ceiling < fan_out and power < 40:
        power += 1
        ceiling <<= 1
    return f"<=2^{power}"


@dataclass
class MethodCalibration(Record):
    """Accumulated true row flow for one (relation, access method).

    A :class:`~repro.obs.Record`: its dict form feeds the store's
    identity digest, and ``absorb`` pools methods into one total.
    """

    method: str = ""
    relation: str = ""
    commands: int = 0  # access-command executions observed
    dispatched: int = 0  # distinct input tuples sent to the source
    fetched: int = 0  # raw rows the source answered with
    emitted: int = 0  # rows kept after output mapping + set dedup
    fanout_histogram: Dict[str, int] = field(default_factory=dict)

    def observe(self, dispatched: int, fetched: int, emitted: int) -> None:
        """Fold one executed access command's counters in."""
        self.commands += 1
        self.dispatched += dispatched
        self.fetched += fetched
        self.emitted += emitted
        if dispatched > 0:
            bucket = _fanout_bucket(emitted / dispatched)
            self.fanout_histogram[bucket] = (
                self.fanout_histogram.get(bucket, 0) + 1
            )

    @property
    def fan_out(self) -> Optional[float]:
        """Mean emitted rows per dispatched tuple (None: no dispatches)."""
        if self.dispatched <= 0:
            return None
        return self.emitted / self.dispatched

    @property
    def selectivity(self) -> Optional[float]:
        """Observed emitted/fetched ratio, clamped into (0, 1]."""
        if self.fetched <= 0:
            return None
        return min(1.0, max(EPSILON, self.emitted / self.fetched))


class CalibrationStore:
    """Thread-safe per-method calibration, held in memory.

    One observed access command is evidence enough: estimate queries
    fall back to the caller's default (and count a fallback) only for
    a method never observed, or observed without the row flow the
    statistic divides by.

    Determinism: aggregation is pure integer summation, so feeding the
    same :class:`~repro.exec.stats.ExecStats` stream in the same order
    always yields the same estimates -- and every counter is monotone
    non-decreasing under added observations (the property tests in
    ``tests/cost/test_calibration.py`` pin both).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._methods: Dict[str, MethodCalibration] = {}
        self.version = 0
        # Estimate-query accounting (reported by counters()).
        self.hits = 0
        self.fallbacks = 0

    # ----------------------------------------------------------- observe
    def observe(
        self,
        method: str,
        *,
        relation: str = "",
        dispatched: int,
        fetched: int,
        emitted: int,
    ) -> None:
        """Fold one access command's true counters in (bumps version)."""
        with self._lock:
            self._observe_locked(
                method, relation, dispatched, fetched, emitted
            )
            self.version += 1

    def observe_stats(
        self,
        stats,
        relation_of: Optional[Mapping[str, str]] = None,
    ) -> int:
        """Aggregate every access command of an ``ExecStats`` record.

        Only commands that carry their method name, actually
        dispatched something and did not raise (a failed access's row
        flow is no observation) are evidence.  Returns the number of
        commands folded in; the store version is bumped once per batch
        that contained any, so one plan run moves plan-cache keys at
        most once.
        """
        observed = 0
        with self._lock:
            for command in stats.commands:
                if command.kind != "access" or command.method is None:
                    continue
                if command.dispatched <= 0 or command.raised:
                    continue
                relation = (
                    relation_of.get(command.method, "")
                    if relation_of
                    else ""
                )
                self._observe_locked(
                    command.method,
                    relation,
                    command.dispatched,
                    command.rows_fetched,
                    command.rows_out,
                )
                observed += 1
            if observed:
                self.version += 1
        return observed

    def _observe_locked(
        self,
        method: str,
        relation: str,
        dispatched: int,
        fetched: int,
        emitted: int,
    ) -> None:
        entry = self._methods.get(method)
        if entry is None:
            entry = MethodCalibration(method=method, relation=relation)
            self._methods[method] = entry
        if relation and not entry.relation:
            entry.relation = relation
        entry.observe(dispatched, fetched, emitted)

    # ---------------------------------------------------------- estimate
    def fan_out(self, method: str) -> Optional[float]:
        """Calibrated mean output rows per dispatched input tuple.

        Returns None (and counts a fallback) for a method never observed
        dispatching a tuple.
        """
        with self._lock:
            entry = self._methods.get(method)
            return self._counted(None if entry is None else entry.fan_out)

    def selectivity(self, method: str) -> Optional[float]:
        """Calibrated emitted/fetched selectivity in (0, 1], or None."""
        with self._lock:
            entry = self._methods.get(method)
            return self._counted(
                None if entry is None else entry.selectivity
            )

    def _counted(self, estimate: Optional[float]) -> Optional[float]:
        """Book ``estimate`` as a hit or a fallback; caller holds the lock."""
        if estimate is None:
            self.fallbacks += 1
        else:
            self.hits += 1
        return estimate

    def _pooled(self) -> MethodCalibration:
        """Every method's counters absorbed into one; caller holds the lock."""
        pooled = MethodCalibration()
        for entry in self._methods.values():
            pooled.absorb(entry)
        return pooled

    def select_selectivity(self) -> Optional[float]:
        """The observed global selectivity, pooled over every method.

        This is the calibrated replacement for the estimator's flat
        ``select_selectivity`` knob: total emitted over total fetched
        rows, clamped into (0, 1].  None until anything was fetched.
        """
        with self._lock:
            return self._counted(self._pooled().selectivity)

    # ---------------------------------------------------------- identity
    def identity(self) -> Dict[str, object]:
        """Version + content digest, for cost-model identities.

        Two stores with equal identities yield equal estimates, which is
        what lets a cost function embed this in its own ``identity()``
        (and hence in plan-cache keys): any observation batch bumps the
        version *and* moves the digest, so stale cached plans become
        unreachable rather than wrong.
        """
        with self._lock:
            payload = json.dumps(
                [
                    self._methods[name].as_dict()
                    for name in sorted(self._methods)
                ],
                sort_keys=True,
                separators=(",", ":"),
            )
            return {
                "version": self.version,
                "digest": hashlib.blake2b(
                    payload.encode("utf-8"), digest_size=8
                ).hexdigest(),
            }

    # -------------------------------------------------------- inspection
    @property
    def observations(self) -> int:
        """Total access commands observed across all methods."""
        with self._lock:
            return self._pooled().commands

    def method_calibration(
        self, method: str
    ) -> Optional[MethodCalibration]:
        """The accumulator for one method (None when never observed)."""
        with self._lock:
            return self._methods.get(method)

    def counters(self) -> Dict[str, object]:
        """A JSON-able snapshot of the store's totals and accounting."""
        with self._lock:
            pooled = self._pooled()
            return {
                "version": self.version,
                "methods": len(self._methods),
                "observations": pooled.commands,
                "dispatched": pooled.dispatched,
                "emitted": pooled.emitted,
                "hits": self.hits,
                "fallbacks": self.fallbacks,
            }

    def summary(self) -> str:
        """A one-line human-readable digest."""
        counters = self.counters()
        return (
            f"calibration v{counters['version']}: "
            f"{counters['observations']} commands over "
            f"{counters['methods']} methods "
            f"({counters['hits']} hits / {counters['fallbacks']} fallbacks)"
        )

    def __repr__(self) -> str:
        return f"CalibrationStore({self.summary()})"
