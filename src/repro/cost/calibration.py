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
  (thread-safe, deterministic -- plain integer sums), answers
  ``fan_out(method)`` / ``selectivity(method)`` queries with
  hit/fallback accounting, and persists itself as one versioned,
  checksummed, atomically-written JSON file (:mod:`repro.checked_json`,
  the plan cache's disk protocol too) so estimates survive restarts.

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
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro import checked_json
from repro.errors import CostModelError
from repro.obs import Record

#: Format marker + version stamped into the on-disk store.
#: Version 2 added the content checksum (stores without one are
#: treated as alien -- an empty store, re-filled by observation).
CALIBRATION_KIND = "repro.cost-calibration"
CALIBRATION_VERSION = 2

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

    A :class:`~repro.obs.Record`: its dict form is what the disk tier
    holds, and ``absorb`` pools methods into one total.
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
    """Thread-safe per-method calibration with an optional disk tier.

    ``min_observations`` is the evidence floor: estimate queries fall
    back to the caller's default (and count a fallback) until a method
    has been seen in at least that many access commands, so one noisy
    run cannot swing the planner.

    Determinism: aggregation is pure integer summation, so feeding the
    same :class:`~repro.exec.stats.ExecStats` stream in the same order
    always yields the same estimates -- and every counter is monotone
    non-decreasing under added observations (the property tests in
    ``tests/cost/test_calibration.py`` pin both).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        min_observations: int = 1,
    ) -> None:
        if min_observations < 1:
            raise CostModelError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        self.path = path
        self.min_observations = min_observations
        self._lock = threading.Lock()
        # Serializes disk writes: _persist runs outside the main lock
        # (so estimate readers never wait on IO), but two persists must
        # not interleave on the temp-then-rename protocol.
        self._io_lock = threading.Lock()
        self._methods: Dict[str, MethodCalibration] = {}
        self.version = 0
        # Estimate-query accounting (exposed in QueryService.health()).
        self.hits = 0
        self.fallbacks = 0
        self.quarantined = 0
        self.persist_errors = 0
        if path is not None and os.path.exists(path):
            self._load(path)

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
        self._persist()

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
        if observed:
            self._persist()
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

        Returns None (and counts a fallback) when the method has fewer
        than ``min_observations`` observed commands.
        """
        with self._lock:
            entry = self._methods.get(method)
            if (
                entry is None
                or entry.commands < self.min_observations
                or entry.fan_out is None
            ):
                self.fallbacks += 1
                return None
            self.hits += 1
            return entry.fan_out

    def selectivity(self, method: str) -> Optional[float]:
        """Calibrated emitted/fetched selectivity in (0, 1], or None."""
        with self._lock:
            entry = self._methods.get(method)
            if (
                entry is None
                or entry.commands < self.min_observations
                or entry.selectivity is None
            ):
                self.fallbacks += 1
                return None
            self.hits += 1
            return entry.selectivity

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
            pooled = self._pooled().selectivity
            if pooled is None:
                self.fallbacks += 1
                return None
            self.hits += 1
            return pooled

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
        """A JSON-able snapshot (surfaced by ``QueryService.health()``)."""
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
                "quarantined": self.quarantined,
                "persist_errors": self.persist_errors,
                "persistent": bool(self.path),
                "min_observations": self.min_observations,
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

    # --------------------------------------------------------- disk tier
    def as_dict(self) -> Dict:
        """The full JSON-able store state (what the disk tier holds)."""
        with self._lock:
            return {
                "format": CALIBRATION_KIND,
                "version": CALIBRATION_VERSION,
                "store_version": self.version,
                "methods": [
                    self._methods[name].as_dict()
                    for name in sorted(self._methods)
                ],
            }

    def _persist(self) -> None:
        """Atomically rewrite the disk tier (never raises into serving).

        Serialized under a dedicated IO lock -- two worker threads
        persisting concurrently must not race on the temp file -- and
        the temp name is thread-unique besides, so even an unexpected
        interleaving cannot tear the rename.  A failed persist (disk
        full, permissions) is counted, not raised: losing one disk
        snapshot costs nothing (the store re-persists on the next
        observation), whereas an exception here would detonate inside
        request accounting.
        """
        if self.path is None:
            return
        try:
            with self._io_lock:
                checked_json.write(self.path, self.as_dict())
        except OSError:
            with self._lock:
                self.persist_errors += 1

    def _load(self, path: str) -> None:
        """Rehydrate from disk; corrupt stores are quarantined, alien
        ones ignored -- either way this store starts empty and serves.

        The store re-fills from live observations (every served request
        feeds it), so quarantine-and-continue converges back to
        calibrated estimates; meanwhile the estimator's documented
        fallback defaults apply.  The rotten file is kept as
        ``<path>.quarantined`` for inspection and the event counted.
        """
        try:
            entry = checked_json.read(path, CALIBRATION_KIND, CALIBRATION_VERSION)
            if entry is None:
                return
            methods = [
                MethodCalibration.from_dict(item)
                for item in entry.get("methods", ())
            ]
            store_version = int(entry.get("store_version", 0))
        except (checked_json.CorruptFile, KeyError, TypeError, ValueError):
            checked_json.quarantine(path)
            self.quarantined += 1
            return
        self._methods = {m.method: m for m in methods}
        self.version = store_version

    def __repr__(self) -> str:
        return f"CalibrationStore({self.summary()})"
