"""Feedback-driven cost calibration: determinism, monotonicity, disk.

The properties pinned here are what makes calibration safe to wire into
the planner:

* aggregation is a pure function of the observed ``ExecStats`` stream
  (same stream, same estimates -- across store instances);
* every accumulated counter is monotone under added observations, and
  the store version only moves forward;
* derived selectivities never leave (0, 1], the sound range for the
  estimator's ``select_selectivity`` knob;
* the disk tier round-trips through its atomic JSON file, and corrupt
  or alien files degrade to an empty store instead of raising;
* the identity (version + digest) moves on every observation batch --
  the hook plan-cache invalidation hangs off.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost.calibration import (
    CALIBRATION_KIND,
    CalibrationStore,
    MethodCalibration,
)
from repro.errors import CostModelError
from repro.exec.stats import ExecStats


def stats_from(rows):
    """Synthesize an ExecStats from (method, dispatched, fetched, emitted)."""
    stats = ExecStats()
    for i, (method, dispatched, fetched, emitted) in enumerate(rows):
        record = stats.command(i, f"T{i}", "access", method=method)
        record.dispatched = dispatched
        record.rows_fetched = fetched
        record.rows_out = emitted
    return stats


# One observation: emitted never exceeds fetched (set semantics plus the
# output mapping's equality filter can only drop raw source rows).
observations = st.tuples(
    st.sampled_from(["mt_a", "mt_b", "mt_c"]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=60),
).flatmap(
    lambda t: st.integers(min_value=0, max_value=t[2]).map(
        lambda emitted: (t[0], t[1], t[2], emitted)
    )
)
streams = st.lists(observations, min_size=0, max_size=25)

#: A store written by the hand-written codec ``MethodCalibration`` had
#: before it became a ``repro.obs.Record``, from :data:`BATCHES`.  The
#: file pins the disk format: never regenerate it.
GOLDEN = Path(__file__).parent / "golden" / "calibration_store.json"
#: (rows, relation map) per ``observe_stats`` batch, then one ``observe``.
BATCHES = (
    ([("mt_b", 4, 40, 30), ("mt_a", 1, 9, 9)], {"mt_a": "R", "mt_b": "S"}),
    ([("mt_a", 2, 6, 4), ("mt_c", 3, 0, 0)], {"mt_a": "R"}),
    ([("mt_b", 1, 1, 1)], None),
)


def write_golden_observations(path):
    store = CalibrationStore(path=path)
    for rows, relations in BATCHES:
        store.observe_stats(stats_from(rows), relations)
    store.observe("mt_d", relation="T", dispatched=5, fetched=2, emitted=2)
    return store


class TestMethodCalibration:
    def test_fan_out_is_emitted_over_dispatched(self):
        cal = MethodCalibration(method="mt")
        cal.observe(dispatched=4, fetched=20, emitted=12)
        assert cal.fan_out == pytest.approx(3.0)

    def test_selectivity_is_emitted_over_fetched(self):
        cal = MethodCalibration(method="mt")
        cal.observe(dispatched=4, fetched=20, emitted=12)
        assert cal.selectivity == pytest.approx(0.6)

    def test_unobserved_ratios_are_none(self):
        cal = MethodCalibration(method="mt")
        assert cal.fan_out is None
        assert cal.selectivity is None

    def test_zero_emitted_clamps_selectivity_above_zero(self):
        cal = MethodCalibration(method="mt")
        cal.observe(dispatched=2, fetched=10, emitted=0)
        assert 0.0 < cal.selectivity <= 1.0

    def test_dict_round_trip(self):
        cal = MethodCalibration(method="mt", relation="R")
        cal.observe(dispatched=3, fetched=9, emitted=6)
        cal.observe(dispatched=1, fetched=1, emitted=1)
        back = MethodCalibration.from_dict(cal.as_dict())
        assert back == cal


class TestObserveStats:
    def test_aggregates_access_commands_only(self):
        stats = stats_from([("mt_a", 2, 6, 4)])
        stats.command(9, "T9", "middleware")  # no method: ignored
        store = CalibrationStore()
        assert store.observe_stats(stats) == 1
        assert store.fan_out("mt_a") == pytest.approx(2.0)

    def test_a_command_that_raised_is_not_evidence(self):
        # A failed access books what it dispatched, not what it fetched.
        stats = stats_from([("mt_a", 2, 0, 0), ("mt_b", 1, 3, 3)])
        stats.commands[0].raised = 1
        store = CalibrationStore()
        assert store.observe_stats(stats) == 1
        assert store.method_calibration("mt_a") is None

    def test_relation_mapping_is_recorded(self):
        store = CalibrationStore()
        store.observe_stats(stats_from([("mt_a", 1, 2, 2)]), {"mt_a": "R"})
        assert store.method_calibration("mt_a").relation == "R"

    def test_batch_bumps_version_once(self):
        store = CalibrationStore()
        store.observe_stats(
            stats_from([("mt_a", 1, 1, 1), ("mt_b", 2, 4, 2)])
        )
        assert store.version == 1

    def test_empty_batch_does_not_bump_version(self):
        store = CalibrationStore()
        assert store.observe_stats(stats_from([])) == 0
        assert store.version == 0

    def test_min_observations_gates_estimates(self):
        store = CalibrationStore(min_observations=2)
        store.observe_stats(stats_from([("mt_a", 2, 4, 4)]))
        assert store.fan_out("mt_a") is None
        assert store.fallbacks == 1
        store.observe_stats(stats_from([("mt_a", 2, 4, 4)]))
        assert store.fan_out("mt_a") == pytest.approx(2.0)
        assert store.hits == 1

    def test_min_observations_validated(self):
        with pytest.raises(CostModelError):
            CalibrationStore(min_observations=0)

    def test_global_select_selectivity_pools_methods(self):
        store = CalibrationStore()
        store.observe_stats(
            stats_from([("mt_a", 1, 10, 5), ("mt_b", 1, 10, 1)])
        )
        assert store.select_selectivity() == pytest.approx(0.3)


class TestProperties:
    @given(stream=streams)
    @settings(max_examples=100, deadline=None)
    def test_deterministic_given_same_stream(self, stream):
        first, second = CalibrationStore(), CalibrationStore()
        for store in (first, second):
            store.observe_stats(stats_from(stream))
        assert first.identity() == second.identity()
        for method in {entry[0] for entry in stream}:
            assert first.fan_out(method) == second.fan_out(method)
            assert first.selectivity(method) == second.selectivity(method)

    @given(stream=streams, extra=streams)
    @settings(max_examples=100, deadline=None)
    def test_monotone_under_added_observations(self, stream, extra):
        store = CalibrationStore()
        store.observe_stats(stats_from(stream))
        before = store.counters()
        store.observe_stats(stats_from(extra))
        after = store.counters()
        for key in ("version", "observations", "dispatched", "emitted"):
            assert after[key] >= before[key]

    @given(stream=streams)
    @settings(max_examples=100, deadline=None)
    def test_selectivity_never_leaves_unit_interval(self, stream):
        store = CalibrationStore()
        store.observe_stats(stats_from(stream))
        for method in {entry[0] for entry in stream}:
            observed = store.selectivity(method)
            if observed is not None:
                assert 0.0 < observed <= 1.0
        pooled = store.select_selectivity()
        if pooled is not None:
            assert 0.0 < pooled <= 1.0

    @given(stream=st.lists(observations, min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_every_batch_moves_the_identity(self, stream):
        store = CalibrationStore()
        before = store.identity()
        store.observe_stats(stats_from(stream))
        assert store.identity() != before


class TestDiskTier:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "calib.json")
        store = CalibrationStore(path=path)
        store.observe_stats(
            stats_from([("mt_a", 2, 8, 4), ("mt_b", 1, 3, 3)]),
            {"mt_a": "R", "mt_b": "S"},
        )
        reloaded = CalibrationStore(path=path)
        assert reloaded.identity() == store.identity()
        assert reloaded.fan_out("mt_a") == pytest.approx(2.0)
        assert reloaded.version == store.version

    def test_corrupt_file_degrades_to_empty(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text("{not json")
        store = CalibrationStore(path=str(path))
        assert store.observations == 0

    def test_alien_format_degrades_to_empty(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({"format": "something-else"}))
        assert CalibrationStore(path=str(path)).observations == 0

    def test_persisted_file_carries_format_markers(self, tmp_path):
        path = tmp_path / "calib.json"
        store = CalibrationStore(path=str(path))
        store.observe(
            "mt_a", relation="R", dispatched=1, fetched=1, emitted=1
        )
        payload = json.loads(path.read_text())
        assert payload["format"] == CALIBRATION_KIND


class TestCrashMidAtomicWrite:
    """A writer dying inside the temp-then-rename protocol is harmless."""

    def _persisted(self, tmp_path):
        path = tmp_path / "calib.json"
        store = CalibrationStore(path=str(path))
        store.observe(
            "mt_a", relation="R", dispatched=2, fetched=8, emitted=4
        )
        return path

    def test_abandoned_temp_file_is_ignored(self, tmp_path):
        path = self._persisted(tmp_path)
        (tmp_path / "calib.json.tmp.9999").write_text(
            '{"format": "repro.cost-calibration", "ver'
        )
        reloaded = CalibrationStore(path=str(path))
        assert reloaded.fan_out("mt_a") == pytest.approx(2.0)
        assert reloaded.counters()["quarantined"] == 0

    def test_torn_rename_is_quarantined_and_survivable(self, tmp_path):
        path = self._persisted(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        reloaded = CalibrationStore(path=str(path))
        # The store starts empty (documented fallbacks apply), the
        # rotten file is kept aside, and the event is counted.
        assert reloaded.observations == 0
        assert reloaded.counters()["quarantined"] == 1
        assert (tmp_path / "calib.json.quarantined").exists()
        # Live observations re-fill and re-persist a valid store.
        reloaded.observe(
            "mt_a", relation="R", dispatched=1, fetched=2, emitted=2
        )
        assert CalibrationStore(path=str(path)).observations == 1

    def test_single_byte_flip_is_quarantined(self, tmp_path):
        path = self._persisted(tmp_path)
        data = bytearray(path.read_bytes())
        mid = len(data) // 2
        data[mid] = ord("Y") if data[mid] == ord("X") else ord("X")
        path.write_bytes(bytes(data))
        reloaded = CalibrationStore(path=str(path))
        assert reloaded.observations == 0
        assert reloaded.counters()["quarantined"] == 1

    def test_failed_persist_is_counted_not_raised(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store dir should be")
        store = CalibrationStore(path=str(blocker / "nested" / "calib.json"))
        store.observe(
            "mt_a", relation="R", dispatched=1, fetched=1, emitted=1
        )
        assert store.counters()["persist_errors"] == 1
        # The in-memory estimates are intact despite the failed write.
        assert store.fan_out("mt_a") == pytest.approx(1.0)


class TestDiskFormat:
    """The store on disk keeps the format of the hand-written codec."""

    def test_a_store_in_the_committed_format_loads(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_bytes(GOLDEN.read_bytes())
        store = CalibrationStore(path=str(path))
        assert store.counters()["quarantined"] == 0
        # The identity feeds plan-cache keys: it must not move either.
        assert store.identity() == {"version": 4, "digest": "f71784fc5ccb98af"}
        assert store.method_calibration("mt_a") == MethodCalibration(
            method="mt_a", relation="R", commands=2, dispatched=3,
            fetched=15, emitted=13,
            fanout_histogram={"<=2^4": 1, "<=2^1": 1},
        )
        assert store.observations == 6

    def test_the_same_observations_write_the_same_bytes(self, tmp_path):
        path = tmp_path / "calib.json"
        write_golden_observations(str(path))
        assert path.read_bytes() == GOLDEN.read_bytes()
