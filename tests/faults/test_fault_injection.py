"""The deterministic fault schedule: replayable, transient, recoverable."""

import sys
import threading

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import (
    AccessTimeout,
    MethodOutage,
    RateLimited,
    ResultTruncated,
    SourceUnavailable,
    TransientAccessError,
)
from repro.faults import FaultInjectingSource, FaultPolicy, VirtualClock
from repro.faults.policy import TRANSIENT_KINDS, unit_interval
from repro.schema.core import SchemaBuilder


@pytest.fixture
def schema():
    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .access("mt_free", "R", inputs=[], cost=1.0)
        .access("mt_key", "R", inputs=[0], cost=2.0)
        .build()
    )


@pytest.fixture
def instance():
    return Instance(
        {"R": [("a", "1"), ("a", "2"), ("b", "3"), ("c", "4")]}
    )


def make_source(schema, instance, policy, clock=None):
    return FaultInjectingSource(
        InMemorySource(schema, instance), policy, clock=clock
    )


class TestScheduleDeterminism:
    def test_unit_interval_is_stable_and_uniformish(self):
        a = unit_interval(0, "mt", ("x",))
        assert a == unit_interval(0, "mt", ("x",))
        assert a != unit_interval(1, "mt", ("x",))
        draws = [unit_interval(0, "mt", (i,)) for i in range(500)]
        assert all(0 <= d < 1 for d in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    def test_same_seed_same_failures(self, schema, instance):
        def observe(seed):
            source = make_source(
                schema, instance, FaultPolicy.transient(0.5, seed=seed)
            )
            outcomes = []
            for key in ("a", "b", "c", "d"):
                try:
                    source.access("mt_key", (key,))
                    outcomes.append("ok")
                except TransientAccessError as error:
                    outcomes.append(type(error).__name__)
            return outcomes

        assert observe(7) == observe(7)

    def test_different_seeds_differ_somewhere(self, schema, instance):
        def fault_keys(seed):
            policy = FaultPolicy.transient(0.5, seed=seed)
            return {
                i
                for i in range(40)
                if policy.kind_for("mt_key", (i,)) is not None
            }

        assert fault_keys(0) != fault_keys(1)

    def test_rate_scales_fault_fraction(self, schema, instance):
        for rate in (0.0, 0.2, 0.8):
            policy = FaultPolicy.transient(rate, seed=3)
            hits = sum(
                policy.kind_for("mt_key", (i,)) is not None
                for i in range(1000)
            )
            assert abs(hits / 1000 - rate) < 0.07, rate


class TestTransientKinds:
    def test_each_kind_raises_its_error(self, schema, instance):
        by_kind = {
            "unavailable": SourceUnavailable,
            "timeout": AccessTimeout,
            "rate_limit": RateLimited,
        }
        for kind, error_cls in by_kind.items():
            policy = FaultPolicy(seed=0, **{f"{kind}_rate": 1.0})
            source = make_source(schema, instance, policy)
            with pytest.raises(error_cls) as excinfo:
                source.access("mt_key", ("a",))
            assert excinfo.value.method == "mt_key"
            assert excinfo.value.relation == "R"
            assert source.stats.injected[kind] == 1

    def test_burst_then_recovery(self, schema, instance):
        policy = FaultPolicy(seed=0, unavailable_rate=1.0, burst=3)
        source = make_source(schema, instance, policy)
        for _ in range(3):
            with pytest.raises(SourceUnavailable):
                source.access("mt_key", ("a",))
        rows = source.access("mt_key", ("a",))
        assert len(rows) == 2  # the real answer, after the burst
        assert source.stats.injected_total == 3
        assert source.stats.delivered == 1

    def test_an_unprotected_plan_propagates_the_injected_failure(self):
        from repro.planner.search import find_best_plan
        from repro.scenarios import example1

        scenario = example1()
        plan = find_best_plan(scenario.schema, scenario.query).best_plan
        source = make_source(
            scenario.schema,
            scenario.instance(0),
            FaultPolicy(seed=0, unavailable_rate=1.0, burst=1),
        )
        with pytest.raises(SourceUnavailable):
            plan.run(source)
        assert source.inner.total_invocations == 0  # failed, not charged

    def test_attempt_counters_are_per_key(self, schema, instance):
        policy = FaultPolicy(seed=0, unavailable_rate=1.0, burst=1)
        source = make_source(schema, instance, policy)
        with pytest.raises(SourceUnavailable):
            source.access("mt_key", ("a",))
        # A different key is on its own attempt clock: still faults.
        with pytest.raises(SourceUnavailable):
            source.access("mt_key", ("b",))
        assert len(source.access("mt_key", ("a",))) == 2

    def test_failed_calls_are_not_logged_or_charged(self, schema, instance):
        policy = FaultPolicy(seed=0, unavailable_rate=1.0)
        source = make_source(schema, instance, policy)
        with pytest.raises(SourceUnavailable):
            source.access("mt_free", ())
        assert source.inner.total_invocations == 0
        assert len(source.access("mt_free", ())) == 4
        assert source.inner.total_invocations == 1


class TestTruncation:
    def test_truncation_carries_partial_rows_and_reaches_backend(
        self, schema, instance
    ):
        policy = FaultPolicy(seed=0, truncation_rate=1.0, truncation_keep=1)
        source = make_source(schema, instance, policy)
        with pytest.raises(ResultTruncated) as excinfo:
            source.access("mt_free", ())
        assert len(excinfo.value.rows) == 1
        assert excinfo.value.rows < frozenset(instance.tuples("R"))
        # The call reached (and was logged by) the backend: it was paid.
        assert source.inner.total_invocations == 1

    def test_retry_past_burst_gets_full_result(self, schema, instance):
        policy = FaultPolicy(seed=0, truncation_rate=1.0, truncation_keep=0)
        source = make_source(schema, instance, policy)
        with pytest.raises(ResultTruncated):
            source.access("mt_free", ())
        assert len(source.access("mt_free", ())) == 4


class TestOutages:
    def test_outage_from_start(self, schema, instance):
        source = make_source(
            schema, instance, FaultPolicy.outage("mt_key")
        )
        for _ in range(2):
            with pytest.raises(MethodOutage):
                source.access("mt_key", ("a",))
        # Other methods are unaffected.
        assert len(source.access("mt_free", ())) == 4
        assert source.stats.outage_refusals == 2

    def test_outage_after_n_invocations(self, schema, instance):
        source = make_source(
            schema, instance, FaultPolicy.outage("mt_key", after=2)
        )
        assert len(source.access("mt_key", ("a",))) == 2
        assert len(source.access("mt_key", ("b",))) == 1
        with pytest.raises(MethodOutage):
            source.access("mt_key", ("c",))


class TestLatencyAndPlumbing:
    def test_latency_advances_the_virtual_clock_only(self, schema, instance):
        clock = VirtualClock()
        policy = FaultPolicy(seed=0, latency=0.25)
        source = make_source(schema, instance, policy, clock=clock)
        source.access("mt_free", ())
        source.access("mt_key", ("a",))
        assert clock.now() == pytest.approx(0.5)
        assert source.stats.injected_latency == pytest.approx(0.5)

    def test_delegation_and_reset(self, schema, instance):
        source = make_source(schema, instance, FaultPolicy(seed=0))
        source.access("mt_free", ())
        assert source.total_invocations == 1  # delegated to the inner log
        assert source.schema.name == "s"
        source.reset_faults()
        assert source.stats.calls == 0

    def test_reset_during_a_threaded_burst_keeps_the_books(
        self, schema, instance
    ):
        """Service workers call ``access`` while an operator resets: an
        access counts on one ``FaultStats`` from start to finish, so the
        object left after the burst balances."""
        policy = FaultPolicy(
            seed=3,
            unavailable_rate=0.3,
            burst=2,
            latency=0.01,
            outages={"mt_free": 40},
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(20):
                source = make_source(schema, instance, policy)
                running = threading.Event()

                def burst():
                    running.wait()
                    for i in range(150):
                        try:
                            source.access("mt_key", (f"k{i % 7}",))
                            source.access("mt_free", ())
                        except (SourceUnavailable, MethodOutage):
                            pass

                workers = [threading.Thread(target=burst) for _ in range(4)]
                for worker in workers:
                    worker.start()
                running.set()
                while any(worker.is_alive() for worker in workers):
                    source.reset_faults()
                stats = source.stats
                assert stats.calls == (
                    stats.delivered
                    + stats.injected_total
                    + stats.outage_refusals
                )
        finally:
            sys.setswitchinterval(interval)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FaultPolicy(unavailable_rate=0.9, timeout_rate=0.3)
        with pytest.raises(ValueError):
            FaultPolicy(burst=0)
        with pytest.raises(ValueError):
            FaultPolicy(outages={"mt": -1})

    def test_stats_dict_round_trip(self, schema, instance):
        source = make_source(
            schema, instance, FaultPolicy(seed=0, unavailable_rate=1.0)
        )
        with pytest.raises(SourceUnavailable):
            source.access("mt_free", ())
        payload = source.stats.as_dict()
        assert payload["injected_total"] == 1
        assert set(payload["injected"]) == set(TRANSIENT_KINDS)
        assert "transient faults" in source.stats.summary()
