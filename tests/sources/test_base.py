"""The shared adapter plumbing: epochs, buckets, defensive wrappers."""

import pytest

from repro.data.decorators import LatencySource
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import RateLimited
from repro.schema.core import SchemaBuilder
from repro.sources import (
    PacedSource,
    SourceAdapter,
    TokenBucket,
    source_epoch,
)


def tiny_schema():
    return (
        SchemaBuilder("adapters")
        .relation("R", 2)
        .access("mt_R", "R", inputs=[0], cost=1.0)
        .access("mt_free", "R", inputs=[], cost=1.0)
        .build()
    )


def tiny_instance():
    return Instance({"R": [("a", 1), ("a", 2), ("b", 3)]})


def memory_source():
    return InMemorySource(tiny_schema(), tiny_instance())


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


# ------------------------------------------------------------ source_epoch
class TestSourceEpoch:
    def test_in_memory_source_epoch_is_instance_version(self):
        source = memory_source()
        assert source_epoch(source) == source.instance.version
        assert isinstance(source, SourceAdapter)

    def test_mutation_bumps_the_epoch(self):
        source = memory_source()
        before = source_epoch(source)
        source.instance.add("R", ("c", 4))
        assert source_epoch(source) > before

    def test_epochless_objects_answer_zero(self):
        class Bare:
            """No epoch, no instance."""

        assert source_epoch(Bare()) == 0

    def test_callable_epoch_wins_over_instance_version(self):
        class Epochal:
            """epoch() takes precedence over instance.version."""

            instance = memory_source().instance

            def epoch(self):
                """A fixed token."""
                return 41

        assert source_epoch(Epochal()) == 41

    def test_epoch_reads_through_wrapper_stacks(self):
        source = memory_source()
        stack = LatencySource(PacedSource(source, rate=1e9, capacity=8), 0.0)
        assert source_epoch(stack) == source.instance.version


# ------------------------------------------------------------- TokenBucket
class TestTokenBucket:
    def test_grants_up_to_capacity_then_reports_wait(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=2.0, clock=clock)
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        wait = bucket.acquire()
        assert wait == pytest.approx(0.5)
        # A positive return takes nothing: the shortfall is unchanged.
        assert bucket.acquire() == pytest.approx(0.5)

    def test_refills_on_the_injected_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, capacity=2.0, clock=clock)
        bucket.acquire()
        bucket.acquire()
        clock.now += 1.0
        assert bucket.available() == pytest.approx(2.0)
        assert bucket.acquire() == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.5)


# ------------------------------------------------------------- PacedSource
class TestPacedSource:
    def test_paces_with_injected_sleep_and_answers_exactly(self):
        clock = FakeClock()
        source = memory_source()
        paced = PacedSource(
            source, rate=2.0, capacity=1.0, max_wait=10.0,
            sleep=clock.sleep, clock=clock,
        )
        first = paced.access("mt_R", ("a",))
        second = paced.access("mt_R", ("a",))
        assert first == second == source.access("mt_R", ("a",))
        assert paced.paced_waits == 1
        assert paced.wait_seconds == pytest.approx(0.5)
        assert clock.now == pytest.approx(0.5)

    def test_dry_bucket_beyond_max_wait_is_typed_rate_limited(self):
        clock = FakeClock()
        paced = PacedSource(
            memory_source(), rate=0.001, capacity=1.0, max_wait=0.5,
            sleep=clock.sleep, clock=clock,
        )
        paced.access("mt_R", ("a",))
        with pytest.raises(RateLimited):
            paced.access("mt_R", ("b",))
        assert paced.refusals == 1

    def test_batch_pays_one_token_per_key(self):
        clock = FakeClock()
        source = memory_source()
        paced = PacedSource(
            source, rate=1.0, capacity=3.0, max_wait=10.0,
            sleep=clock.sleep, clock=clock,
        )
        answers = paced.access_batch("mt_R", [("a",), ("b",), ("x",)])
        # Three keys, capacity 3: all granted without waiting.
        assert paced.paced_waits == 0
        assert paced.bucket.available() == pytest.approx(0.0)
        # The answers match per-key accesses byte for byte.
        fresh = memory_source()
        for key, rows in answers.items():
            assert rows == fresh.access("mt_R", key)
