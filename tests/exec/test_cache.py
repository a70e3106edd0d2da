"""Unit tests for the bounded LRU access cache and its metering policy."""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec import AccessCache
from repro.logic.terms import Constant
from repro.schema.core import SchemaBuilder


@pytest.fixture
def source():
    schema = (
        SchemaBuilder("s")
        .relation("R", 2)
        .access("mt_key", "R", inputs=[0], cost=2.0)
        .access("mt_scan", "R", inputs=[], cost=5.0)
        .build()
    )
    instance = Instance({"R": [("a", "1"), ("a", "2"), ("b", "3")]})
    return InMemorySource(schema, instance)


class TestHitMissAccounting:
    def test_miss_then_hit(self, source):
        cache = AccessCache()
        first = cache.fetch(source, "mt_key", (Constant("a"),))
        second = cache.fetch(source, "mt_key", (Constant("a"),))
        assert first == second
        assert len(first) == 2
        assert cache.misses == 1
        assert cache.hits == 1
        # The hit never reached the source.
        assert source.total_invocations == 1

    def test_distinct_inputs_are_distinct_entries(self, source):
        cache = AccessCache()
        cache.fetch(source, "mt_key", (Constant("a"),))
        cache.fetch(source, "mt_key", (Constant("b"),))
        cache.fetch(source, "mt_scan", ())
        assert cache.misses == 3
        assert cache.hits == 0
        assert len(cache) == 3

    def test_hits_are_free_by_default(self, source):
        cache = AccessCache()
        cache.fetch(source, "mt_key", (Constant("a"),))
        cache.fetch(source, "mt_key", (Constant("a"),))
        assert source.total_invocations == 1
        assert source.charged_cost() == pytest.approx(2.0)

    def test_charge_hits_restores_old_accounting(self, source):
        cache = AccessCache(charge_hits=True)
        cache.fetch(source, "mt_key", (Constant("a"),))
        cache.fetch(source, "mt_key", (Constant("a"),))
        assert source.total_invocations == 2
        assert source.charged_cost() == pytest.approx(4.0)
        # The re-logged record carries the method, inputs and result size.
        replayed = source.log[-1]
        assert replayed.method == "mt_key"
        assert replayed.relation == "R"
        assert replayed.inputs == (Constant("a"),)
        assert replayed.results == 2


class TestEvictionAndInvalidation:
    def test_lru_eviction(self, source):
        cache = AccessCache(maxsize=2)
        cache.fetch(source, "mt_key", (Constant("a"),))
        cache.fetch(source, "mt_key", (Constant("b"),))
        # Touch "a" so "b" is the least recently used entry.
        cache.fetch(source, "mt_key", (Constant("a"),))
        cache.fetch(source, "mt_key", (Constant("zzz"),))
        assert cache.evictions == 1
        assert len(cache) == 2
        # "a" survived, "b" was evicted.
        cache.fetch(source, "mt_key", (Constant("a"),))
        assert cache.hits == 2
        cache.fetch(source, "mt_key", (Constant("b"),))
        assert cache.misses == 4

    def test_instance_mutation_invalidates(self, source):
        cache = AccessCache()
        before = cache.fetch(source, "mt_key", (Constant("a"),))
        assert len(before) == 2
        # A write to a relation the method does not read keeps the entry.
        source.instance.add("S", ("z",))
        assert cache.fetch(source, "mt_key", (Constant("a"),)) is before
        assert (cache.hits, cache.misses) == (1, 1)
        source.instance.add("R", ("a", "99"))
        after = cache.fetch(source, "mt_key", (Constant("a"),))
        assert len(after) == 3
        assert cache.misses == 2  # the stale entry was dropped, not served

    def test_clear_resets_everything(self, source):
        cache = AccessCache()
        cache.fetch(source, "mt_key", (Constant("a"),))
        cache.fetch(source, "mt_key", (Constant("a"),))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == cache.misses == cache.evictions == 0

    def test_maxsize_must_be_positive(self):
        with pytest.raises(ValueError):
            AccessCache(maxsize=0)


class TestReporting:
    def test_summary_and_dict(self, source):
        cache = AccessCache(maxsize=8)
        cache.fetch(source, "mt_scan", ())
        cache.fetch(source, "mt_scan", ())
        assert "1 hits" in cache.summary()
        data = cache.as_dict()
        assert data["hits"] == 1
        assert data["misses"] == 1
        assert data["maxsize"] == 8
        assert data["charge_hits"] is False


class _CountingSchema:
    """Schema proxy counting ``method()`` lookups (stale-read regression)."""

    def __init__(self, schema):
        self._schema = schema
        self.method_lookups = 0

    def method(self, name):
        self.method_lookups += 1
        return self._schema.method(name)

    def __getattr__(self, name):
        return getattr(self._schema, name)


class TestHitsNeverTouchSchema:
    """Regression: a charged hit replays from the cached entry alone.

    ``charge_hits`` used to re-read ``source.schema.method(method)`` on
    every hit to recover the relation name for the replayed log record;
    the relation is now hoisted into the entry at miss time, so a hit
    is pure cache reads plus one log append.
    """

    def test_charged_hit_does_not_read_schema(self, source):
        source.schema = _CountingSchema(source.schema)
        cache = AccessCache(charge_hits=True)
        cache.fetch(source, "mt_key", (Constant("a"),))
        lookups_after_miss = source.schema.method_lookups
        assert lookups_after_miss >= 1  # the miss hoisted the relation
        for _ in range(5):
            cache.fetch(source, "mt_key", (Constant("a"),))
        assert source.schema.method_lookups == lookups_after_miss
        # The replayed records still carry the hoisted relation.
        assert source.log[-1].relation == "R"
        assert source.total_invocations == 6

    def test_uncharged_hit_does_not_read_schema_either(self, source):
        source.schema = _CountingSchema(source.schema)
        cache = AccessCache()
        cache.fetch(source, "mt_key", (Constant("a"),))
        lookups_after_miss = source.schema.method_lookups
        cache.fetch(source, "mt_key", (Constant("a"),))
        assert source.schema.method_lookups == lookups_after_miss


class TestConcurrency:
    def test_stampede_collapses_to_one_invocation(self, source):
        import threading

        class SlowSource:
            def __init__(self, inner):
                self.inner = inner
                self.started = threading.Event()
                self.release = threading.Event()

            @property
            def schema(self):
                return self.inner.schema

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def access(self, method, inputs=()):
                self.started.set()
                assert self.release.wait(10)
                return self.inner.access(method, inputs)

        slow = SlowSource(source)
        cache = AccessCache()
        results = []

        def fetch():
            results.append(cache.fetch(slow, "mt_key", (Constant("a"),)))

        threads = [threading.Thread(target=fetch) for _ in range(8)]
        threads[0].start()
        assert slow.started.wait(10)
        for thread in threads[1:]:
            thread.start()
        # Give the waiters time to park on the in-flight fetch, then
        # release the single source call.
        import time

        time.sleep(0.05)
        slow.release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert len(results) == 8
        assert all(rows == results[0] for rows in results)
        # One miss reached the source; everyone else was served from it.
        assert source.total_invocations == 1
        assert cache.misses == 1
        assert cache.hits == 7
        assert cache.stampedes_collapsed >= 1

    def test_failed_fetch_propagates_and_waiters_retry(self, source):
        import threading

        class FailOnceSource:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0
                self._lock = threading.Lock()

            @property
            def schema(self):
                return self.inner.schema

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def access(self, method, inputs=()):
                with self._lock:
                    self.calls += 1
                    first = self.calls == 1
                if first:
                    raise RuntimeError("boom")
                return self.inner.access(method, inputs)

        flaky = FailOnceSource(source)
        cache = AccessCache()
        with pytest.raises(RuntimeError):
            cache.fetch(flaky, "mt_key", (Constant("a"),))
        # The failure was not cached: the next fetch retries the source.
        rows = cache.fetch(flaky, "mt_key", (Constant("a"),))
        assert len(rows) == 2
        assert flaky.calls == 2

    def test_leader_failure_reaches_a_retry_not_a_stale_answer(self, source):
        import threading
        import time

        class LeaderDiesSource:
            """The first access parks until released, then raises."""

            def __init__(self, inner):
                self.inner = inner
                self.calls = 0
                self.started = threading.Event()
                self.release = threading.Event()
                self._lock = threading.Lock()

            @property
            def schema(self):
                return self.inner.schema

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def access(self, method, inputs=()):
                with self._lock:
                    self.calls += 1
                    first = self.calls == 1
                if first:
                    self.started.set()
                    assert self.release.wait(10)
                    raise RuntimeError("leader dies")
                return self.inner.access(method, inputs)

        flaky = LeaderDiesSource(source)
        cache = AccessCache()
        key = (Constant("a"),)
        answers, errors = [], []

        def fetch():
            try:
                answers.append(cache.fetch(flaky, "mt_key", key))
            except RuntimeError as error:
                errors.append(error)

        threads = [threading.Thread(target=fetch) for _ in range(5)]
        threads[0].start()
        assert flaky.started.wait(10)
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.05)  # let the waiters park on the leader's flight
        flaky.release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        # The leader's error was its own; every waiter woke, fetched
        # again (one of them leading a second flight) and got the answer.
        assert len(errors) == 1
        assert len(answers) == 4
        assert all(rows == source.access("mt_key", key) for rows in answers)
        assert cache._inflight == {}
        # A re-fetch that reached the source is a miss like any other.
        assert cache.misses == flaky.calls == 2
        assert cache.hits == 3

    def test_leader_base_exception_releases_every_waiter(self, source):
        import threading
        import time

        class Abort(BaseException):
            """Not an ``Exception``: what an interrupt looks like."""

        class AbortingSource:
            """The first access parks until released, then aborts."""

            def __init__(self, inner):
                self.inner = inner
                self.calls = 0
                self.started = threading.Event()
                self.release = threading.Event()
                self._lock = threading.Lock()

            @property
            def schema(self):
                return self.inner.schema

            def __getattr__(self, name):
                return getattr(self.inner, name)

            def access(self, method, inputs=()):
                with self._lock:
                    self.calls += 1
                    first = self.calls == 1
                if first:
                    self.started.set()
                    assert self.release.wait(10)
                    raise Abort()
                return self.inner.access(method, inputs)

        aborting = AbortingSource(source)
        cache = AccessCache()
        key = (Constant("a"),)
        answers, aborts = [], []

        def fetch():
            try:
                answers.append(cache.fetch(aborting, "mt_key", key))
            except Abort as error:
                aborts.append(error)

        # Daemons, so a waiter left parked fails the test, not the exit.
        threads = [
            threading.Thread(target=fetch, daemon=True) for _ in range(5)
        ]
        threads[0].start()
        assert aborting.started.wait(10)
        for thread in threads[1:]:
            thread.start()
        time.sleep(0.05)  # let the waiters park on the leader's flight
        aborting.release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert len(aborts) == 1
        assert len(answers) == 4
        assert cache._inflight == {}
        assert cache.misses == aborting.calls == 2
        assert cache.hits == 3

    def test_many_threads_many_keys_consistent_accounting(self, source):
        import threading

        cache = AccessCache(maxsize=4)
        keys = [(Constant("a"),), (Constant("b"),), (Constant("c"),)]
        fetches_per_thread = 30
        errors = []

        def hammer(seed):
            try:
                for i in range(fetches_per_thread):
                    key = keys[(seed + i) % len(keys)]
                    rows = cache.fetch(source, "mt_key", key)
                    assert isinstance(rows, frozenset)
            except Exception as error:
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(seed,))
            for seed in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert not errors
        assert cache.hits + cache.misses == 8 * fetches_per_thread
        assert cache.misses == source.total_invocations
