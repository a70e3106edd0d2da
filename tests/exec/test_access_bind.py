"""The bound access path: what is decided per command, what per key.

An access command binds the path from a key to its rows once
(``bound_access``: ``ResilientDispatcher.bind`` over ``AccessCache.bind``
over ``source.access``).  These tests hold the bound path to the
per-key one it replaced -- ``ResilientDispatcher.call`` on one key at a
time -- on answers, counters, breaker state and the retry policy's
inputs, and check that only what cannot depend on the key was hoisted.
"""

import threading

import pytest

from repro.data.instance import Instance
from repro.data.source import AccessViolation, InMemorySource
from repro.errors import (
    AccessError,
    CircuitOpen,
    DeadlineExceeded,
    MethodOutage,
    RateLimited,
    SourceUnavailable,
)
from repro.exec import (
    AccessCache,
    BreakerRegistry,
    ExecStats,
    ExecutionContext,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.exec.resilience import CLOSED, OPEN, Deadline
from repro.faults import FaultInjectingSource, FaultPolicy, VirtualClock
from repro.logic.terms import Constant
from repro.planner.search import SearchOptions, find_best_plan
from repro.plans.commands import (
    AccessCommand,
    bound_access,
    identity_output_map,
)
from repro.plans.expressions import Literal, NamedTable
from repro.plans.plan import Plan
from repro.scenarios import (
    example1,
    example2,
    example5,
    path_views,
    redundant_sources,
    referential_chain,
    view_stack_scenario,
    webservices,
)
from repro.schema.core import SchemaBuilder

METHOD = "mt_key"
KEYS = [(Constant(f"k{i}"),) for i in range(60)]


def keyed_schema():
    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .access(METHOD, "R", inputs=[0], cost=2.0)
        .access("mt_scan", "R", inputs=[], cost=5.0)
        .build()
    )


def keyed_source(keys=60, **kwargs):
    instance = Instance(
        {"R": [(f"k{i}", f"v{i}.{j}") for i in range(keys) for j in range(2)]}
    )
    return InMemorySource(keyed_schema(), instance, **kwargs)


def recording_policy(calls, **kwargs):
    """A retry policy that notes every ``delay(attempt, method, inputs)``."""

    class Recording(RetryPolicy):
        def delay(self, attempt, method="", inputs=()):
            calls.append((attempt, method, inputs))
            return super().delay(attempt, method, inputs)

    return Recording(**kwargs)


class World:
    """One source + dispatcher + clock, built twice per comparison."""

    def __init__(
        self,
        policy=None,
        max_attempts=3,
        threshold=3,
        recovery=0.2,
        deadline=None,
    ):
        self.clock = VirtualClock()
        self.inner = keyed_source()
        self.source = (
            FaultInjectingSource(self.inner, policy, clock=self.clock)
            if policy is not None
            else self.inner
        )
        self.delays = []
        self.breakers = BreakerRegistry(
            failure_threshold=threshold,
            recovery_time=recovery,
            clock=self.clock,
        )
        self.dispatcher = ResilientDispatcher(
            retry=(
                recording_policy(
                    self.delays, max_attempts=max_attempts, seed=5
                )
                if max_attempts
                else None
            ),
            breakers=self.breakers,
            deadline=(
                Deadline(deadline, clock=self.clock) if deadline else None
            ),
            sleep=self.clock.sleep,
        )

    def fetch(self, inputs):
        return self.source.access(METHOD, inputs)

    def drive(self, bound, fetch=None, keys=KEYS, between=None):
        """Every key through the dispatcher; what each one came to."""
        fetch = fetch or self.fetch
        access = self.dispatcher.bind(fetch, METHOD) if bound else None
        outcomes = []
        for position, key in enumerate(keys):
            if between is not None:
                between(self, position)
            try:
                if bound:
                    rows = access(key)
                else:
                    rows = self.dispatcher.call(
                        lambda: fetch(key), METHOD, inputs=key
                    )
                outcomes.append(rows)
            except (AccessError, DeadlineExceeded) as error:
                outcomes.append(
                    (
                        type(error).__name__,
                        str(error),
                        getattr(error, "inputs", None),
                        getattr(error, "attempts", None),
                    )
                )
        return outcomes

    def books(self):
        """Everything the dispatch left behind."""
        breaker = self.breakers.for_method(METHOD)
        return {
            "retries": self.dispatcher.retries,
            "faults": self.dispatcher.faults,
            "giveups": self.dispatcher.giveups,
            "backoff_waited": self.dispatcher.backoff_waited,
            "breaker": (breaker.state, breaker.forced, breaker.trips),
            "trips": self.breakers.trips,
            "delays": list(self.delays),
            "clock": self.clock.now(),
            "log": list(self.inner.log),
        }


def both_ways(make_world, **drive):
    """(per-key world, bound world) after the same drive, compared."""
    per_key, bound = make_world(), make_world()
    per_key_outcomes = per_key.drive(False, **drive)
    bound_outcomes = bound.drive(True, **drive)
    assert bound_outcomes == per_key_outcomes
    assert bound.books() == per_key.books()
    return bound, bound_outcomes


class FlakyKeyedFetch:
    """Fails the calls whose (1-based) ordinal is in ``failing``."""

    def __init__(self, world, failing, error=SourceUnavailable):
        self.world = world
        self.failing = set(failing)
        self.error = error
        self.calls = 0
        self.seen = []

    def __call__(self, inputs):
        self.calls += 1
        self.seen.append(inputs)
        if self.calls in self.failing:
            raise self.error(
                f"flake #{self.calls}", method=METHOD, inputs=inputs
            )
        return self.world.inner.access(METHOD, inputs)


# --------------------------------------------------- (a) bound == per key
class TestBoundEqualsPerKey:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("rate,burst", [(0.3, 1), (0.6, 1), (0.5, 2)])
    @pytest.mark.parametrize("max_attempts", [0, 2, 4])
    def test_seeded_fault_schedules(self, seed, rate, burst, max_attempts):
        policy = FaultPolicy.transient(rate, seed=seed, burst=burst)
        world, outcomes = both_ways(
            lambda: World(policy, max_attempts=max_attempts)
        )
        assert world.dispatcher.faults > 0
        if max_attempts == 4 and burst == 1:
            # The parameters cover recovery as well as refusal.
            assert all(isinstance(rows, frozenset) for rows in outcomes)

    def test_schedules_cover_giveups_trips_and_refusals(self):
        """The matrix above is not vacuous: some cell trips a breaker
        and some later key is refused by it."""
        policy = FaultPolicy.transient(0.6, seed=1, burst=2)
        world, outcomes = both_ways(lambda: World(policy, max_attempts=2))
        kinds = {o[0] for o in outcomes if isinstance(o, tuple)}
        assert world.dispatcher.giveups > 0
        assert world.breakers.trips > 0
        assert "CircuitOpen" in kinds

    @pytest.mark.parametrize(
        "failing", [{1}, {2, 3}, {1, 2, 3, 4, 5, 6}, {5, 7, 9, 10, 11, 12}]
    )
    def test_flaky_fetch(self, failing):
        fetches = []

        def make():
            world = World(max_attempts=3)
            fetches.append(FlakyKeyedFetch(world, failing))
            return world

        per_key, bound = make(), make()
        assert bound.drive(True, fetch=fetches[1]) == per_key.drive(
            False, fetch=fetches[0]
        )
        assert bound.books() == per_key.books()
        assert fetches[1].seen == fetches[0].seen

    def test_method_outage_forces_the_breaker_open(self):
        policy = FaultPolicy.outage(METHOD, after=7)
        world, outcomes = both_ways(lambda: World(policy))
        assert all(isinstance(rows, frozenset) for rows in outcomes[:7])
        assert outcomes[7][0] == "MethodOutage"
        assert outcomes[7][3] == 1  # attempts
        # Every later key is refused without reaching the source.
        assert {o[0] for o in outcomes[8:]} == {"CircuitOpen"}
        assert world.source.stats.calls == 8
        assert world.books()["breaker"] == (OPEN, True, 1)

    @pytest.mark.parametrize("seed", range(4))
    def test_rate_limited(self, seed):
        policy = FaultPolicy(seed=seed, rate_limit_rate=0.5)
        world, outcomes = both_ways(
            lambda: World(policy, max_attempts=2, threshold=50)
        )
        assert world.source.stats.injected["rate_limit"] > 0
        assert all(isinstance(rows, frozenset) for rows in outcomes)
        assert world.dispatcher.retries == world.dispatcher.faults

    def test_rate_limited_without_retry_gives_up_per_key(self):
        policy = FaultPolicy(seed=2, rate_limit_rate=0.5)
        world, outcomes = both_ways(
            lambda: World(policy, max_attempts=0, threshold=50)
        )
        refused = [o for o in outcomes if isinstance(o, tuple)]
        assert refused and {o[0] for o in refused} == {RateLimited.__name__}
        assert world.dispatcher.giveups == len(refused)

    def test_deadline_expires_at_the_same_key(self):
        # Each delivered access takes 0.1 simulated seconds.
        policy = FaultPolicy(latency=0.1)
        world, outcomes = both_ways(lambda: World(policy, deadline=1.05))
        first_refused = next(
            i for i, o in enumerate(outcomes) if isinstance(o, tuple)
        )
        assert first_refused == 11
        assert outcomes[first_refused][0] == "DeadlineExceeded"
        assert f"during access {METHOD}" in outcomes[first_refused][1]
        assert len(world.inner.log) == 11

    def test_backoff_that_would_overrun_the_deadline(self):
        policy = FaultPolicy.transient(0.6, seed=7, latency=0.05)
        world, outcomes = both_ways(
            lambda: World(policy, max_attempts=4, threshold=50, deadline=0.5)
        )
        messages = [o[1] for o in outcomes if isinstance(o, tuple)]
        assert any("would overrun the plan deadline" in m for m in messages)

    def test_breaker_opening_mid_command_refuses_the_next_key(self):
        fetches = []

        def make():
            world = World(max_attempts=0, threshold=2, recovery=1000.0)
            fetches.append(FlakyKeyedFetch(world, {4, 5}))
            return world

        per_key, bound = make(), make()
        outcomes = bound.drive(True, fetch=fetches[1])
        assert outcomes == per_key.drive(False, fetch=fetches[0])
        assert bound.books() == per_key.books()
        assert [o[0] for o in outcomes[3:5]] == ["SourceUnavailable"] * 2
        kind, _message, inputs, _attempts = outcomes[5]
        assert kind == CircuitOpen.__name__
        assert inputs == KEYS[5]
        # Refused keys never reached the fetch.
        assert fetches[1].seen == KEYS[:5]

    def test_reset_method_between_two_keys_is_seen_by_the_bound_callable(self):
        def reset_before_key_12(world, position):
            if position == 12:
                assert world.breakers.reset_method(METHOD)

        policy = FaultPolicy.outage(METHOD, after=7)
        world, outcomes = both_ways(
            lambda: World(policy), between=reset_before_key_12
        )
        assert {o[0] for o in outcomes[8:12]} == {"CircuitOpen"}
        # The reset closed the very breaker the callable was bound to;
        # key 12 reaches the (still dead) method and re-opens it.
        assert outcomes[12][0] == MethodOutage.__name__
        assert world.books()["breaker"] == (OPEN, True, 2)

    def test_reset_method_lets_a_recovered_method_answer_again(self):
        world = World(max_attempts=0, threshold=1, recovery=1000.0)
        fetch = FlakyKeyedFetch(world, {1})
        access = world.dispatcher.bind(fetch, METHOD)
        with pytest.raises(SourceUnavailable):
            access(KEYS[0])
        with pytest.raises(CircuitOpen):
            access(KEYS[1])
        world.breakers.reset_method(METHOD)
        assert access(KEYS[1]) == world.inner.access(METHOD, KEYS[1])
        assert world.breakers.for_method(METHOD).state == CLOSED

    def test_call_takes_no_relation(self):
        dispatcher = ResilientDispatcher()
        with pytest.raises(TypeError):
            dispatcher.call(lambda: "rows", METHOD, (), "R")


# ------------------------------------------ (b) resolved once per command
class CountingRegistry(BreakerRegistry):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.resolutions = 0

    def for_method(self, method):
        self.resolutions += 1
        return super().for_method(method)


class EpochCountingSource(InMemorySource):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.epoch_reads = 0

    def epoch(self):
        self.epoch_reads += 1
        return super().epoch()


def one_command_plan(keys):
    command = AccessCommand(
        "T",
        METHOD,
        Literal(NamedTable.from_rows(["k"], keys)),
        ("k",),
        identity_output_map(("p0", "p1")),
    )
    return Plan((command,), "T")


@pytest.mark.parametrize("executor", ["interpreter", "columnar"])
def test_breaker_and_epoch_reader_resolve_once_per_command(
    executor, monkeypatch
):
    import repro.exec.cache as cache_module

    resolutions = []
    real_reader = cache_module.epoch_reader

    def spy(source):
        resolutions.append(source)
        return real_reader(source)

    monkeypatch.setattr(cache_module, "epoch_reader", spy)
    keys = [(Constant(f"k{i}"),) for i in range(1000)]
    instance = Instance({"R": [(f"k{i}", f"v{i}") for i in range(1000)]})
    source = EpochCountingSource(keyed_schema(), instance)
    registry = CountingRegistry()
    cache = AccessCache(maxsize=4096)
    dispatcher = ResilientDispatcher(breakers=registry)
    table = one_command_plan(keys).execute(
        source,
        ExecutionContext(cache=cache, resilience=dispatcher),
        executor=executor,
    )
    assert len(table.rows) == 1000
    assert source.total_invocations == 1000
    assert registry.resolutions == 1
    assert len(resolutions) == 1
    # How to read the epoch is resolved once; the epoch itself is read
    # for every key (and once more to install each miss).
    assert source.epoch_reads == 2000
    assert (cache.hits, cache.misses) == (0, 1000)


# ------------------------------------------ (c) mutation between two keys
A, B = (Constant("k0"),), (Constant("k1"),)


class TestMutationBetweenKeys:
    @pytest.mark.parametrize("charge_hits", [False, True])
    def test_second_key_misses_and_reads_the_new_index(self, charge_hits):
        source = keyed_source(keys=2)
        cache = AccessCache(charge_hits=charge_hits)
        stale = cache.fetch(source, METHOD, B)
        assert len(stale) == 2
        dispatcher = ResilientDispatcher(breakers=BreakerRegistry())
        access = bound_access(source, METHOD, cache, dispatcher)
        assert access(B) is stale  # one hit, answered from the store
        assert len(access(A)) == 2
        # A write to a relation the method does not read keeps both.
        source.instance.add("S", ("x",))
        assert access(B) is stale and len(cache) == 2
        source.instance.add("R", ("k1", "new"))
        fresh = access(B)
        assert (Constant("k1"), Constant("new")) in fresh and len(fresh) == 3
        assert (cache.hits, cache.misses) == (2, 3)
        # The write to R dropped R's entries: only the post-write entry.
        assert len(cache) == 1
        assert access(B) is fresh

    def test_through_one_access_command(self):
        class MutatingSource(InMemorySource):
            """Adds a row for every key right after its first access."""

            def access(self, method_name, inputs=()):
                rows = super().access(method_name, inputs)
                if self.total_invocations == 1:
                    for key in ("k0", "k1"):
                        self.instance.add("R", (key, "new"))
                return rows

        instance = Instance({"R": [("k0", "a"), ("k1", "b")]})
        source = MutatingSource(keyed_schema(), instance)
        cache = AccessCache()
        table = one_command_plan([A, B]).execute(
            source,
            ExecutionContext(cache=cache),
        )
        # Whichever key went second saw its new row; the first did not.
        new_rows = [row for row in table.rows if row[1] == Constant("new")]
        assert len(new_rows) == 1 and len(table.rows) == 3
        assert (cache.hits, cache.misses) == (0, 2)
        # Only the second key's answer belongs to the current epoch.
        assert len(cache) == 1


# ----------------------------------------------------- (d) InMemorySource
class TestInMemorySourcePaths:
    def test_concurrent_first_accesses_build_one_index(self):
        import sys

        builds = []

        class CountingBuilds(InMemorySource):
            def _method_index(self, method):
                with self._lock:
                    before = len(self._indexes)
                    index = super()._method_index(method)
                    builds.append(len(self._indexes) - before)
                    return index

        instance = Instance(
            {"R": [(f"k{i}", f"v{i}") for i in range(2000)]}
        )
        source = CountingBuilds(keyed_schema(), instance)
        barrier = threading.Barrier(8)
        errors = []

        def first_access(worker):
            try:
                barrier.wait(timeout=30)
                for i in range(50):
                    key = (f"k{(worker * 50 + i) % 2000}",)
                    assert len(source.access(METHOD, key)) == 1
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [
            threading.Thread(target=first_access, args=(worker,))
            for worker in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sum(builds) == 1
        assert source.total_invocations == 8 * 50

    def test_index_hit_does_not_reenter_the_index_build(self):
        entered = []

        class Spy(InMemorySource):
            def _method_index(self, method):
                entered.append(method.name)
                return super()._method_index(method)

        instance = Instance({"R": [("k0", "a"), ("k1", "b")]})
        source = Spy(keyed_schema(), instance)
        for _ in range(5):
            source.access(METHOD, A)
        assert entered == [METHOD]
        instance.add("R", ("k0", "c"))
        assert len(source.access(METHOD, A)) == 2
        assert entered == [METHOD, METHOD]

    def test_unindexed_source_answers_by_scanning(self):
        scans = []

        class Spy(InMemorySource):
            def _scan(self, method, values):
                scans.append(values)
                return super()._scan(method, values)

        instance = Instance({"R": [("k0", "a"), ("k1", "b")]})
        source = Spy(keyed_schema(), instance, indexed=False)
        assert source.access(METHOD, A) == frozenset(
            {(Constant("k0"), Constant("a"))}
        )
        assert source.access(METHOD, (Constant("zz"),)) == frozenset()
        assert scans == [A, (Constant("zz"),)]
        assert not source._indexes

    def test_arity_violation_message_is_unchanged(self):
        source = keyed_source(keys=2)
        with pytest.raises(AccessViolation) as caught:
            source.access(METHOD, ())
        assert str(caught.value) == (
            f"method {METHOD} needs 1 inputs, got 0 "
            f"[method={METHOD}, relation=R, inputs=()]"
        )
        with pytest.raises(
            AccessViolation, match=r"method mt_scan needs 0 inputs, got 1"
        ):
            source.access("mt_scan", ("a",))
        assert source.total_invocations == 0

    def test_every_empty_answer_is_the_same_object(self):
        source = keyed_source(keys=2)
        first = source.access(METHOD, ("absent",))
        second = source.access(METHOD, ("missing",))
        assert first == frozenset() and first is second


# ---------------------------------- (e) both executors, one composition
SCENARIOS = [
    ("example1", example1, 3),
    ("example2", example2, 4),
    ("example5", example5, 4),
    ("chain2", lambda: referential_chain(2), 4),
    ("views", view_stack_scenario, 4),
    ("webservices", webservices, 5),
    ("redundant3", lambda: redundant_sources(3), 4),
    ("pathviews", lambda: path_views(length=2), 4),
]


def dispatch_counters(stats):
    return [
        (c.method, c.dispatched, c.cache_hits, c.retries, c.faults)
        for c in stats.commands
        if c.kind == "access"
    ]


@pytest.mark.parametrize(
    "name,factory,budget", SCENARIOS, ids=[s[0] for s in SCENARIOS]
)
@pytest.mark.parametrize("cached", [False, True])
def test_executors_report_identical_command_stats(
    name, factory, budget, cached
):
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    assert result.found, name
    plan = result.best_plan
    instance = scenario.instance(0)
    seen = {}
    for executor in ("interpreter", "columnar"):
        clock = VirtualClock()
        source = FaultInjectingSource(
            InMemorySource(scenario.schema, instance),
            FaultPolicy.transient(0.3, seed=11),
            clock=clock,
        )
        dispatcher = ResilientDispatcher(
            retry=RetryPolicy(max_attempts=6, seed=11),
            breakers=BreakerRegistry(clock=clock),
            sleep=clock.sleep,
        )
        stats = ExecStats()
        cache = AccessCache() if cached else None
        table = plan.execute(
            source,
            ExecutionContext(cache=cache, stats=stats, resilience=dispatcher),
            executor=executor,
        )
        # A second run over the same cache: hits are counted alike too.
        again = ExecStats()
        plan.execute(
            source,
            ExecutionContext(cache=cache, stats=again, resilience=dispatcher),
            executor=executor,
        )
        seen[executor] = (
            table.rows,
            dispatch_counters(stats),
            dispatch_counters(again),
            (dispatcher.retries, dispatcher.faults, dispatcher.giveups),
            source.inner.total_invocations,
        )
    assert seen["columnar"] == seen["interpreter"]
    counters = seen["interpreter"][1]
    assert sum(c[1] for c in counters) > 0
    if cached:
        assert sum(c[2] for c in seen["interpreter"][2]) > 0
