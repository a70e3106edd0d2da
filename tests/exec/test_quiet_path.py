"""The quiet path: what a healthy key skips, and that skipping it is safe.

The dispatch ``ResilientDispatcher.bind`` returns enters the breaker's
locked protocol only when it can decide something -- ``allow()`` when
the breaker reads ``OPEN``, ``record_success()`` when it is not
``CLOSED`` or a failure is outstanding -- and an access command turns
keys into answers and answers into rows through C-level loops.  These
tests hold both to the always-locked, row-by-row forms they replaced
(kept here as the references), count lock acquisitions, and stress one
breaker from four threads.
"""

import sys
import threading
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import (
    AccessError,
    CircuitOpen,
    DeadlineExceeded,
    MethodOutage,
    SourceUnavailable,
    TransientAccessError,
)
from repro.exec import BreakerRegistry, ExecutionContext, ResilientDispatcher
from repro.exec.resilience import CLOSED, HALF_OPEN, OPEN
from repro.faults import FaultPolicy
from repro.logic.terms import Constant
from repro.plans.commands import AccessCommand
from repro.plans.expressions import Literal, NamedTable

from tests.exec.test_access_bind import (
    KEYS,
    METHOD,
    FlakyKeyedFetch,
    World,
    keyed_schema,
    one_command_plan,
)


class LockedDispatcher(ResilientDispatcher):
    """The reference: every key calls ``allow()`` and ``record_success()``.

    The dispatch as it was before the quiet path -- both breaker calls
    made under the breaker's lock for every key, whatever the state.
    """

    def bind(self, fetch, method):
        breaker = (
            self.breakers.for_method(method)
            if self.breakers is not None
            else None
        )
        retry, deadline, doing = self.retry, self.deadline, f"access {method}"

        def dispatch(inputs):
            attempt = 0
            while True:
                if deadline is not None:
                    deadline.check(doing)
                if breaker is not None and not breaker.allow():
                    raise breaker.refuse(inputs)
                attempt += 1
                try:
                    result = fetch(inputs)
                except TransientAccessError as error:
                    self.faults += 1
                    if breaker is not None:
                        breaker.record_failure()
                    if retry is None or not retry.should_retry(error, attempt):
                        self.giveups += 1
                        error.attempts = attempt
                        raise
                    wait = retry.delay(attempt, method, inputs)
                    if deadline is not None and wait > deadline.remaining():
                        self.giveups += 1
                        raise DeadlineExceeded("backoff overruns") from error
                    self.backoff_waited += wait
                    if self.sleep is not None:
                        self.sleep(wait)
                    self.retries += 1
                except AccessError as error:
                    if breaker is not None:
                        breaker.record_failure(
                            permanent=isinstance(error, MethodOutage)
                        )
                    error.attempts = attempt
                    raise
                else:
                    if breaker is not None:
                        breaker.record_success()
                    return result

        return dispatch


def breaker_of(world):
    return world.breakers.for_method(METHOD)


def snapshot(world):
    breaker = breaker_of(world)
    return (
        breaker.state,
        breaker.forced,
        breaker.trips,
        breaker.consecutive_failures,
        breaker._probe_successes,
    )


def quiet_and_locked(make_world, make_fetch=None, between=None):
    """Drive a quiet and a locked world alike; everything must agree.

    Returns the quiet world's outcomes and the breaker snapshot taken
    before every key (after ``between`` ran) and after the last one.
    """
    seen = []
    for locked in (False, True):
        world = make_world()
        if locked:
            quiet = world.dispatcher
            world.dispatcher = LockedDispatcher(
                retry=quiet.retry,
                breakers=quiet.breakers,
                deadline=quiet.deadline,
                sleep=quiet.sleep,
            )
        trace = []

        def hook(world, position, trace=trace):
            if between is not None:
                between(world, position)
            trace.append(snapshot(world))

        fetch = make_fetch(world) if make_fetch is not None else None
        outcomes = world.drive(True, fetch=fetch, between=hook)
        trace.append(snapshot(world))
        seen.append((outcomes, trace, world.books()))
    assert seen[0] == seen[1]
    return seen[0][0], seen[0][1]


def tick(seconds):
    """A ``between`` hook: simulated time passes before every key."""

    def advance(world, position):
        world.clock.advance(seconds)

    return advance


# ------------------------------------- (a) quiet == always-locked reference
class TestQuietEqualsLocked:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("rate,burst", [(0.3, 1), (0.6, 2)])
    @pytest.mark.parametrize("max_attempts", [0, 3])
    def test_seeded_schedules_with_time_passing(
        self, seed, rate, burst, max_attempts
    ):
        """Breakers open, half-open after 0.2 s and close again."""
        policy = FaultPolicy.transient(rate, seed=seed, burst=burst)
        quiet_and_locked(
            lambda: World(policy, max_attempts=max_attempts, threshold=2),
            between=tick(0.07),
        )

    def test_the_seeded_schedules_walk_the_whole_state_machine(self):
        states = set()
        for seed in range(8):
            policy = FaultPolicy.transient(0.6, seed=seed, burst=2)
            _outcomes, trace = quiet_and_locked(
                lambda: half_open_twice(
                    World(policy, max_attempts=0, threshold=2)
                ),
                between=tick(0.07),
            )
            states.update(snap[0] for snap in trace)
        assert states == {CLOSED, OPEN, HALF_OPEN}

    def test_closed_open_half_open_closed(self):
        """The walk, one transition at a time."""

        def wait_out_the_recovery(world, position):
            if position == 8:
                world.clock.advance(0.25)

        outcomes, trace = quiet_and_locked(
            lambda: half_open_twice(World(max_attempts=0, threshold=3)),
            make_fetch=lambda world: FlakyKeyedFetch(world, {3, 4, 5}),
            between=wait_out_the_recovery,
        )
        states = [snap[0] for snap in trace]
        assert states[:5] == [CLOSED] * 5  # before keys 0..4
        assert states[5:9] == [OPEN] * 4  # tripped by key 4's failure
        assert {o[0] for o in outcomes[5:8]} == {CircuitOpen.__name__}
        assert states[9] == HALF_OPEN  # key 8 probed and succeeded
        assert states[10] == CLOSED  # key 9 was the second probe
        assert trace[10][2:4] == (1, 0)  # one trip, count back to 0
        assert all(isinstance(rows, frozenset) for rows in outcomes[8:])

    def test_failed_probe_reopens(self):
        def wait_out_the_recovery(world, position):
            if position == 4:
                world.clock.advance(0.25)

        outcomes, trace = quiet_and_locked(
            lambda: World(max_attempts=0, threshold=2),
            make_fetch=lambda world: FlakyKeyedFetch(world, {1, 2, 3}),
            between=wait_out_the_recovery,
        )
        assert outcomes[4][0] == SourceUnavailable.__name__
        assert trace[5][0] == OPEN and trace[5][2] == 2

    def test_forced_open_never_half_opens(self):
        policy = FaultPolicy.outage(METHOD, after=7)
        outcomes, trace = quiet_and_locked(
            lambda: World(policy), between=tick(1.0)
        )
        assert outcomes[7][0] == MethodOutage.__name__
        assert {o[0] for o in outcomes[8:]} == {CircuitOpen.__name__}
        assert trace[-1][:3] == (OPEN, True, 1)

    def test_reset_method_between_two_keys(self):
        def reset_before_key_12(world, position):
            if position == 12:
                assert world.breakers.reset_method(METHOD)

        outcomes, trace = quiet_and_locked(
            lambda: World(max_attempts=0, threshold=2, recovery=1000.0),
            make_fetch=lambda world: FlakyKeyedFetch(world, {4, 5}),
            between=reset_before_key_12,
        )
        assert {o[0] for o in outcomes[5:12]} == {CircuitOpen.__name__}
        assert trace[12][:4] == (CLOSED, False, 1, 0)
        assert all(isinstance(rows, frozenset) for rows in outcomes[12:])


def half_open_twice(world):
    """Two probe successes close the breaker, so HALF_OPEN shows between keys."""
    world.breakers.half_open_successes = 2
    return world


# ------------------------------------------------- (b) threshold arithmetic
class TestThresholdSurvivesTheSkippedCall:
    def test_a_success_between_failures_restarts_the_count(self):
        """fail fail ok fail fail: never three in a row, never a trip."""
        world = World(max_attempts=0, threshold=3)
        fetch = FlakyKeyedFetch(world, {1, 2, 4, 5})
        outcomes = world.drive(True, fetch=fetch, keys=KEYS[:6])
        kinds = [o[0] if isinstance(o, tuple) else "ok" for o in outcomes]
        unavailable = SourceUnavailable.__name__
        assert kinds == [
            unavailable, unavailable, "ok", unavailable, unavailable, "ok",
        ]
        breaker = breaker_of(world)
        assert (breaker.state, breaker.trips) == (CLOSED, 0)
        assert breaker.consecutive_failures == 0

    def test_three_in_a_row_still_trip(self):
        world = World(max_attempts=0, threshold=3)
        fetch = FlakyKeyedFetch(world, {2, 3, 4})
        outcomes = world.drive(True, fetch=fetch, keys=KEYS[:6])
        assert outcomes[4][0] == CircuitOpen.__name__
        assert breaker_of(world).trips == 1

    def test_a_retried_key_that_recovers_clears_its_failures(self):
        world = World(max_attempts=3, threshold=3)
        # Key 0 fails twice and succeeds; key 1 does the same.
        fetch = FlakyKeyedFetch(world, {1, 2, 4, 5})
        outcomes = world.drive(True, fetch=fetch, keys=KEYS[:2])
        assert all(isinstance(rows, frozenset) for rows in outcomes)
        assert world.dispatcher.retries == 4
        assert breaker_of(world).trips == 0


# ------------------------------------------------------------ (c) lock spy
class SpyLock:
    """Counts acquisitions of the lock it stands in for."""

    def __init__(self, lock):
        self.lock = lock
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self.lock.__enter__()

    def __exit__(self, *exc_info):
        return self.lock.__exit__(*exc_info)


def spied_breaker(registry):
    breaker = registry.for_method(METHOD)
    breaker._lock = SpyLock(breaker._lock)
    return breaker


class TestNoBreakerLockOnAHealthyKey:
    @pytest.mark.parametrize("executor", ["interpreter", "columnar"])
    def test_a_healthy_1000_key_command_never_takes_it(self, executor):
        keys = [(Constant(f"k{i}"),) for i in range(1000)]
        instance = Instance({"R": [(f"k{i}", f"v{i}") for i in range(1000)]})
        source = InMemorySource(keyed_schema(), instance)
        registry = BreakerRegistry()
        breaker = spied_breaker(registry)
        dispatcher = ResilientDispatcher(breakers=registry)
        table = one_command_plan(keys).execute(
            source,
            ExecutionContext(resilience=dispatcher),
            executor=executor,
        )
        assert len(table.rows) == 1000
        assert source.total_invocations == 1000
        assert breaker._lock.acquisitions == 0
        assert (breaker.state, breaker.consecutive_failures) == (CLOSED, 0)

    def test_the_key_after_a_fault_takes_it_and_the_next_does_not(self):
        world = World(max_attempts=0, threshold=3)
        breaker = spied_breaker(world.breakers)
        access = world.dispatcher.bind(FlakyKeyedFetch(world, {2}), METHOD)
        access(KEYS[0])
        assert breaker._lock.acquisitions == 0
        with pytest.raises(SourceUnavailable):
            access(KEYS[1])
        assert breaker._lock.acquisitions == 1  # record_failure
        assert breaker.consecutive_failures == 1
        access(KEYS[2])
        assert breaker._lock.acquisitions == 2  # record_success
        assert breaker.consecutive_failures == 0
        access(KEYS[3])
        assert breaker._lock.acquisitions == 2

    def test_an_open_breaker_is_asked_under_its_lock(self):
        world = World(max_attempts=0, threshold=1, recovery=1000.0)
        breaker = spied_breaker(world.breakers)
        access = world.dispatcher.bind(FlakyKeyedFetch(world, {1}), METHOD)
        with pytest.raises(SourceUnavailable):
            access(KEYS[0])
        before = breaker._lock.acquisitions
        with pytest.raises(CircuitOpen):
            access(KEYS[1])
        assert breaker._lock.acquisitions == before + 1  # allow()


# --------------------------------------------------------- (d) four threads
class SharedFlakyFetch:
    """Answers every ``healthy_every``-th call and fails the others.

    At most ``budget`` failures in all; thread-safe.
    """

    def __init__(self, healthy_every, budget):
        self.healthy_every = healthy_every
        self.budget = budget
        self.calls = 0
        self.injected = 0
        self._lock = threading.Lock()

    def __call__(self, inputs):
        with self._lock:
            self.calls += 1
            fail = (
                self.calls % self.healthy_every != 0
                and self.injected < self.budget
            )
            if fail:
                self.injected += 1
        if fail:
            raise SourceUnavailable("flake", method="mt_sick", inputs=inputs)
        return frozenset({inputs})


def run_threads(work, count=4):
    errors = []

    def guarded(worker):
        try:
            work(worker)
        except Exception as error:  # surfaced by the assert below
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(worker,))
        for worker in range(count)
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
    assert not errors, errors


@pytest.mark.timeout(120)
class TestFourThreadsOneBreaker:
    THRESHOLD = 3

    def test_trips_need_failures_and_a_healthy_breaker_stays_closed(self):
        """No half-open here: every trip costs ``THRESHOLD`` failures.

        A thread resets the sick method's breaker now and then, so it
        trips more than once; ``mt_well`` shares the registry and never
        fails.
        """
        registry = BreakerRegistry(
            failure_threshold=self.THRESHOLD, recovery_time=1e9
        )
        sick = SharedFlakyFetch(healthy_every=4, budget=120)
        well = registry.for_method("mt_well")
        left_open = []

        def work(worker):
            dispatcher = ResilientDispatcher(breakers=registry)
            sick_access = dispatcher.bind(sick, "mt_sick")
            well_access = dispatcher.bind(
                lambda inputs: frozenset({inputs}), "mt_well"
            )
            for i in range(400):
                key = (Constant(worker * 1000 + i),)
                try:
                    sick_access(key)
                except (SourceUnavailable, CircuitOpen):
                    pass
                assert well_access(key) == frozenset({key})
                if well.state != CLOSED:
                    left_open.append((worker, i, well.state))
                if worker == 0 and i % 25 == 0:
                    registry.reset_method("mt_sick")

        run_threads(work)
        assert not left_open
        assert (well.state, well.trips, well.consecutive_failures) == (
            CLOSED, 0, 0,
        )
        sick_breaker = registry.for_method("mt_sick")
        assert sick.injected > self.THRESHOLD
        assert 1 <= sick_breaker.trips <= sick.injected // self.THRESHOLD

    def test_the_breaker_closes_once_the_faults_stop(self):
        """Half-open at once: a skipped report would leave it stuck."""
        registry = BreakerRegistry(
            failure_threshold=self.THRESHOLD, recovery_time=0.0
        )
        sick = SharedFlakyFetch(healthy_every=4, budget=10**9)
        breaker = registry.for_method("mt_sick")
        phase = threading.Barrier(4)
        at_the_barrier = []

        def work(worker):
            access = ResilientDispatcher(breakers=registry).bind(
                sick, "mt_sick"
            )
            for i in range(300):
                try:
                    access((Constant(i),))
                except SourceUnavailable:
                    pass
            phase.wait(timeout=60)
            if worker == 0:
                at_the_barrier.append(breaker.trips)
                sick.budget = 0  # the faults stop
            phase.wait(timeout=60)
            for i in range(20):
                key = (Constant(i),)
                assert access(key) == frozenset({key})

        run_threads(work)
        assert at_the_barrier[0] >= 1
        assert (breaker.state, breaker.consecutive_failures) == (CLOSED, 0)


# ------------------------------------------- (f) collectors == row by row
WIDTH = 3
cells = st.integers(min_value=0, max_value=3).map(Constant)
accessed_rows = st.tuples(*[cells] * WIDTH)
answer_lists = st.lists(
    st.frozensets(accessed_rows, max_size=5), max_size=6
)
OUTPUT_MAPS = {
    "identity": (("a", (0,)), ("b", (1,)), ("c", (2,))),
    "prefix": (("a", (0,)), ("b", (1,))),
    "permutation": (("a", (2,)), ("b", (0,)), ("c", (1,))),
    "suffix": (("a", (1,)), ("b", (2,))),
    "duplicated": (("a", (0,)), ("b", (0,)), ("c", (2,))),
    "equality": (("a", (0, 1)), ("b", (2,))),
    "equality_only": (("a", (0, 1, 2)),),
    "boolean": (),
}


def command_with(output_map):
    return AccessCommand(
        "T", METHOD, Literal(NamedTable.singleton()), (), output_map
    )


@pytest.mark.parametrize("kind", sorted(OUTPUT_MAPS))
@settings(max_examples=60, deadline=None)
@given(answers=answer_lists)
def test_collect_equals_map_output_row_by_row(kind, answers):
    command = command_with(OUTPUT_MAPS[kind])
    by_row = {
        command._map_output(accessed)
        for accessed in chain.from_iterable(answers)
    } - {None}
    collected = command._collect(answers)
    assert isinstance(collected, frozenset)
    assert collected == by_row
    # The next command's keys are dispatched in this set's iteration
    # order: it must be the one the per-answer collectors left behind
    # (the answer unioned in on the identity, its rows mapped and
    # added one by one otherwise).
    rows = set()
    for answer in answers:
        if kind == "identity":
            rows.update(answer)
        else:
            mapped = map(command._map_output, answer)
            rows.update(row for row in mapped if row is not None)
    assert list(collected) == list(frozenset(rows))


def test_collect_takes_the_sources_tuples_unchanged_on_the_identity():
    answers = [
        frozenset({(Constant(1), Constant(2), Constant(3))}),
        frozenset(),
        frozenset({(Constant(4), Constant(5), Constant(6))}),
    ]
    collected = command_with(OUTPUT_MAPS["identity"])._collect(answers)
    originals = {id(row) for row in chain.from_iterable(answers)}
    assert {id(row) for row in collected} == originals
    assert command_with(OUTPUT_MAPS["identity"])._collect([]) == frozenset()
