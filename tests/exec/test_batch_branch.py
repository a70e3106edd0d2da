"""The batch branch of an access command: one guarded call per key set.

On a source that offers ``access_batch`` and with no access cache,
``access_keys`` sends every distinct key of the command as one
``ResilientDispatcher.call``.  What the dispatcher decides per key on
the per-key branch it then decides once for the whole key set, and
these tests pin each of those decisions: one deadline check, one
breaker admission, one breaker feedback, a retry of the whole batch
whose jitter is keyed on the first key, and a ``CircuitOpen`` that
names the first key.  A failed attempt of a real batching backend
logs no record, so a retried batch is metered once.
"""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import CircuitOpen, DeadlineExceeded, SourceUnavailable
from repro.exec import (
    BreakerRegistry,
    ExecutionContext,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.exec.resilience import CLOSED, HALF_OPEN, OPEN, Deadline
from repro.faults import VirtualClock
from repro.logic.terms import Constant
from repro.plans.commands import access_keys
from repro.schema.core import SchemaBuilder
from repro.sources import SQLiteSource
from repro.sources.sqlite import _CHUNK_PARAMS

METHOD = "mt_key"
SCHEMA = (
    SchemaBuilder("batch")
    .relation("R", 2)
    .access(METHOD, "R", inputs=[0], cost=2.0)
    .build()
)
INSTANCE = Instance({"R": [(f"k{i}", f"v{i}") for i in range(8)]})
KEYS = [(Constant(f"k{i}"),) for i in range(8)] + [(Constant("absent"),)]


class BatchingStub(InMemorySource):
    """An in-memory source that also answers a key set in one call.

    The first ``failures`` batch calls raise ``SourceUnavailable``
    before answering anything; every batch call is noted in
    ``batches``.  A successful batch meters one access per key.
    """

    def __init__(self, failures=0, clock=None, tick=0.0):
        super().__init__(SCHEMA, INSTANCE)
        self.failures = failures
        self.clock, self.tick = clock, tick
        self.batches = []

    def access_batch(self, method, inputs_list):
        keyed = list(inputs_list)
        self.batches.append(keyed)
        if self.clock is not None:
            self.clock.advance(self.tick)
        if self.failures:
            self.failures -= 1
            raise SourceUnavailable("flake", method=method, inputs=keyed[0])
        return {values: self.access(method, values) for values in keyed}


class CountingDeadline(Deadline):
    """A deadline that counts its checks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.checks = 0

    def check(self, doing="execution"):
        self.checks += 1
        super().check(doing)


class Spied(BreakerRegistry):
    """A registry whose breakers count admissions and feedback."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = []

    def for_method(self, method):
        breaker = super().for_method(method)
        if not getattr(breaker, "spied", False):
            for name in ("allow", "record_success", "record_failure"):
                setattr(breaker, name, self._spy(name, getattr(breaker, name)))
            breaker.spied = True
        return breaker

    def _spy(self, name, call):
        def spy(*args, **kwargs):
            self.calls.append(name)
            return call(*args, **kwargs)

        return spy


def recording_policy(calls, **kwargs):
    """A retry policy that notes every ``delay(attempt, method, inputs)``."""

    class Recording(RetryPolicy):
        def delay(self, attempt, method="", inputs=()):
            calls.append((attempt, method, inputs))
            return super().delay(attempt, method, inputs)

    return Recording(**kwargs)


def run(source, dispatcher):
    """The access step of one command over every key of ``KEYS``."""
    context = ExecutionContext(resilience=dispatcher)
    return access_keys(source, METHOD, KEYS, context, len(KEYS))


def expected_answers():
    oracle = InMemorySource(SCHEMA, INSTANCE)
    return [oracle.access(METHOD, key) for key in KEYS]


class TestOneCallPerBatch:
    def test_one_deadline_check(self):
        clock = VirtualClock()
        deadline = CountingDeadline(1.0, clock=clock)
        source = BatchingStub()
        answers = run(source, ResilientDispatcher(deadline=deadline))
        assert answers == expected_answers()
        assert len(source.batches) == 1
        assert deadline.checks == 1

    def test_a_deadline_that_expires_inside_the_batch_does_not_stop_it(self):
        """No check falls between two keys of one batch: the batch that
        ran past the deadline answers, and the next check raises."""
        clock = VirtualClock()
        deadline = Deadline(1.0, clock=clock)
        source = BatchingStub(clock=clock, tick=5.0)
        dispatcher = ResilientDispatcher(deadline=deadline)
        assert run(source, dispatcher) == expected_answers()
        with pytest.raises(DeadlineExceeded):
            run(source, dispatcher)
        assert len(source.batches) == 1

    def test_one_admission_and_one_feedback(self):
        clock = VirtualClock()
        breakers = Spied(failure_threshold=1, recovery_time=1.0, clock=clock)
        breaker = breakers.for_method(METHOD)
        breaker.record_failure()
        clock.advance(2.0)
        breakers.calls.clear()
        source = BatchingStub()
        answers = run(source, ResilientDispatcher(breakers=breakers))
        assert answers == expected_answers()
        # The half-open breaker let one probe through -- the whole
        # batch -- and that one success closed it.
        assert breakers.calls == ["allow", "record_success"]
        assert breaker.state == CLOSED

    def test_a_failed_batch_is_one_failure(self):
        breakers = Spied(failure_threshold=3)
        source = BatchingStub(failures=1)
        with pytest.raises(SourceUnavailable):
            run(source, ResilientDispatcher(breakers=breakers))
        breaker = breakers.for_method(METHOD)
        assert breakers.calls == ["record_failure"]
        assert breaker.consecutive_failures == 1
        assert source.total_invocations == 0

    def test_a_probe_that_fails_reopens_on_one_failure(self):
        clock = VirtualClock()
        breakers = BreakerRegistry(
            failure_threshold=1, recovery_time=1.0, clock=clock
        )
        breaker = breakers.for_method(METHOD)
        breaker.record_failure()
        clock.advance(2.0)
        assert breaker.allow() and breaker.state == HALF_OPEN
        source = BatchingStub(failures=1)
        with pytest.raises(SourceUnavailable):
            run(source, ResilientDispatcher(breakers=breakers))
        assert breaker.state == OPEN and breaker.consecutive_failures == 2

    def test_an_open_breaker_refuses_naming_the_first_key(self):
        breakers = BreakerRegistry(failure_threshold=1, recovery_time=60.0)
        breakers.for_method(METHOD).record_failure()
        source = BatchingStub()
        with pytest.raises(CircuitOpen) as refused:
            run(source, ResilientDispatcher(breakers=breakers))
        assert refused.value.inputs == KEYS[0]
        assert source.batches == [] and source.total_invocations == 0

    def test_a_retry_reruns_the_whole_batch_on_the_first_keys_jitter(self):
        delays = []
        source = BatchingStub(failures=2)
        dispatcher = ResilientDispatcher(
            retry=recording_policy(delays, max_attempts=3, seed=5)
        )
        assert run(source, dispatcher) == expected_answers()
        assert source.batches == [KEYS] * 3
        assert delays == [(1, METHOD, KEYS[0]), (2, METHOD, KEYS[0])]
        assert dispatcher.retries == 2 and dispatcher.faults == 2
        # Only the attempt that answered was metered.
        assert source.total_invocations == len(KEYS)


class TestAFailedAttemptLogsNothing:
    def test_a_retried_sqlite_batch_is_metered_once(self):
        """The second chunk of the first attempt fails: the chunk that
        answered leaves no record, and the retry meters every key once,
        in order, as the per-key loop does."""
        keys = [(Constant(f"k{i}"),) for i in range(_CHUNK_PARAMS + 10)]
        instance = Instance({"R": [(f"k{i}", "v") for i in range(40)]})
        sql = SQLiteSource(SCHEMA, instance, sleep=lambda _s: None)
        execute, failed = sql._execute, []

        def fail_the_second_statement(statement, params):
            if sql._statements == 1 and not failed:
                failed.append(statement)
                raise SourceUnavailable("lost", method=METHOD)
            return execute(statement, params)

        sql._execute = fail_the_second_statement
        dispatcher = ResilientDispatcher(
            retry=RetryPolicy(max_attempts=2, seed=0)
        )
        context = ExecutionContext(resilience=dispatcher)
        answers = access_keys(sql, METHOD, keys, context, len(keys))
        assert failed and dispatcher.retries == 1
        per_key = SQLiteSource(SCHEMA, instance)
        assert answers == [per_key.access(METHOD, key) for key in keys]
        assert sql.log == per_key.log
        assert sql.batched_calls == 2
