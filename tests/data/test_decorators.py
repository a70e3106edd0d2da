"""Tests for the hedging decorator, alone and under the access cache."""

import threading
import time

import pytest

from repro.data.decorators import HedgedSource
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import MethodOutage, SourceUnavailable
from repro.exec.cache import AccessCache
from repro.schema.core import SchemaBuilder
from repro.service import source_to_spec, spec_to_source
from repro.source_contract import SourceWrapper


@pytest.fixture
def backend():
    schema = (
        SchemaBuilder("s")
        .relation("R", 2)
        .access("mt_key", "R", inputs=[0], cost=3.0)
        .free_access("R")
        .build()
    )
    instance = Instance({"R": [("a", "1"), ("b", "2")]})
    return InMemorySource(schema, instance)


class OneCall(SourceWrapper):
    """A one-invocation allowance: the second access raises."""

    def __init__(self, inner):
        super().__init__(inner)
        self.invocations = 0

    def access(self, method_name, inputs=()):
        self.invocations += 1
        if self.invocations > 1:
            raise MethodOutage("allowance spent", method=method_name)
        return self.inner.access(method_name, inputs)


class TestComposition:
    def test_budget_behind_cache(self, backend):
        """An allowance under the access cache: repeats don't spend it."""
        budget = OneCall(backend)
        fetch = AccessCache().bind(budget, "mt_key")
        for _ in range(5):
            fetch(("a",))
        assert budget.invocations == 1
        assert backend.total_invocations == 1


class Scripted(SourceWrapper):
    """Call ``i`` sleeps ``script[i][0]``, then raises ``script[i][1]``
    or answers from the wrapped source."""

    def __init__(self, inner, script):
        super().__init__(inner)
        self.script = list(script)
        self._lock = threading.Lock()

    def access(self, method_name, inputs=()):
        with self._lock:
            delay, error = self.script.pop(0)
        time.sleep(delay)
        if error is not None:
            raise error
        return self.inner.access(method_name, inputs)


def hedged_over(backend, *script):
    """A 50 ms hedge over ``backend`` answering as ``script`` says."""
    return HedgedSource(Scripted(backend, script), delay=0.05)


def books(hedged):
    return hedged.hedges, hedged.hedge_wins, hedged.hedge_waste


def wait_for_log(backend, records):
    """The losing copy finishes on its own; wait until it has."""
    deadline = time.monotonic() + 5.0
    while len(backend.log) < records and time.monotonic() < deadline:
        time.sleep(0.01)
    assert len(backend.log) == records


class TestHedgedSource:
    def test_a_duplicate_beats_a_slow_primary_hedge_win(self, backend):
        hedged = hedged_over(backend, (0.5, None), (0.0, None))
        started = time.monotonic()
        rows = hedged.access("mt_key", ("a",))
        assert time.monotonic() - started < 0.4
        assert rows == backend.access("mt_key", ("a",))
        assert books(hedged) == (1, 1, 0)

    def test_a_primary_that_outruns_its_duplicate_is_hedge_waste(
        self, backend
    ):
        hedged = hedged_over(backend, (0.1, None), (0.3, None))
        hedged.access("mt_key", ("a",))
        assert books(hedged) == (1, 0, 1)

    def test_an_access_faster_than_the_delay_is_never_hedged(self, backend):
        hedged = HedgedSource(backend, delay=0.05)
        for key in ("a", "b", "a"):
            hedged.access("mt_key", (key,))
        assert books(hedged) == (0, 0, 0)
        assert backend.total_invocations == 3

    def test_the_first_copy_to_finish_raises_its_typed_hedge_error(
        self, backend
    ):
        down = SourceUnavailable("replica down", method="mt_key", relation="R")
        hedged = hedged_over(backend, (0.3, None), (0.0, down))
        with pytest.raises(SourceUnavailable) as excinfo:
            hedged.access("mt_key", ("a",))
        assert excinfo.value.method == "mt_key"
        assert books(hedged) == (1, 1, 0)
        # An unhedged copy's error is raised as it is too.
        outage = MethodOutage("gone", method="mt_key", relation="R")
        hedged = hedged_over(backend, (0.0, outage))
        with pytest.raises(MethodOutage):
            hedged.access("mt_key", ("a",))
        assert books(hedged) == (0, 0, 0)

    def test_the_hedge_spec_round_trips(self, backend):
        rebuilt = spec_to_source(source_to_spec(HedgedSource(backend, 0.05)))
        assert isinstance(rebuilt, HedgedSource)
        assert rebuilt.delay == 0.05
        assert isinstance(rebuilt.inner, InMemorySource)
        assert books(rebuilt) == (0, 0, 0)
        with pytest.raises(ValueError):
            HedgedSource(backend, delay=0.0)

    def test_a_hedged_key_is_two_charged_calls_and_one_distinct_access(
        self, backend
    ):
        hedged = hedged_over(backend, (0.2, None), (0.0, None))
        hedged.access("mt_key", ("a",))
        wait_for_log(backend, 2)
        assert backend.charged_cost() == 2 * 3.0
        assert len(backend.distinct_accesses()) == 1

    def test_one_key_under_a_shared_cache_hedges_once(self, backend):
        """Only the single-flight leader reaches the wrapper."""
        hedged = hedged_over(backend, (0.3, None), (0.0, None))
        cache = AccessCache()
        fetch = cache.bind(hedged, "mt_key")
        answers = []
        clients = [
            threading.Thread(target=lambda: answers.append(fetch(("a",))))
            for _ in range(4)
        ]
        for client in clients:
            client.start()
        for client in clients:
            client.join(5.0)
        assert len(answers) == 4 and len(set(answers)) == 1
        assert cache.misses == 1
        assert books(hedged) == (1, 1, 0)
        wait_for_log(backend, 2)
