"""A write invalidates only the relation it touches.

``Instance.version_of(relation)`` is the version at which one relation
last grew.  ``InMemorySource`` stamps each method index with it and
rebuilds only the stale ones; the ``AccessCache`` stamps each entry
with its relation's epoch (``relation_epoch``, read through any wrapper
stack) and drops, when the source's epoch moves, only the entries whose
relation moved.  A source with only a whole-source token (the HTTP
client, or any source without ``relation_epoch``) loses every entry on
every move, as before.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.data.decorators import HedgedSource
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec import AccessCache
from repro.faults.policy import FaultPolicy
from repro.faults.source import FaultInjectingSource
from repro.logic.terms import Constant
from repro.schema.core import SchemaBuilder
from repro.source_contract import relation_epoch_reader
from repro.sources import SQLiteSource
from repro.sources.http import HTTPSource, StubTransport

KEYS = ("a", "b", "c")


def schema():
    """R and S read by keyed and free methods; T read by none."""
    return (
        SchemaBuilder("epochs")
        .relation("R", 2)
        .relation("S", 2)
        .relation("T", 1)
        .access("r_key", "R", inputs=[0], cost=1.0)
        .access("r_all", "R", inputs=[], cost=3.0)
        .access("s_key", "S", inputs=[0], cost=1.0)
        .access("s_val", "S", inputs=[1], cost=2.0)
        .build()
    )


METHODS = ("r_key", "r_all", "s_key", "s_val")
ARITY = {"r_key": 1, "r_all": 0, "s_key": 1, "s_val": 1}


def instance():
    return Instance(
        {
            "R": [("a", "1"), ("a", "2"), ("b", "3")],
            "S": [("a", "x"), ("c", "y")],
            "T": [("t",)],
        }
    )


BACKENDS = {
    "memory": lambda s, i: InMemorySource(s, i),
    "sqlite": lambda s, i: SQLiteSource(s, i),
}
WRAPPERS = {
    "bare": lambda source: source,
    "faults": lambda source: FaultInjectingSource(source, FaultPolicy(seed=0)),
    "hedged": lambda source: HedgedSource(source, delay=5.0),
}
STACKS = [(b, w) for b in BACKENDS for w in WRAPPERS]


def stack(backend, wrapper):
    """A backend over a fresh :func:`instance`, wrapped."""
    return WRAPPERS[wrapper](BACKENDS[backend](schema(), instance()))


def bare(source):
    while hasattr(source, "inner"):
        source = source.inner
    return source


A, C, X = (Constant("a"),), (Constant("c"),), (Constant("x"),)


# ------------------------------------------------------------ the instance
class TestVersionOf:
    def test_each_insert_stamps_its_relation_with_the_new_version(self):
        data = instance()
        assert [data.version_of(r) for r in "RST"] == [3, 5, 6]
        assert data.version_of("never") == 0
        assert data.add("S", ("b", "z"))
        assert data.version == 7
        assert [data.version_of(r) for r in "RST"] == [3, 7, 6]

    def test_a_duplicate_row_moves_nothing(self):
        data = instance()
        assert not data.add("R", ("a", "1"))
        assert data.version == 6 and data.version_of("R") == 3

    def test_copy_carries_every_relation_version(self):
        data = instance()
        data.add("R", ("c", "4"))
        clone = data.copy()
        assert clone.version == data.version
        assert all(clone.version_of(r) == data.version_of(r) for r in "RST")
        clone.add("T", ("u",))
        assert data.version_of("T") == 6 and clone.version_of("T") == 8

    def test_rows_is_a_copy_of_the_stored_set(self):
        data = instance()
        rows = data.rows("R")
        assert isinstance(rows, list) and set(rows) == data.tuples("R")
        data.add("R", ("z", "9"))
        assert len(rows) == 3 and data.rows("nothing") == []


# --------------------------------------------------- the in-memory indexes
@pytest.mark.parametrize("wrapper", list(WRAPPERS))
def test_a_write_to_r_keeps_the_index_of_s(wrapper):
    source = stack("memory", wrapper)
    backend = bare(source)
    for method, key in (("r_key", A), ("r_all", ()), ("s_key", A)):
        source.access(method, key)
    held = dict(backend._indexes)
    backend.instance.add("R", ("a", "new"))
    assert len(source.access("s_key", A)) == 1
    assert backend._indexes["s_key"] is held["s_key"]
    assert "r_key" not in backend._indexes and "r_all" not in backend._indexes
    assert len(source.access("r_key", A)) == 3
    assert backend._indexes["r_key"] is not held["r_key"]
    assert backend._indexes["s_key"] is held["s_key"]
    # A relation no method reads moves the version and nothing else.
    backend.instance.add("T", ("u",))
    source.access("r_key", A)
    assert backend._indexes["s_key"] is held["s_key"]


def test_no_write_no_stamp_read(monkeypatch):
    """While the version holds, an access reads no relation version."""
    source = InMemorySource(schema(), instance())
    source.access("r_key", A)
    reads = []
    real = Instance.version_of

    def spy(self, relation):
        reads.append(relation)
        return real(self, relation)

    monkeypatch.setattr(Instance, "version_of", spy)
    for _ in range(5):
        source.access("r_key", A)
    assert reads == []
    source.instance.add("S", ("q", "q"))
    source.access("r_key", A)
    source.access("r_key", A)
    assert reads == ["R"]  # one re-check of the one index held


# -------------------------------------------------------- the access cache
@pytest.mark.parametrize("backend, wrapper", STACKS)
def test_a_write_to_r_keeps_the_cache_entries_of_s(backend, wrapper):
    source = stack(backend, wrapper)
    cache = AccessCache()
    r_key, s_key = cache.bind(source, "r_key"), cache.bind(source, "s_key")
    s_val = cache.bind(source, "s_val")
    r_rows, s_rows, v_rows = r_key(A), s_key(A), s_val(X)
    assert (len(cache), cache.misses) == (3, 3)
    bare(source).instance.add("R", ("a", "new"))
    assert s_key(A) is s_rows and s_val(X) is v_rows
    # R's entry went at the first key after the write; S's stay.
    assert len(cache) == 2 and cache.hits == 2
    fresh = r_key(A)
    assert fresh != r_rows and (Constant("a"), Constant("new")) in fresh
    assert (cache.hits, cache.misses) == (2, 4)
    assert bare(source).total_invocations == 4
    bare(source).instance.add("S", ("c", "z"))
    assert r_key(A) is fresh
    assert len(s_key(C)) == 2
    assert (cache.hits, cache.misses, len(cache)) == (3, 5, 2)


class TokenOnly:
    """A source with a whole-source token and no ``relation_epoch``."""

    def __init__(self, inner):
        self.inner = inner
        self.schema = inner.schema
        self.log = inner.log

    def access(self, method, inputs=()):
        return self.inner.access(method, inputs)

    def epoch(self):
        return self.inner.instance.version


@pytest.mark.parametrize("kind", ["http", "token-only"])
def test_a_whole_source_token_drops_every_entry(kind):
    data = instance()
    if kind == "http":
        source = HTTPSource(StubTransport(schema(), data))
    else:
        source = TokenOnly(InMemorySource(schema(), data))
    assert relation_epoch_reader(source)("S") == source.epoch()
    cache = AccessCache()
    s_key = cache.bind(source, "s_key")
    s_key(A)
    data.add("R", ("a", "new"))
    if kind == "http":
        # The client learns of the move from the next response it reads.
        source.access("r_key", A)
    s_key(A)
    assert (cache.hits, cache.misses) == (0, 2)


def test_a_write_between_the_miss_and_its_install_is_not_cached():
    """A fetch whose relation moved in flight is returned, not kept."""

    class WritingSource(InMemorySource):
        def access(self, method_name, inputs=()):
            rows = super().access(method_name, inputs)
            if self.total_invocations == 1:
                self.instance.add("R", ("a", "late"))
            return rows

    source = WritingSource(schema(), instance())
    cache = AccessCache()
    fetch = cache.bind(source, "r_key")
    assert len(fetch(A)) == 2
    assert len(cache) == 0
    assert len(fetch(A)) == 3 and len(cache) == 1


def test_a_write_landing_after_the_install_check_is_not_kept():
    """A write between the install's epoch check and its stamp.

    ``Instance.add`` moves the relation's version before ``version``, and
    the cache takes no lock against it, so the install's epoch check can
    read the old ``version`` while the write has already landed.  This
    source lands the write right there: its ``epoch()`` reads the
    version, then inserts into R, then answers what it read.  The entry
    must carry the stamp read at the miss, so the next key drops it.
    """

    class LateWriter(InMemorySource):
        armed = False

        def access(self, method_name, inputs=()):
            rows = super().access(method_name, inputs)
            self.armed = self.total_invocations == 1
            return rows

        def epoch(self):
            version = self.instance.version
            if self.armed:
                self.armed = False
                self.instance.add("R", ("a", "late"))
            return version

    source = LateWriter(schema(), instance())
    cache = AccessCache()
    fetch = cache.bind(source, "r_key")
    assert len(fetch(A)) == 2
    assert len(cache) == 1  # installed: the check read the old version
    fresh = fetch(A)
    assert (Constant("a"), Constant("late")) in fresh
    assert (cache.hits, cache.misses) == (0, 2)


def test_readers_race_a_writer_through_one_cache():
    """Readers of R and S share a cache while a writer grows R.

    No reader sees an R answer smaller than one it saw before (a stale
    fetch installed after a fresher one would), every S answer is the
    one S holds, and once the writer stops the cache answers what a
    fresh source does.
    """
    import sys
    import threading

    data = instance()
    source = InMemorySource(schema(), data)
    cache = AccessCache(maxsize=4)
    readers, reads, writes = 6, 300, 80
    s_rows = InMemorySource(schema(), instance()).access("s_key", A)
    problems = []

    def read():
        r_key, s_key = cache.bind(source, "r_key"), cache.bind(source, "s_key")
        seen = 0
        try:
            for _ in range(reads):
                size = len(r_key(A))
                if size < seen:
                    problems.append(("regressed", seen, size))
                seen = size
                if s_key(A) != s_rows:
                    problems.append(("s changed",))
        except Exception as error:  # surfaced by the assert below
            problems.append(error)

    def write():
        for i in range(writes):
            data.add("R", ("a", f"w{i}"))

    threads = [threading.Thread(target=read) for _ in range(readers)]
    threads.append(threading.Thread(target=write))
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
    assert not problems
    assert cache.fetch(source, "r_key", A) == InMemorySource(
        schema(), data.copy()
    ).access("r_key", A)
    assert len(cache.fetch(source, "r_key", A)) == 2 + writes


# ------------------------------------------------------------- a property
OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("write"),
            st.sampled_from("RST"),
            st.sampled_from(KEYS),
            st.sampled_from("xyz"),
        ),
        st.tuples(
            st.just("read"),
            st.sampled_from(METHODS),
            st.sampled_from(KEYS + ("x", "y")),
        ),
    ),
    max_size=30,
)


@pytest.mark.parametrize("backend", list(BACKENDS))
@settings(max_examples=40, deadline=None)
@given(ops=OPS, maxsize=st.sampled_from([2, 64]))
def test_cached_answers_equal_a_fresh_source_at_that_moment(
    backend, ops, maxsize
):
    data = instance()
    source = BACKENDS[backend](schema(), data)
    cache = AccessCache(maxsize=maxsize)
    # Bound once and reused across writes, as one long command would.
    fetches = {method: cache.bind(source, method) for method in METHODS}
    for op in ops:
        if op[0] == "write":
            _, relation, key, value = op
            data.add(relation, (key, value)[: 1 if relation == "T" else 2])
            continue
        _, method, key = op
        inputs = (Constant(key),) * ARITY[method]
        fresh = InMemorySource(schema(), data.copy())
        assert fetches[method](inputs) == fresh.access(method, inputs)
