"""The metering log: fields, not records, and still the list it replaced.

An access logs itself as four fields in the source's
:class:`~repro.source_contract.AccessLog`.  These tests hold it to the
list of :class:`~repro.source_contract.AccessRecord` it stands in for --
on every backend, under every interleaving of per-key accesses, batches
and charged cache hits, and under threads -- and to its reason to exist:
an access leaves nothing behind for the cyclic collector.
"""

import gc
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instance import Instance
from repro.data.source import AccessLog, AccessRecord, InMemorySource
from repro.exec.cache import AccessCache
from repro.logic.terms import Constant
from repro.schema.core import SchemaBuilder
from repro.source_contract import constant_inputs
from repro.sources import HTTPSource, SQLiteSource, StubTransport

# Costs whose float sum depends on the order they are added in.
SCHEMA = (
    SchemaBuilder("log")
    .relation("R", 2)
    .relation("S", 1)
    .access("mt_key", "R", inputs=[0], cost=2.0)
    .access("mt_scan", "R", inputs=[], cost=5.0)
    .access("mt_both", "R", inputs=[0, 1], cost=0.1)
    .access("mt_s", "S", inputs=[0], cost=0.7)
    .build()
)
INSTANCE = Instance(
    {"R": [("a", "1"), ("a", "2"), ("b", "3"), ("c", "a")], "S": [("a",), ("c",)]}
)
ARITY = {m.name: len(m.input_positions) for m in SCHEMA.methods}
VALUES = ["a", "b", "c", "1", "zzz"]

BACKENDS = {
    "memory": lambda: InMemorySource(SCHEMA, INSTANCE),
    "sqlite": lambda: SQLiteSource(SCHEMA, INSTANCE),
    "http": lambda: HTTPSource(StubTransport(SCHEMA, INSTANCE)),
}


def record_of(oracle, method, inputs):
    """The record one access to ``method`` with ``inputs`` must leave."""
    values = constant_inputs(inputs)
    rows = oracle.access(method, values)
    return AccessRecord(method, SCHEMA.method(method).relation, values, len(rows))


def parent_charged_cost(records, per_method=None):
    """``charged_cost`` as a loop over records, the formula it replaced."""
    total = 0.0
    for record in records:
        if per_method is not None and record.method in per_method:
            total += per_method[record.method]
        else:
            total += SCHEMA.method(record.method).cost
    return total


# ------------------------------------------------------------ no garbage
def test_an_access_leaves_no_tracked_object():
    source = InMemorySource(SCHEMA, INSTANCE)
    keys = [(Constant(value),) for value in VALUES] * 200
    for key in keys[: len(VALUES)]:
        source.access("mt_key", key)  # build the index first
    access = source.access
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for key in keys:
            access("mt_key", key)
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert added == 0
    assert source.total_invocations == len(VALUES) + 1000


# ------------------------------------------------------ the list it replaced
def _keys(method):
    return st.tuples(*[st.sampled_from(VALUES)] * ARITY[method])


def _op(kind):
    def build(method):
        if kind == "batch":
            keys = st.lists(_keys(method), min_size=1, max_size=4)
        else:
            keys = _keys(method)
        return st.tuples(st.just(kind), st.just(method), keys)

    return st.sampled_from(sorted(ARITY)).flatmap(build)


OPS = st.lists(
    st.one_of(
        _op("access"),
        _op("batch"),
        _op("cached"),
        st.just(("clear", None, None)),
    ),
    max_size=25,
)
WEIGHTS = st.dictionaries(
    st.sampled_from(sorted(ARITY)),
    st.floats(0, 100, allow_nan=False) | st.integers(0, 9),
    max_size=3,
)
POSITIONS = st.integers(-30, 30)
STEPS = st.sampled_from([None, 1, 2, 3, -1, -2])


def check_like_the_list(source, model, data):
    log = source.log
    assert len(log) == len(model) == source.total_invocations
    assert list(log) == model and list(reversed(log)) == model[::-1]
    assert log == model and model == log
    assert (log == tuple(model)) is False  # a list is never a tuple
    assert log != model + [AccessRecord("mt_s", "S", (), 0)]
    for _ in range(3):
        position = data.draw(POSITIONS)
        if -len(model) <= position < len(model):
            assert log[position] == model[position]
            assert type(log[position]) is AccessRecord
        else:
            with pytest.raises(IndexError):
                log[position]
    window = slice(
        data.draw(st.none() | POSITIONS),
        data.draw(st.none() | POSITIONS),
        data.draw(STEPS),
    )
    assert log[window] == model[window]
    assert len(log.fields()) == 4 * len(model)
    # The metering readers, against the formulas they replaced.
    assert source.charged_cost() == parent_charged_cost(model)
    weights = data.draw(WEIGHTS)
    assert source.charged_cost(weights) == parent_charged_cost(model, weights)
    for method in ARITY:
        assert source.invocations_of(method) == sum(
            1 for record in model if record.method == method
        )
    assert source.distinct_accesses() == frozenset(
        (record.method, record.inputs) for record in model
    )


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=40, deadline=None)
@given(ops=OPS, data=st.data())
def test_the_log_reads_like_a_list_of_records(backend, ops, data):
    source = BACKENDS[backend]()
    oracle = InMemorySource(SCHEMA, INSTANCE)
    cache = AccessCache(charge_hits=True)
    batch = getattr(source, "access_batch", None)
    model = []
    for kind, method, keys in ops:
        if kind == "clear":
            check_like_the_list(source, model, data)
            source.reset_log()
            model.clear()
        elif kind == "cached":
            key = constant_inputs(keys)
            cache.fetch(source, method, key)
            model.append(record_of(oracle, method, key))
        elif kind == "batch" and batch is not None:
            batch(method, keys)
            model.extend(record_of(oracle, method, key) for key in keys)
        else:
            for key in keys if kind == "batch" else [keys]:
                source.access(method, key)
                model.append(record_of(oracle, method, key))
    check_like_the_list(source, model, data)
    source.reset_log()
    assert source.log == [] and len(source.log) == 0
    assert source.charged_cost() == 0.0 and not source.distinct_accesses()


def test_append_takes_a_record_or_any_four_fields():
    log = AccessLog()
    record = AccessRecord("mt_key", "R", (Constant("a"),), 2)
    log.append(record)
    log.append(tuple(record))
    log.record(tuple(record))
    assert log == [record] * 3
    with pytest.raises(ValueError):
        log.append(("mt_key", "R", (Constant("a"),)))
    assert len(log.fields()) == 12
    log.clear()
    assert log == [] and not log


# ------------------------------------------------------------- under threads
@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", sorted(BACKENDS))
def test_records_stay_whole_under_threads(backend):
    source = BACKENDS[backend]()
    oracle = InMemorySource(SCHEMA, INSTANCE)
    cache = AccessCache(charge_hits=True)
    calls = [
        (method, constant_inputs(key))
        for method in sorted(ARITY)
        for key in (
            [()] if not ARITY[method]
            else [(v,) * ARITY[method] for v in VALUES]
        )
    ]
    for method, key in calls:
        cache.fetch(source, method, key)  # every later fetch is a hit
    rounds = 150
    barrier = threading.Barrier(8)

    def accessor(offset):
        barrier.wait()
        for i in range(rounds):
            method, key = calls[(offset + i) % len(calls)]
            source.access(method, key)

    def hitter(offset):
        barrier.wait()
        for i in range(rounds):
            method, key = calls[(offset + i) % len(calls)]
            cache.fetch(source, method, key)

    threads = [
        threading.Thread(target=hitter if n < 2 else accessor, args=(n,))
        for n in range(8)
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
    assert cache.misses == len(calls)
    assert len(source.log) == len(calls) + 8 * rounds
    assert len(source.log.fields()) == 4 * len(source.log)
    for record in source.log:
        method = SCHEMA.method(record.method)
        assert record.relation == method.relation
        assert type(record.inputs) is tuple
        assert len(record.inputs) == len(method.input_positions)
        assert all(type(value) is Constant for value in record.inputs)
        assert record.results == len(oracle.access(record.method, record.inputs))


# ------------------------------------------------------------ a whole batch
@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(_keys("mt_key"), max_size=12),
    counts=st.data(),
    before=st.integers(0, 3),
)
def test_a_batch_append_is_the_per_key_loop(keys, counts, before):
    inputs = [constant_inputs(key) for key in keys]
    results = counts.draw(
        st.lists(st.integers(0, 9), min_size=len(keys), max_size=len(keys))
    )
    earlier = AccessRecord("mt_s", "S", (Constant("a"),), 1)
    batched, looped = AccessLog(), AccessLog()
    for log in (batched, looped):
        for _ in range(before):
            log.append(earlier)
    batched.record_batch("mt_key", "R", inputs, iter(results))
    for values, count in zip(inputs, results):
        looped.record(("mt_key", "R", values, count))
    assert batched == looped
    assert list(batched) == [earlier] * before + [
        AccessRecord("mt_key", "R", values, count)
        for values, count in zip(inputs, results)
    ]


@pytest.mark.timeout(120)
def test_a_reader_sees_all_of_a_batch_or_none_of_it():
    """The writer empties the log and appends one batch, over and over;
    two readers copy it meanwhile and must find nothing or the batch."""
    log = AccessLog()
    size = 256
    inputs = [(Constant(f"k{i}"),) for i in range(size)]
    barrier = threading.Barrier(3)
    done = threading.Event()
    reads, torn = [], []

    def writer():
        barrier.wait()
        for _ in range(2000):
            log.clear()
            log.record_batch("mt_key", "R", inputs, [1] * size)
        done.set()

    def reader():
        barrier.wait()
        while not done.is_set():
            fields = log.fields()
            reads.append(len(fields))
            if len(fields) not in (0, 4 * size):
                torn.append(len(fields))

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader) for _ in range(2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reads and torn == []
    assert log == [AccessRecord("mt_key", "R", key, 1) for key in inputs]
