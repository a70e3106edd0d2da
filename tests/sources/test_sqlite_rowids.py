"""SQLiteSource answers with row ids into the snapshot it loaded.

A statement fetches ``rowid`` (and a keyed join the ordinal of the keys
row it matched); the ids become the instance's own rows by list index
under the lock hold that ran the statement.  These tests pin that the
answers stay the in-memory oracle's -- type for type, NaN identity
included, across chunk boundaries, reloads and concurrent mutation.
"""

import sys
import threading
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.terms import Constant
from repro.schema.core import SchemaBuilder
from repro.source_contract import constant_inputs
from repro.sources import SQLiteSource
from repro.sources.sqlite import _CHUNK_PARAMS, _keyed_join_sql

_NO_SLEEP = lambda _seconds: None  # noqa: E731


def wide_schema():
    """One 3-column relation under methods of input arity 1 to 3."""
    return (
        SchemaBuilder("rowids")
        .relation("W", 3)
        .access("w1", "W", inputs=[0], cost=2.0)
        .access("w2", "W", inputs=[2, 0], cost=3.0)
        .access("w3", "W", inputs=[0, 1, 2], cost=5.0)
        .build()
    )


def spelled(rows):
    """Rows by their printed form: tells ``1`` from ``1.0`` from ``True``."""
    return sorted(repr(row) for row in rows)


def records(source):
    """The access log as plain tuples, in order."""
    return [
        (rec.method, rec.relation, rec.inputs, rec.results)
        for rec in source.log
    ]


def assert_own_rows(instance, answers):
    """Every answered row *is* one of the instance's stored tuples."""
    own = {}
    for relation in instance.relations():
        own.update((id(row), row) for row in instance.tuples(relation))
    for rows in answers:
        for row in rows:
            assert own.get(id(row)) is row


class TestCoveringIndex:
    def test_keyed_join_reads_the_covering_index(self):
        sql = SQLiteSource(wide_schema(), Instance({}), sleep=_NO_SLEEP)
        for method in ("w1", "w2", "w3"):
            positions = sql.schema.method(method).input_positions
            statement = _keyed_join_sql("W", positions, 3)
            plan = sql._conn.execute(
                "EXPLAIN QUERY PLAN " + statement,
                ["x"] * (3 * len(positions)),
            ).fetchall()
            details = [row[-1] for row in plan]
            searches = [text for text in details if text.startswith("SEARCH")]
            assert len(searches) == 1, details
            assert "USING COVERING INDEX" in searches[0], details


class TestNaNKeys:
    """A NaN key matches by identity, as the in-memory index does."""

    def setup_method(self):
        self.nan_a, self.nan_b = float("nan"), float("nan")
        schema = wide_schema()
        self.instance = Instance(
            {
                "W": [
                    (self.nan_a, "a", 1),
                    (self.nan_b, "b", 1),
                    (1.0, "one", 1),
                ]
            }
        )
        self.sql = SQLiteSource(schema, self.instance, sleep=_NO_SLEEP)
        self.mem = InMemorySource(schema, self.instance)

    def test_a_fresh_nan_key_gets_no_rows(self):
        fresh = (float("nan"),)
        assert self.mem.access("w1", fresh) == frozenset()
        assert self.sql.access("w1", fresh) == frozenset()
        batched = self.sql.access_batch("w1", [fresh, (1,)])
        assert batched[constant_inputs(fresh)] == frozenset()
        assert spelled(batched[constant_inputs((1,))]) == spelled(
            self.mem.access("w1", (1,))
        )

    def test_the_stored_nan_object_gets_its_row(self):
        for nan, cell in ((self.nan_a, "a"), (self.nan_b, "b")):
            expected = self.mem.access("w1", (nan,))
            assert [row[1].value for row in expected] == [cell]
            assert self.sql.access("w1", (nan,)) == expected
            assert_own_rows(self.instance, [self.sql.access("w1", (nan,))])

    def test_a_batch_of_nan_keys_splits_by_identity(self):
        keys = [(self.nan_a,), (self.nan_b,), (float("nan"),), (self.nan_a,)]
        answers = self.sql.access_batch("w1", keys)
        for key in keys:
            assert answers[constant_inputs(key)] == self.mem.access("w1", key)
        assert records(self.sql) == records(self.mem)
        wide = [(1, self.nan_a), (1, self.nan_b), (1, float("nan"))]
        answers = self.sql.access_batch("w2", wide)
        for key in wide:
            expected = self.mem.access("w2", key)
            assert answers[constant_inputs(key)] == expected
            assert self.sql.access("w2", key) == expected


# Python-equal cells of different types, and their neighbours.
MIXED = st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, "1", 2, 2.0])
# Up to this many filler keys: every key is one keys row of its width, so
# a chunk holds _CHUNK_PARAMS // width keys, and the most filler keys of
# any width cross a chunk boundary.
MOST_FILL = _CHUNK_PARAMS + 50
FILLER = st.integers(min_value=10, max_value=10 + MOST_FILL)
CELLS = st.one_of(MIXED, FILLER)


class TestDifferential:
    """access and access_batch == the in-memory oracle, row for row."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(st.tuples(CELLS, MIXED, CELLS), max_size=40),
        method=st.sampled_from(["w1", "w2", "w3"]),
        data=st.data(),
    )
    def test_answers_and_books_agree(self, rows, method, data):
        schema = wide_schema()
        arity = len(schema.method(method).input_positions)
        per_chunk = _CHUNK_PARAMS // arity
        drawn = data.draw(
            st.lists(st.tuples(*[CELLS] * arity), max_size=12)
        )
        # Filler keys, all distinct, take the batch over a chunk boundary.
        fill = data.draw(st.integers(0, per_chunk + 50), label="fill")
        keys = drawn + [
            tuple(10 + (i + j) % (MOST_FILL + 1) for j in range(arity))
            for i in range(fill)
        ]
        instance = Instance({"W": rows})
        batched = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        per_key = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(schema, instance)

        answers = batched.access_batch(method, keys)
        for key in keys:
            expected = mem.access(method, key)
            got = per_key.access(method, key)
            assert spelled(got) == spelled(expected)
            assert spelled(answers[constant_inputs(key)]) == spelled(expected)
            assert_own_rows(instance, [got])
        assert_own_rows(instance, answers.values())
        assert records(batched) == records(per_key) == records(mem)
        assert batched.charged_cost() == mem.charged_cost()
        # One keys row per distinct key: Python-equal keys are one.
        distinct = len(set(map(constant_inputs, keys)))
        assert batched._statements == -(-distinct // per_chunk)


class _ReloadOnRelease:
    """The source lock, calling ``hook`` once when it is next let go."""

    def __init__(self, inner, hook):
        self.inner, self.hook, self.depth, self.armed = inner, hook, 0, False

    def __enter__(self):
        self.inner.acquire()
        self.depth += 1

    def __exit__(self, *exc):
        self.depth -= 1
        self.inner.release()
        if self.depth == 0 and self.armed:
            self.armed = False
            self.hook()


class TestIdsMapUnderTheLock:
    def test_a_reload_after_the_statement_cannot_remap_its_ids(self):
        """Ids are mapped before the lock that ran the statement is let go.

        Integer rows hash the same in every process, so the snapshot
        order before and after the mutation is fixed; the assertion on
        it keeps the test honest if that ever changes.
        """
        schema = wide_schema()
        instance = Instance({"W": [(i, i, i) for i in range(4)]})
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        before = list(sql._snapshot["W"])
        oracle = InMemorySource(schema, instance.copy())

        def mutate_and_reload():
            for i in range(4, 40):
                instance.add("W", (i, i, i))
            with sql._lock:
                sql._reload_if_mutated()

        sql._lock = _ReloadOnRelease(sql._lock, mutate_and_reload)
        sql._lock.armed = True
        keys = [(i,) for i in range(4)]
        answers = sql.access_batch("w1", keys)
        after = sql._snapshot["W"]
        assert after[: len(before)] != before  # the ids moved
        for key in keys:
            assert answers[constant_inputs(key)] == oracle.access("w1", key)
        assert_own_rows(instance, answers.values())


class TestConcurrentMutation:
    def test_every_batch_answers_from_one_version(self):
        """A writer adds rows while two readers run two-chunk batches.

        The rows are added in a known order, so the oracle at version
        ``v`` is the first ``v`` of them; every batch asks every key, so
        its answers together are one such prefix, bucketed by key.  Three
        threads on a short switch interval, so rows land between the two
        chunks of a batch and the readers reload under each other.
        """
        keys = [(f"k{i}",) for i in range(_CHUNK_PARAMS + 50)]
        added = [(f"k{(7 * i) % len(keys)}", i) for i in range(400)]
        schema = (
            SchemaBuilder("writer")
            .relation("T", 2)
            .access("mt_T", "T", inputs=[0], cost=1.0)
            .build()
        )
        instance = Instance({})
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        done = threading.Event()
        answers, errors = [], []

        def writer():
            for row in added:
                instance.add("T", row)
                time.sleep(0)  # let a reader in between any two rows
            done.set()

        def reader():
            try:
                batches = 0
                while not done.is_set() or batches < 2:
                    answers.append(sql.access_batch("mt_T", keys))
                    batches += 1
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
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
        assert errors == []
        assert sql.batched_calls == len(answers)
        assert sql._statements == 2 * len(answers)
        expected = [tuple(map(Constant, row)) for row in added]
        for answer in answers:
            union = set()
            for key, rows in answer.items():
                assert all(row[0] == key[0] for row in rows)
                union |= rows
            assert union == set(expected[: len(union)])
            assert_own_rows(instance, answer.values())
