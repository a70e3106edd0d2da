"""SQLiteSource: typed cells, reconnect lifecycle, epochs, batching."""

import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import (
    AccessError,
    AccessViolation,
    SourceUnavailable,
    TransientAccessError,
)
from repro.logic.terms import Constant
from repro.scenarios import example1
from repro.schema.core import SchemaBuilder
from repro.source_contract import constant_inputs
from repro.sources import SQLiteSource
from repro.sources.sqlite import _CHUNK_PARAMS, _cell_text

_NO_SLEEP = lambda _seconds: None  # noqa: E731

# Connection.setlimit is Python >= 3.11; the 3.10 CI leg skips the tests
# that emulate an old SQLite build's variable limit with it.
needs_setlimit = pytest.mark.skipif(
    not hasattr(sqlite3.Connection, "setlimit"),
    reason="sqlite3.Connection.setlimit needs Python >= 3.11",
)


def typed_schema():
    return (
        SchemaBuilder("typed")
        .relation("T", 2)
        .access("mt_T", "T", inputs=[0], cost=1.0)
        .access("mt_all", "T", inputs=[], cost=1.0)
        .build()
    )


def typed_instance():
    # 1, 1.0, True and "1" are distinct Constants; SQLite affinity
    # would collapse them -- the JSON cells must not.
    return Instance(
        {"T": [(1, "int"), (1.0, "float"), (True, "bool"), ("1", "str")]}
    )


def wide_schema():
    """One 4-column relation under methods of input arity 0 to 3."""
    return (
        SchemaBuilder("wide")
        .relation("W", 4)
        .access("w0", "W", inputs=[], cost=1.0)
        .access("w1", "W", inputs=[0], cost=2.0)
        .access("w2", "W", inputs=[2, 0], cost=3.0)
        .access("w3", "W", inputs=[0, 1, 3], cost=5.0)
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


def many_keys(count):
    """An instance with ``count`` single-column keys, and those keys."""
    rows = [(f"k{i}", i % 5) for i in range(count)]
    keys = [(f"k{i}",) for i in range(count)]
    return Instance({"T": rows}), keys


class TestTypedRoundTrip:
    def test_mixed_types_survive_byte_for_byte(self):
        schema, instance = typed_schema(), typed_instance()
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(schema, instance)
        assert sql.access("mt_all") == mem.access("mt_all")
        for key in (1, 1.0, True, "1"):
            assert sql.access("mt_T", (key,)) == mem.access("mt_T", (key,))

    def test_scenario_parity_on_every_method(self):
        scenario = example1(professors=10, directory_extra=5)
        instance = scenario.instance(0)
        sql = SQLiteSource(scenario.schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(scenario.schema, instance)
        assert sql.access("mt_udir") == mem.access("mt_udir")
        assert sql.access("mt_prof", ("e1",)) == mem.access(
            "mt_prof", ("e1",)
        )

    def test_answers_are_the_instances_own_rows(self):
        """A fetched row is looked up, not rebuilt: no new row tuple."""
        schema, instance = typed_schema(), typed_instance()
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        own = {id(row) for row in instance.tuples("T")}
        answers = [*sql.access("mt_all"), *sql.access("mt_T", (1,))]
        for rows in sql.access_batch("mt_T", [(1,), ("1",)]).values():
            answers.extend(rows)
        assert len(answers) == 4 + 3 + 3 + 1
        assert all(id(row) in own for row in answers)

    def test_wrong_input_count_is_typed(self):
        sql = SQLiteSource(typed_schema(), typed_instance(), sleep=_NO_SLEEP)
        with pytest.raises(AccessViolation):
            sql.access("mt_T", ())

    @pytest.mark.parametrize(
        "value",
        ["a", 'q"uo\\te', "\u00e9\u4e16", "", 0, 1, -7, 2**70, 1.0, 0.5,
         1e300, -0.0, float("inf"), True, False],
        ids=repr,
    )
    def test_cell_text_is_what_json_dumps_wrote(self, value):
        """A str or a non-integral float is spelled as ``json.dumps``
        writes it; any other number as it writes the int it equals."""
        import json

        if not isinstance(value, str) and float(value).is_integer():
            value = int(value)
        assert _cell_text(value) == json.dumps(value)

    def test_key_spellings_of_python_equal_values(self):
        assert _cell_text(1) == _cell_text(1.0) == _cell_text(True) == "1"
        assert _cell_text(0) == _cell_text(-0.0) == "0"
        assert _cell_text(0.0) == _cell_text(False) == "0"
        assert _cell_text(2) == _cell_text(2.0) == "2"
        assert _cell_text(2.5) == "2.5"
        assert _cell_text("1") == '"1"'
        assert _cell_text(float("nan")) == "NaN"

    def test_signed_zero_keys_match_every_zero(self):
        """``0 == 0.0 == -0.0 == False``: a zero key finds all four rows."""
        schema = typed_schema()
        instance = Instance(
            {"T": [(-0.0, "neg"), (0.0, "pos"), (0, "int"), (False, "bool")]}
        )
        mem = InMemorySource(schema, instance)
        for key in (0, 0.0, -0.0, False):
            expected = mem.access("mt_T", (key,))
            assert len(expected) == 4
            sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
            assert spelled(sql.access("mt_T", (key,))) == spelled(expected)
            batched = sql.access_batch("mt_T", [(key,), (1,)])
            assert spelled(batched[constant_inputs((key,))]) == spelled(
                expected
            )


# Payloads whose Python equality crosses types, sits at the edge of a
# float's exact integers, or is spelled like a number.
EDGES = st.sampled_from(
    [0, 0.0, -0.0, False, 1, 1.0, True, "1", "0", "1.0", "true",
     2**53, 2**53 + 1, float(2**53), 1e300, int(1e300), float("inf"),
     float("-inf"), "Infinity", "NaN", 0.5, -7]
)
PAYLOADS = st.one_of(
    EDGES,
    st.text(max_size=4),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=False),
)


class TestCanonicalText:
    """One cell text per Python-equality class of constants."""

    @settings(max_examples=400, deadline=None)
    @given(a=PAYLOADS, b=PAYLOADS)
    def test_same_text_iff_equal_constants(self, a, b):
        same_text = _cell_text(a) == _cell_text(b)
        assert same_text == (Constant(a) == Constant(b))

    def test_two_nan_objects_stay_two_keys(self):
        nan_a, nan_b = float("nan"), float("nan")
        assert _cell_text(nan_a) == _cell_text(nan_b) == "NaN"
        assert Constant(nan_a) != Constant(nan_b)
        instance = Instance({"T": [(nan_a, "a"), (nan_b, "b")]})
        sql = SQLiteSource(typed_schema(), instance, sleep=_NO_SLEEP)
        answers = sql.access_batch("mt_T", [(nan_a,), (nan_b,), (nan_a,)])
        assert list(answers) == [(Constant(nan_a),), (Constant(nan_b),)]
        cells = [[row[1].value for row in rows] for rows in answers.values()]
        assert cells == [["a"], ["b"]]
        assert sql._statements == 1


def assert_snapshot_is_the_instance(sql):
    """The snapshot is the instance's rows, stored row ``i`` at rowid ``i``.

    Every snapshot row is the instance's own tuple object, and each
    table holds exactly the snapshot's rows under their list positions,
    every cell as its canonical text.
    """
    for relation in sql.schema.relations:
        rows = sql._snapshot[relation.name]
        own = {id(row): row for row in sql.instance.tuples(relation.name)}
        assert len(rows) == len(own)
        assert all(own.get(id(row)) is row for row in rows)
        stored = sql._conn.execute(
            f'SELECT rowid, * FROM "{relation.name}" ORDER BY rowid'
        ).fetchall()
        assert stored == [
            (i, *[_cell_text(cell.value) for cell in row])
            for i, row in enumerate(rows)
        ]


class TestReconnectLifecycle:
    def test_severed_connection_reconnects_and_answers_identically(self):
        schema, instance = typed_schema(), typed_instance()
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        reference = sql.access("mt_all")
        sql.access("mt_T", (1,))
        snapshot = sql._snapshot
        assert_snapshot_is_the_instance(sql)
        sql.sever_connection()
        assert sql.access("mt_all") == reference
        assert sql.reconnects == 1
        # The reconnect replaced the snapshot with the tables, reloaded
        # from the same instance.
        assert sql._snapshot is not snapshot
        assert {name: set(rows) for name, rows in sql._snapshot.items()} == {
            name: set(rows) for name, rows in snapshot.items()
        }
        assert_snapshot_is_the_instance(sql)
        assert sql.access("mt_T", (True,)) == reference - {
            (Constant("1"), Constant("str"))
        }

    def test_backoff_is_capped_exponential(self):
        sleeps = []
        sql = SQLiteSource(
            typed_schema(), typed_instance(),
            backoff=0.01, max_backoff=0.03, sleep=sleeps.append,
        )
        sql.sever_connection()
        sql.access("mt_all")
        assert sleeps == [pytest.approx(0.01)]

    def test_exhausted_reconnects_surface_as_source_unavailable(self):
        sql = SQLiteSource(
            typed_schema(), typed_instance(),
            max_reconnects=0, sleep=_NO_SLEEP,
        )
        sql.sever_connection()
        with pytest.raises(SourceUnavailable):
            sql.access("mt_all")

    def test_drop_every_severs_deterministically(self):
        sql = SQLiteSource(
            typed_schema(), typed_instance(),
            drop_every=2, sleep=_NO_SLEEP,
        )
        reference = InMemorySource(typed_schema(), typed_instance())
        for i in range(6):
            assert sql.access("mt_all") == reference.access("mt_all")
        assert sql._statements == 6
        assert sql.reconnects == 3  # statements 2, 4, 6 hit a dead conn

    @pytest.mark.parametrize(
        "statement",
        ['SELECT * FROM "Nope"', "SELEC 1", 'SELECT zz FROM "T"'],
    )
    def test_a_rejected_statement_is_not_a_lost_connection(self, statement):
        sleeps = []
        sql = SQLiteSource(
            typed_schema(), typed_instance(), sleep=sleeps.append
        )
        with pytest.raises(AccessError) as raised:
            sql._execute(statement, ())
        assert not isinstance(raised.value, TransientAccessError)
        assert sql.reconnects == 0 and sleeps == []
        # The connection was never the problem: it still answers.
        assert len(sql.access("mt_all")) == 4

    @needs_setlimit
    def test_too_many_variables_is_typed_and_not_retried(self):
        sleeps = []
        sql = SQLiteSource(wide_schema(), Instance({}), sleep=sleeps.append)
        sql._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 2)
        with pytest.raises(AccessError, match="too many SQL variables"):
            sql.access("w3", ("a", "b", "c"))
        assert sql.reconnects == 0 and sleeps == []


class TestEpochs:
    def test_reconnect_keeps_the_epoch(self):
        sql = SQLiteSource(typed_schema(), typed_instance(), sleep=_NO_SLEEP)
        before = sql.epoch()
        sql.sever_connection()
        sql.access("mt_all")
        assert sql.epoch() == before

    def test_mutation_bumps_the_epoch_and_reloads_the_snapshot(self):
        schema, instance = typed_schema(), typed_instance()
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        before = sql.epoch()
        stale = sql.access("mt_T", ("fresh",))
        assert stale == frozenset()
        instance.add("T", ("fresh", "row"))
        assert sql.epoch() > before
        assert sql.access("mt_T", ("fresh",)) == InMemorySource(
            schema, instance
        ).access("mt_T", ("fresh",))


class TestBatching:
    def test_batch_matches_per_key_answers_and_metering(self):
        scenario = example1(professors=8, directory_extra=0)
        instance = scenario.instance(0)
        sql = SQLiteSource(scenario.schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(scenario.schema, instance)
        keys = [("e0",), ("e1",), ("e7",), ("nope",)]
        batched = sql.access_batch("mt_prof", keys)
        assert sql.batched_calls == 1
        # One logical access metered per key, same as the per-key loop.
        assert sql.total_invocations == len(keys)
        assert sql.invocations_of("mt_prof") == len(keys)
        for key in keys:
            assert batched[constant_inputs(key)] == (
                mem.access("mt_prof", key)
            )

    def test_batch_uses_one_statement_for_single_input_methods(self):
        sql = SQLiteSource(typed_schema(), typed_instance(), sleep=_NO_SLEEP)
        before = sql._statements
        sql.access_batch("mt_T", [(1,), (True,), ("1",)])
        assert sql._statements == before + 1
        wide = SQLiteSource(
            wide_schema(), Instance({"W": [(1, "a", 2, "b")]}),
            sleep=_NO_SLEEP,
        )
        answers = wide.access_batch("w2", [(2, 1), (2, "x"), ("y", 1.0)])
        assert wide._statements == 1
        assert [len(rows) for rows in answers.values()] == [1, 0, 0]

    def test_an_empty_batch_runs_no_statement(self):
        sql = SQLiteSource(typed_schema(), typed_instance(), sleep=_NO_SLEEP)
        assert sql.access_batch("mt_T", []) == {}
        assert sql._statements == 0 and sql.total_invocations == 0

    def test_schema_access_patterns_are_indexed(self):
        sql = SQLiteSource(wide_schema(), Instance({}), sleep=_NO_SLEEP)
        indexes = sql._conn.execute(
            "SELECT sql FROM sqlite_master WHERE type = 'index' ORDER BY sql"
        ).fetchall()
        assert [text.split(" ON ")[1] for (text,) in indexes] == [
            '"W" (c0)', '"W" (c0, c1, c3)', '"W" (c2, c0)',
        ]

    @needs_setlimit
    def test_batch_larger_than_the_variable_limit(self):
        instance, keys = many_keys(1500)
        sql = SQLiteSource(typed_schema(), instance, sleep=_NO_SLEEP)
        # An old build (SQLite < 3.32) binds at most 999 variables.
        sql._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
        mem = InMemorySource(typed_schema(), instance)
        answers = sql.access_batch("mt_T", keys)
        assert sql.reconnects == 0
        assert sql._statements == -(-len(keys) // _CHUNK_PARAMS)
        for key in keys:
            assert answers[constant_inputs(key)] == (
                mem.access("mt_T", key)
            )

    def test_connection_loss_inside_a_chunked_batch(self):
        instance, keys = many_keys(3 * _CHUNK_PARAMS)
        clean = SQLiteSource(typed_schema(), instance, sleep=_NO_SLEEP)
        reference = clean.access_batch("mt_T", keys)
        assert clean._statements == 3

        dropping = SQLiteSource(
            typed_schema(), instance, drop_every=2, sleep=_NO_SLEEP
        )
        dropped = dropping.access_batch("mt_T", keys)
        assert dropping.reconnects == 1  # the second chunk's statement
        assert {key: spelled(rows) for key, rows in dropped.items()} == {
            key: spelled(rows) for key, rows in reference.items()
        }

        severed = SQLiteSource(typed_schema(), instance, sleep=_NO_SLEEP)
        execute = severed._execute

        def sever_before_the_second_chunk(sql, params):
            if severed._statements == 1:
                severed.sever_connection()
            return execute(sql, params)

        severed._execute = sever_before_the_second_chunk
        answers = severed.access_batch("mt_T", keys)
        assert severed.reconnects == 1
        assert {key: spelled(rows) for key, rows in answers.items()} == {
            key: spelled(rows) for key, rows in reference.items()
        }
        assert records(dropping) == records(severed) == records(clean)

    def test_mutation_between_batches_reloads_tables_and_indexes(self):
        schema = wide_schema()
        instance = Instance({"W": [(1, "a", 2, "b"), (3, "c", 4, "d")]})
        sql = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        keys = [(2, 1), (4, 3), (9, 9)]
        first = sql.access_batch("w2", keys)
        assert [len(rows) for rows in first.values()] == [1, 1, 0]
        assert_snapshot_is_the_instance(sql)
        snapshot = sql._snapshot
        old_rows = list(snapshot["W"])
        # New rows under an old key and a new one ("fresh", 1.0 stored
        # as a float) that no earlier snapshot held.
        instance.add("W", (1.0, "fresh", 2, "b"))
        instance.add("W", (9, "fresh", 9, 0.5))
        second = sql.access_batch("w2", keys)
        # The mutation replaced the snapshot with the tables; the new
        # snapshot is the new instance's rows.
        assert sql._snapshot is not snapshot
        assert len(sql._snapshot["W"]) == len(old_rows) + 2
        assert sql.access_batch("w2", keys) == second
        assert_snapshot_is_the_instance(sql)
        # The old snapshot is stale in lifetime only: it still holds the
        # old version's rows.
        assert snapshot["W"] == old_rows
        fresh = (9, "fresh", 9, 0.5)
        assert spelled(second[constant_inputs((9, 9))]) == spelled(
            [tuple(map(Constant, fresh))]
        )
        mem = InMemorySource(schema, instance)
        for key in keys:
            constants = constant_inputs(key)
            assert spelled(second[constants]) == spelled(
                mem.access("w2", key)
            )
        assert [len(rows) for rows in second.values()] == [2, 1, 1]
        indexes = sql._conn.execute(
            "SELECT count(*) FROM sqlite_master WHERE type = 'index'"
        ).fetchone()
        assert indexes == (3,)


# -0.0 and 2**53 / 2.0**53: Python-equal keys of different types, which
# must have one text.
VALUES = st.sampled_from(
    [1, 1.0, True, "1", 0, 0.0, -0.0, False, "0", 2, 2.5, 2**53, 2.0**53,
     "a", ""]
)
ABSENT = st.sampled_from([7, 7.0, "zz", -1])


class TestBatchDifferential:
    """access_batch == per-key access == the in-memory oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(st.tuples(VALUES, VALUES, VALUES, VALUES), max_size=12),
        method=st.sampled_from(["w0", "w1", "w2", "w3"]),
        data=st.data(),
    )
    def test_answers_and_books_agree(self, rows, method, data):
        schema = wide_schema()
        arity = len(schema.method(method).input_positions)
        keys = data.draw(
            st.lists(
                st.tuples(*[st.one_of(VALUES, ABSENT)] * arity), max_size=10
            )
        )
        instance = Instance({"W": rows})
        batched = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        per_key = SQLiteSource(schema, instance, sleep=_NO_SLEEP)
        mem = InMemorySource(schema, instance)

        answers = batched.access_batch(method, keys)
        for key in keys:
            constants = constant_inputs(key)
            expected = mem.access(method, key)
            assert spelled(per_key.access(method, key)) == spelled(expected)
            assert spelled(answers[constants]) == spelled(expected)
        # One record per input tuple -- repeats and Python-equal keys
        # included -- with that tuple's own result count.
        assert records(batched) == records(per_key) == records(mem)
        assert batched.total_invocations == len(keys)
        assert batched.charged_cost() == mem.charged_cost()
