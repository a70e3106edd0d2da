"""Unit tests for the access-enforced source and its metering."""

import pytest

from repro.data.instance import Instance
from repro.data.source import AccessRecord, AccessViolation, InMemorySource
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


class TestAccess:
    def test_keyed_access_filters(self, source):
        rows = source.access("mt_key", ("a",))
        assert len(rows) == 2
        assert all(row[0] == Constant("a") for row in rows)

    def test_free_access_returns_all(self, source):
        assert len(source.access("mt_scan")) == 3

    def test_no_match_returns_empty(self, source):
        assert source.access("mt_key", ("zzz",)) == frozenset()

    def test_wrong_arity_raises(self, source):
        with pytest.raises(AccessViolation):
            source.access("mt_key", ())
        with pytest.raises(AccessViolation):
            source.access("mt_scan", ("a",))

    def test_unknown_method_raises(self, source):
        from repro.schema.core import SchemaError

        with pytest.raises(SchemaError):
            source.access("nope", ())


class TestInputCoercion:
    def test_constant_and_raw_inputs_are_equivalent(self, source):
        """`inputs` may mix `Constant` values and raw Python values."""
        via_raw = source.access("mt_key", ("a",))
        via_constant = source.access("mt_key", (Constant("a"),))
        assert via_raw == via_constant
        # Both invocations were logged with the same coerced inputs.
        assert source.log[0].inputs == source.log[1].inputs == (
            Constant("a"),
        )

    def test_arity_error_message_pinned(self, source):
        with pytest.raises(
            AccessViolation, match=r"method mt_key needs 1 inputs, got 0"
        ):
            source.access("mt_key", ())
        with pytest.raises(
            AccessViolation, match=r"method mt_scan needs 0 inputs, got 1"
        ):
            source.access("mt_scan", (Constant("a"),))

    def test_uncoercible_input_rejected(self, source):
        from repro.data.instance import InstanceError

        with pytest.raises(InstanceError, match="cannot store"):
            source.access("mt_key", (object(),))
        with pytest.raises(InstanceError, match="cannot store"):
            source.access("mt_key", (None,))
        assert source.total_invocations == 0

    def test_a_tuple_of_constants_is_logged_as_the_object_it_is(self, source):
        key = (Constant("a"),)
        rows = source.access("mt_key", key)
        assert len(rows) == 2
        record = source.log[-1]
        assert type(record) is AccessRecord
        assert record == AccessRecord("mt_key", "R", (Constant("a"),), 2)
        assert record.inputs is key

    @pytest.mark.parametrize(
        "inputs",
        [["a"], [Constant("a")], ("a",), iter(["a"])],
        ids=["list", "list-of-constants", "raw-tuple", "iterator"],
    )
    def test_anything_else_is_coerced_to_one(self, source, inputs):
        assert source.access("mt_key", inputs) == source.access(
            "mt_key", (Constant("a"),)
        )
        first, second = source.log
        assert first == second
        assert type(first.inputs) is tuple
        assert all(type(value) is Constant for value in first.inputs)

    @pytest.mark.parametrize("value", ["1", 1, True, 1.0, 2.5])
    def test_raw_scalars_of_every_storable_type(self, value):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_key", "R", inputs=[0])
            .access("mt_both", "R", inputs=[0, 1])
            .build()
        )
        instance = Instance({"R": [(value, "x"), ("other", "y")]})
        source = InMemorySource(schema, instance)
        expected = frozenset({(Constant(value), Constant("x"))})
        assert source.access("mt_key", (value,)) == expected
        assert source.access("mt_both", (value, "x")) == expected
        # One raw value beside a constant: the whole tuple is rebuilt.
        mixed = (Constant(value), "x")
        assert source.access("mt_both", mixed) == expected
        assert source.log[-1].inputs == (Constant(value), Constant("x"))
        assert source.log[-1].inputs is not mixed

    def test_violation_carries_method_relation_and_coerced_inputs(self, source):
        with pytest.raises(AccessViolation) as caught:
            source.access("mt_key", ("a", 2))
        error = caught.value
        assert (error.method, error.relation) == ("mt_key", "R")
        assert error.inputs == (Constant("a"), Constant(2))
        assert str(error) == (
            "method mt_key needs 1 inputs, got 2 "
            "[method=mt_key, relation=R, inputs=('a', 2)]"
        )
        assert source.total_invocations == 0

    def test_unknown_method_is_a_schema_error_before_any_coercion(self, source):
        from repro.schema.core import SchemaError

        with pytest.raises(SchemaError, match="unknown method nope"):
            source.access("nope", (object(),))


class TestCheckedInputs:
    """The one input check every backend's ``access`` starts with."""

    def test_every_backend_raises_the_same_violation(self, source):
        from repro.sources import HTTPSource, SQLiteSource, StubTransport

        schema, instance = source.schema, source.instance
        sqlite = SQLiteSource(schema, instance, path=":memory:")
        http = HTTPSource(StubTransport(schema, instance))
        calls = [
            lambda: source.access("mt_key", ("a", "b")),
            lambda: sqlite.access("mt_key", ("a", "b")),
            lambda: http.access("mt_key", ("a", "b")),
            lambda: sqlite.access_batch("mt_key", [("a",), ("a", "b")]),
            lambda: http.access_batch("mt_key", [("a",), ("a", "b")]),
        ]
        for call in calls:
            with pytest.raises(AccessViolation) as caught:
                call()
            assert str(caught.value) == (
                "method mt_key needs 1 inputs, got 2 "
                "[method=mt_key, relation=R, inputs=('a', 'b')]"
            )
        for backend in (source, sqlite, http):
            assert backend.total_invocations == 0

    def test_constant_inputs_passes_a_constant_tuple_through(self):
        from repro.source_contract import checked_inputs, constant_inputs

        key = (Constant("a"), Constant(1))
        assert constant_inputs(key) is key
        assert constant_inputs(()) == ()
        assert constant_inputs(["a", 1]) == key
        assert constant_inputs(("a", Constant(1))) == key
        method = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_both", "R", inputs=[0, 1])
            .build()
            .method("mt_both")
        )
        assert checked_inputs(method, key) is key


class TestMethodIndex:
    def test_indexed_and_scan_agree(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_key", "R", inputs=[0], cost=2.0)
            .access("mt_scan", "R", inputs=[], cost=5.0)
            .build()
        )
        instance = Instance(
            {"R": [("a", "1"), ("a", "2"), ("b", "3"), ("c", "4")]}
        )
        indexed = InMemorySource(schema, instance, indexed=True)
        scanning = InMemorySource(schema, instance, indexed=False)
        for key in ("a", "b", "c", "zzz"):
            assert indexed.access("mt_key", (key,)) == scanning.access(
                "mt_key", (key,)
            )
        assert indexed.access("mt_scan") == scanning.access("mt_scan")

    def test_index_invalidated_on_instance_mutation(self, source):
        assert len(source.access("mt_key", ("a",))) == 2
        index = source.instance.access_index("R", (0,))
        # A write to a relation no method reads keeps the index, and
        # the source answers with its bucket.
        source.instance.add("S", ("z",))
        assert source.access("mt_key", ("a",)) is index[(Constant("a"),)]
        assert source.instance.access_index("R", (0,)) is index
        source.instance.add("R", ("a", "99"))
        assert len(source.access("mt_key", ("a",))) == 3
        assert source.instance.access_index("R", (0,)) is not index
        assert len(source.access("mt_scan")) == 4

    def test_metering_identical_under_index(self, source):
        source.access("mt_key", ("a",))
        source.access("mt_key", ("a",))
        source.access("mt_scan")
        assert source.total_invocations == 3
        assert source.charged_cost() == pytest.approx(9.0)
        assert source.log[0].results == 2


class TestConcurrentIndexAccess:
    """Lookup and metering share one lock acquisition per access; a
    writer invalidating the index mid-flight must never make a reader
    see less data than an earlier access of theirs did, or lose a log
    record."""

    def test_readers_race_a_writer(self, source):
        import sys
        import threading

        readers, reads, writes = 8, 300, 60
        regressions, errors = [], []

        def read():
            seen = 0
            try:
                for _ in range(reads):
                    size = len(source.access("mt_key", ("a",)))
                    if size < seen:
                        regressions.append((seen, size))
                    seen = size
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        def write():
            for i in range(writes):
                source.instance.add("R", ("a", f"w{i}"))

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
        assert not errors and not regressions
        assert source.total_invocations == readers * reads
        assert len(source.access("mt_key", ("a",))) == 2 + writes


class TestMetering:
    def test_log_records_everything(self, source):
        source.access("mt_key", ("a",))
        source.access("mt_key", ("a",))
        source.access("mt_scan")
        assert source.total_invocations == 3
        assert source.invocations_of("mt_key") == 2
        record = source.log[0]
        assert record.method == "mt_key"
        assert record.results == 2

    def test_distinct_accesses_deduplicates(self, source):
        source.access("mt_key", ("a",))
        source.access("mt_key", ("a",))
        source.access("mt_key", ("b",))
        assert len(source.distinct_accesses()) == 2

    def test_charged_cost_uses_declared_weights(self, source):
        source.access("mt_key", ("a",))
        source.access("mt_scan")
        assert source.charged_cost() == pytest.approx(7.0)

    def test_charged_cost_with_override(self, source):
        source.access("mt_key", ("a",))
        assert source.charged_cost({"mt_key": 10.0}) == pytest.approx(10.0)

    def test_reset_log(self, source):
        source.access("mt_scan")
        source.reset_log()
        assert source.total_invocations == 0


class TestAccessRecord:
    """The log record is a named tuple; every reader's use of it holds."""

    def test_fields_by_name_and_keyword_construction(self, source):
        source.access("mt_key", ("a",))
        record = source.log[0]
        assert (record.method, record.relation) == ("mt_key", "R")
        assert record.inputs == (Constant("a"),)
        assert record.results == 2
        assert record == AccessRecord(
            method="mt_key",
            relation="R",
            inputs=(Constant("a"),),
            results=2,
        )
        assert record == AccessRecord("mt_key", "R", (Constant("a"),), 2)

    def test_hashable_and_immutable(self, source):
        source.access("mt_key", ("a",))
        source.access("mt_key", ("a",))
        source.access("mt_key", ("b",))
        assert len(set(source.log)) == 2
        with pytest.raises(AttributeError):
            source.log[0].results = 99
        with pytest.raises(AttributeError):
            source.log[0].extra = 1
        assert source.log[0].results == 2

    def test_a_charged_cache_hit_logs_the_sources_own_record(self, source):
        from repro.exec.cache import AccessCache

        cache = AccessCache(charge_hits=True)
        calls = [
            ("mt_key", (Constant("a"),)),
            ("mt_key", (Constant("zzz"),)),
            ("mt_scan", ()),
        ]
        for method, inputs in calls + calls:
            cache.fetch(source, method, inputs)
        assert (cache.hits, cache.misses) == (3, 3)
        by_the_source, by_the_cache = source.log[:3], source.log[3:]
        assert by_the_cache == by_the_source
        assert [type(record) for record in by_the_cache] == [AccessRecord] * 3

    def test_readers_of_the_log(self, source):
        source.access("mt_key", ("a",))
        source.access("mt_scan")
        assert source.log.fields() == tuple(
            field for record in source.log for field in record
        )
        assert source.distinct_accesses() == {
            ("mt_key", (Constant("a"),)),
            ("mt_scan", ()),
        }
        assert source.invocations_of("mt_scan") == 1
        assert source.charged_cost() == pytest.approx(7.0)
