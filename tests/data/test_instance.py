"""Unit tests for instances: storage, evaluation, constraint checks."""

import json

import pytest

from repro.data.instance import Instance, InstanceError
from repro.data.source import InMemorySource
from repro.logic.atoms import Atom
from repro.logic.dependencies import parse_tgd
from repro.logic.queries import cq
from repro.logic.terms import Constant, Variable
from repro.scenarios import example5
from repro.schema.core import SchemaBuilder
from repro.service.workers import source_to_spec, spec_to_source


class TestStorage:
    def test_add_and_tuples(self):
        instance = Instance()
        assert instance.add("R", ("a", 1))
        assert not instance.add("R", ("a", 1))  # dedup
        assert instance.tuples("R") == {(Constant("a"), Constant(1))}

    def test_add_fact(self):
        instance = Instance()
        instance.add_fact(Atom("R", (Constant("a"),)))
        assert instance.size("R") == 1

    def test_add_fact_rejects_variables(self):
        with pytest.raises(InstanceError):
            Instance().add_fact(Atom("R", (Variable("x"),)))

    def test_bad_value_rejected(self):
        with pytest.raises(InstanceError):
            Instance().add("R", (object(),))

    def test_size_total_and_per_relation(self):
        instance = Instance({"R": [("a",)], "S": [("b",), ("c",)]})
        assert instance.size() == 3
        assert instance.size("S") == 2
        assert instance.size("T") == 0

    def test_domain(self):
        instance = Instance({"R": [("a", "b")], "S": [("b",)]})
        assert instance.domain() == {Constant("a"), Constant("b")}

    def test_copy_independent(self):
        instance = Instance({"R": [("a",)]})
        clone = instance.copy()
        clone.add("R", ("b",))
        assert instance.size() == 1

    def test_equality_ignores_empty_relations(self):
        a = Instance({"R": [("x",)], "S": []})
        b = Instance({"R": [("x",)]})
        assert a == b


def _cells(instance):
    return [cell for r in instance.relations() for row in instance.tuples(r)
            for cell in row]


class TestSharedCells:
    """One ``Constant`` object per ``(type(value), value)`` per instance."""

    def test_equal_cells_are_one_object_across_rows_and_relations(self):
        instance = Instance(
            {"R": [("a", "b"), ("b", "a")], "S": [("a",), (Constant("b"),)]}
        )
        by_value = {}
        for cell in _cells(instance):
            assert by_value.setdefault(cell.value, cell) is cell
        assert set(by_value) == {"a", "b"}

    def test_shared_after_copy_and_a_later_add(self):
        instance = Instance({"R": [("a",)]})
        (a,), = instance.tuples("R")
        clone = instance.copy()
        clone.add("S", ("a", "new"))
        (row,) = clone.tuples("S")
        assert row[0] is a
        instance.add("T", ("a",))
        assert next(iter(instance.tuples("T")))[0] is a
        # The clone's new cells are its own.
        assert all(c.value != "new" for c in _cells(instance))

    def test_equal_numbers_of_three_types_stay_three_constants(self):
        instance = Instance({"I": [(1,)], "F": [(1.0,)], "B": [(True,)]})
        cells = {r: next(iter(instance.tuples(r)))[0] for r in "IFB"}
        assert [type(cells[r].value) for r in "IFB"] == [int, float, bool]
        assert [repr(cells[r]) for r in "IFB"] == ["1", "1.0", "True"]
        assert cells["I"] is not cells["F"] and cells["F"] is not cells["B"]
        assert instance.to_dict() == {"B": [[True]], "F": [[1.0]], "I": [[1]]}
        for r in "IFB":
            instance.add(r + "2", (cells[r].value, "x"))
            assert next(iter(instance.tuples(r + "2")))[0] is cells[r]

    def test_two_nan_objects_stay_two_constants(self):
        nan, other = float("nan"), float("nan")
        instance = Instance({"R": [(nan,), (other,)], "S": [(nan,)]})
        assert instance.size("R") == 2
        (s,), = instance.tuples("S")
        assert s.value is nan
        assert [c for c in _cells(instance) if c.value is nan] == [s, s]

    def test_signed_zeros_keep_their_sign_through_to_dict(self):
        instance = Instance({"R": [(-0.0, "a"), (0.0, "b")], "S": [(0.0,)]})
        dumped = instance.to_dict()
        assert json.dumps(dumped) == (
            '{"R": [[-0.0, "a"], [0.0, "b"]], "S": [[0.0]]}'
        )
        rebuilt = Instance.from_dict(json.loads(json.dumps(dumped)))
        assert json.dumps(rebuilt.to_dict()) == json.dumps(dumped)
        (s,), = instance.tuples("S")
        (pos,) = [r[0] for r in instance.tuples("R") if r[1].value == "b"]
        assert pos is s  # zeros of one sign are still one cell

    def test_a_refused_row_adds_no_cell(self):
        instance = Instance({"R": [(1,)]})
        assert not instance.add("R", (1.0,))  # equal row: a duplicate
        with pytest.raises(InstanceError):
            instance.add("R", ("fresh", object()))
        assert len(instance._cells) == 1

    def test_memory_source_answers_with_the_instances_own_cells(self):
        schema = (
            SchemaBuilder("s").relation("R", 2).relation("S", 2)
            .access("mR", "R", inputs=[]).access("mS", "S", inputs=[0])
            .build()
        )
        instance = Instance(
            {"R": [("a", "b"), ("c", "b")], "S": [("b", "d"), ("d", "a")]}
        )
        own = {id(cell) for cell in _cells(instance)}
        source = InMemorySource(schema, instance)
        answers = list(source.access("mR"))
        for _, b in answers:
            answers.extend(source.access("mS", (b,)))
        assert answers and all(id(c) in own for row in answers for c in row)

    def test_a_worker_spec_round_trip_rebuilds_a_sharing_instance(self):
        scenario = example5(3)
        shipped = InMemorySource(scenario.schema, scenario.instance(0))
        rebuilt = spec_to_source(json.loads(json.dumps(source_to_spec(shipped))))
        assert rebuilt.instance == shipped.instance
        by_key = {}
        for cell in _cells(rebuilt.instance):
            key = (type(cell.value), cell.value)
            assert by_key.setdefault(key, cell) is cell
        assert len(by_key) < len(_cells(rebuilt.instance))


class TestEvaluation:
    def test_evaluate_cq(self):
        instance = Instance({"R": [("a", "b"), ("c", "b")]})
        result = instance.evaluate(cq(["?x"], [("R", ["?x", "b"])]))
        assert result == {(Constant("a"),), (Constant("c"),)}

    def test_fact_index_cache_invalidated_on_add(self):
        instance = Instance({"R": [("a",)]})
        query = cq([], [("R", ["?x"])])
        assert instance.evaluate(query)
        instance.add("S", ("b",))
        assert instance.evaluate(cq([], [("S", ["?x"])]))


class TestAccessIndex:
    """``access_index``: the rows by their cells at input positions."""

    def data(self):
        return Instance(
            {"R": [("a", "1"), ("a", "2"), ("b", "3")], "S": [("a",)]}
        )

    def spy_builds(self, instance, monkeypatch, write=None):
        """Record each index build; ``write`` runs once, mid-build."""
        builds = []
        real = instance.rows

        def rows(relation):
            builds.append(relation)
            snapshot = real(relation)
            if write is not None and len(builds) == 1:
                instance.add(*write)
            return snapshot

        monkeypatch.setattr(instance, "rows", rows)
        return builds

    def test_buckets_by_the_cells_at_the_positions(self):
        instance = self.data()
        a, one = Constant("a"), Constant("1")
        by_first = instance.access_index("R", (0,))
        assert by_first[(a,)] == {(a, one), (a, Constant("2"))}
        assert isinstance(by_first[(a,)], frozenset)
        assert instance.access_index("R", (1, 0))[(one, a)] == {(a, one)}
        assert instance.access_index("R", ())[()] == instance.tuples("R")
        assert instance.access_index("nothing", (0,)) == {}

    def test_a_write_between_the_stamp_read_and_the_install_is_seen_next(
        self, monkeypatch
    ):
        instance = self.data()
        builds = self.spy_builds(instance, monkeypatch, ("R", ("a", "late")))
        key = (Constant("a"),)
        # The write landed after the snapshot: this build lacks it ...
        assert len(instance.access_index("R", (0,))[key]) == 2
        # ... and its stamp predates it, so the next call rebuilds.
        assert len(instance.access_index("R", (0,))[key]) == 3
        assert builds == ["R", "R"]
        instance.access_index("R", (0,))
        assert builds == ["R", "R"]

    def test_a_write_to_another_relation_keeps_the_index(self, monkeypatch):
        instance = self.data()
        index = instance.access_index("R", (0,))
        builds = self.spy_builds(instance, monkeypatch)
        instance.add("S", ("b",))
        assert instance.access_index("R", (0,)) is index
        instance.add("R", ("c", "4"))
        assert instance.access_index("R", (0,)) is not index
        assert builds == ["R"]

    def test_concurrent_first_calls_build_one_index(self, monkeypatch):
        import sys
        import threading

        instance = Instance({"R": [(f"k{i}", f"v{i}") for i in range(2000)]})
        builds = self.spy_builds(instance, monkeypatch)
        barrier = threading.Barrier(8)
        got, errors = [], []

        def first_call():
            try:
                barrier.wait(timeout=30)
                got.append(instance.access_index("R", (0,)))
            except Exception as error:  # surfaced by the assert below
                errors.append(error)

        threads = [threading.Thread(target=first_call) for _ in range(8)]
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
        assert builds == ["R"]
        assert len(got) == 8 and all(index is got[0] for index in got)

    def test_add_takes_no_lock(self):
        class Untouchable:
            def __enter__(self):
                raise AssertionError("add took the build lock")

            acquire = __enter__

        instance = self.data()
        instance.access_index("R", (0,))
        instance._build_lock = Untouchable()
        assert instance.add("R", ("d", "5"))
        assert not instance.add("R", ("d", "5"))


class TestConstraints:
    def test_satisfies_full_tgd(self):
        tgd = parse_tgd("R(x) -> S(x)")
        good = Instance({"R": [("a",)], "S": [("a",)]})
        bad = Instance({"R": [("a",)]})
        assert good.satisfies(tgd)
        assert not bad.satisfies(tgd)

    def test_satisfies_existential_tgd_any_witness(self):
        tgd = parse_tgd("R(x) -> S(x, y)")
        good = Instance({"R": [("a",)], "S": [("a", "w")]})
        assert good.satisfies(tgd)

    def test_violations_listed(self):
        tgds = [parse_tgd("R(x) -> S(x)"), parse_tgd("S(x) -> R(x)")]
        instance = Instance({"R": [("a",)]})
        violated = instance.violations(tgds)
        assert len(violated) == 1
        assert violated[0].name == "R=>S"

    def test_satisfies_all(self):
        tgds = [parse_tgd("R(x) -> S(x)")]
        assert Instance({"S": [("a",)]}).satisfies_all(tgds)
