"""Tests for schema JSON (de)serialization."""

import json

import pytest

from repro.logic.dependencies import parse_tgd
from repro.logic.terms import Constant
from repro.scenarios import example1, example2
from repro.schema.serialize import (
    schema_fingerprint,
    schema_from_dict,
    schema_to_dict,
)


def roundtrip(schema):
    return schema_from_dict(json.loads(json.dumps(schema_to_dict(schema))))


class TestRoundtrip:
    @pytest.mark.parametrize("factory", [example1, example2])
    def test_structure_preserved(self, factory):
        schema = factory().schema
        restored = roundtrip(schema)
        assert restored.name == schema.name
        assert {r.name for r in restored.relations} == {
            r.name for r in schema.relations
        }
        assert {m.name for m in restored.methods} == {
            m.name for m in schema.methods
        }
        assert len(restored.constraints) == len(schema.constraints)

    def test_method_details_preserved(self):
        schema = example1().schema
        restored = roundtrip(schema)
        original = schema.method("mt_prof")
        copy = restored.method("mt_prof")
        assert copy.input_positions == original.input_positions
        assert copy.cost == original.cost

    def test_constants_preserved(self):
        restored = roundtrip(example1().schema)
        assert [c.value for c in restored.constants] == ["smith"]

    def test_constraints_semantically_identical(self):
        schema = example2().schema
        restored = roundtrip(schema)
        for original, copy in zip(schema.constraints, restored.constraints):
            assert [a.relation for a in original.body] == [
                a.relation for a in copy.body
            ]
            assert [a.relation for a in original.head] == [
                a.relation for a in copy.head
            ]
            # Join structure preserved: same variable-position pattern.
            assert original.frontier() == copy.frontier() or len(
                original.frontier()
            ) == len(copy.frontier())

    def test_planning_equivalent_after_roundtrip(self):
        """The restored schema plans the same query with the same cost."""
        from repro.planner.search import find_best_plan

        scenario = example1()
        restored = roundtrip(scenario.schema)
        original = find_best_plan(scenario.schema, scenario.query)
        copied = find_best_plan(restored, scenario.query)
        assert original.best_cost == copied.best_cost
        assert (
            original.best_plan.methods_used()
            == copied.best_plan.methods_used()
        )

    def test_constraint_with_constant_serializes(self):
        from repro.schema.core import SchemaBuilder

        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .relation("S", 1)
            .tgd("R(x, 'tag') -> S(x)")
            .build()
        )
        restored = roundtrip(schema)
        body_atom = restored.constraints[0].body[0]
        assert body_atom.terms[1].value == "tag"


class TestFingerprintMemo:
    """``Schema.fingerprint()`` hashes once; a late assignment drops the
    memo.  ``Schema.chase_policy()`` is kept the same way."""

    def test_serialised_once_per_schema(self, monkeypatch):
        import repro.schema.serialize as serialize

        calls = []
        real = serialize.schema_to_dict

        def counting(schema):
            calls.append(schema)
            return real(schema)

        monkeypatch.setattr(serialize, "schema_to_dict", counting)
        schema = example1().schema
        first = schema.fingerprint()
        assert [schema.fingerprint() for _ in range(5)] == [first] * 5
        assert len(calls) == 1
        assert first == serialize.schema_fingerprint(schema)

    @pytest.mark.parametrize(
        "attribute,value",
        [
            ("name", "renamed"),
            ("constants", (Constant("late"),)),
            ("constraints", ()),
        ],
    )
    def test_assignment_drops_the_memo(self, attribute, value):
        schema = example2().schema
        before = schema.fingerprint()
        setattr(schema, attribute, value)
        after = schema.fingerprint()
        assert after != before
        assert after == schema_fingerprint(schema)
        assert after == roundtrip(schema).fingerprint()

    def test_without_methods_has_its_own_digest(self):
        schema = example1().schema
        whole = schema.fingerprint()
        dropped = schema.without_methods([schema.methods[0].name])
        assert dropped.fingerprint() != whole
        assert dropped.fingerprint() == schema_fingerprint(dropped)
        assert schema.fingerprint() == whole

    def test_chase_policy_is_kept_until_the_constraints_change(self):
        schema = example1().schema
        first = schema.chase_policy()
        assert first.blocking is None and first.max_depth is None
        assert schema.chase_policy() is first
        schema.name = "renamed"
        assert schema.chase_policy() is first
        # The classic diverging ID: guarded, not weakly acyclic.
        schema.constraints = (parse_tgd("Udirect(x, y) -> Udirect(y, z)"),)
        blocked = schema.chase_policy()
        assert blocked.blocking is not None
        assert schema.chase_policy() is blocked
