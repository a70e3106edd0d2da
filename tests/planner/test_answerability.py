"""Tests for the plan-existence wrapper and the chase policy a schema
chooses for it."""

import pytest

from repro.logic.queries import cq
from repro.planner.answerability import answerability_witness, is_answerable
from repro.schema.core import SchemaBuilder


class TestIsAnswerable:
    def test_example1_answerable(self, uni_schema, uni_boolean_query):
        assert is_answerable(uni_schema, uni_boolean_query)

    def test_hidden_relation_unanswerable(self):
        schema = SchemaBuilder("s").relation("H", 1).build()
        assert not is_answerable(schema, cq([], [("H", ["?x"])]))

    def test_witness_contains_plan_and_proof(
        self, uni_schema, uni_boolean_query
    ):
        result = answerability_witness(uni_schema, uni_boolean_query)
        assert result.found
        assert result.best_plan is not None
        assert result.best_proof is not None

    def test_budget_too_small_says_no(self, scenario2):
        assert not is_answerable(
            scenario2.schema, scenario2.query, max_accesses=2
        )
        assert is_answerable(
            scenario2.schema, scenario2.query, max_accesses=5
        )

    def test_cyclic_guarded_constraints_terminate(self):
        """A cyclic ID set: naive chase diverges, blocking terminates."""
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_r", "R", inputs=[0])
            .tgd("R(x, y) -> R(y, z)")
            .build()
        )
        query = cq([], [("R", ["?x", "?y"])])
        # No way to seed the first input: unanswerable, and the check
        # must return (not hang) thanks to blocking.
        assert not is_answerable(schema, query, max_accesses=3)


class TestDefaultPolicy:
    def test_guarded_schema_gets_blocking(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .tgd("R(x, y) -> R(y, z)")
            .build()
        )
        assert schema.chase_policy().blocking is not None

    def test_weakly_acyclic_unguarded_gets_plain_policy(self):
        # Unguarded but weakly acyclic (full TGD): chase terminates, so
        # neither blocking nor a depth bound is needed.
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .relation("S", 2)
            .tgd("R(x, y) & S(y, z) -> R(x, z)")
            .build()
        )
        policy = schema.chase_policy()
        assert policy.blocking is None
        assert policy.max_depth is None

    def test_unguarded_non_wa_schema_gets_depth_bound(self):
        schema = (
            SchemaBuilder("s")
            .relation("E", 2)
            .tgd("E(x, y) & E(y, z) -> E(x, w)")  # unguarded, existential
            .tgd("E(x, y) -> E(y, x)")            # closes the cycle
            .build()
        )
        policy = schema.chase_policy()
        assert policy.blocking is None
        assert policy.max_depth is not None
