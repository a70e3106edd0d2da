"""Tests for the three-valued answerability decision with certificates."""

import pytest

from repro.logic.queries import cq
from repro.planner.answerability import Answerability, decide_answerability
from repro.schema.core import SchemaBuilder


class TestAnswerable:
    def test_positive_case(self, uni_schema, uni_boolean_query):
        verdict = decide_answerability(uni_schema, uni_boolean_query)
        assert verdict is Answerability.ANSWERABLE


class TestCertifiedNegative:
    def test_hidden_relation(self):
        schema = SchemaBuilder("s").relation("H", 1).build()
        verdict = decide_answerability(schema, cq([], [("H", ["?x"])]))
        assert verdict is Answerability.NO_PLAN_WITHIN_BUDGET

    def test_uncovered_input_position(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_r", "R", inputs=[0])
            .build()
        )
        verdict = decide_answerability(schema, cq([], [("R", ["?x", "?y"])]))
        assert verdict is Answerability.NO_PLAN_WITHIN_BUDGET

    def test_budget_certificate_is_budget_relative(self, scenario2):
        """Example 2 needs 4 accesses: certified-no at 2, answerable at 5."""
        narrow = decide_answerability(
            scenario2.schema, scenario2.query, max_accesses=2
        )
        wide = decide_answerability(
            scenario2.schema, scenario2.query, max_accesses=5
        )
        assert narrow is Answerability.NO_PLAN_WITHIN_BUDGET
        assert wide is Answerability.ANSWERABLE


class TestUnknown:
    def test_truncated_saturation_yields_unknown(self):
        """A diverging unguarded saturation under a depth cap: the
        negative answer cannot be certified."""
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .relation("S", 2)
            .access("mt_r", "R", inputs=[0])
            # Unguarded, diverging: R and S feed each other with joins.
            .tgd("R(x, y) & S(y, z) -> S(x, z)")
            .tgd("S(x, y) -> R(x, w)")
            .tgd("R(x, y) -> S(y, z)")
            .build()
        )
        query = cq([], [("R", ["?x", "?y"])])
        # Neither weakly acyclic nor guarded: the schema caps the depth.
        assert schema.chase_policy().max_depth is not None
        verdict = decide_answerability(schema, query, max_accesses=2)
        assert verdict in (
            Answerability.UNKNOWN,
            Answerability.NO_PLAN_WITHIN_BUDGET,
        )
        # Depth truncation happens, so it must NOT claim a certificate.
        assert verdict is Answerability.UNKNOWN


class TestExhaustedFlag:
    def test_exhausted_true_on_full_exploration(self, uni_schema):
        from repro.planner.search import SearchOptions, find_best_plan

        query = cq([], [("Udirect", ["?e", "?l"])])
        result = find_best_plan(
            uni_schema, query, SearchOptions(max_accesses=3)
        )
        assert result.exhausted
