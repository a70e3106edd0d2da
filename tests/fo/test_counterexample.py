"""Tests for determinacy counterexample extraction (Claim 1, negative).

The defining property is machine-checked: the two instances have equal
accessible parts, yet the boolean query distinguishes them -- a direct
semantic witness that no plan can exist.
"""

import pytest

from repro.data.accessible_part import accessible_part
from repro.fo.counterexample import determinacy_counterexample
from repro.logic.queries import QueryError, cq
from repro.schema.core import SchemaBuilder


class TestCounterexamples:
    def test_hidden_relation_counterexample(self):
        schema = SchemaBuilder("s").relation("H", 1).build()
        query = cq([], [("H", ["?x"])])
        pair = determinacy_counterexample(schema, query)
        assert pair is not None
        i1, i2 = pair
        # The semantic witness, verified end to end:
        assert accessible_part(schema, i1) == accessible_part(schema, i2)
        assert i1.evaluate(query)
        assert not i2.evaluate(query)

    def test_uncovered_input_counterexample(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_r", "R", inputs=[0])
            .build()
        )
        query = cq([], [("R", ["?x", "?y"])])
        pair = determinacy_counterexample(schema, query)
        assert pair is not None
        i1, i2 = pair
        assert accessible_part(schema, i1) == accessible_part(schema, i2)
        assert i1.evaluate(query) and not i2.evaluate(query)

    def test_counterexample_with_constraints(self):
        """The constraint forces Keys into both instances; the hidden
        part of R stays distinguishable only through R itself."""
        schema = (
            SchemaBuilder("s")
            .relation("Keys", 1)
            .relation("R", 2)
            .free_access("Keys")
            .access("mt_r", "R", inputs=[1])  # input side never exposed
            .tgd("R(x, y) -> Keys(x)")
            .build()
        )
        query = cq([], [("R", ["?x", "?y"])])
        pair = determinacy_counterexample(schema, query)
        assert pair is not None
        i1, i2 = pair
        assert accessible_part(schema, i1) == accessible_part(schema, i2)
        assert i1.evaluate(query) and not i2.evaluate(query)
        # Both satisfy the schema constraints (they are chase models).
        assert i1.satisfies_all(schema.constraints)
        assert i2.satisfies_all(schema.constraints)

    def test_determined_query_has_no_counterexample(self, uni_schema):
        query = cq([], [("Profinfo", ["?e", "?o", "?l"])])
        assert determinacy_counterexample(uni_schema, query) is None

    def test_free_relation_has_no_counterexample(self):
        schema = SchemaBuilder("s").relation("R", 1).free_access("R").build()
        query = cq([], [("R", ["?x"])])
        assert determinacy_counterexample(schema, query) is None

    def test_non_boolean_rejected(self, uni_schema):
        query = cq(["?e"], [("Udirect", ["?e", "?l"])])
        with pytest.raises(QueryError):
            determinacy_counterexample(uni_schema, query)

    def test_incomplete_chase_returns_none(self):
        from repro.chase.engine import ChasePolicy

        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_r", "R", inputs=[0])
            .tgd("R(x, y) -> R(y, z)")  # diverging
            .build()
        )
        query = cq([], [("R", ["?x", "?y"])])
        pair = determinacy_counterexample(
            schema, query, ChasePolicy(max_work=50)
        )
        assert pair is None  # budget-truncated: no certificate
