"""Differential tests: independent code paths must agree.

* Algorithm 1's success (proof search with plan construction) vs the
  plain chase entailment check of `repro.fo.determinacy` (which fires
  accessibility axioms as ordinary chase rules, no plans involved):
  both decide "Q entails InferredAccQ over AcSch" and must agree
  whenever neither is budget-truncated.
* The view-rewriting verdict vs classical containment of the rewriting.
"""

import pytest

from repro.fo.determinacy import is_monotonically_determined
from repro.logic.queries import cq
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example2, example5, referential_chain
from repro.schema.core import SchemaBuilder


def _agree(schema, query, max_accesses=8):
    search = find_best_plan(
        schema, query, SearchOptions(max_accesses=max_accesses)
    )
    entailment = is_monotonically_determined(
        # The entailment chase runs the policy the search ran.
        schema, query, schema.chase_policy()
    )
    return search.found, entailment


class TestSearchVsChaseEntailment:
    @pytest.mark.parametrize(
        "factory",
        [example1, example2, lambda: example5(sources=2)],
    )
    def test_positive_scenarios_agree(self, factory):
        scenario = factory()
        found, entailed = _agree(scenario.schema, scenario.query)
        assert found and entailed

    def test_chain_scenarios_agree(self):
        for length in (1, 2, 3):
            scenario = referential_chain(length)
            found, entailed = _agree(scenario.schema, scenario.query)
            assert found and entailed

    def test_negative_cases_agree(self):
        hidden = SchemaBuilder("h").relation("H", 1).build()
        query = cq([], [("H", ["?x"])])
        found, entailed = _agree(hidden, query)
        assert not found and not entailed

    def test_uncovered_input_agree(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_r", "R", inputs=[1])
            .build()
        )
        query = cq([], [("R", ["?x", "?y"])])
        found, entailed = _agree(schema, query)
        assert not found and not entailed

    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_schemas_agree(self, seed):
        """Random small schemas over a fixed template family."""
        import random

        rng = random.Random(seed)
        builder = SchemaBuilder(f"d{seed}")
        builder.relation("A", 2).relation("B", 2).relation("C", 1)
        # Random access patterns.
        for name, rel, arity in (
            ("mA", "A", 2),
            ("mB", "B", 2),
            ("mC", "C", 1),
        ):
            inputs = sorted(
                rng.sample(range(arity), rng.randint(0, arity - 1))
            )
            builder.access(name, rel, inputs=inputs)
        # Random full referential constraints (weakly acyclic family).
        if rng.random() < 0.8:
            builder.tgd("A(x, y) -> B(x, y)")
        if rng.random() < 0.8:
            builder.tgd("B(x, y) -> C(y)")
        schema = builder.build()
        queries = [
            cq([], [("A", ["?x", "?y"])], name="qa"),
            cq([], [("B", ["?x", "?y"])], name="qb"),
            cq([], [("A", ["?x", "?y"]), ("C", ["?y"])], name="qac"),
        ]
        for query in queries:
            found, entailed = _agree(schema, query, max_accesses=5)
            assert found == entailed, (seed, query.name)


class TestViewVerdictVsContainment:
    def test_rewriting_always_equivalent_to_query_on_data(self):
        """For every rewritable case, evaluating the rewriting over view
        contents equals evaluating the query over the base -- across all
        generated instances (the semantic definition of a rewriting)."""
        from repro.planner.views import rewrite_over_views
        from repro.scenarios import view_stack_scenario

        for views in (1, 2, 3):
            scenario = view_stack_scenario(views)
            result = rewrite_over_views(scenario.schema, scenario.query)
            assert result.rewritable
            for seed in range(2):
                instance = scenario.instance(seed)
                assert instance.evaluate(
                    result.rewriting
                ) == instance.evaluate(scenario.query)
