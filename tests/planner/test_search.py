"""Tests for Algorithm 1: correctness, optimality, pruning, ordering."""

import itertools

import pytest

from repro.cost.functions import CountingCostFunction, SimpleCostFunction
from repro.data.source import InMemorySource
from repro.logic.queries import cq
from repro.planner.search import (
    SearchOptions,
    find_any_plan,
    find_best_plan,
)
from repro.scenarios import example1, example2, example5, referential_chain
from repro.schema.core import SchemaBuilder


class TestBasicSearch:
    def test_example1_two_access_plan(self, uni_schema, uni_boolean_query):
        result = find_best_plan(uni_schema, uni_boolean_query)
        assert result.found
        assert result.best_plan.methods_used() == ("mt_udir", "mt_prof")
        assert result.best_cost == pytest.approx(3.0)  # 1 + 2

    def test_unanswerable_query(self):
        schema = (
            SchemaBuilder("s")
            .relation("Hidden", 1)
            .build()
        )
        query = cq([], [("Hidden", ["?x"])])
        result = find_best_plan(schema, query)
        assert not result.found

    def test_free_relation_directly_answerable(self):
        schema = SchemaBuilder("s").relation("R", 1).free_access("R").build()
        query = cq(["?x"], [("R", ["?x"])])
        result = find_best_plan(schema, query)
        assert result.found
        assert len(result.best_plan.access_commands) == 1

    def test_access_restriction_blocks_plan(self):
        # R needs an input that can never become accessible.
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_r", "R", inputs=[0])
            .build()
        )
        query = cq([], [("R", ["?x", "?y"])])
        assert not find_best_plan(schema, query).found

    def test_schema_constant_enables_access(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_r", "R", inputs=[0])
            .constant("k")
            .build()
        )
        # The constant in the query makes the input accessible.
        query = cq(["?y"], [("R", ["k", "?y"])])
        result = find_best_plan(schema, query)
        assert result.found

    def test_example2_chain(self, scenario2):
        result = find_best_plan(
            scenario2.schema, scenario2.query, SearchOptions(max_accesses=5)
        )
        assert result.found
        methods = result.best_plan.methods_used()
        assert methods.index("mt_d1") > methods.index("mt_ids")
        assert methods.index("mt_d2") > methods.index("mt_d1")


class TestOptimality:
    def test_example5_picks_cheapest_source(self):
        scenario = example5(
            sources=3, source_costs=[4.0, 1.0, 9.0], profinfo_cost=5.0
        )
        result = find_best_plan(
            scenario.schema, scenario.query, SearchOptions(max_accesses=4)
        )
        assert result.found
        # Best plan: cheapest source (Udirect2 at 1.0) + Profinfo.
        assert result.best_cost == pytest.approx(6.0)
        assert "mt_udirect2" in result.best_plan.methods_used()

    def test_matches_bruteforce_over_orderings(self):
        """Theorem 9 spot check: Algorithm 1's best equals the brute-force
        minimum over all source subsets for Example 5 with 3 sources."""
        costs = [3.0, 2.0, 7.0]
        prof = 4.0
        scenario = example5(
            sources=3, source_costs=costs, profinfo_cost=prof
        )
        result = find_best_plan(
            scenario.schema, scenario.query, SearchOptions(max_accesses=4)
        )
        # Any valid plan exposes a non-empty subset of sources then
        # Profinfo; its simple cost is sum(subset) + prof.
        brute = min(
            sum(subset) + prof
            for r in range(1, 4)
            for subset in itertools.combinations(costs, r)
        )
        assert result.best_cost == pytest.approx(brute)

    def test_depth_bound_excludes_long_plans(self, scenario2):
        narrow = find_best_plan(
            scenario2.schema, scenario2.query, SearchOptions(max_accesses=2)
        )
        assert not narrow.found  # the chain needs 4 accesses

    def test_best_cost_history_monotone(self):
        scenario = example5(sources=3)
        result = find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(max_accesses=4, candidate_order="method"),
        )
        history = result.stats.best_cost_history
        assert history == sorted(history, reverse=True)
        assert result.best_cost == history[-1]


class TestPruning:
    def _run(self, **overrides):
        scenario = example5(sources=4)
        options = SearchOptions(max_accesses=5, **overrides)
        return find_best_plan(scenario.schema, scenario.query, options)

    def test_pruning_preserves_best_cost(self):
        full = self._run()
        no_dom = self._run(domination=False)
        no_cost = self._run(prune_by_cost=False)
        bare = self._run(domination=False, prune_by_cost=False)
        assert (
            full.best_cost
            == no_dom.best_cost
            == no_cost.best_cost
            == bare.best_cost
        )

    def test_domination_reduces_nodes(self):
        with_dom = self._run(prune_by_cost=False)
        without = self._run(domination=False, prune_by_cost=False)
        assert (
            with_dom.stats.nodes_created < without.stats.nodes_created
        )
        assert with_dom.stats.pruned_by_domination > 0

    def test_cost_pruning_counts(self):
        result = self._run(domination=False)
        assert result.stats.pruned_by_cost > 0


@pytest.mark.parametrize(
    "bad, error",
    [
        (dict(candidate_order="bogus"), ValueError),
        (dict(candidate_order="Depth"), ValueError),
        (dict(max_accesses=-1), ValueError),
        # Not a field any more: there is one walk.
        (dict(strategy="bfs"), TypeError),
    ],
)
def test_option_values_nothing_reads_are_rejected(bad, error):
    with pytest.raises(error):
        SearchOptions(**bad)


class TestStrategies:
    def test_stop_on_first(self):
        scenario = example5(sources=3)
        result = find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(max_accesses=4, stop_on_first=True),
        )
        assert result.found
        assert result.stats.successes == 1
        # The walk was cut short: no certificate.
        assert not result.exhausted

    def test_find_any_plan_wrapper(self, uni_schema, uni_boolean_query):
        result = find_any_plan(uni_schema, uni_boolean_query)
        assert result.found

    def test_custom_cost_function(self, uni_schema, uni_boolean_query):
        result = find_best_plan(
            uni_schema,
            uni_boolean_query,
            SearchOptions(cost=CountingCostFunction()),
        )
        assert result.best_cost == pytest.approx(2.0)

    def test_collect_tree_includes_pruned(self):
        scenario = example5(sources=3)
        result = find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(max_accesses=4, collect_tree=True),
        )
        assert any(node.pruned for node in result.tree)
        assert any(node.successful for node in result.tree)

    def test_stats_the_end_to_end_tracer_reads(self):
        """``benchmarks/e2e/tracing.py`` is frozen and reads these by
        name for its ``planner.*``, ``chase.*`` and ``cost.*`` metrics;
        a search that dominates and prices nodes must fill them."""
        scenario = example5(sources=3)
        stats = find_best_plan(
            scenario.schema, scenario.query, SearchOptions(max_accesses=4)
        ).stats
        assert stats.domination.hom_calls == stats.pruned_by_domination > 0
        assert stats.domination.time_seconds > 0
        assert stats.time_cost > 0
        assert stats.chase.time_search + stats.chase.time_fire > 0
        assert stats.chase.rounds > 0
        assert stats.chase.triggers_enumerated >= stats.chase.triggers_fired
        assert stats.nodes_expanded > stats.nodes_created > 0
        assert stats.pruned_by_cost > 0


class TestFigure1:
    def test_exploration_order_matches_paper(self):
        """Figure 1: n0 -> n1(U1) -> n2(U2) -> n3(U3) -> n4(Profinfo)."""
        scenario = example5(
            sources=3, source_costs=[1.0, 2.0, 3.0], profinfo_cost=5.0
        )
        result = find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(
                max_accesses=4,
                collect_tree=True,
                candidate_order="method",
            ),
        )
        first_five = result.tree[:5]
        relations = [
            node.exposures[-1].fact.relation if node.exposures else "root"
            for node in first_five
        ]
        assert relations == [
            "root",
            "Udirect1",
            "Udirect2",
            "Udirect3",
            "Profinfo",
        ]
        assert first_five[4].successful

    def test_reverse_order_node_dominated(self):
        """The paper's n''' (expose U2 then U1) is pruned by domination."""
        scenario = example5(sources=3)
        result = find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(
                max_accesses=4,
                collect_tree=True,
                candidate_order="method",
            ),
        )
        dominated = [
            node for node in result.tree if node.pruned == "domination"
        ]
        assert dominated
        # At least one dominated node is a permutation of an explored set.
        explored_sets = {
            frozenset(e.fact.relation for e in node.exposures)
            for node in result.tree
            if node.pruned is None
        }
        assert any(
            frozenset(e.fact.relation for e in node.exposures)
            in explored_sets
            for node in dominated
        )
