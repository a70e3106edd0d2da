"""The incumbent bound: part of cost pruning, plan-preserving, counted.

With ``prune_by_cost`` the search closes any non-successful node whose
cost plus the cost model's admissible completion margin
(``min_access_charge``) reaches the incumbent.  No option switches that
half off alone, so the reference is a cost function with the same
prices and a margin of ``0.0``: under it the bound can only fire where
the child was already closed by cost, i.e. never.  The differential
pinned here is the whole point: the default search returns the
reference's plan and keeps the reference's tree, and what it no longer
expands is exactly what the reference closed one child at a time.
"""

import copy

import pytest

from repro.cost.functions import CountingCostFunction, SimpleCostFunction
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example5
from tests.cost.test_functions import FanInCost
from tests.planner.test_domination_delta import PROBLEMS

COSTS = {
    "declared": lambda schema: SimpleCostFunction.from_schema(schema),
    "cardinality": lambda schema: FanInCost.from_schema(schema),
    "counting": lambda schema: CountingCostFunction(),
}


def zero_margin(cost):
    """``cost`` with no completion margin: the same prices, so the same
    search but for the incumbent bound."""
    reference = copy.copy(cost)
    reference.min_access_charge = lambda: 0.0
    return reference


def run(scenario, *, cost=None, max_accesses=5, **options):
    return find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(
            max_accesses=max_accesses, cost=cost, collect_tree=True, **options
        ),
    )


def kept_tree(result):
    """The kept and domination-closed nodes in order, each named by its
    path of exposures (ids shift with the cost-closed children)."""
    path = {node.node_id: node.exposures for node in result.tree}
    return [
        (
            node.exposures,
            node.cost,
            node.successful,
            node.pruned == "domination",
            path.get(node.dominated_by),
        )
        for node in result.tree
        if node.pruned != "cost"
    ]


class TestDifferential:
    # Ids name the walk, as the golden keys do.
    @pytest.mark.parametrize("order", ["depth", "method"])
    @pytest.mark.parametrize("key", list(PROBLEMS))
    @pytest.mark.parametrize(
        "cost_name", [pytest.param(c, id=f"dfs-{c}") for c in sorted(COSTS)]
    )
    def test_pruning_never_changes_the_best_plan(self, cost_name, key, order):
        factory, budget = PROBLEMS[key]
        scenario = factory()
        cost = COSTS[cost_name](scenario.schema)
        options = dict(max_accesses=budget, candidate_order=order)
        reference = run(scenario, cost=zero_margin(cost), **options)
        default = run(scenario, cost=cost, **options)
        assert reference.stats.pruned_by_bound == 0

        assert default.best_cost == reference.best_cost
        assert default.best_proof == reference.best_proof
        assert repr(default.best_plan.commands) == repr(
            reference.best_plan.commands
        )
        assert default.exhausted == reference.exhausted
        assert kept_tree(default) == kept_tree(reference)
        ours, theirs = default.stats, reference.stats
        for counter in ("nodes_created", "pruned_by_domination",
                        "configs_copied", "successes"):
            assert getattr(ours, counter) == getattr(theirs, counter)
        assert ours.domination.hom_calls == theirs.domination.hom_calls
        for counter in ("rounds", "triggers_enumerated", "triggers_fired"):
            assert getattr(ours.chase, counter) == getattr(theirs.chase, counter)

        # What the default no longer expands is the candidate list of
        # each node it closed by bound, and the reference closed every
        # one of those children by cost or by depth.
        closed = {n.exposures for n in default.tree if n.pruned == "bound"}
        assert len(closed) == ours.pruned_by_bound
        assert not any(n.successful for n in default.tree if n.pruned)
        saved = 0
        by_id = {node.node_id: node for node in reference.tree}
        for node in reference.tree:
            if node.exposures in closed:
                assert node.pruned is None and not node.has_pending
                saved += len(node.candidates)
            elif node.parent_id is not None and (
                by_id[node.parent_id].exposures in closed
            ):
                assert node.pruned == "cost"
        assert theirs.nodes_expanded - ours.nodes_expanded == saved
        assert saved == (
            theirs.pruned_by_cost - ours.pruned_by_cost
            + theirs.pruned_by_depth - ours.pruned_by_depth
        )
        assert [n.exposures for n in default.tree if n.pruned == "cost"] == [
            n.exposures
            for n in reference.tree
            if n.pruned == "cost"
            and by_id[n.parent_id].exposures not in closed
        ]

    @pytest.mark.parametrize("key", ["example5[6]", "sweep:redundant4"])
    def test_no_cost_pruning_means_no_bound_either(self, key):
        factory, budget = PROBLEMS[key]
        result = run(factory(), max_accesses=budget, prune_by_cost=False)
        assert result.stats.pruned_by_bound == result.stats.pruned_by_cost == 0
        assert all(node.pruned != "bound" for node in result.tree)
        assert run(factory(), max_accesses=budget).stats.pruned_by_bound > 0


class TestPruningBites:
    def test_bound_pruning_shrinks_a_branchy_search(self):
        scenario = example5(6)
        cost = SimpleCostFunction.from_schema(scenario.schema)
        base = run(scenario, cost=zero_margin(cost))
        pruned = run(scenario)
        assert pruned.stats.pruned_by_bound > 0
        assert pruned.stats.nodes_expanded < base.stats.nodes_expanded
        assert pruned.best_cost == pytest.approx(base.best_cost)

    def test_pruned_counter_reported(self):
        stats = run(example5(6)).stats
        assert stats.as_dict()["pruned_by_bound"] == stats.pruned_by_bound
        assert f"bound={stats.pruned_by_bound}" in stats.summary()

    def test_pruned_nodes_marked_in_collected_tree(self):
        result = run(example5(6))
        marked = [n for n in result.tree if n.pruned == "bound"]
        assert len(marked) == result.stats.pruned_by_bound
        # A bound-pruned node is closed: it exposes no candidates.
        assert all(not n.has_pending for n in marked)

    def test_successful_nodes_are_never_bound_pruned(self):
        result = run(example5(6))
        assert all(n.pruned is None for n in result.tree if n.successful)

    def test_zero_margin_cost_degrades_to_plain_incumbent_check(self):
        # Every weight and the tuple charge 0: min_access_charge is 0,
        # so the bound could only fire at cost >= incumbent -- on a
        # child that cost pruning has already closed.
        cost = FanInCost({}, default=0.0, per_tuple=0.0)
        assert cost.min_access_charge() == 0.0
        result = run(example1(), cost=cost)
        assert result.found
        assert result.stats.pruned_by_bound == 0
