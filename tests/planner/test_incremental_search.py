"""Algorithm 1's one loop reproduces the recorded searches.

``SearchOptions`` selects no implementation of any step of the loop and
no walk but the paper's depth-first one, so what holds a change to the
loop equal to its parent is data: every search below is dumped -- every
node's id, parent, verdict, dominator, cost and full ranked candidate
list, the best plan, its proof and ``exhausted`` -- in
``golden/search_trees.json``, and the loop must reproduce the file
exactly.  ``python -m tests.planner.test_incremental_search`` rewrites
it, which is only right for a change that means to search a different
tree (the last one: the incumbent bound closes nodes by default, so
their cost-closed children are no longer recorded; EXPERIMENTS.md,
SEARCH-ORDER).
"""

import functools
import json
from pathlib import Path

import pytest

from repro.cost.functions import SimpleCostFunction
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example5
from tests.cost.test_functions import FanInCost
from tests.planner.test_domination_delta import PROBLEMS
from tests.planner.test_prune_before_chase import PLAN_COLD, SCENARIOS

GOLDEN_PATH = Path(__file__).parent / "golden" / "search_trees.json"

ORDERS = ("depth", "method")

# Golden key -> (problem, the options the search was recorded under).
RECORDED = {
    f"{problem}|dfs|{order}": (problem, dict(candidate_order=order))
    for problem in PROBLEMS
    for order in ORDERS
}
RECORDED["sweep:redundant4|nocostbound"] = (
    "sweep:redundant4",
    dict(prune_by_cost=False),
)


def search(key):
    problem, options = RECORDED[key]
    factory, budget = PROBLEMS[problem]
    scenario = factory()
    return find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(max_accesses=budget, collect_tree=True, **options),
    )


def dump(result):
    """What a search did, as JSON: the recorded tree node by node, then
    what it returned."""
    return {
        "nodes": [
            [
                node.node_id,
                node.parent_id,
                node.pruned,
                node.dominated_by,
                node.successful,
                node.cost,
                [
                    f"{fact!r}/{method.name}"
                    for _, fact, method in node.candidates
                ],
            ]
            for node in result.tree
        ],
        "best_cost": result.best_cost,
        "best_plan": repr(result.best_plan.commands),
        "best_proof": [
            f"{e.fact!r}/{e.method}" for e in result.best_proof.exposures
        ],
        "exhausted": result.exhausted,
    }


@functools.cache
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def assert_reproduces(key):
    assert dump(search(key)) == golden()[key], key


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestIncrementalEquivalence:
    def test_tree_candidates_and_costs_identical(self, name):
        assert_reproduces(f"sweep:{name}|dfs|depth")

    def test_incremental_costs_match_full_recompute(self, name):
        result = search(f"sweep:{name}|dfs|depth")
        cost = SimpleCostFunction.from_schema(SCENARIOS[name][0]().schema)
        for node in result.tree:
            assert node.cost == cost.commands_cost(node.state.commands)


# Ids name the walk, as the golden keys do.
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize(
    "key", [pytest.param(key, id=f"{key}-dfs") for key in PLAN_COLD]
)
def test_plan_cold_searches_match_the_recorded_trees(key, order):
    assert_reproduces(f"{key}|dfs|{order}")


class TestIncrementalWithKnobs:
    def test_method_candidate_order_equivalence(self):
        for name in sorted(SCENARIOS):
            assert_reproduces(f"sweep:{name}|dfs|method")

    def test_no_cost_bound_equivalence(self):
        assert_reproduces("sweep:redundant4|nocostbound")

    def test_cardinality_node_costs(self):
        scenario = example5()
        cost = FanInCost.from_schema(scenario.schema)
        result = find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(cost=cost, collect_tree=True),
        )
        assert result.found
        for node in result.tree:
            assert node.cost == cost.commands_cost(node.state.commands)

    def test_pending_view_consumes_via_cursor(self):
        scenario = example1()
        result = find_best_plan(
            scenario.schema, scenario.query, SearchOptions(collect_tree=True)
        )
        for node in result.tree:
            if node.pruned or node.successful:
                continue
            remaining = node.pending
            assert len(remaining) == len(node.candidates) - node.cursor


def test_the_golden_file_holds_exactly_the_recorded_searches():
    assert sorted(golden()) == sorted(RECORDED)
    assert len(RECORDED) == 43


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {key: dump(search(key)) for key in RECORDED},
            separators=(",", ":"),
        )
        + "\n"
    )
