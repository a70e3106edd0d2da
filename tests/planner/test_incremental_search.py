"""Algorithm 1's one loop reproduces the searches recorded before it was
the only one.

Until PR 18 ``SearchOptions`` selected between two implementations of
each step of the loop (domination registry, candidate generation,
costing, configuration forks).  Before the alternatives were deleted,
every search below was dumped at the parent commit -- every node's id,
parent, verdict, dominator, cost and full ranked candidate list, the
best plan, its proof and ``exhausted`` -- into
``golden/search_trees.json``; the loop that is left must reproduce the
file exactly.  ``python -m tests.planner.test_incremental_search``
rewrites it, which is only right for a change that means to search a
different tree.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.cost.functions import CardinalityCostFunction, SimpleCostFunction
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example5
from tests.planner.test_domination_delta import PROBLEMS
from tests.planner.test_prune_before_chase import PLAN_COLD, SCENARIOS

GOLDEN_PATH = Path(__file__).parent / "golden" / "search_trees.json"

STRATEGIES = ("dfs", "best-first")
ORDERS = ("depth", "method")

# Golden key -> (problem, the options the search was recorded under).
RECORDED = {
    f"{problem}|{strategy}|{order}": (
        problem,
        dict(strategy=strategy, candidate_order=order),
    )
    for problem in PROBLEMS
    for strategy in STRATEGIES
    for order in ORDERS
}
RECORDED["sweep:redundant4|beam2"] = ("sweep:redundant4", dict(beam_width=2))
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

    def test_best_first_equivalence(self, name):
        for order in ORDERS:
            assert_reproduces(f"sweep:{name}|best-first|{order}")

    def test_incremental_costs_match_full_recompute(self, name):
        result = search(f"sweep:{name}|dfs|depth")
        cost = SimpleCostFunction.from_schema(SCENARIOS[name][0]().schema)
        for node in result.tree:
            assert node.cost == cost.commands_cost(node.state.commands)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("key", list(PLAN_COLD))
def test_plan_cold_searches_match_the_recorded_trees(key, strategy, order):
    assert_reproduces(f"{key}|{strategy}|{order}")


class TestIncrementalWithKnobs:
    def test_beam_width_equivalence(self):
        assert_reproduces("sweep:redundant4|beam2")
        # A beam forfeits the certificate.
        assert not golden()["sweep:redundant4|beam2"]["exhausted"]

    def test_method_candidate_order_equivalence(self):
        for name in sorted(SCENARIOS):
            assert_reproduces(f"sweep:{name}|dfs|method")

    def test_no_cost_bound_equivalence(self):
        assert_reproduces("sweep:redundant4|nocostbound")

    def test_cardinality_node_costs(self):
        scenario = example5()
        cost = CardinalityCostFunction(
            relation_cardinality={"mt_prof": 40}, per_tuple=0.05
        )
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


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {key: dump(search(key)) for key in RECORDED},
            separators=(",", ":"),
        )
        + "\n"
    )
