"""A1 ablations: what each optimization of Section 5 buys.

Four configurations of Algorithm 1 on the 4-source scenario:

* full         -- cost-bound + domination pruning (the paper's setup),
* no-domination,
* no-cost-bound,
* none         -- exhaustive search of the bounded proof space.

Every configuration must report the same best cost (Theorem 9); the
interesting series is nodes explored and wall time.
"""

import pytest

from benchmarks.conftest import record
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import redundant_sources

K = 4
CONFIGS = {
    "full": {},
    "no-domination": {"domination": False},
    "no-cost-bound": {"prune_by_cost": False},
    "none": {"domination": False, "prune_by_cost": False},
}


@pytest.mark.parametrize("config", list(CONFIGS))
def test_pruning_ablation(benchmark, config):
    scenario = redundant_sources(K)
    overrides = CONFIGS[config]

    def plan():
        return find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(max_accesses=K + 1, **overrides),
        )

    result = benchmark(plan)
    assert result.best_cost == pytest.approx(6.0)
    record(
        benchmark,
        nodes=result.stats.nodes_created,
        expanded=result.stats.nodes_expanded,
        pruned_cost=result.stats.pruned_by_cost,
        pruned_domination=result.stats.pruned_by_domination,
    )


def test_pruning_node_reduction():
    """Non-timed shape check: full pruning explores strictly fewer nodes."""
    scenario = redundant_sources(K)
    counts = {}
    for config, overrides in CONFIGS.items():
        result = find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(max_accesses=K + 1, **overrides),
        )
        counts[config] = result.stats.nodes_created
    assert counts["full"] <= counts["no-domination"]
    assert counts["full"] <= counts["no-cost-bound"]
    assert counts["full"] < counts["none"]
