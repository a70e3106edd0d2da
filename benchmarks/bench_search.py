"""SEARCH: Algorithm 1's hot loop, one series.

Two families, chosen for where a search spends its time:

* ``example5[k]`` (k redundant sources) -- many small nodes, most closed
  by the cost bound; what is left is forking, ranking and pricing;
* ``views[k]`` (k interchangeable views) -- few kept nodes and a
  domination check per expansion against all of them: the family where
  domination time lives (``plan_cold``'s p95 is ``views[32]``).

Two surfaces: a pytest-benchmark series (``pytest
benchmarks/bench_search.py``) and a standalone runner (``python
benchmarks/bench_search.py``) that writes ``BENCH_search.json``
(rendered by ``report.py --search-json``): wall time plus
``SearchStats.as_dict()`` per point, the aggregated chase counters
nested under ``"chase"``.  CI compares the smoke run's tree and chase counts with the
committed file's; ``views[64]`` is recorded for its wall time only
(``plan_cold``'s p95 is ``views[32]``, this is the next doubling) and
nothing floors it.
"""

import argparse
import json
import sys
import time

import pytest

from benchmarks.conftest import record
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import redundant_sources, view_stack_scenario

# family -> (scenario factory of k, access budget of k)
FAMILIES = {
    "example5": (redundant_sources, lambda k: k + 1),
    "views": (view_stack_scenario, lambda k: 6),
}
FULL = [("example5", k) for k in (4, 5, 6)] + [
    ("views", k) for k in (8, 16, 32, 64)
]
# Every smoke point is also a full point, so CI has counts to compare.
SMOKE = [("example5", 4), ("views", 8)]


def _plan(family, k):
    factory, budget = FAMILIES[family]
    scenario = factory(k)
    return find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget(k))
    )


@pytest.mark.parametrize("family,k", SMOKE)
def test_search(benchmark, family, k):
    result = benchmark(_plan, family, k)
    assert result.found
    record(
        benchmark,
        nodes=result.stats.nodes_created,
        best_cost=result.best_cost,
        dom_hom_calls=result.stats.domination.hom_calls,
        pruned_domination=result.stats.pruned_by_domination,
    )


# ---------------------------------------------------------- standalone runner
def _measure(family, k, repeats):
    """Best-of-``repeats`` wall time (scenario built inside, as a cold
    planner would) plus the final run's search stats."""
    best_time = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = _plan(family, k)
        elapsed = time.perf_counter() - started
        if best_time is None or elapsed < best_time:
            best_time = elapsed
    return {
        "scenario": f"{family}[{k}]",
        "k": k,
        "wall_time": best_time,
        "best_cost": result.best_cost,
        "exhausted": result.exhausted,
        **result.stats.as_dict(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smoke", action="store_true", help="one small point per family (CI)"
    )
    parser.add_argument(
        "--repeats", type=int, default=5, help="timing repeats per point"
    )
    parser.add_argument(
        "--output", default="BENCH_search.json", help="report destination"
    )
    args = parser.parse_args(argv)
    report = {
        "benchmark": "bench_search",
        "mode": "smoke" if args.smoke else "full",
        "rows": [
            _measure(family, k, args.repeats)
            for family, k in (SMOKE if args.smoke else FULL)
        ],
    }
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in report["rows"]:
        dom = row["domination"]
        print(
            f"{row['scenario']}: {row['wall_time'] * 1e3:.1f} ms, "
            f"{row['nodes_created']} nodes, "
            f"{row['configs_copied']} configs copied, "
            f"{row['chase']['triggers_enumerated']} triggers in "
            f"{row['chase']['rounds']} rounds, "
            f"{row['pruned_by_domination']} dominated "
            f"({dom['hom_calls']} hom calls, "
            f"{dom['time_seconds'] * 1e3:.2f} ms in checks), "
            f"best cost {row['best_cost']}"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
