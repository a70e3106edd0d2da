"""COST: branch-and-bound pruning and run-time row ceilings.

Two surfaces:

* a pytest-benchmark series (``pytest benchmarks/bench_cost.py``):
  planning time on the example5 family with and without the
  incumbent bound;
* a standalone comparison runner (``python benchmarks/bench_cost.py``)
  that writes the machine-readable ``BENCH_cost.json`` (rendered by
  ``report.py --cost-json``) with two sections:

  - ``pruning``: example5(k) planned by the default search and by the
    zero-margin reference (:class:`ZeroMarginCost`: same costs, so the
    incumbent bound never fires), asserting the best plan never
    changes (the admissible-margin differential) and reporting the
    node-expansion reduction.  The smoke floor is >= 1.3x on the
    headline (minimum) reduction.
  - ``admission``: example1's best plan (10 answer rows) served under
    error-mode row ceilings.  Nothing refuses it ahead of the run: a
    ceiling of 10 is served with 10 rows, and a ceiling of 9 fails at
    run time with a typed ``RowBudgetExceeded`` carrying both counts.
"""

import argparse
import json
import sys

import pytest

from benchmarks.conftest import record
from repro.cost.functions import SimpleCostFunction
from repro.data.source import InMemorySource
from repro.exec.budget import ERROR, ResourceBudget
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example5
from repro.service import QueryService


class ZeroMarginCost(SimpleCostFunction):
    """The declared costs with no completion margin: the incumbent
    bound never fires under it, so its search is the reference."""

    def min_access_charge(self):
        """No claim about what a further access adds."""
        return 0.0


def _plan(scenario, bound):
    cost = None if bound else ZeroMarginCost.from_schema(scenario.schema)
    return find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(max_accesses=5, cost=cost),
    )


def run_pruning_point(k):
    scenario = example5(k)
    base = _plan(scenario, bound=False)
    pruned = _plan(scenario, bound=True)
    # The differential the feature hangs off: the admissible completion
    # margin may only shrink the tree, never change the returned plan.
    assert pruned.found == base.found
    assert abs(pruned.best_cost - base.best_cost) < 1e-9
    return {
        "k": k,
        "scenario": scenario.name,
        "base_expanded": base.stats.nodes_expanded,
        "pruned_expanded": pruned.stats.nodes_expanded,
        "pruned_by_bound": pruned.stats.pruned_by_bound,
        "reduction": base.stats.nodes_expanded
        / max(1, pruned.stats.nodes_expanded),
        "best_cost": pruned.best_cost,
        "best_cost_equal": True,
    }


def run_admission_check():
    """An error-mode ceiling is decided by the run, never refused ahead."""
    scenario = example1()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=5)
    )
    assert result.found
    source = InMemorySource(scenario.schema, scenario.instance(0))
    with QueryService(source) as service:
        fits, over = [
            service.serve(
                result.best_plan,
                budget=ResourceBudget(
                    max_result_rows=ceiling, on_result_overflow=ERROR
                ),
                timeout=30,
            )
            for ceiling in (10, 9)
        ]
        health = service.health()
    error = over.error
    return {
        "served": fits.complete,
        "served_rows": len(fits.table.rows) if fits.ok else None,
        "overflow_error": type(error).__name__ if error else None,
        "overflow_rows": getattr(error, "rows", None),
        "overflow_budget": getattr(error, "budget", None),
        "rejected": health.rejected,
        "books_exact": health.served + health.shed + health.rejected == 2,
    }


# ----------------------------------------------------- pytest-benchmark series
@pytest.mark.parametrize("mode", ["baseline", "bound-pruned"])
def test_bound_pruning_planning(benchmark, mode):
    scenario = example5(6)

    def plan():
        return _plan(scenario, bound=mode == "bound-pruned")

    result = benchmark(plan)
    assert result.found
    record(
        benchmark,
        mode=mode,
        nodes_expanded=result.stats.nodes_expanded,
        pruned_by_bound=result.stats.pruned_by_bound,
        best_cost=result.best_cost,
    )


# ------------------------------------------------------ standalone comparison
def run_comparison(ks):
    pruning = [run_pruning_point(k) for k in ks]
    return {
        "benchmark": "bench_cost",
        "mode": "smoke" if max(ks) <= 6 else "full",
        "pruning": pruning,
        "node_reduction": min(row["reduction"] for row in pruning),
        "differential_ok": all(
            row["best_cost_equal"] for row in pruning
        ),
        "admission": run_admission_check(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="bound pruning and run-time row ceilings"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="example5 k <= 6 only (CI)"
    )
    parser.add_argument(
        "--output", default="BENCH_cost.json", help="report destination"
    )
    args = parser.parse_args(argv)
    ks = [5, 6] if args.smoke else [5, 6, 7, 8]
    report = run_comparison(ks)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in report["pruning"]:
        print(
            f"{row['scenario']}: {row['base_expanded']} -> "
            f"{row['pruned_expanded']} nodes expanded "
            f"({row['reduction']:.2f}x, "
            f"{row['pruned_by_bound']} bound-pruned), "
            f"best cost unchanged"
        )
    admission = report["admission"]
    print(
        f"admission: ceiling 10 served {admission['served_rows']} rows; "
        f"ceiling 9 failed {admission['overflow_error']} "
        f"(rows {admission['overflow_rows']}, "
        f"budget {admission['overflow_budget']})"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
