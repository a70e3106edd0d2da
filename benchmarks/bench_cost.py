"""COST: feedback calibration quality and branch-and-bound pruning.

Two surfaces:

* pytest-benchmark series (``pytest benchmarks/bench_cost.py``):
  planning time on the example5 family with and without the
  incumbent bound, and uncalibrated vs calibrated planning on the
  misleading-fan-out schema;
* a standalone comparison runner (``python benchmarks/bench_cost.py``)
  that writes the machine-readable ``BENCH_cost.json`` (rendered by
  ``report.py --cost-json``) with three sections:

  - ``calibration``: the misleading-fan-out scenario family.  The
    schema declares no cardinalities, so the uncalibrated
    :class:`CardinalityCostFunction` guesses a flat default fan-out for
    every access; the true fan-out of ``mt_R`` varies per scenario.
    Each scenario plans uncalibrated, executes the pick, folds the
    observed ``ExecStats`` into a :class:`CalibrationStore`, re-plans,
    executes the calibrated pick, and compares *measured* execution
    cost (sum over access commands of method weight + per_tuple x
    rows dispatched).  The calibrated pick must never measure worse;
    on the misleading scenarios it is strictly cheaper.
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
from repro.cost.calibration import CalibrationStore
from repro.cost.functions import CardinalityCostFunction, SimpleCostFunction
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec.budget import ERROR, ResourceBudget
from repro.exec.context import ExecutionContext
from repro.exec.stats import ExecStats
from repro.logic.queries import cq
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example1, example5
from repro.schema.core import SchemaBuilder
from repro.service import QueryService

PER_TUPLE = 0.1
CHAIN_WEIGHT = 1.0

# (name, true fan-out of mt_R, weight of the free S dump).  The schema
# declares no cardinalities, so the uncalibrated estimator guesses the
# same flat fan-out everywhere; truth varies per scenario.  On the
# "misleading" scenarios the uncalibrated estimator sticks with the
# per-binding chain whose true cost explodes with the fan-out, while
# one observed run teaches the store fan_out(mt_R) and flips the pick
# to the flat-weight dump.
CALIBRATION_FAMILY = [
    ("fanout-3", 3, 6.0),
    ("fanout-100-aligned", 100, 6.0),
    ("fanout-300-misleading", 300, 15.0),
    ("fanout-600-misleading", 600, 25.0),
]


def misleading_schema(dump_weight):
    """R(a,b) reachable by constant; S(b,c) per-binding or dumped."""
    return (
        SchemaBuilder("mislead")
        .relation("R", 2, attributes=("a", "b"))
        .relation("S", 2, attributes=("b", "c"))
        .access("mt_R", "R", inputs=[0], cost=CHAIN_WEIGHT)
        .access("mt_S", "S", inputs=[0], cost=CHAIN_WEIGHT)
        .access("mt_S_dump", "S", inputs=[], cost=dump_weight)
        .constant("c0")
        .build()
    )


def misleading_instance(fan_out):
    instance = Instance()
    for i in range(fan_out):
        instance.add("R", ("c0", f"y{i}"))
        instance.add("S", (f"y{i}", f"z{i}"))
    return instance


def misleading_query():
    return cq(["?z"], [("R", ["c0", "?y"]), ("S", ["?y", "?z"])])


def method_weights(dump_weight):
    return {
        "mt_R": CHAIN_WEIGHT,
        "mt_S": CHAIN_WEIGHT,
        "mt_S_dump": dump_weight,
    }


def cost_function(dump_weight, store=None):
    return CardinalityCostFunction(
        relation_cardinality={},
        per_tuple=PER_TUPLE,
        per_method_access=method_weights(dump_weight),
        calibration=store,
    )


def measured_cost(stats, dump_weight):
    """True execution cost: per-access weight + per_tuple x dispatched."""
    weights = method_weights(dump_weight)
    return sum(
        weights[command.method] + PER_TUPLE * command.dispatched
        for command in stats.commands
        if command.kind == "access" and command.method is not None
    )


def _plan_and_run(schema, query, source, cost, dump_weight):
    result = find_best_plan(
        schema, query, SearchOptions(max_accesses=4, cost=cost)
    )
    assert result.found
    stats = ExecStats()
    result.best_plan.execute(source, ExecutionContext(stats=stats))
    return result, stats, measured_cost(stats, dump_weight)


def run_calibration_scenario(name, fan_out, dump_weight):
    schema = misleading_schema(dump_weight)
    query = misleading_query()
    source = InMemorySource(schema, misleading_instance(fan_out))

    uncal, uncal_stats, uncal_measured = _plan_and_run(
        schema, query, source, cost_function(dump_weight), dump_weight
    )
    store = CalibrationStore()
    store.observe_stats(
        uncal_stats, {m.name: m.relation for m in schema.methods}
    )
    cal, _, cal_measured = _plan_and_run(
        schema,
        query,
        source,
        cost_function(dump_weight, store),
        dump_weight,
    )
    return {
        "scenario": name,
        "fan_out": fan_out,
        "dump_weight": dump_weight,
        "uncalibrated": {
            "methods": list(uncal.best_plan.methods_used()),
            "estimated_cost": uncal.best_cost,
            "measured_cost": uncal_measured,
            "nodes_expanded": uncal.stats.nodes_expanded,
        },
        "calibrated": {
            "methods": list(cal.best_plan.methods_used()),
            "estimated_cost": cal.best_cost,
            "measured_cost": cal_measured,
            "nodes_expanded": cal.stats.nodes_expanded,
            "pruned_by_bound": cal.stats.pruned_by_bound,
            "store_version": store.version,
            "observations": store.observations,
        },
        "flipped": sorted(uncal.best_plan.methods_used())
        != sorted(cal.best_plan.methods_used()),
        "improvement": (
            uncal_measured / cal_measured if cal_measured else float("inf")
        ),
        "never_worse": cal_measured <= uncal_measured + 1e-9,
    }


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


@pytest.mark.parametrize("mode", ["uncalibrated", "calibrated"])
def test_calibrated_planning(benchmark, mode):
    name, fan_out, dump_weight = CALIBRATION_FAMILY[2]
    schema = misleading_schema(dump_weight)
    query = misleading_query()
    store = None
    if mode == "calibrated":
        source = InMemorySource(schema, misleading_instance(fan_out))
        warm = find_best_plan(
            schema,
            query,
            SearchOptions(max_accesses=4, cost=cost_function(dump_weight)),
        )
        stats = ExecStats()
        warm.best_plan.execute(source, ExecutionContext(stats=stats))
        store = CalibrationStore()
        store.observe_stats(
            stats, {m.name: m.relation for m in schema.methods}
        )
    cost = cost_function(dump_weight, store)

    def plan():
        return find_best_plan(
            schema, query, SearchOptions(max_accesses=4, cost=cost)
        )

    result = benchmark(plan)
    assert result.found
    record(
        benchmark,
        mode=mode,
        scenario=name,
        estimated_cost=result.best_cost,
        methods=",".join(result.best_plan.methods_used()),
    )


# ------------------------------------------------------ standalone comparison
def run_comparison(ks):
    calibration = [
        run_calibration_scenario(name, fan_out, dump_weight)
        for name, fan_out, dump_weight in CALIBRATION_FAMILY
    ]
    pruning = [run_pruning_point(k) for k in ks]
    return {
        "benchmark": "bench_cost",
        "mode": "smoke" if max(ks) <= 6 else "full",
        "per_tuple": PER_TUPLE,
        "calibration": calibration,
        "pruning": pruning,
        "node_reduction": min(row["reduction"] for row in pruning),
        "calibrated_never_worse": all(
            row["never_worse"] for row in calibration
        ),
        "differential_ok": all(
            row["best_cost_equal"] for row in pruning
        ),
        "admission": run_admission_check(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="calibrated vs uncalibrated cost model, bound pruning"
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
    for row in report["calibration"]:
        print(
            f"{row['scenario']}: measured "
            f"{row['uncalibrated']['measured_cost']:.2f} -> "
            f"{row['calibrated']['measured_cost']:.2f} "
            f"({row['improvement']:.2f}x, "
            f"{'flipped' if row['flipped'] else 'same plan'})"
        )
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
