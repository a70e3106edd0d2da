"""CHASE: chase-engine throughput, naive vs. semi-naive.

Two surfaces:

* pytest-benchmark series (``pytest benchmarks/bench_chase.py``):
  saturation of the accessible chain family and raw ground-chase
  throughput, parametrized over the evaluation strategy so the
  EXPERIMENTS.md tables show both;
* a standalone comparison runner (``python benchmarks/bench_chase.py``)
  that chases every workload under both strategies and writes the
  machine-readable ``BENCH_chase.json`` -- wall time, triggers
  enumerated/fired, rounds, and the derived trigger-reduction and
  speedup ratios -- so the perf trajectory is tracked across PRs.
"""

import argparse
import json
import sys
import time

import pytest

from benchmarks.conftest import record
from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy, chase_to_fixpoint
from repro.logic.atoms import Atom
from repro.logic.dependencies import parse_tgd
from repro.logic.terms import Constant, NullFactory
from repro.planner.proof_to_plan import initial_configuration
from repro.schema.accessible import AccessibleSchema, Variant
from repro.scenarios import referential_chain

STRATEGIES = ("naive", "semi-naive")


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("length", [1, 2, 4, 6, 8])
def test_accessible_schema_saturation(
    benchmark, monkeypatch, length, strategy
):
    scenario = referential_chain(length)
    # The search chases under the schema's own policy; the strategy is
    # set on this schema instance alone.
    policy = ChasePolicy(strategy=strategy)
    monkeypatch.setattr(scenario.schema, "chase_policy", lambda: policy)
    acc = AccessibleSchema(scenario.schema, Variant.FORWARD)

    def saturate_initial():
        return initial_configuration(acc, scenario.query, NullFactory("b"))

    config, _ = benchmark(saturate_initial)
    record(
        benchmark,
        rules=len(acc.rules),
        facts=len(config),
        strategy=strategy,
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("rows", [50, 200, 800])
def test_ground_chase_throughput(benchmark, rows, strategy):
    rules = _ground_rules()
    policy = ChasePolicy(strategy=strategy)

    def build_and_chase():
        config = _ground_config(rows)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        return config, result

    config, result = benchmark(build_and_chase)
    assert result.reached_fixpoint
    record(
        benchmark,
        firings=result.firings,
        facts=len(config),
        triggers_enumerated=result.stats.triggers_enumerated,
        rounds=result.stats.rounds,
        strategy=strategy,
    )


# ------------------------------------------------------ standalone comparison
def _ground_rules():
    return [
        parse_tgd("R(x, y) -> S(y, x)"),
        parse_tgd("S(x, y) & R(y, z) -> T(x, z)"),
        parse_tgd("T(x, y) -> U(x)"),
    ]


def _ground_config(rows):
    return ChaseConfiguration(
        Atom("R", (Constant(f"a{i}"), Constant(f"a{(i * 7) % rows}")))
        for i in range(rows)
    )


def _closure_rules():
    return [
        parse_tgd("R(x, y) -> P(x, y)"),
        parse_tgd("P(x, y) & R(y, z) -> P(x, z)"),
    ]


def _chain_edges(n):
    return ChaseConfiguration(
        Atom("R", (Constant(f"v{i}"), Constant(f"v{i + 1}")))
        for i in range(n)
    )


def _workloads(smoke=False):
    """(name, config builder, rules builder) triples to compare."""
    ground_rows = 100 if smoke else 400
    closure_nodes = 24 if smoke else 60
    chain_length = 4 if smoke else 8
    workloads = [
        (
            f"ground_join_rows{ground_rows}",
            lambda: _ground_config(ground_rows),
            _ground_rules,
        ),
        (
            f"transitive_closure_n{closure_nodes}",
            lambda: _chain_edges(closure_nodes),
            _closure_rules,
        ),
    ]

    def chain_saturation_config():
        scenario = referential_chain(chain_length)
        acc = AccessibleSchema(scenario.schema, Variant.FORWARD)
        facts, _ = scenario.query.canonical_database()
        config = ChaseConfiguration(facts)
        for fact in acc.initial_accessible_facts():
            config.add(fact)
        return config

    def chain_saturation_rules():
        scenario = referential_chain(chain_length)
        acc = AccessibleSchema(scenario.schema, Variant.FORWARD)
        return list(acc.free_rules)

    workloads.append(
        (
            f"accessible_chain_L{chain_length}",
            chain_saturation_config,
            chain_saturation_rules,
        )
    )
    return workloads


def _measure(make_config, make_rules, strategy, repeats):
    """Best-of-``repeats`` wall time plus the final run's chase stats."""
    rules = make_rules()
    best_time = None
    result = None
    config = None
    for _ in range(repeats):
        config = make_config()
        started = time.perf_counter()
        result = chase_to_fixpoint(
            config, rules, NullFactory("t"), ChasePolicy(strategy=strategy)
        )
        elapsed = time.perf_counter() - started
        if best_time is None or elapsed < best_time:
            best_time = elapsed
    assert result.reached_fixpoint
    return {
        "wall_time": best_time,
        "facts": len(config),
        "firings": result.firings,
        **result.stats.as_dict(),
    }


def run_comparison(smoke=False, repeats=3):
    """Chase every workload under both strategies; return the report."""
    rows = []
    for name, make_config, make_rules in _workloads(smoke):
        entry = {"workload": name}
        for strategy in STRATEGIES:
            entry[strategy.replace("-", "_")] = _measure(
                make_config, make_rules, strategy, repeats
            )
        naive, semi = entry["naive"], entry["semi_naive"]
        entry["trigger_reduction"] = (
            naive["triggers_enumerated"] / semi["triggers_enumerated"]
            if semi["triggers_enumerated"]
            else float("inf")
        )
        entry["speedup"] = (
            naive["wall_time"] / semi["wall_time"]
            if semi["wall_time"]
            else float("inf")
        )
        # Both strategies must compute the same model.
        assert naive["facts"] == semi["facts"], name
        rows.append(entry)
    return {
        "benchmark": "bench_chase",
        "mode": "smoke" if smoke else "full",
        "workloads": rows,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare naive vs semi-naive chase evaluation"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="small workloads (CI)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per point"
    )
    parser.add_argument(
        "--output", default="BENCH_chase.json", help="report destination"
    )
    args = parser.parse_args(argv)
    report = run_comparison(smoke=args.smoke, repeats=args.repeats)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in report["workloads"]:
        print(
            f"{row['workload']}: "
            f"{row['trigger_reduction']:.1f}x fewer triggers, "
            f"{row['speedup']:.1f}x faster "
            f"({row['naive']['triggers_enumerated']} -> "
            f"{row['semi_naive']['triggers_enumerated']} enumerated, "
            f"{row['naive']['wall_time'] * 1e3:.1f} -> "
            f"{row['semi_naive']['wall_time'] * 1e3:.1f} ms)"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
