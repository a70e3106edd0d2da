"""CHAOS: the scenario matrix plus the hedged-tail-latency comparison.

A standalone runner (``python benchmarks/bench_chaos.py``) that writes
the machine-readable ``BENCH_chaos.json`` (rendered by ``report.py
--chaos-json``):

* **scenario matrix** -- every deterministic chaos scenario from
  :mod:`repro.chaos` (worker kills, stalls, latency storms, bursty and
  permanent source outages) run end to end
  against a live service, recording outcomes, elapsed-vs-deadline, and
  the invariant verdict.  The committed claim: zero hangs and zero
  violations -- every run terminates with byte-identical answers or a
  typed error / marked-partial response, asserted per scenario.
* **hedging sweep** -- the same request sequence served in-process
  over a deterministic latency storm (every k-th access slow), with
  and without a :class:`~repro.data.decorators.HedgedSource` over it,
  recording p50/p95/p99 service latency.  The storm hits the same
  accesses either way; the duplicate of a slow access lands on the
  next, fast tick, so the P99 drops while the answers stay
  byte-identical (asserted row by row).
"""

import argparse
import json
import sys

from repro.chaos import run_matrix
from repro.data.decorators import HedgedSource, StormyLatencySource
from repro.data.source import InMemorySource
from repro.logic.queries import parse_cq
from repro.planner.search import SearchOptions, find_best_plan
from repro.schema.core import SchemaBuilder
from repro.data.instance import Instance
from repro.service import QueryService


def percentile(sorted_values, fraction):
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


def canonical(table):
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


def storm_workload():
    """A two-access join workload for the hedging sweep."""
    schema = (
        SchemaBuilder("hedging")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )
    instance = Instance(
        {
            "R": [(f"a{i}", f"b{i % 4}") for i in range(24)],
            "S": [(f"b{i % 4}", f"c{i}") for i in range(24)],
        }
    )
    query = parse_cq("q(a, c) :- R(a, b) & S(b, c)")
    result = find_best_plan(schema, query, SearchOptions(max_accesses=4))
    assert result.found
    return schema, instance, result.best_plan


# ------------------------------------------------------------ chaos matrix
def scenario_matrix(quick):
    """Every chaos scenario, with its invariant verdict, as table rows."""
    rows = []
    for report in run_matrix(seed=0, quick=quick):
        # The claims the committed report stands behind: every scenario
        # terminated inside its deadline with balanced books and only
        # oracle-exact, marked-partial, or typed outcomes.
        assert report.hangs == 0, report.summary()
        assert report.violations == [], [str(v) for v in report.violations]
        assert report.elapsed <= report.deadline, report.summary()
        rows.append(
            {
                "scenario": report.scenario,
                "submitted": report.submitted,
                "outcomes": dict(report.outcomes),
                "error_types": dict(report.error_types),
                "hangs": report.hangs,
                "violations": len(report.violations),
                "elapsed": report.elapsed,
                "deadline": report.deadline,
                "ok": report.ok,
            }
        )
    return rows


# ----------------------------------------------------------- hedging sweep
def hedging_sweep(requests, slow_every=5, slow_latency=0.25):
    """P50/P95/P99 of the same storm-ridden sequence, unhedged vs hedged.

    Requests are served *sequentially*, so the storm schedule (every
    ``slow_every``-th access sleeps ``slow_latency``) hits a
    deterministic subset of requests in the unhedged run; the hedged
    run re-issues exactly those accesses after a fixed 50 ms delay and
    the duplicate, landing on the next storm-counter tick, answers fast.
    """
    schema, instance, plan = storm_workload()
    reference = canonical(plan.execute(InMemorySource(schema, instance)))
    rows = []
    answers = []
    for hedged in (False, True):
        source = StormyLatencySource(
            InMemorySource(schema, instance),
            base_latency=0.002,
            slow_latency=slow_latency,
            slow_every=slow_every,
        )
        if hedged:
            source = HedgedSource(source, delay=0.05)
        service = QueryService(source, workers=2, max_queue=requests)
        latencies = []
        with service:
            for _ in range(requests):
                response = service.serve(plan, timeout=60)
                assert response.complete, response.describe()
                assert canonical(response.table) == reference
                latencies.append(response.wall_time)
        latencies.sort()
        answers.append(reference)
        rows.append(
            {
                "hedged": hedged,
                "requests": requests,
                "slow_every": slow_every,
                "slow_latency": slow_latency,
                "p50_latency": percentile(latencies, 0.50),
                "p95_latency": percentile(latencies, 0.95),
                "p99_latency": percentile(latencies, 0.99),
                "mean_latency": sum(latencies) / len(latencies),
                "hedges": getattr(source, "hedges", 0),
                "hedge_wins": getattr(source, "hedge_wins", 0),
                "hedge_waste": getattr(source, "hedge_waste", 0),
                "identical_to_reference": True,
            }
        )
    assert answers[0] == answers[1]
    return rows


def run_benchmark(quick):
    """The full report dict (also asserting the invariants throughout)."""
    matrix = scenario_matrix(quick)
    assert all(row["ok"] for row in matrix)
    requests = 16 if quick else 48
    hedging = hedging_sweep(requests)
    unhedged, hedged = hedging
    # The committed tail-latency claim: hedging actually fired, won at
    # least once, and cut the P99 of an identical-answer sequence.
    assert hedged["hedges"] >= 1
    assert hedged["hedge_wins"] >= 1
    assert hedged["hedges"] == hedged["hedge_wins"] + hedged["hedge_waste"]
    assert hedged["p99_latency"] < unhedged["p99_latency"], (
        hedged["p99_latency"],
        unhedged["p99_latency"],
    )
    return {
        "benchmark": "bench_chaos",
        "mode": "quick" if quick else "full",
        "matrix": {"rows": matrix},
        "hedging": {"rows": hedging},
        "p99_reduction": 1.0
        - hedged["p99_latency"] / unhedged["p99_latency"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run the chaos matrix and the hedged-tail comparison"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small scenario sizes and a 16-request hedging sweep for CI",
    )
    parser.add_argument(
        "--output", default="BENCH_chaos.json", help="report destination"
    )
    args = parser.parse_args(argv)
    report = run_benchmark(args.quick)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in report["matrix"]["rows"]:
        print(
            f"{row['scenario']}: {'OK' if row['ok'] else 'VIOLATED'} "
            f"({row['submitted']} submitted, {row['elapsed']:.2f}s"
            f"/{row['deadline']:.0f}s)"
        )
    for row in report["hedging"]["rows"]:
        label = "hedged" if row["hedged"] else "unhedged"
        print(
            f"{label}: p50 {row['p50_latency'] * 1e3:.1f} ms, "
            f"p99 {row['p99_latency'] * 1e3:.1f} ms "
            f"({row['hedges']} hedges, {row['hedge_wins']} wins)"
        )
    print(f"p99 reduction: {report['p99_reduction']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
