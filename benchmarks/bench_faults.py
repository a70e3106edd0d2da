"""FAULTS: plan execution under injected faults, retries, and failover.

A standalone runner (``python benchmarks/bench_faults.py``) that
measures two things and writes the machine-readable
``BENCH_faults.json`` (rendered by ``report.py --faults-json``):

* **transient sweep** -- the Example 5 best plan served under a seeded
  transient-fault schedule at increasing fault rates, once *unprotected*
  (fail fast on the first fault) and once under the resilience stack
  (retry with exponential backoff on a virtual clock).  Per trial the
  resilient run is asserted byte-identical to the fault-free reference;
  the report records success rates, mean retries, and the simulated
  latency cost of backoff (virtual-clock seconds, so the sweep itself
  runs in milliseconds).
* **outage sweep** -- one permanent method outage at a time, every
  method of the k-redundant-sources schema in turn, served through
  :meth:`QueryService.serve_query
  <repro.service.service.QueryService.serve_query>`.  Killing any one of
  the k directory sources must fail over to a sibling source and return
  identical answers; killing the one non-redundant method degrades to a
  marked partial answer.  The report records the complete-recovery rate
  (``success_rate``), which the full run asserts to be at least 0.9 --
  the redundancy k is chosen so that a single outage is almost always
  survivable, which is exactly the paper's "many proofs, many plans"
  point turned into an availability number.
"""

import argparse
import json
import sys
from time import perf_counter

from repro.data.source import InMemorySource
from repro.exec import (
    BreakerRegistry,
    ExecutionContext,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.errors import ReproError
from repro.faults import FaultInjectingSource, FaultPolicy, VirtualClock
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import redundant_sources
from repro.service import QueryService

ACCESS_LATENCY = 0.01  # simulated seconds per successful access


def best_plan(scenario, budget):
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    assert result.found, scenario.name
    return result.best_plan


def canonical(table):
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


def make_dispatcher(clock, retries=4, seed=0):
    return ResilientDispatcher(
        retry=RetryPolicy(max_attempts=retries + 1, seed=seed),
        breakers=BreakerRegistry(clock=clock),
        sleep=clock.sleep,
    )


# ------------------------------------------------------------ transient sweep
def transient_sweep(scenario, plan, rates, trials, retries):
    """Success and latency, unprotected vs resilient, per fault rate."""
    instance = scenario.instance(0)
    reference = canonical(
        plan.execute(InMemorySource(scenario.schema, instance))
    )
    rows = []
    for rate in rates:
        unprotected_ok = 0
        unprotected_latency = 0.0
        resilient_ok = 0
        total_retries = 0
        total_backoff = 0.0
        resilient_latency = 0.0
        wall_started = perf_counter()
        for seed in range(trials):
            policy = FaultPolicy.transient(
                rate, seed=seed, latency=ACCESS_LATENCY
            )

            def wrapped(clock):
                return FaultInjectingSource(
                    InMemorySource(scenario.schema, instance),
                    policy,
                    clock=clock,
                )

            # Fail-fast: no retries, first transient fault kills the run.
            clock = VirtualClock()
            try:
                table = plan.execute(wrapped(clock))
            except ReproError:
                pass
            else:
                assert canonical(table) == reference, (rate, seed)
                unprotected_ok += 1
            unprotected_latency += clock.now()

            # Resilient: same schedule, retries must recover everything.
            clock = VirtualClock()
            dispatcher = make_dispatcher(clock, retries=retries, seed=seed)
            table = plan.execute(
                wrapped(clock),
                ExecutionContext(resilience=dispatcher),
            )
            assert canonical(table) == reference, (rate, seed)
            assert dispatcher.giveups == 0, (rate, seed)
            resilient_ok += 1
            total_retries += dispatcher.retries
            total_backoff += dispatcher.backoff_waited
            resilient_latency += clock.now()
        rows.append(
            {
                "rate": rate,
                "trials": trials,
                "unprotected": {
                    "success_rate": unprotected_ok / trials,
                    "mean_sim_latency": unprotected_latency / trials,
                },
                "resilient": {
                    "success_rate": resilient_ok / trials,
                    "identical_to_reference": True,
                    "mean_retries": total_retries / trials,
                    "mean_backoff": total_backoff / trials,
                    "mean_sim_latency": resilient_latency / trials,
                },
                "wall_time": perf_counter() - wall_started,
            }
        )
    return rows


# --------------------------------------------------------------- outage sweep
def outage_sweep(scenario, budget, retries):
    """One permanent outage per method, served through failover."""
    instance = scenario.instance(0)
    plan = best_plan(scenario, budget)
    reference = canonical(
        plan.execute(InMemorySource(scenario.schema, instance))
    )
    rows = []
    complete = partial = failed = 0
    for victim in sorted(m.name for m in scenario.schema.methods):
        clock = VirtualClock()
        source = FaultInjectingSource(
            InMemorySource(scenario.schema, instance),
            FaultPolicy.outage(victim),
            clock=clock,
        )
        service = QueryService(
            source,
            workers=1,
            retry=RetryPolicy(max_attempts=retries + 1, seed=0),
            breakers=BreakerRegistry(clock=clock),
            clock=clock,
            sleep=clock.sleep,
        )
        with service:
            started = perf_counter()
            response = service.serve_query(
                scenario.query,
                search_options=SearchOptions(max_accesses=budget),
            )
            elapsed = perf_counter() - started
            health = service.health()
        if response.complete:
            complete += 1
            assert canonical(response.table) == reference, victim
        elif response.partial:
            partial += 1
        else:
            failed += 1
        rows.append(
            {
                "victim": victim,
                "outcome": (
                    "complete"
                    if response.complete
                    else "partial" if response.partial else "failed"
                ),
                "failovers": response.failovers,
                "rows": len(response.table.rows) if response.ok else 0,
                "wall_time": elapsed,
                # Each attempt was one admitted request of the service.
                "submitted": response.failovers + 1,
                "served": health.served,
                "shed": health.shed,
                "rejected": health.rejected,
            }
        )
    trials = len(rows)
    return {
        "scenario": scenario.name,
        "methods": trials,
        "complete": complete,
        "partial": partial,
        "failed": failed,
        "success_rate": complete / trials,
        "served_rate": (complete + partial) / trials,
        "rows": rows,
    }


def run_benchmark(smoke, trials, retries):
    """The full report dict (also asserting correctness throughout)."""
    k = 3 if smoke else 10
    budget = k + 1
    scenario = redundant_sources(
        k, professors=15 if smoke else 25, noise_per_source=30
    )
    plan = best_plan(scenario, budget)
    rates = [0.0, 0.2, 0.5] if smoke else [0.0, 0.2, 0.4, 0.6, 0.8]
    transient = transient_sweep(scenario, plan, rates, trials, retries)
    outage = outage_sweep(scenario, budget, retries)
    report = {
        "benchmark": "bench_faults",
        "mode": "smoke" if smoke else "full",
        "scenario": scenario.name,
        "retries": retries,
        "access_latency": ACCESS_LATENCY,
        "transient": {"trials": trials, "rows": transient},
        "outage": outage,
    }
    if not smoke:
        # The availability claim the committed report stands behind.
        assert outage["success_rate"] >= 0.9, outage["success_rate"]
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="measure plan execution under faults, retries, failover"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sweep (k=3 sources, 3 rates) for CI",
    )
    parser.add_argument(
        "--trials", type=int, default=None,
        help="fault-schedule seeds per rate (default 5 smoke / 20 full)",
    )
    parser.add_argument(
        "--retries", type=int, default=4,
        help="retry budget of the resilient runs",
    )
    parser.add_argument(
        "--output", default="BENCH_faults.json", help="report destination"
    )
    args = parser.parse_args(argv)
    trials = args.trials or (5 if args.smoke else 20)
    report = run_benchmark(args.smoke, trials, args.retries)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    for row in report["transient"]["rows"]:
        print(
            f"rate {row['rate']:.1f}: unprotected "
            f"{row['unprotected']['success_rate']:.0%} ok, resilient "
            f"{row['resilient']['success_rate']:.0%} ok "
            f"({row['resilient']['mean_retries']:.1f} retries, "
            f"+{row['resilient']['mean_backoff']:.2f}s simulated backoff)"
        )
    outage = report["outage"]
    print(
        f"outage sweep over {outage['methods']} methods: "
        f"{outage['complete']} complete / {outage['partial']} partial / "
        f"{outage['failed']} failed "
        f"(success rate {outage['success_rate']:.0%})"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
