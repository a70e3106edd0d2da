"""PARALLEL: the process execution tier and the fingerprint plan cache.

A standalone runner (``python benchmarks/bench_parallel.py``) that
measures the two "scale past the GIL" subsystems and writes the
machine-readable ``BENCH_parallel.json`` (rendered by ``report.py
--parallel-json``):

* **process scaling** -- the same burst of CPU-bound requests (the
  residual-condition join workload, whose selection cannot be applied
  before the rows are paired and whose interpreter cost is pure Python,
  i.e. the GIL-bound regime where in-process threads cannot help) served at
  increasing :class:`~repro.service.ProcessWorkerPool` worker counts,
  plus an in-process :class:`~repro.service.QueryService` row of the
  same width for contrast.
  Every response is asserted byte-identical to the single-process
  sequential reference, so the speedup column is soundness-checked.
  The speedup floor is **CPU-aware**: the report records
  ``os.cpu_count()`` and only enforces a floor the hardware can
  honestly meet (3x at 8 workers needs >= 8 cores; a 1-core container
  records ``cpu_limited`` instead of fabricating parallelism).
* **plan cache** -- a repeated-query workload served through
  ``QueryService.submit_query``: the first occurrence of each distinct
  query pays the proof search, every repeat is a fingerprint hit.  The
  report records the fraction of search invocations eliminated
  (asserted >= 95%, hardware-independent), the cold-vs-warm planning
  latency.
"""

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(
    0, os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

from benchmarks.bench_execution import (  # noqa: E402
    residual_join_workload,
    row_heavy_workload,
)

from repro.data.source import InMemorySource
from repro.logic.queries import parse_cq
from repro.planner import PlanCache
from repro.service import ProcessWorkerPool, QueryService


def canonical(table):
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


def serve_burst(source, plan, requests, worker_pool=None, workers=1):
    """Wall time of a burst of identical requests; returns responses."""
    service = QueryService(
        source,
        workers=workers,
        max_queue=requests + 1,
        worker_pool=worker_pool,
    )
    with service:
        # One warm-up request per worker, all at once, outside the timed
        # region: every spawn-tier worker pays interpreter startup +
        # source rehydration once, which is amortized cost, not
        # per-request cost.  (A single warm-up request left the second
        # worker still booting inside the burst.)
        warm_up = [service.submit(plan) for _ in range(workers)]
        for ticket in warm_up:
            ticket.result(timeout=600)
        started = perf_counter()
        tickets = [service.submit(plan) for _ in range(requests)]
        responses = [ticket.result(timeout=600) for ticket in tickets]
        elapsed = perf_counter() - started
        health = service.health()
    return elapsed, responses, health


# ----------------------------------------------------------- process scaling
def scaling_sweep(n, requests, workers_list):
    """The CPU-bound burst at each process-tier width, plus in-process."""
    schema, instance, plan = residual_join_workload(n)
    source = InMemorySource(schema, instance)
    started = perf_counter()
    reference = canonical(plan.execute(source))
    single_exec = perf_counter() - started
    rows = []
    baseline = None
    for workers in workers_list:
        pool = ProcessWorkerPool(source, workers=workers)
        elapsed, responses, health = serve_burst(
            source, plan, requests, worker_pool=pool, workers=workers
        )
        for response in responses:
            assert response.complete, response.describe()
            assert canonical(response.table) == reference, workers
        throughput = requests / elapsed
        if baseline is None:
            baseline = throughput
        rows.append(
            {
                "tier": "process",
                "workers": workers,
                "wall_time": elapsed,
                "throughput_rps": throughput,
                "speedup": throughput / baseline,
                "identical_to_reference": True,
                "crashes": health.worker_tier["crashes"],
            }
        )
    # The GIL contrast row: the service's own threads at the same width.
    # On a CPU-bound workload they cannot scale (the interpreter
    # serializes them), which is the whole argument for the process tier.
    top = max(workers_list)
    elapsed, responses, _health = serve_burst(
        source, plan, requests, workers=top
    )
    for response in responses:
        assert response.complete, response.describe()
        assert canonical(response.table) == reference, "in-process"
    rows.append(
        {
            "tier": "in_process",
            "workers": top,
            "wall_time": elapsed,
            "throughput_rps": requests / elapsed,
            "speedup": (requests / elapsed) / baseline,
            "identical_to_reference": True,
            "crashes": 0,
        }
    )
    return {
        "rows_per_relation": n,
        "requests": requests,
        "single_exec_time": single_exec,
        "rows": rows,
    }


def scaling_floor(scaling, cpu_count):
    """The honest speedup floor for this machine, and whether it held.

    The acceptance bar -- 3x at 8 process workers -- is only physically
    meaningful with >= 8 cores; narrower machines get a proportionally
    narrower floor, and a 1-core container gets correctness checks only
    (the report says so instead of asserting fiction).
    """
    floors = {8: 3.0, 4: 1.6, 2: 1.15}
    process_rows = {
        row["workers"]: row
        for row in scaling["rows"]
        if row["tier"] == "process"
    }
    eligible = [
        w for w in floors if w in process_rows and cpu_count >= w
    ]
    if not eligible:
        return {
            "required": False,
            "reason": f"cpu_count={cpu_count} cannot host parallel "
                      "speedup; identical-answer checks still enforced",
            "held": True,
        }
    width = max(eligible)
    achieved = process_rows[width]["speedup"]
    return {
        "required": True,
        "workers": width,
        "min_speedup": floors[width],
        "achieved": achieved,
        "held": achieved >= floors[width],
    }


# --------------------------------------------------------------- plan cache
CACHE_QUERIES = [
    "q(x, y) :- R(x, y)",
    "q(x, y) :- S(x, y)",
    "q(a, c) :- R(a, b) & S(b, c)",
]


def plan_cache_workload(n, repeats, distinct):
    """Repeated queries through submit_query: search runs once each."""
    schema, instance, _plan = row_heavy_workload(n)
    source = InMemorySource(schema, instance)
    queries = [parse_cq(text) for text in CACHE_QUERIES[:distinct]]
    cache = PlanCache()
    service = QueryService(
        source,
        workers=2,
        max_queue=len(queries) * repeats + 8,
        plan_cache=cache,
    )
    cold_times, warm_times = [], []
    with service:
        for query in queries:
            started = perf_counter()
            service.plan_for(query)
            cold_times.append(perf_counter() - started)
        for _ in range(8):
            for query in queries:
                started = perf_counter()
                service.plan_for(query)
                warm_times.append(perf_counter() - started)
        tickets = []
        for round_index in range(repeats):
            for query in queries:
                tickets.append(service.submit_query(query))
        for ticket in tickets:
            response = ticket.result(timeout=600)
            assert response.complete, response.describe()
        health = service.health()
    submissions = len(queries) * repeats
    searches = health.planned
    counters = health.plan_cache
    plan_requests = len(queries) * 9 + submissions
    eliminated = 1.0 - searches / plan_requests
    cold = sum(cold_times) / len(cold_times)
    warm = sum(warm_times) / len(warm_times)
    return {
        "distinct_queries": len(queries),
        "submissions": submissions,
        "searches_run": searches,
        "search_eliminated": eliminated,
        "hit_rate": counters["hit_rate"],
        "cold_plan_ms": cold * 1e3,
        "warm_plan_ms": warm * 1e3,
        "warm_over_cold": warm / cold if cold else 0.0,
        "counters": counters,
    }


def run_benchmark(quick):
    """The full report dict (also asserting soundness throughout)."""
    cpu_count = os.cpu_count() or 1
    if quick:
        workers_list = [1, 2]
        scaling = scaling_sweep(n=1500, requests=6, workers_list=workers_list)
    else:
        workers_list = [1, 2, 4, 8]
        scaling = scaling_sweep(n=5000, requests=12, workers_list=workers_list)
    floor = scaling_floor(scaling, cpu_count)
    assert floor["held"], floor
    cache = plan_cache_workload(
        n=400,
        repeats=20 if quick else 40,
        distinct=2 if quick else 3,
    )
    # The hardware-independent acceptance bar: a warm cache eliminates
    # at least 95% of search invocations, and a warm plan costs a small
    # fraction of a cold one.
    assert cache["search_eliminated"] >= 0.95, cache
    assert cache["warm_over_cold"] < 0.5, cache
    return {
        "benchmark": "bench_parallel",
        "mode": "quick" if quick else "full",
        "cpu_count": cpu_count,
        "cpu_limited": cpu_count < max(workers_list),
        "scaling": scaling,
        "scaling_floor": floor,
        "plan_cache": cache,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="measure the process execution tier and the plan cache"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small burst (6 requests, 2 worker counts) for CI",
    )
    parser.add_argument(
        "--output", default="BENCH_parallel.json", help="report destination"
    )
    args = parser.parse_args(argv)
    report = run_benchmark(args.quick)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    print(
        f"cpu_count {report['cpu_count']}"
        + (" (cpu-limited: scaling floor waived)"
           if report["cpu_limited"] else "")
    )
    for row in report["scaling"]["rows"]:
        print(
            f"{row['tier']:>8} x{row['workers']}: "
            f"{row['throughput_rps']:.2f} req/s "
            f"({row['speedup']:.2f}x), identical answers"
        )
    cache = report["plan_cache"]
    print(
        f"plan cache: {cache['searches_run']} searches for "
        f"{cache['submissions']} submissions "
        f"({cache['search_eliminated']:.1%} eliminated), "
        f"cold {cache['cold_plan_ms']:.2f} ms -> "
        f"warm {cache['warm_plan_ms']:.4f} ms"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
