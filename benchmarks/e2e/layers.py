"""Per-layer metrics: what the traced pass and the probes report.

A layer is a module under ``src/repro``.  Span metrics are mean
milliseconds per traced request (a stage that a request skips counts
as zero, so the layers of one workload add up to its latency); probe
metrics are per call.  The README says which end-to-end metric each
one should move, and on which workload.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional

from repro.chase import ChaseConfiguration, chase_to_fixpoint
from repro.exec.batch import substitute_constants
from repro.exec.columnar import compile_columnar
from repro.logic.terms import NullFactory
from repro.plans.ir import ir_to_plan, plan_to_ir
from repro.schema.accessible import AccessibleSchema, Variant
from repro.service.workers import (
    encode_bindings,
    encoded_plan_ir,
    execute_payload,
)

from benchmarks.e2e.harness import (
    Clients,
    Metric,
    failure_counts,
    metric,
    samples_of,
    timed_setup,
)
from benchmarks.e2e.tracing import Tracer
from benchmarks.e2e.workloads import Sample, Workload

#: name -> (unit, better).  "higher"/"lower" says which way is good;
#: none of these has a bound.
PER_LAYER = {
    "logic.parse_cq_ms": ("ms", "lower"),
    "schema.accessible_schema_ms": ("ms", "lower"),
    "schema.fingerprint_ms": ("ms", "lower"),
    "chase.saturate_ms": ("ms", "lower"),
    "chase.time_in_search_ms": ("ms", "lower"),
    "chase.triggers_enumerated": ("count", "lower"),
    "chase.triggers_fired": ("count", "lower"),
    "chase.rounds": ("count", "lower"),
    "planner.search_ms": ("ms", "lower"),
    "planner.search_ms.example5": ("ms", "lower"),
    "planner.search_ms.views": ("ms", "lower"),
    "planner.search_ms.pathviews": ("ms", "lower"),
    "planner.nodes_created": ("count", "lower"),
    "planner.nodes_expanded": ("count", "lower"),
    "planner.pruned_by_cost": ("count", "higher"),
    "planner.pruned_by_domination": ("count", "higher"),
    "planner.dom_hom_calls": ("count", "lower"),
    "planner.dom_time_ms": ("ms", "lower"),
    "planner.searches_run": ("count", "lower"),
    "planner.plan_cache_key_ms": ("ms", "lower"),
    "planner.plan_cache_get_ms": ("ms", "lower"),
    "planner.plan_cache_hit_rate": ("ratio", "higher"),
    "cost.time_in_search_ms": ("ms", "lower"),
    "plans.lower_ir_ms": ("ms", "lower"),
    "plans.raise_ir_ms": ("ms", "lower"),
    "plans.encode_answer_ms": ("ms", "lower"),
    "plans.interp_middleware_ms": ("ms", "lower"),
    "plans.interp_access_dispatch_ms": ("ms", "lower"),
    "exec.substitute_ms": ("ms", "lower"),
    "exec.interp_run_ms": ("ms", "lower"),
    "exec.columnar_run_ms": ("ms", "lower"),
    "exec.columnar_compile_ms": ("ms", "lower"),
    "exec.cache_hit_rate": ("ratio", "higher"),
    "exec.cache_evictions": ("count", "lower"),
    "exec.dedup_ratio": ("ratio", "higher"),
    "exec.rows_out_per_row_fetched": ("ratio", "higher"),
    "exec.peak_resident_rows": ("count", "lower"),
    "sources.access_ms": ("ms", "lower"),
    "sources.access_call_us": ("us", "lower"),
    "sources.calls_per_req": ("count", "lower"),
    "sources.batched_calls_per_req": ("count", "lower"),
    "sources.sqlite_statements_per_req": ("count", "lower"),
    "sources.rows_returned_per_req": ("count", "lower"),
    "data.post_mutation_first_req_ms": ("ms", "lower"),
    "service.plan_for_ms": ("ms", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.exec_wall_ms": ("ms", "lower"),
    "service.overhead_ms": ("ms", "lower"),
    "service.payload_roundtrip_ms": ("ms", "lower"),
    "service.shed": ("count", "lower"),
    "service.rejected": ("count", "lower"),
    "service.failed": ("count", "lower"),
    "trace.coverage_ratio": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

#: The spans that make up ``QueryService.plan_for``.
_PLAN_FOR_SPANS = (
    "planner.plan_cache_key",
    "planner.plan_cache_get",
    "schema.accessible_schema",
    "planner.search",
    "planner.plan_cache_put",
)

PROBE_REPEATS = 3


def _timed(call: Callable) -> float:
    started = perf_counter()
    call()
    return perf_counter() - started


# ------------------------------------------------------------------ probes
def run_probes(workload: Workload, budget_seconds: float) -> Dict[str, float]:
    """Direct calls into single layers, on the plans the workload used.

    The same probes run on every workload, so the small-plan and the
    large-plan side of interpreter versus columnar, and the cost of the
    tier boundary's encode/decode without any IPC, are read off the
    same table.  Values are milliseconds per call: the mean over the
    workload's request classes of each class's median.
    """
    deadline = perf_counter() + budget_seconds
    per_class: Dict[str, List[float]] = {}
    mismatches = 0

    def note(name: str, seconds: List[float]) -> None:
        per_class.setdefault(name, []).append(statistics.median(seconds) * 1e3)

    schemas = {}
    for key, (plan, schema, bindings, _) in sorted(workload.plans.items()):
        schemas[id(schema)] = schema
        if perf_counter() >= deadline and per_class:
            break  # out of time: report the classes probed so far
        source = workload.probe_source(key)
        ir = plan_to_ir(plan)
        repeats = range(PROBE_REPEATS)
        note("plans.raise_ir_ms", [_timed(lambda: ir_to_plan(ir)) for _ in repeats])
        # compile_columnar memoizes on the plan object: time fresh ones.
        note(
            "exec.columnar_compile_ms",
            [_timed(lambda p=ir_to_plan(ir): compile_columnar(p)) for _ in repeats],
        )
        bound = plan
        if bindings:
            note(
                "exec.substitute_ms",
                [_timed(lambda: substitute_constants(plan, bindings)) for _ in repeats],
            )
            bound = substitute_constants(plan, bindings)
        compile_columnar(bound)
        interp, columnar, payload_times = [], [], []
        payload = {
            "plan": encoded_plan_ir(plan),
            "bindings": encode_bindings(bindings),
            "executor": "interpreter",
            "collect_stats": True,
        }
        for _ in repeats:
            started = perf_counter()
            expected = bound.execute(source)
            interp.append(perf_counter() - started)
            started = perf_counter()
            got = bound.execute(source, executor="columnar")
            columnar.append(perf_counter() - started)
            mismatches += got.rows != expected.rows
            payload_times.append(_timed(lambda: execute_payload(source, payload)))
        source.reset_log()
        note("exec.interp_run_ms", interp)
        note("exec.columnar_run_ms", columnar)
        note(
            "service.payload_roundtrip_ms",
            [statistics.median(payload_times) - statistics.median(interp)],
        )
    for schema in schemas.values():
        note("schema.fingerprint_ms", [_timed(schema.fingerprint) for _ in range(PROBE_REPEATS)])
    out = {name: statistics.fmean(values) for name, values in per_class.items()}
    out["mismatches"] = mismatches
    return out


def saturate_probe(workload: Workload) -> float:
    """Mean ms to chase each query's canonical database to fixpoint.

    ``chase_to_fixpoint`` over the free rules of the accessible schema:
    the saturation Algorithm 1 runs at its root, measured alone.
    """
    times = []
    for _, schema, _, query in workload.plans.values():
        if query is None:
            continue  # a request that arrives as a plan has no proof
        accessible = AccessibleSchema(schema, Variant.FORWARD)
        runs = []
        for _ in range(PROBE_REPEATS):
            facts, _ = query.canonical_database()
            config = ChaseConfiguration(facts)
            for fact in accessible.initial_accessible_facts():
                config.add(fact)
            rules = list(accessible.free_rules)
            runs.append(
                _timed(lambda: chase_to_fixpoint(config, rules, NullFactory("p")))
            )
        times.append(statistics.median(runs) * 1e3)
    return statistics.fmean(times) if times else 0.0


# ------------------------------------------------------------------ assembly
def per_layer_metrics(
    workload: Workload,
    tracer: Tracer,
    samples: List[Sample],
    untraced_latencies: List[float],
    probes: Dict[str, float],
    saturate_ms: float,
) -> Dict[str, Metric]:
    """Every declared per-layer metric of one traced run."""
    rec = tracer.recorder
    span_seconds = rec.totals()
    n = max(1, tracer.requests)
    sums = tracer.sums
    searches = sums.get("searches", 0.0)
    proxy = tracer.source_totals

    def per_request_ms(seconds: float) -> float:
        return seconds / n * 1e3

    def span_ms(name: str) -> float:
        return per_request_ms(span_seconds[name])

    def family_ms(family: str) -> float:
        times = tracer.search_by_family.get(family)
        return statistics.fmean(times) * 1e3 if times else 0.0

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    counts = workload.service_counts()
    access_cache = getattr(workload, "access_cache", None)
    post_mutation = [s.latency for s in samples if s.post_mutation]
    values = {
        "logic.parse_cq_ms": span_ms("logic.parse_cq"),
        "schema.accessible_schema_ms": span_ms("schema.accessible_schema"),
        "schema.fingerprint_ms": probes.get("schema.fingerprint_ms", 0.0),
        "chase.saturate_ms": saturate_ms,
        "chase.time_in_search_ms": per_request_ms(sums.get("chase_seconds", 0.0)),
        "chase.triggers_enumerated": sums.get("triggers_enumerated", 0.0) / n,
        "chase.triggers_fired": sums.get("triggers_fired", 0.0) / n,
        "chase.rounds": sums.get("chase_rounds", 0.0) / n,
        "planner.search_ms": span_ms("planner.search"),
        "planner.search_ms.example5": family_ms("example5"),
        "planner.search_ms.views": family_ms("views"),
        "planner.search_ms.pathviews": family_ms("pathviews"),
        "planner.nodes_created": sums.get("nodes_created", 0.0) / n,
        "planner.nodes_expanded": sums.get("nodes_expanded", 0.0) / n,
        "planner.pruned_by_cost": sums.get("pruned_by_cost", 0.0) / n,
        "planner.pruned_by_domination": sums.get("pruned_by_domination", 0.0) / n,
        "planner.dom_hom_calls": sums.get("dom_hom_calls", 0.0) / n,
        "planner.dom_time_ms": per_request_ms(sums.get("dom_seconds", 0.0)),
        "planner.searches_run": searches,
        "planner.plan_cache_key_ms": span_ms("planner.plan_cache_key"),
        "planner.plan_cache_get_ms": span_ms("planner.plan_cache_get"),
        "planner.plan_cache_hit_rate": ratio(
            sums.get("plan_cache_hits", 0.0), sums.get("plan_cache_lookups", 0.0)
        ),
        "cost.time_in_search_ms": per_request_ms(sums.get("cost_seconds", 0.0)),
        "plans.lower_ir_ms": span_ms("plans.lower_ir"),
        "plans.raise_ir_ms": probes.get("plans.raise_ir_ms", 0.0),
        "plans.encode_answer_ms": span_ms("plans.encode_answer"),
        "plans.interp_middleware_ms": per_request_ms(sums.get("middleware", 0.0)),
        "plans.interp_access_dispatch_ms": per_request_ms(
            sums.get("access_commands", 0.0) - proxy["seconds"]
        ),
        "exec.substitute_ms": probes.get("exec.substitute_ms", 0.0),
        "exec.interp_run_ms": probes.get("exec.interp_run_ms", 0.0),
        "exec.columnar_run_ms": probes.get("exec.columnar_run_ms", 0.0),
        "exec.columnar_compile_ms": probes.get("exec.columnar_compile_ms", 0.0),
        "exec.cache_hit_rate": (
            ratio(access_cache.hits, access_cache.hits + access_cache.misses)
            if access_cache is not None
            else 0.0
        ),
        "exec.cache_evictions": (
            float(access_cache.evictions) if access_cache is not None else 0.0
        ),
        "exec.dedup_ratio": ratio(sums.get("deduped", 0.0), sums.get("rows_in", 0.0)),
        "exec.rows_out_per_row_fetched": ratio(
            sums.get("answer_rows", 0.0), sums.get("rows_fetched", 0.0)
        ),
        "exec.peak_resident_rows": float(tracer.peak_resident_rows),
        "sources.access_ms": per_request_ms(proxy["seconds"]),
        "sources.access_call_us": ratio(proxy["seconds"], proxy["calls"]) * 1e6,
        "sources.calls_per_req": proxy["calls"] / n,
        "sources.batched_calls_per_req": proxy["batched_calls"] / n,
        "sources.sqlite_statements_per_req": proxy["statements"] / n,
        "sources.rows_returned_per_req": proxy["rows"] / n,
        "data.post_mutation_first_req_ms": (
            statistics.fmean(post_mutation) * 1e3 if post_mutation else 0.0
        ),
        "service.plan_for_ms": sum(span_ms(name) for name in _PLAN_FOR_SPANS),
        "service.queue_wait_ms": per_request_ms(sums.get("queue_wait", 0.0)),
        "service.exec_wall_ms": per_request_ms(sums.get("exec_wall", 0.0)),
        "service.overhead_ms": per_request_ms(
            sums.get("served", 0.0)
            - sums.get("queue_wait", 0.0)
            - sums.get("exec_wall", 0.0)
        ),
        "service.payload_roundtrip_ms": probes.get(
            "service.payload_roundtrip_ms", 0.0
        ),
        "service.shed": float(counts["shed"]),
        "service.rejected": float(counts["rejected"]),
        "service.failed": float(counts["failed"]),
        "trace.coverage_ratio": rec.coverage_ratio(),
        "trace.overhead_ratio": ratio(
            statistics.median(tracer.latencies) if tracer.latencies else 0.0,
            statistics.median(untraced_latencies),
        ),
    }
    assert values.keys() == PER_LAYER.keys(), values.keys() ^ PER_LAYER.keys()
    return {
        name: metric(value, PER_LAYER[name][0], tracer.requests)
        for name, value in values.items()
    }


# ------------------------------------------------------------------ the run
def run_traced(
    name: str, seed: int, seconds: float, trace_path: Optional[str] = None
) -> Dict:
    """One traced run of one workload; returns its result record.

    A quarter of the time goes to an untraced reference on a workload
    of its own (no proxy, no spans: the base of ``trace.overhead_ratio``),
    half to the replay, the rest to the probes.
    """
    reference, _ = timed_setup(name, seed, 1)
    try:
        reference.prepare()
        untraced = samples_of(Clients(reference).measure(seconds / 4))
        violations = reference.violations(len(untraced))
    finally:
        reference.close()

    tracer = Tracer(reference.clients)
    workload, _ = timed_setup(name, seed, 1, tracer.wrap_source)
    try:
        workload.prepare()
        tracer.start()
        samples = samples_of(Clients(workload, tracer.run).measure(seconds / 2))
        tracer.stop()
        probes = run_probes(workload, seconds / 4)
        metrics = per_layer_metrics(
            workload,
            tracer,
            samples,
            [s.latency for s in untraced],
            probes,
            saturate_probe(workload),
        )
    finally:
        workload.close()
    if trace_path is not None:
        os.makedirs(os.path.dirname(trace_path) or ".", exist_ok=True)
        tracer.recorder.write_jsonl(trace_path)
    pooled = untraced + samples
    failures = failure_counts(pooled)
    if probes["mismatches"]:
        failures["probe_mismatch"] = probes["mismatches"]
    failed = sum(failures.values())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 1,
        "clients": workload.clients,
        "attempted": len(pooled),
        "failed": failed,
        "failures": failures,
        "error_rate": failed / len(pooled),
        "violations": violations,
        "correct": failed == 0 and not violations,
        "metrics": metrics,
        "shares": layer_shares(tracer),
    }


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Where a traced request's time went, as shares of the root spans.

    These are the numbers the layer-separation claims in the README are
    checked against: planning (accessible schema + search), time inside
    the source, the executor's own time (execution minus the source),
    and the service's overhead around execution.
    """
    span_seconds = tracer.recorder.totals()
    sums = tracer.sums
    root = span_seconds["request"] or 1.0
    source = tracer.source_totals["seconds"]
    exec_wall = sums.get("exec_wall", 0.0)
    return {
        "planner+chase": (
            span_seconds["planner.search"]
            + span_seconds["schema.accessible_schema"]
        )
        / root,
        "sources": source / root,
        "plans+exec": (exec_wall - source) / root,
        "service_overhead": (
            sums.get("served", 0.0) - sums.get("queue_wait", 0.0) - exec_wall
        )
        / root,
    }
