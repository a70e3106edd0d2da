"""Self-tests of the end-to-end benchmark's harness.

Run with ``python -m pytest benchmarks/e2e -q`` from the repository
root (outside tier-1's ``testpaths``; the whole file takes about a
minute because two tests run the real command).
"""

import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.data.source import InMemorySource  # noqa: E402
from repro.logic.queries import parse_cq  # noqa: E402
from repro.planner.search import SearchOptions, find_best_plan  # noqa: E402
from repro.scenarios import example2, webservices  # noqa: E402
from repro.sources import SQLiteSource  # noqa: E402

from benchmarks.e2e import cli, compare, harness, layers  # noqa: E402
from benchmarks.e2e.tracing import Recorder, TimingProxy  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, query_text  # noqa: E402


def run_cli(*argv, timeout=170):
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


# ------------------------------------------------------------------ percentiles
def test_percentile_is_nearest_rank():
    ordered = list(range(1, 101))
    assert harness.percentile(ordered, 50) == 50
    assert harness.percentile(ordered, 95) == 95
    assert harness.percentile(ordered, 100) == 100
    assert harness.percentile([7.0], 95) == 7.0


@pytest.mark.parametrize(
    "samples, expected",
    [(199, 90.0), (200, 95.0), (100, 90.0), (40, 75.0), (39, 50.0), (5, 50.0)],
)
def test_p95_needs_ten_samples_beyond_it(samples, expected):
    assert harness.supported_percentile(samples, 95.0) == expected


def test_p99_is_never_reported_when_p95_was_asked_for():
    assert harness.supported_percentile(100_000, 95.0) == 95.0


# ------------------------------------------------------------------ op sequences
def _op_sequence(name, seed, passes=3):
    workload = WORKLOADS[name](seed)
    workload.setup()
    try:
        workload.prepare()
        out = []
        for client in range(workload.clients):
            for ops in itertools.islice(workload.passes(client), passes):
                out.append(
                    [(op.key, op.text, op.bindings, op.mutate) for op in ops]
                )
        return out
    finally:
        workload.close()


@pytest.mark.parametrize("name", ["plan_cold", "serve_mix"])
def test_op_sequence_is_a_pure_function_of_the_seed(name):
    assert _op_sequence(name, 5) == _op_sequence(name, 5)
    assert _op_sequence(name, 5) != _op_sequence(name, 6)


def test_serve_mix_writes_once_per_two_hundred_requests():
    workload = WORKLOADS["serve_mix"](0)
    workload._oracles = {f"venue{v}": frozenset() for v in range(workload.VENUES)}
    workload._template_text = "Qvenue(t, a) :- ..."
    ops = [
        op
        for client in range(2)
        for ops in itertools.islice(workload.passes(client), 8)
        for op in ops
    ]
    assert len(ops) == 1600
    assert sum(op.mutate for op in ops) == 4
    inlined = sum(op.key == "inlined" for op in ops) / len(ops)
    assert 0.07 < inlined < 0.13
    texts = [op.text for op in ops if op.key == "inlined"]
    assert len(set(texts)) == len(texts), "every inlined query must be a new text"


def test_same_seed_gives_identical_count_metrics():
    counts = ("accesses_per_req", "charged_cost_per_req", "plan_cost_sum")
    first = harness.run_end_to_end("plan_cold", 2, 0.3)
    second = harness.run_end_to_end("plan_cold", 2, 0.3)
    assert first["correct"] and second["correct"]
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"]


def test_query_text_round_trips_through_parse_cq():
    for name in WORKLOADS:
        workload = WORKLOADS[name](0)
        for problem in getattr(workload, "PROBLEMS", ()):
            query = problem.factory().query
            assert parse_cq(query_text(query)) == query
    inlined = WORKLOADS["serve_mix"]._query("venue7", "_1_42")
    assert parse_cq(query_text(inlined)) == inlined


# ------------------------------------------------------------------ spans
def test_span_self_time_subtracts_the_union_of_children():
    rec = Recorder()
    root = rec.add("request", 0.0, 10.0)
    child = rec.add("a", 1.0, 4.0, parent=root)
    rec.add("b", 3.0, 6.0, parent=root)  # overlaps a: union is [1, 6]
    rec.add("c", 9.0, 12.0, parent=root)  # sticks out: clipped to [9, 10]
    rec.add("a.inner", 2.0, 3.0, parent=child)
    self_times = rec.self_times()
    assert self_times[root] == pytest.approx(10.0 - 5.0 - 1.0)
    assert self_times[child] == pytest.approx(3.0 - 1.0)
    assert rec.coverage_ratio() == pytest.approx((3 + 3 + 3) / 10)
    assert rec.totals()["a"] == pytest.approx(3.0)
    assert rec.totals()["absent"] == 0.0


def test_span_context_manager_records_parent_and_request():
    rec = Recorder()
    with rec.span("outer", None, 7) as outer:
        with rec.span("inner", outer.id, 7):
            pass
    names = {name: (parent, request) for _, name, _, _, parent, request in rec.spans}
    assert names == {"inner": (outer.id, 7), "outer": (None, 7)}
    assert outer.seconds > 0


# ------------------------------------------------------------------ the proxy
def _calls(source):
    return [(r.method, r.inputs, r.results) for r in source.log]


@pytest.mark.parametrize(
    "scenario, budget",
    [(webservices(3, 5, 2), 8), (example2(directory_size=8), 6)],
    ids=["batched-path", "per-key-path"],
)
def test_proxy_does_not_change_the_calls_the_executor_makes(scenario, budget):
    plan = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    ).best_plan
    instance = scenario.instance(0)
    bare = SQLiteSource(scenario.schema, instance)
    wrapped = SQLiteSource(scenario.schema, instance)
    proxy = TimingProxy(wrapped, Recorder())
    assert plan.execute(bare).rows == plan.execute(proxy).rows
    assert _calls(bare) == _calls(wrapped)
    assert bare._statements == wrapped._statements
    assert bare.batched_calls == wrapped.batched_calls == proxy.batched_calls > 0
    assert proxy.statements == wrapped._statements
    assert proxy.rows == sum(r.results for r in wrapped.log)
    # The metering surface is the wrapped source's own.
    assert proxy.total_invocations == wrapped.total_invocations
    assert proxy.charged_cost() == wrapped.charged_cost()
    assert proxy.schema is wrapped.schema and proxy.instance is instance
    assert proxy.epoch() == wrapped.epoch()
    proxy.reset_log()
    assert wrapped.total_invocations == 0


def test_proxy_offers_access_batch_only_when_the_source_does():
    scenario = webservices(2, 2, 1)
    instance = scenario.instance(0)
    assert callable(TimingProxy(SQLiteSource(scenario.schema, instance)).access_batch)
    proxy = TimingProxy(InMemorySource(scenario.schema, instance))
    assert getattr(proxy, "access_batch", None) is None


# ------------------------------------------------------------------ compare
def _result(throughput, spread=0.01, failed=0):
    return {
        "workloads": {
            "w": {
                "failed": failed,
                "end_to_end": {
                    "throughput_rps": {"median": throughput, "spread": spread}
                },
            }
        }
    }


CONTRACT = {
    "end_to_end": [
        {"name": "throughput_rps", "unit": "req/s", "better": "higher", "bound": 0.1}
    ]
}


def test_compare_marks_ok_breach_and_unresolved():
    (row,) = compare.compare(_result(100), _result(95), CONTRACT)
    assert row["status"] == "ok" and row["worse_by"] == pytest.approx(0.05)
    (row,) = compare.compare(_result(100), _result(85), CONTRACT)
    assert row["status"] == "BREACH"
    (row,) = compare.compare(_result(100), _result(120), CONTRACT)
    assert row["status"] == "ok" and row["worse_by"] < 0
    (row,) = compare.compare(_result(100), _result(85, spread=0.2), CONTRACT)
    assert row["status"] == "unresolved"


def test_compare_exit_code(tmp_path):
    paths = []
    for i, value in enumerate((100, 50)):  # half the rate: beyond any bound
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(_result(value)))
        paths.append(str(path))
    assert cli.main(["compare", paths[0], paths[0]]) == 0
    assert cli.main(["compare", paths[0], paths[1]]) == 1


def test_spread_is_the_interquartile_range_over_the_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert cli.spread(values) == pytest.approx((17.25 - 11.75) / 14.5)
    assert cli.spread([3.0]) is None


# ------------------------------------------------------------------ the contract
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_code_and_the_contract_limits():
    contract = cli.load_contract()
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 1 <= contract["run_seconds"] <= 60
    assert [w["name"] for w in contract["workloads"]] == list(cli.WORKLOAD_NAMES)
    assert set(cli.WORKLOAD_NAMES) == set(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])
    declared = {m["name"]: (m["unit"], m["better"]) for m in contract["end_to_end"]}
    assert declared == harness.END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in contract["end_to_end"])
    assert declared["setup_s"] == ("s", "lower")
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]}
    assert per_layer == layers.PER_LAYER
    assert len(per_layer) <= 128
    for name, (unit, _) in {**declared, **per_layer}.items():
        assert NAME.match(name) and UNIT.match(unit), (name, unit)


# ------------------------------------------------------------------ the command
def _last_line(done):
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


def test_quick_run_reports_every_end_to_end_metric_under_30_seconds(tmp_path):
    started = time.monotonic()
    done = run_cli("--quick", "--seed", "4", "--out", str(tmp_path))
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout
    assert elapsed < 30, f"--quick took {elapsed:.1f} s"
    with open(tmp_path / "e2e-quick-seed4.json", encoding="utf-8") as handle:
        result = json.load(handle)
    for key in (
        "schema_version", "git_sha", "python", "numpy", "cpu_count", "seed", "mode"
    ):
        assert key in result
    assert result["mode"] == "quick" and result["seed"] == 4
    assert set(result["workloads"]) == set(cli.WORKLOAD_NAMES)
    for name, workload in result["workloads"].items():
        assert workload["correct"] and workload["error_rate"] == 0.0, name
        assert set(workload["end_to_end"]) == set(harness.END_TO_END), name
        for metric_name, m in workload["end_to_end"].items():
            assert m["unit"] == harness.END_TO_END[metric_name][0]
            assert m["median"] > 0 and len(m["samples"]) == 1
            assert f"  {metric_name} " in done.stdout


def test_traced_run_reports_every_per_layer_metric_on_every_workload():
    for name in cli.WORKLOAD_NAMES:
        done = run_cli("--workload", name, "--seconds", "1.5", "--trace", "1")
        assert done.returncode == 0, done.stdout
        line = _last_line(done)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == set(layers.PER_LAYER), name
        for metric_name, m in line["metrics"].items():
            assert set(m) == {"value", "unit"}
            assert m["unit"] == layers.PER_LAYER[metric_name][0]
        assert 0.85 <= line["metrics"]["trace.coverage_ratio"]["value"] <= 1.15
        assert line["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_command_fails_without_a_result_when_the_program_is_missing(tmp_path):
    """In a directory holding only the benchmark, there is nothing to measure."""
    bare = tmp_path / "bare"
    package = bare / "benchmarks" / "e2e"
    package.mkdir(parents=True)
    here = os.path.dirname(os.path.abspath(__file__))
    for filename in os.listdir(here):
        if filename.endswith(".py"):
            (package / filename).write_text(
                open(os.path.join(here, filename), encoding="utf-8").read()
            )
    (bare / "BENCHMARK.json").write_text(
        open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8").read()
    )
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--workload", "plan_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
