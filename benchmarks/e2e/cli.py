"""Command line of the end-to-end benchmark.

Three shapes of one command:

``python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1``
    one run of one workload in this process; the last line of standard
    output is the result as one JSON object (what ``BENCHMARK.json``'s
    driver reads).
``python -m benchmarks.e2e [--seed N] [--trace] [--quick] [--runs R] [--out DIR]``
    every workload, each run in a fresh interpreter, collected into one
    result file with an envelope.
``python -m benchmarks.e2e compare A.json B.json``
    two result files, metric by metric, against the bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

SCHEMA_VERSION = 1
_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(_HERE))
DEFAULT_OUT = os.path.join(_HERE, "results")
WORKLOAD_NAMES = ("plan_cold", "exec_rows", "access_sqlite", "serve_mix")
QUICK_DIVISOR = 8


def load_contract() -> Dict:
    """``BENCHMARK.json``: run length, metric units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, help="timed seconds per run (default: run_seconds)"
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report the per-layer metrics from a traced pass",
    )
    parser.add_argument(
        "--quick", action="store_true", help=f"run for 1/{QUICK_DIVISOR} of the time"
    )
    parser.add_argument(
        "--runs", type=int, default=1, help="runs per workload, on seeds N, N+1, ..."
    )
    parser.add_argument("--out", help=f"result directory (default: {DEFAULT_OUT})")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run the command; returns the process exit code."""
    from_command_line = argv is None
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(argv[1:])
    args = _parser().parse_args(argv)
    seconds = args.seconds or float(load_contract()["run_seconds"])
    if args.quick:
        seconds /= QUICK_DIVISOR
    if args.workload is not None and args.runs == 1:
        if from_command_line and os.environ.get("PYTHONHASHSEED") != "0":
            # Set iteration order decides search ties, and with a random
            # hash seed it differs from one interpreter to the next.
            env = dict(os.environ, PYTHONHASHSEED="0")
            os.execve(sys.executable, [sys.executable] + sys.orig_argv[1:], env)
        return run_one(args, seconds)
    return run_all(args, seconds)


# ------------------------------------------------------------------ one run
def run_one(args, seconds: float) -> int:
    """One workload, in this process."""
    if args.trace:
        from benchmarks.e2e.layers import run_traced

        trace_path = (
            os.path.join(args.out, f"trace-{args.workload}.jsonl")
            if args.out
            else None
        )
        record = run_traced(args.workload, args.seed, seconds, trace_path)
    else:
        from benchmarks.e2e.harness import run_end_to_end

        record = run_end_to_end(args.workload, args.seed, seconds)
    print_record(record)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, _record_name(args.workload, args.trace, args.seed))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    # The driver's line: exactly these keys, each metric a value and a unit.
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()
                },
            }
        )
    )
    return 0 if record["correct"] else 1


def _record_name(workload: str, trace: int, seed: int) -> str:
    return f"run-{workload}-{'trace' if trace else 'e2e'}-seed{seed}.json"


def print_record(record: Dict) -> None:
    """Every metric of one run by name, with unit and sample count."""
    kind = "per-layer (traced pass)" if record["trace"] else "end-to-end"
    print(
        f"== {record['workload']}: {kind}, seed {record['seed']}, "
        f"{record['seconds']:g} s timed, {record['clients']} closed-loop "
        f"client(s); {record['attempted']} requests, {record['failed']} failed "
        f"(error_rate {record['error_rate']:.4f})"
    )
    if "passes" in record:
        print(
            f"  timings from {record['passes_timed']} of {record['passes']} passes "
            f"(the rest ran while the processor was taken away), scaled from "
            f"{record['machine_speed']:.2f} of the reference machine speed"
        )
    for name, m in record["metrics"].items():
        note = f"  [{m['note']}]" if "note" in m else ""
        print(
            f"  {name:36s} {m['value']:14.4f} {m['unit']:6s} "
            f"(n={m['samples']}){note}"
        )
    for share, value in record.get("shares", {}).items():
        print(f"  share of request time: {share:18s} {value:6.1%}")
    for kind, count in record["failures"].items():
        print(f"  FAILED {count} x {kind}")
    for violation in record["violations"]:
        print(f"  INVARIANT BROKEN: {violation}")


# ------------------------------------------------------------------ all runs
def run_all(args, seconds: float) -> int:
    """Each workload in a fresh interpreter; one result file with an envelope."""
    out = args.out or DEFAULT_OUT
    os.makedirs(out, exist_ok=True)
    names = (args.workload,) if args.workload else WORKLOAD_NAMES
    traces = (0, 1) if args.trace else (0,)
    env = dict(os.environ, PYTHONHASHSEED="0")
    records: Dict[str, Dict[int, List[Dict]]] = {}
    ok = True
    for name in names:
        for trace in traces:
            for run in range(args.runs):
                seed = args.seed + run
                command = [
                    sys.executable,
                    "-m",
                    "benchmarks.e2e",
                    "--workload",
                    name,
                    "--seed",
                    str(seed),
                    "--seconds",
                    repr(seconds),
                    "--trace",
                    str(trace),
                    "--out",
                    out,
                ]
                done = subprocess.run(
                    command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
                )
                # All but the machine-readable last line is for people.
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                sys.stdout.flush()
                ok = ok and done.returncode == 0
                path = os.path.join(out, _record_name(name, trace, seed))
                if os.path.exists(path):
                    with open(path, encoding="utf-8") as handle:
                        records.setdefault(name, {}).setdefault(trace, []).append(
                            json.load(handle)
                        )
                    os.remove(path)
    result = envelope(args, seconds)
    result["workloads"] = {
        name: summarize_runs(by_trace) for name, by_trace in records.items()
    }
    mode = "quick" if args.quick else "full"
    path = os.path.join(out, f"e2e-{mode}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"wrote {os.path.relpath(path)}")
    return 0 if ok else 1


def envelope(args, seconds: float) -> Dict:
    """What every result file says about where its numbers came from."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": "benchmarks.e2e",
        "git_sha": sha or "unknown",
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "seed": args.seed,
        "runs": args.runs,
        "mode": ("quick" if args.quick else "full") + ("+trace" if args.trace else ""),
        "seconds": seconds,
    }


def spread(values: List[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or not statistics.median(values):
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def summarize_runs(by_trace: Dict[int, List[Dict]]) -> Dict:
    """The runs of one workload: every value, its median and its spread."""

    def metrics(runs: List[Dict]) -> Dict:
        out = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            out[name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "values": values,
                "samples": [run["metrics"][name]["samples"] for run in runs],
            }
        return out

    every = [run for runs in by_trace.values() for run in runs]
    summary = {
        "clients": every[0]["clients"],
        "attempted": sum(run["attempted"] for run in every),
        "failed": sum(run["failed"] for run in every),
        "correct": all(run["correct"] for run in every),
        "violations": sorted({v for run in every for v in run["violations"]}),
        "end_to_end": metrics(by_trace[0]),
    }
    summary["error_rate"] = summary["failed"] / summary["attempted"]
    if 1 in by_trace:
        summary["per_layer"] = metrics(by_trace[1])
        summary["shares"] = by_trace[1][0]["shares"]
    return summary
