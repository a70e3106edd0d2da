"""``compare A.json B.json``: two result files against the bounds.

For every workload and end-to-end metric: both medians, how much worse
B is than A, and the bound from ``BENCHMARK.json``.  A difference
beyond the bound is a breach (exit code 1) -- unless the runs of either
file spread wider than the bound, in which case the pair cannot tell
and is marked unresolved.
"""

from __future__ import annotations

import argparse
import json
from typing import Dict, List, Optional

from benchmarks.e2e.cli import load_contract


def worsening(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if not old:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def compare(a: Dict, b: Dict, contract: Dict) -> List[Dict]:
    """One row per workload and end-to-end metric present in both files."""
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        ours = a["workloads"][workload]["end_to_end"]
        theirs = b["workloads"][workload]["end_to_end"]
        for declared in contract["end_to_end"]:
            name = declared["name"]
            if name not in ours or name not in theirs:
                continue
            worse = worsening(
                ours[name]["median"], theirs[name]["median"], declared["better"]
            )
            spreads = [
                s for s in (ours[name]["spread"], theirs[name]["spread"])
                if s is not None
            ]
            widest: Optional[float] = max(spreads) if spreads else None
            if widest is not None and widest > declared["bound"]:
                status = "unresolved"
            elif worse > declared["bound"]:
                status = "BREACH"
            else:
                status = "ok"
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": declared["unit"],
                    "a": ours[name]["median"],
                    "b": theirs[name]["median"],
                    "worse_by": worse,
                    "spread": widest,
                    "bound": declared["bound"],
                    "status": status,
                }
            )
    return rows


def main(argv: List[str]) -> int:
    """Print the comparison; exit code 1 on a breach."""
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
    parser.add_argument("a")
    parser.add_argument("b")
    args = parser.parse_args(argv)
    files = []
    for path in (args.a, args.b):
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    rows = compare(files[0], files[1], load_contract())
    print(
        f"{'workload':14s} {'metric':22s} {'A':>12s} {'B':>12s} unit   "
        f"{'B worse by':>10s} {'spread':>8s} {'bound':>6s}  status"
    )
    for row in rows:
        spread = "n/a" if row["spread"] is None else f"{row['spread']:.1%}"
        print(
            f"{row['workload']:14s} {row['metric']:22s} {row['a']:12.4f} "
            f"{row['b']:12.4f} {row['unit']:6s} {row['worse_by']:+10.1%} "
            f"{spread:>8s} {row['bound']:6.0%}  {row['status']}"
        )
    failed = [w for f in files for w, r in f["workloads"].items() if r["failed"]]
    for workload in failed:
        print(f"{workload}: requests failed (error_rate must stay 0)")
    breaches = [row for row in rows if row["status"] == "BREACH"]
    return 1 if breaches or failed else 0
