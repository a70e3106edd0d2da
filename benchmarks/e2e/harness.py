"""The measuring loop: set-up, timed passes, end-to-end metrics.

A run is a sequence of whole passes (the deadline is only looked at
between passes, so the count metrics do not depend on where time ran
out).  Timings are the median pass: a rate or a percentile is taken
inside each pass and the median over the passes is reported, so a
burst of interference has to hit half the passes before it moves a
number.  Passes during which the machine was visibly taken away
(process CPU time fell behind wall time) are left out of the timings;
counts are totals over every pass.

The sandbox this runs in also changes speed for a minute at a time
(everything, uniformly, up to twice as slow).  A fixed calibration
kernel is therefore timed whenever no request is in flight, and every
timing is scaled by reference / (the run's median kernel time): the
reported milliseconds are what this box measures at its usual speed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter, process_time
from typing import Callable, Dict, List, Sequence, Tuple

from benchmarks.e2e.workloads import (
    WORKLOADS,
    Sample,
    Workload,
    direct_request,
    unwrapped,
)

#: Set-up is repeated and its median reported, so one slow build does
#: not read as a regression.
SETUP_REPEATS = 5
#: A pass is disturbed when its CPU-to-wall ratio falls below this share
#: of the run's quiet ratio (the QUIET_PERCENTILE-th of all passes).  The
#: reference is the run's own, so a program that legitimately waits is
#: not mistaken for a stolen processor.
DISTURBED_BELOW = 0.9
QUIET_PERCENTILE = 90.0
#: What :func:`kernel_seconds` takes, undisturbed, on the box the
#: workloads were sized on.  A constant: it cancels out of every
#: comparison between two commits measured on one machine.
KERNEL_REFERENCE_SECONDS = 0.0030
#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: name -> (unit, better); the same eight on every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "throughput_rps": ("req/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p95_ms": ("ms", "lower"),
    "accesses_per_req": ("count", "lower"),
    "charged_cost_per_req": ("cost", "lower"),
    "plan_cost_sum": ("cost", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

Metric = Dict[str, object]  # {"value", "unit", "samples"}


def metric(value: float, unit: str, samples: int) -> Metric:
    """One reported number with its unit and the samples behind it."""
    return {"value": value, "unit": unit, "samples": samples}


# ------------------------------------------------------------------ percentiles
def percentile(ordered: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats drifting
    return ordered[int(rank) - 1]


def supported_percentile(samples: int, wanted: float = 95.0) -> float:
    """``wanted``, or the highest lower percentile the sample supports.

    A percentile is supported when at least ``SAMPLES_BEYOND`` samples
    lie beyond it.
    """
    supported = [
        p
        for p in PERCENTILE_LADDER
        if p <= wanted and samples * (100.0 - p) / 100.0 >= SAMPLES_BEYOND
    ]
    return supported[-1] if supported else PERCENTILE_LADDER[0]


# ------------------------------------------------------------------ machine speed
def kernel_seconds() -> float:
    """Time a fixed piece of interpreter work (arithmetic, dict, tuples).

    About 3 ms; it does what the program's hot loops do, so it slows
    down and speeds up with them when the machine does.  The best of
    three: the first go after a request runs on cold caches.
    """
    best = float("inf")
    for _ in range(3):
        started = perf_counter()
        total = 0
        for i in range(40000):
            total += i * i
        table = {}
        for i in range(3000):
            table[(i, str(i))] = (i,)
        best = min(best, perf_counter() - started)
    return best


def speed_of(kernel_times: Sequence[float]) -> float:
    """The machine's speed as a share of the reference (1.0 = reference)."""
    return KERNEL_REFERENCE_SECONDS / statistics.median(kernel_times)


# ------------------------------------------------------------------ the loop
@dataclass
class Pass:
    """The samples of one pass and what it cost in wall and CPU time."""

    samples: List[Sample]
    wall: float
    cpu: float


class Clients:
    """The closed-loop clients of one workload."""

    def __init__(self, workload: Workload, run: Callable = direct_request) -> None:
        self.workload = workload
        #: ``direct_request``, or the tracer's stage-by-stage replay.
        self.run = run
        #: Calibration-kernel times, one per idle moment of the run.
        self.kernel_times: List[float] = []
        workload.on_idle = lambda: self.kernel_times.append(kernel_seconds())

    def _client(self, index: int, deadline: float, sink: List[Pass]) -> None:
        workload = self.workload
        for ops in workload.passes(index):
            wall, cpu = perf_counter(), process_time()
            samples = [workload.perform(op, self.run) for op in ops]
            sink.append(Pass(samples, perf_counter() - wall, process_time() - cpu))
            workload.end_pass()
            if perf_counter() >= deadline:
                return

    def measure(self, seconds: float) -> List[Pass]:
        """Run every client for ``seconds``; returns the passes they made."""
        gc.collect()
        deadline = perf_counter() + seconds
        sinks: List[List[Pass]] = [[] for _ in range(self.workload.clients)]
        if len(sinks) == 1:
            self._client(0, deadline, sinks[0])
        else:
            errors: List[BaseException] = []

            def guarded(index: int) -> None:
                try:
                    self._client(index, deadline, sinks[index])
                except BaseException as error:  # re-raised on the main thread
                    errors.append(error)

            threads = [
                threading.Thread(target=guarded, args=(i,), name=f"client-{i}")
                for i in range(len(sinks))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if errors:
                raise errors[0]
        self.workload.drain_logs()
        return [made for sink in sinks for made in sink]


def undisturbed(passes: List[Pass]) -> List[Pass]:
    """The passes during which the processor stayed ours."""
    ratios = sorted(p.cpu / p.wall for p in passes)
    floor = DISTURBED_BELOW * percentile(ratios, QUIET_PERCENTILE)
    return [p for p in passes if p.cpu / p.wall >= floor]


def samples_of(passes: List[Pass]) -> List[Sample]:
    """Every sample of the given passes."""
    return [sample for made in passes for sample in made.samples]


def timed_setup(
    name: str, seed: int, repeats: int, wrap_source: Callable = unwrapped
) -> Tuple[Workload, float]:
    """Set the workload up ``repeats`` times; keep the last.

    Returns the median set-up time, each scaled by the machine's speed
    right after it.
    """
    times = []
    workload = None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        gc.collect()
        workload = WORKLOADS[name](seed, wrap_source)
        started = perf_counter()
        workload.setup()
        seconds = perf_counter() - started
        times.append(seconds * speed_of([kernel_seconds()]))
    return workload, statistics.median(times)


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pass_throughput(made: Pass) -> float:
    """Correct answers per second of client-observed time, one client."""
    return sum(1 for s in made.samples if s.failure is None) / sum(
        s.latency for s in made.samples
    )


def pass_percentile(made: Pass, p: float) -> float:
    """A latency percentile taken inside one pass."""
    return percentile(sorted(s.latency for s in made.samples), p)


def end_to_end_metrics(
    workload: Workload,
    passes: List[Pass],
    quiet: List[Pass],
    speed: float,
    setup_seconds: float,
) -> Dict[str, Metric]:
    """The eight end-to-end metrics of one finished run.

    ``quiet`` are the undisturbed passes the timings come from, and
    ``speed`` the machine's speed during them as a share of the
    reference: a time measured at speed 0.5 is reported as half of it.
    """
    attempted = len(samples_of(passes))
    timed = len(samples_of(quiet))
    p_high = supported_percentile(timed)
    values = {
        "setup_s": (setup_seconds, SETUP_REPEATS),
        "throughput_rps": (
            workload.clients
            * statistics.median(map(pass_throughput, quiet))
            / speed,
            timed,
        ),
        "latency_p50_ms": (
            statistics.median(pass_percentile(p, 50.0) for p in quiet)
            * speed
            * 1e3,
            timed,
        ),
        "latency_p95_ms": (
            statistics.median(pass_percentile(p, p_high) for p in quiet)
            * speed
            * 1e3,
            timed,
        ),
        "accesses_per_req": (workload.accesses / attempted, attempted),
        "charged_cost_per_req": (workload.charged_cost / attempted, attempted),
        "plan_cost_sum": (workload.plan_cost_sum(), len(workload.plans)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    out = {
        name: metric(value, END_TO_END[name][0], samples)
        for name, (value, samples) in values.items()
    }
    if p_high != 95.0:
        out["latency_p95_ms"]["note"] = (
            f"p{p_high:g}: {timed} samples do not support p95"
        )
    return out


def run_end_to_end(name: str, seed: int, seconds: float) -> Dict:
    """One untraced run of one workload; returns its result record."""
    workload, setup_seconds = timed_setup(name, seed, SETUP_REPEATS)
    try:
        workload.prepare()
        clients = Clients(workload)
        passes = clients.measure(seconds)
        quiet = undisturbed(passes)
        speed = speed_of(clients.kernel_times)
        pooled = samples_of(passes)
        failures = failure_counts(pooled)
        violations = workload.violations(len(pooled))
        metrics = end_to_end_metrics(
            workload, passes, quiet, speed, setup_seconds
        )
    finally:
        workload.close()
    failed = sum(failures.values())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "clients": workload.clients,
        "passes": len(passes),
        "passes_timed": len(quiet),
        "machine_speed": speed,
        "attempted": len(pooled),
        "failed": failed,
        "failures": failures,
        "error_rate": failed / len(pooled),
        "violations": violations,
        "correct": failed == 0 and not violations,
        "metrics": metrics,
    }


def failure_counts(samples: List[Sample]) -> Dict[str, int]:
    """How many requests failed, by kind."""
    counts: Dict[str, int] = {}
    for sample in samples:
        if sample.failure is not None:
            counts[sample.failure] = counts.get(sample.failure, 0) + 1
    return counts
