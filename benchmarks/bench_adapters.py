"""ADAPTERS: real backends vs. the in-memory oracle, byte for byte.

A standalone runner (``python benchmarks/bench_adapters.py``) that
writes ``BENCH_adapters.json`` (rendered by ``report.py
--adapters-json``):

* **differential matrix** -- every scenario in the library (the
  paper's, and ``mixed``: Python-equal keys of different types) is
  planned once, then the plan is executed against the in-memory oracle and
  against both real backends (:class:`~repro.sources.SQLiteSource`,
  :class:`~repro.sources.HTTPSource` over the paginated stub
  transport) under several conditions: clean, under a seeded transient
  fault schedule (retries on), with the SQLite connection severed
  every third statement (mid-plan reconnects), and after a backend
  mutation (epoch bump -> snapshot reload).  The committed claim,
  asserted row by row: **byte-identical sorted answers in every
  cell**.
* **rate-limit compliance** -- the same request sequence against a
  token-bucket-policed web service, with and without client-side
  pacing.  Unpaced, the server's ``over_budget`` counter shows the
  429 storm the client then rides out via ``Retry-After``; paced at
  the advertised budget, the server sees **zero** over-budget
  requests -- the compliance number ``report.py`` renders.
* **throughput** -- sequential plan executions per backend, so the
  adapter overhead (SQL round trips, HTTP pagination) is visible next
  to the oracle's in-process dictionary lookups.
"""

import argparse
import json
import time

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec.cache import AccessCache
from repro.exec.context import ExecutionContext
from repro.exec.resilience import (
    BreakerRegistry,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.logic.queries import cq
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import (
    Scenario,
    example1,
    example2,
    path_views,
    referential_chain,
    view_stack_scenario,
    webservices,
)
from repro.schema.core import SchemaBuilder
from repro.sources import (
    HTTPSource,
    PacedSource,
    SQLiteSource,
    StubTransport,
)

_NO_SLEEP = lambda _seconds: None  # noqa: E731

#: The key column of the ``mixed`` scenario: cells that are one key
#: under Python equality though their types differ, a str spelled like
#: one of them, and one NaN object (a key equal only to itself).
_MIXED_KEYS = [1, 1.0, True, 0, -0.0, False, "1", float("nan")]


def mixed():
    """A keyed method whose key column mixes Python-equal cells.

    ``Item`` is read freely and every key it holds is looked up in
    ``Tag`` through ``mt_tag``: ``1``, ``1.0`` and ``True`` are one key
    and match all three of their rows, as do the three zeros, while
    ``"1"`` and the NaN object match only themselves (a second NaN in
    ``Tag`` matches nothing).  The key set reaches a backend as one
    batch or, through the access cache, key by key.
    """
    schema = (
        SchemaBuilder("mixed")
        .relation("Item", 2, ["id", "key"])
        .relation("Tag", 2, ["key", "tag"])
        .access("mt_item", "Item", inputs=[], cost=1.0)
        .access("mt_tag", "Tag", inputs=[0], cost=2.0)
        .build()
    )
    query = cq(
        ["?id", "?tag"],
        [("Item", ["?id", "?key"]), ("Tag", ["?key", "?tag"])],
        name="Qmixed",
    )

    def make_instance(seed):
        return Instance(
            {
                "Item": [(f"i{n}", key) for n, key in enumerate(_MIXED_KEYS)],
                "Tag": [(key, f"t{n}") for n, key in enumerate(_MIXED_KEYS)]
                + [(float("nan"), "another nan")],
            }
        )

    return Scenario("mixed", schema, query, make_instance)

#: (name, factory, max_accesses) -- the library both modes draw from.
_LIBRARY = [
    ("example1", example1, 6),
    ("example2", example2, 6),
    ("chain3", lambda: referential_chain(3), 6),
    ("views", view_stack_scenario, 6),
    ("webservices", webservices, 6),
    ("pathviews3", lambda: path_views(3), 6),
    ("mixed", mixed, 4),
]

_QUICK_LIBRARY = ["example1", "chain3", "pathviews3", "mixed"]


def canonical(table):
    """The byte-comparable form of an answer table."""
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


def _retrying_dispatcher(seed):
    """A per-key retrier that outlasts burst=2 schedules, no real sleep.

    The breaker threshold is raised well above the fault density: this
    benchmark measures *identity under recovery*, and a breaker
    opening mid-matrix (a different protection, by design) would only
    mask the property under test.
    """
    return ResilientDispatcher(
        retry=RetryPolicy(
            max_attempts=6, base_delay=0.0001, max_delay=0.0002, seed=seed
        ),
        breakers=BreakerRegistry(failure_threshold=1000),
        sleep=_NO_SLEEP,
    )


def _fault_policy(seed):
    return FaultPolicy(
        seed=seed,
        unavailable_rate=0.2,
        timeout_rate=0.1,
        rate_limit_rate=0.1,
        burst=2,
    )


def _backend(kind, schema, instance, condition, seed):
    """One (backend, condition) cell: the source plus its counter probe."""
    if kind == "sqlite":
        # drop_every=2 severs before every second statement -- low
        # enough that even the 2-statement batched plans reconnect
        # mid-flight.
        drop = 2 if condition == "reconnect" else None
        backend = SQLiteSource(
            schema, instance, drop_every=drop, sleep=_NO_SLEEP
        )
        source = backend
        if condition == "faults":
            source = FaultInjectingSource(backend, _fault_policy(seed))

        def counters():
            return {
                "accesses": backend.total_invocations,
                "reconnects": backend.reconnects,
                "batched_calls": backend.batched_calls,
                "statements": backend._statements,
            }

        return source, counters
    policy = _fault_policy(seed) if condition == "faults" else None
    transport = StubTransport(
        schema, instance, page_size=7, fault_policy=policy
    )
    backend = HTTPSource(transport, sleep=_NO_SLEEP)
    if condition == "reconnect":
        # The HTTP analogue of connection loss is snapshot movement;
        # covered by the "mutated" condition -- serve clean here.
        pass

    def counters():
        return {
            "accesses": backend.total_invocations,
            "batched_calls": backend.batched_calls,
            "retry_after_waits": backend.retry_after_waits,
            "snapshot_restarts": backend.snapshot_restarts,
            **transport.counters(),
        }

    return backend, counters


def differential_matrix(quick, seed=0):
    """Every (scenario, backend, condition) cell, all asserted identical."""
    names = set(_QUICK_LIBRARY) if quick else {n for n, _, _ in _LIBRARY}
    conditions = ["clean", "faults", "reconnect", "mutated"]
    rows = []
    for name, factory, max_accesses in _LIBRARY:
        if name not in names:
            continue
        scenario = factory()
        result = find_best_plan(
            scenario.schema,
            scenario.query,
            SearchOptions(max_accesses=max_accesses),
        )
        assert result.found, f"{name}: the library must be plannable"
        plan = result.best_plan
        for backend_kind in ("sqlite", "http"):
            for condition in conditions:
                instance = scenario.instance(seed)
                oracle = canonical(
                    plan.execute(InMemorySource(scenario.schema, instance))
                )
                source, counters = _backend(
                    backend_kind, scenario.schema, instance, condition, seed
                )
                # Under faults, execute through an epoch-keyed
                # AccessCache: the cache forces per-key dispatch (the
                # batch fast path only engages cache-less), so the
                # retry layer rides out each key's burst independently
                # instead of re-running whole batches -- and the
                # cache-under-faults interplay gets differential
                # coverage for free.
                if condition == "faults":
                    resilience = _retrying_dispatcher(seed)
                    cache = AccessCache()
                else:
                    resilience = None
                    cache = None
                answer = canonical(
                    plan.execute(
                        source,
                        ExecutionContext(cache=cache, resilience=resilience),
                    )
                )
                assert answer == oracle, (name, backend_kind, condition)
                extra = {}
                if condition == "mutated":
                    # Bump the backend snapshot and re-execute: the
                    # epoch moves, tables reload, and the answer must
                    # match a *fresh* oracle over the mutated data --
                    # never a mix of snapshots.
                    relation = next(
                        r
                        for r in scenario.schema.relations
                        if instance.tuples(r.name)
                    )
                    donor = next(iter(instance.tuples(relation.name)))
                    instance.add(
                        relation.name,
                        tuple(f"mut_{c.value}" for c in donor),
                    )
                    oracle2 = canonical(
                        plan.execute(
                            InMemorySource(scenario.schema, instance)
                        )
                    )
                    answer2 = canonical(plan.execute(source))
                    assert answer2 == oracle2, (name, backend_kind)
                    extra["mutated_identical"] = True
                if condition == "reconnect" and backend_kind == "sqlite":
                    snapshot = counters()
                    # A single-statement plan (e.g. one free view
                    # access) has no mid-plan boundary to sever at;
                    # everything longer must actually reconnect.
                    if snapshot["statements"] >= 2:
                        assert snapshot["reconnects"] > 0, (
                            "the reconnect condition must actually reconnect"
                        )
                rows.append(
                    {
                        "scenario": name,
                        "backend": backend_kind,
                        "condition": condition,
                        "answer_rows": len(answer[1]),
                        "identical": True,
                        "accesses": source.total_invocations,
                        "counters": counters(),
                        **extra,
                    }
                )
    return rows


def rate_limit_compliance(requests=200, seed=0):
    """Paced vs. unpaced clients against a policed stub, both sound.

    Raw ``mt_prof`` lookups (one HTTP request each, so client tokens
    and server tokens correspond 1:1) against a server that refills 500
    tokens/s from a burst of 4.  The unpaced client's in-process demand
    is orders of magnitude above that, so it provably trips policing
    (and then rides out every 429 via ``Retry-After``, still returning
    oracle-identical answers); the paced client sits just under the
    advertised budget and the server sees **zero** over-budget
    requests.
    """
    scenario = example1()
    keys = [f"e{i}" for i in range(20)]
    rows = []
    for paced in (False, True):
        instance = scenario.instance(seed)
        oracle = InMemorySource(scenario.schema, instance)
        transport = StubTransport(
            scenario.schema, instance, rate_limit=500.0, burst=4.0
        )
        client = HTTPSource(transport, max_retry_after_waits=256)
        source = (
            PacedSource(client, rate=450.0, capacity=4.0, max_wait=2.0)
            if paced
            else client
        )
        started = time.perf_counter()
        for i in range(requests):
            key = keys[i % len(keys)]
            assert source.access("mt_prof", (key,)) == oracle.access(
                "mt_prof", (key,)
            )
        elapsed = time.perf_counter() - started
        counters = transport.counters()
        if paced:
            assert counters["over_budget"] == 0, counters
        else:
            assert counters["over_budget"] > 0, counters
        rows.append(
            {
                "paced": paced,
                "requests": requests,
                "server_requests": counters["requests"],
                "over_budget": counters["over_budget"],
                "retry_after_waits": client.retry_after_waits,
                "elapsed": elapsed,
                "throughput_rps": requests / elapsed if elapsed else 0.0,
                "identical_to_oracle": True,
            }
        )
    return rows


def throughput(requests=32, seed=0):
    """Sequential plan executions per backend: adapter overhead, visible."""
    scenario = example1()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=6)
    )
    assert result.found
    plan = result.best_plan
    rows = []
    for kind in ("memory", "sqlite", "http"):
        instance = scenario.instance(seed)
        if kind == "sqlite":
            source = SQLiteSource(scenario.schema, instance)
        elif kind == "http":
            source = HTTPSource(
                StubTransport(scenario.schema, instance, page_size=25)
            )
        else:
            source = InMemorySource(scenario.schema, instance)
        reference = canonical(
            plan.execute(InMemorySource(scenario.schema, instance))
        )
        started = time.perf_counter()
        for _ in range(requests):
            assert canonical(plan.execute(source)) == reference
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "backend": kind,
                "requests": requests,
                "elapsed": elapsed,
                "throughput_rps": requests / elapsed if elapsed else 0.0,
            }
        )
    return rows


def run_benchmark(quick):
    """The full report dict (also asserting every identity throughout)."""
    matrix = differential_matrix(quick)
    assert matrix and all(row["identical"] for row in matrix)
    compliance = rate_limit_compliance(80 if quick else 200)
    rates = throughput(16 if quick else 64)
    paced = next(row for row in compliance if row["paced"])
    return {
        "benchmark": "bench_adapters",
        "mode": "quick" if quick else "full",
        "differential": {"rows": matrix},
        "rate_limit": {
            "rows": compliance,
            "compliant": paced["over_budget"] == 0,
        },
        "throughput": {"rows": rates},
    }


def main(argv=None):
    """CLI entry point: run, assert, write the JSON report."""
    parser = argparse.ArgumentParser(
        description="differential-test the real backends against the oracle"
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="three scenarios and short sweeps for CI",
    )
    parser.add_argument(
        "--output", default="BENCH_adapters.json", help="report destination"
    )
    args = parser.parse_args(argv)
    report = run_benchmark(args.quick)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
    cells = report["differential"]["rows"]
    print(
        f"differential: {len(cells)} cells, all identical "
        f"({len({c['scenario'] for c in cells})} scenarios x "
        f"2 backends x 4 conditions)"
    )
    for row in report["rate_limit"]["rows"]:
        label = "paced" if row["paced"] else "unpaced"
        print(
            f"rate limit [{label}]: {row['over_budget']} over-budget / "
            f"{row['server_requests']} server requests, "
            f"{row['throughput_rps']:.0f} req/s"
        )
    for row in report["throughput"]["rows"]:
        print(
            f"throughput [{row['backend']}]: "
            f"{row['throughput_rps']:.0f} req/s"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
