"""The traced pass: spans around the calls into each layer.

The program has no spans of its own yet, so the harness replays the
pipeline stage by stage with the same public calls ``submit_query``
makes -- ``parse_cq``, ``plan_cache_key`` / ``PlanCache.get``,
``plan_search``, ``plan_to_ir``, ``service.submit``, ``table_to_ir`` --
each inside a span.  Time inside the source comes from a timing proxy,
time inside commands from ``ExecStats``, search internals from
``SearchStats``.  Nothing under ``src/`` is touched.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.logic.queries import parse_cq
from repro.planner.plan_cache import plan_cache_key
from repro.planner.search import SearchOptions, plan_search
from repro.plans.ir import PlanIR, table_to_ir
from repro.schema.accessible import AccessibleSchema, Variant

from benchmarks.e2e.workloads import (
    RESULT_TIMEOUT,
    Live,
    Op,
    Sample,
    Workload,
    verdict,
)

# A span is (id, name, start, end, parent id or None, request id or None).
Span = Tuple[int, str, float, float, Optional[int], Optional[int]]


class Timed:
    """Handle on a span being timed: its id, and its length once closed."""

    __slots__ = ("id", "seconds")

    def __init__(self, span_id: int) -> None:
        self.id = span_id
        self.seconds = 0.0


class Recorder:
    """Spans kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        # next() on a count and list.append are atomic under the GIL,
        # so two clients can record without a lock.
        self._ids = itertools.count(1)

    def reserve(self) -> int:
        """An id for a span whose end is not known yet."""
        return next(self._ids)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: Optional[int] = None,
        span_id: Optional[int] = None,
    ) -> int:
        """Record a finished span; returns its id."""
        if span_id is None:
            span_id = self.reserve()
        self.spans.append((span_id, name, start, end, parent, request))
        return span_id

    @contextmanager
    def span(
        self, name: str, parent: Optional[int], request: Optional[int]
    ) -> Iterator["Timed"]:
        """Time the body as one span; the handle holds its id and length."""
        timed = Timed(self.reserve())
        start = perf_counter()
        try:
            yield timed
        finally:
            end = perf_counter()
            timed.seconds = end - start
            self.add(name, start, end, parent, request, timed.id)

    def self_times(self) -> Dict[int, float]:
        """Each span's duration minus the part its children cover.

        Children may overlap each other and may stick out of the parent
        (derived spans are laid out from counters); what counts is the
        union of their intervals clipped to the parent's.
        """
        children: Dict[int, List[Tuple[float, float]]] = {}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for span_id, _, start, end, _, _ in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[span_id] = (end - start) - covered
        return out

    def coverage_ratio(self) -> float:
        """Time inside the roots' direct children over time inside the roots."""
        roots = {s[0]: s[3] - s[2] for s in self.spans if s[4] is None and s[1] == "request"}
        inside = sum(s[3] - s[2] for s in self.spans if s[4] in roots)
        total = sum(roots.values())
        return inside / total if total else 0.0

    def totals(self) -> Dict[str, float]:
        """Seconds inside the spans of each name (absent names read 0)."""
        out: Dict[str, float] = defaultdict(float)
        for _, name, start, end, _, _ in self.spans:
            out[name] += end - start
        return out

    def write_jsonl(self, path: str) -> None:
        """One JSON object per span, with its self time."""
        self_times = self.self_times()
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": request,
                            "self": self_times[span_id],
                        }
                    )
                    + "\n"
                )


class TimingProxy:
    """A source seen through a stopwatch, faithful to its protocol.

    ``access_batch`` exists on the proxy only when the wrapped source
    has it: ``AccessCommand`` feature-detects the method, so a wrapper
    that always offered it would silently change the executor's path.
    Everything else (``schema``, ``instance``, ``epoch``, the metering
    surface) is forwarded untouched.
    """

    def __init__(self, inner, recorder: Optional[Recorder] = None) -> None:
        self.inner = inner
        self.recorder = recorder
        #: (span id, request id) the next accesses belong to, set by a
        #: single-client tracer; None when requests overlap.
        self.context: Optional[Tuple[int, int]] = None
        self._lock = threading.Lock()
        self.reset()
        if callable(getattr(inner, "access_batch", None)):
            self.access_batch = self._access_batch

    def reset(self) -> None:
        """Zero the counters (after set-up, before the traced requests)."""
        self.calls = 0
        self.batched_calls = 0
        self.rows = 0
        self.seconds = 0.0
        self._statements_before = getattr(self.inner, "_statements", 0)

    @property
    def statements(self) -> int:
        """SQL statements the wrapped source ran since :meth:`reset`."""
        return getattr(self.inner, "_statements", 0) - self._statements_before

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def _note(self, start: float, end: float, rows: int, batched: bool) -> None:
        with self._lock:
            self.calls += 1
            self.batched_calls += batched
            self.rows += rows
            self.seconds += end - start
        if self.recorder is not None:
            parent, request = self.context or (None, None)
            self.recorder.add("sources.access", start, end, parent, request)

    def access(self, method_name, inputs=()):
        """Forward one access, timed."""
        start = perf_counter()
        rows = self.inner.access(method_name, inputs)
        self._note(start, perf_counter(), len(rows), False)
        return rows

    def _access_batch(self, method_name, inputs_list):
        start = perf_counter()
        answers = self.inner.access_batch(method_name, inputs_list)
        self._note(
            start, perf_counter(), sum(len(r) for r in answers.values()), True
        )
        return answers


# ------------------------------------------------------------------ the replay
#: SearchStats / ChaseStats / DominationStats fields summed per run.
_SEARCH_COUNTERS = (
    "nodes_created",
    "nodes_expanded",
    "pruned_by_cost",
    "pruned_by_domination",
)


class Tracer:
    """Replays requests stage by stage and sums what the layers report."""

    def __init__(self, workload_clients: int) -> None:
        self.recorder = Recorder()
        self.proxies: List[TimingProxy] = []
        self.single_client = workload_clients == 1
        self.requests = 0
        self.latencies: List[float] = []
        self.sums: Dict[str, float] = {}
        self.search_by_family: Dict[str, List[float]] = {}
        self.peak_resident_rows = 0
        self._lock = threading.Lock()

    def wrap_source(self, source) -> TimingProxy:
        """The ``wrap_source`` hook handed to the workload."""
        proxy = TimingProxy(source, self.recorder)
        self.proxies.append(proxy)
        return proxy

    def start(self) -> None:
        """Forget what set-up did: spans, proxy counters."""
        self.recorder.spans.clear()
        for proxy in self.proxies:
            proxy.reset()

    def stop(self) -> None:
        """Freeze the proxies' totals (the probes reuse the sources)."""
        self.source_totals = {
            field: sum(getattr(proxy, field) for proxy in self.proxies)
            for field in ("calls", "batched_calls", "rows", "seconds", "statements")
        }

    def _add(self, **amounts: float) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self.sums[name] = self.sums.get(name, 0.0) + amount

    def run(self, workload: Workload, live: Live, op: Op) -> Sample:
        """One request, replayed with a span around each stage."""
        rec = self.recorder
        service = live.service
        root = rec.reserve()
        proxy = service.source if self.single_client else None
        root_start = perf_counter()
        comparable_start = root_start
        try:
            if op.text is None:
                plan = live.plan
            else:
                with rec.span("logic.parse_cq", root, root):
                    query = parse_cq(op.text)
                comparable_start = perf_counter()
                plan = self._plan(service, query, live.options, op, root)
            with rec.span("plans.lower_ir", root, root) as lowering:
                PlanIR.from_plan(plan).fingerprint()
            exec_id = rec.reserve()
            if proxy is not None:
                proxy.context = (exec_id, root)
            with rec.span("service.request", root, root) as request:
                started = perf_counter()
                ticket = service.submit(plan, bindings=op.bindings)
                response = ticket.result(RESULT_TIMEOUT)
                done = perf_counter()
        except (ReproError, TimeoutError) as error:
            return Sample(
                op.key, op.family, perf_counter() - root_start, type(error).__name__
            )
        finally:
            if proxy is not None:
                proxy.context = None
        exec_start = done - response.wall_time
        rec.add("service.exec", exec_start, done, request.id, root, exec_id)
        rec.add(
            "service.queue_wait",
            exec_start - response.queue_wait,
            exec_start,
            request.id,
            root,
        )
        failure = verdict(response, op.oracle)
        if response.table is not None:
            with rec.span("plans.encode_answer", root, root):
                table_to_ir(response.table)
        rec.add("request", root_start, perf_counter(), None, root, root)
        workload.note_plan(op, plan, live)
        # What submit_query would have taken: everything but the parse,
        # the lowering and the answer encoding.
        latency = (done - comparable_start) - lowering.seconds
        self._fold(op, response, latency, done - started)
        return Sample(op.key, op.family, latency, failure)

    def _plan(self, service, query, options, op: Op, root: int):
        """``QueryService.plan_for``, one public call per span."""
        rec = self.recorder
        schema = service.source.schema
        options = options if options is not None else SearchOptions()
        cache = service.plan_cache
        key = None
        if cache is not None:
            with rec.span("planner.plan_cache_key", root, root):
                key = plan_cache_key(query, schema, options.cost)
            with rec.span("planner.plan_cache_get", root, root):
                hit = cache.get(key)
            self._add(plan_cache_lookups=1, plan_cache_hits=hit is not None)
            if hit is not None:
                return hit.plan
        with rec.span("schema.accessible_schema", root, root):
            schema.validate_query(query)
            accessible = AccessibleSchema(schema, Variant.FORWARD)
        with rec.span("planner.search", root, root) as search:
            result = plan_search(accessible, query, options)
        if cache is not None:
            with rec.span("planner.plan_cache_put", root, root):
                cache.put(key, result.best_plan, result.best_cost)
        stats = result.stats
        self._add(
            searches=1,
            chase_seconds=stats.chase.time_search + stats.chase.time_fire,
            triggers_enumerated=stats.chase.triggers_enumerated,
            triggers_fired=stats.chase.triggers_fired,
            chase_rounds=stats.chase.rounds,
            dom_hom_calls=stats.domination.hom_calls,
            dom_seconds=stats.domination.time_seconds,
            cost_seconds=stats.time_cost,
            **{name: getattr(stats, name) for name in _SEARCH_COUNTERS},
        )
        with self._lock:
            self.search_by_family.setdefault(op.family, []).append(
                search.seconds
            )
        return result.best_plan

    def _fold(self, op: Op, response, latency: float, served: float) -> None:
        amounts = {
            "queue_wait": response.queue_wait,
            "exec_wall": response.wall_time,
            "served": served,
        }
        stats = response.stats
        if stats is not None:
            access = [c for c in stats.commands if c.kind == "access"]
            amounts.update(
                middleware=sum(
                    c.wall_time for c in stats.commands if c.kind == "middleware"
                ),
                access_commands=sum(c.wall_time for c in access),
                rows_in=sum(c.rows_in for c in access),
                deduped=sum(c.deduped for c in access),
                rows_fetched=sum(c.rows_fetched for c in access),
            )
        if response.table is not None:
            amounts["answer_rows"] = len(response.table.rows)
        self._add(**amounts)
        with self._lock:
            self.requests += 1
            self.latencies.append(latency)
            if stats is not None:
                self.peak_resident_rows = max(
                    self.peak_resident_rows, stats.peak_resident_rows
                )
