"""The worker-pool execution tier: specs, payloads, pools, recovery.

Everything that crosses the process boundary here is a plain JSON-able
dict -- these tests round-trip each piece through ``json.dumps`` to
prove it, because "it pickled today" is not a compatibility story.
"""

import json
import os
import time
from dataclasses import asdict

import pytest

from repro.data.decorators import LatencySource, StormyLatencySource
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import (
    MethodOutage,
    RowBudgetExceeded,
    WorkerCrashed,
    WorkerStalled,
)
from repro.exec.budget import ResourceBudget
from repro.exec.context import ExecutionContext
from repro.exec.resilience import ResilientDispatcher, RetryPolicy
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.logic.terms import Constant
from repro.plans.ir import plan_to_ir, table_from_ir
from repro.schema.core import SchemaBuilder
from repro.service import workers
from repro.service.service import QueryService
from repro.service.workers import (
    LatencyTracker,
    ProcessWorkerPool,
    SourceSpecError,
    decode_bindings,
    encode_bindings,
    encoded_plan_ir,
    execute_payload,
    rebuild_error,
    source_to_spec,
    spec_to_source,
)
from repro.source_contract import SourceWrapper
from repro.sources import PacedSource


def simple_schema():
    return (
        SchemaBuilder("workers")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )


def simple_instance(n=12):
    return Instance(
        {
            "R": [(f"a{i}", f"b{i % 3}") for i in range(n)],
            "S": [(f"b{i % 3}", f"c{i}") for i in range(n)],
        }
    )


def simple_plan(schema):
    from repro.planner.search import SearchOptions, find_best_plan
    from repro.logic.queries import parse_cq

    result = find_best_plan(
        schema,
        parse_cq("q(a, c) :- R(a, b) & S(b, c)"),
        SearchOptions(max_accesses=4),
    )
    assert result.found
    return result.best_plan


def canonical(table):
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


# ---------------------------------------------------------------- source spec
class TestSourceSpec:
    def test_memory_round_trip_is_jsonable(self):
        source = InMemorySource(simple_schema(), simple_instance())
        spec = json.loads(json.dumps(source_to_spec(source)))
        rebuilt = spec_to_source(spec)
        assert isinstance(rebuilt, InMemorySource)
        assert rebuilt.schema.name == source.schema.name
        assert rebuilt.instance.to_dict() == source.instance.to_dict()

    def test_wrapper_stack_round_trip(self):
        inner = InMemorySource(simple_schema(), simple_instance())
        stack = FaultInjectingSource(
            PacedSource(LatencySource(inner, 0.001), rate=1e6),
            FaultPolicy.transient(0.2, seed=7),
        )
        spec = json.loads(json.dumps(source_to_spec(stack)))
        rebuilt = spec_to_source(spec)
        assert isinstance(rebuilt, FaultInjectingSource)
        assert rebuilt.policy.seed == 7
        assert isinstance(rebuilt.inner, PacedSource)
        assert isinstance(rebuilt.inner.inner, LatencySource)
        assert rebuilt.inner.inner.latency == pytest.approx(0.001)

    def test_storm_wrapper_round_trip(self):
        inner = InMemorySource(simple_schema(), simple_instance())
        storm = StormyLatencySource(
            inner, base_latency=0.001, slow_latency=0.25, slow_every=5
        )
        rebuilt = spec_to_source(
            json.loads(json.dumps(source_to_spec(storm)))
        )
        assert isinstance(rebuilt, StormyLatencySource)
        assert rebuilt.base_latency == pytest.approx(0.001)
        assert rebuilt.slow_latency == pytest.approx(0.25)
        assert rebuilt.slow_every == 5
        # Each rehydrated copy storms on its own schedule (fresh call
        # counter) -- latency-only nondeterminism, answers unchanged.
        assert isinstance(rebuilt.inner, InMemorySource)

    def test_call_order_dependent_wrappers_rejected(self):
        class Counting(SourceWrapper):
            """Names no ``spec_kind``: its state is call-order dependent."""

        inner = InMemorySource(simple_schema(), simple_instance())
        counting = Counting(inner)
        with pytest.raises(SourceSpecError):
            source_to_spec(counting)
        # ... wherever in the stack it sits.
        with pytest.raises(SourceSpecError):
            source_to_spec(LatencySource(counting, 0.0))

    def test_unknown_spec_rejected(self):
        with pytest.raises(SourceSpecError):
            spec_to_source({"format": "something-else", "version": 1})


# ------------------------------------------------------------------- payload
class TestPayload:
    def test_bindings_round_trip_through_json(self):
        bindings = {Constant("x"): Constant(3), Constant("y"): Constant("z")}
        encoded = json.loads(json.dumps(encode_bindings(bindings)))
        assert decode_bindings(encoded) == bindings
        assert encode_bindings(None) is None
        assert decode_bindings(None) is None

    @staticmethod
    def retry_payload(retry):
        """A retry policy's wire form, through JSON."""
        context = ExecutionContext(resilience=ResilientDispatcher(retry=retry))
        return json.loads(json.dumps(context.to_payload()))

    def test_retry_round_trip(self):
        retry = RetryPolicy(max_attempts=3, base_delay=0.01)
        assert self.retry_payload(retry)["retry"]["max_attempts"] == 3
        assert self.retry_payload(None)["retry"] is None

    def test_retry_round_trip_keeps_the_jitter_seed(self):
        """A process-tier worker backs off exactly as the thread tier does."""
        retry = RetryPolicy(max_attempts=5, base_delay=0.02, jitter=0.5, seed=7)
        payload = self.retry_payload(retry)
        shipped = ExecutionContext.from_payload(payload).retry
        assert shipped == retry
        inputs = (Constant("k"), Constant(3))
        for attempt in range(1, 5):
            assert shipped.delay(attempt, "mt_R", inputs) == retry.delay(
                attempt, "mt_R", inputs
            )
        assert shipped.delay(1, "mt_R", inputs) != RetryPolicy(
            max_attempts=5, base_delay=0.02, jitter=0.5
        ).delay(1, "mt_R", inputs)
        # A payload written before the field existed reads as seed 0.
        del payload["retry"]["seed"]
        assert ExecutionContext.from_payload(payload).retry.seed == 0

    def test_execute_payload_matches_direct_execution(self):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = plan.execute(source)
        payload = json.loads(
            json.dumps({"plan": plan_to_ir(plan), "collect_stats": True})
        )
        result = execute_payload(source, payload)
        assert result["ok"]
        assert canonical(table_from_ir(result["table"])) == canonical(
            reference
        )
        assert result["stats"]["commands"]
        json.dumps(result)  # the response is shippable too

    def test_a_worker_task_leaves_the_worker_source_log_empty(
        self, monkeypatch
    ):
        schema = simple_schema()
        instance = simple_instance()
        plan = simple_plan(schema)
        reference = canonical(plan.execute(InMemorySource(schema, instance)))
        payload = {"plan": plan_to_ir(plan), "collect_stats": True}
        monkeypatch.setattr(workers, "_WORKER_SOURCE", None)
        workers._init_worker(
            source_to_spec(InMemorySource(schema, instance))
        )
        for _ in range(2):
            result = workers._run_payload_task(payload)
            assert result["ok"]
            assert canonical(table_from_ir(result["table"])) == reference
            assert result["stats"]["commands"]
            assert workers._WORKER_SOURCE.total_invocations == 0
        # In-process callers of execute_payload still read the log.
        source = InMemorySource(schema, instance)
        execute_payload(source, payload)
        assert source.total_invocations > 0

    def test_execute_payload_budget_truncation(self):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = sorted(plan.execute(source).rows)
        budget = ResourceBudget(max_result_rows=3)
        result = execute_payload(
            source, {"plan": plan_to_ir(plan), "budget": asdict(budget)}
        )
        assert result["ok"]
        assert result["truncated"] == len(reference) - 3
        assert sorted(table_from_ir(result["table"]).rows) == reference[:3]

    def test_execute_payload_reports_typed_error(self):
        schema = simple_schema()
        source = FaultInjectingSource(
            InMemorySource(schema, simple_instance()),
            FaultPolicy(seed=0, outages={"mt_R": 0}),
        )
        result = execute_payload(
            source, {"plan": plan_to_ir(simple_plan(schema))}
        )
        assert not result["ok"]
        assert result["error_type"] == "MethodOutage"
        rebuilt = rebuild_error(result)
        assert isinstance(rebuilt, MethodOutage)

    def test_rebuild_error_falls_back_for_unknown_types(self):
        from repro.errors import ExecutionError

        rebuilt = rebuild_error(
            {"error_type": "NoSuchError", "error": "boom"}
        )
        assert isinstance(rebuilt, ExecutionError)
        # A name that exists but is not a ReproError must not be raised.
        rebuilt = rebuild_error({"error_type": "__name__", "error": "x"})
        assert isinstance(rebuilt, ExecutionError)

    def test_rebuild_budget_error(self):
        rebuilt = rebuild_error(
            {
                "error_type": "RowBudgetExceeded",
                "error": "over",
                "rows": 10,
                "budget": 9,
            }
        )
        assert isinstance(rebuilt, RowBudgetExceeded)
        assert (rebuilt.rows, rebuilt.budget) == (10, 9)


# -------------------------------------------------------------- process tier
class TestProcessWorkerPool:
    @pytest.mark.parametrize("start_method", ["spawn", "fork"])
    def test_identical_answers_across_start_methods(self, start_method):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = canonical(plan.execute(source))
        pool = ProcessWorkerPool(
            source, workers=2, start_method=start_method
        )
        with pool:
            result = pool.run_request(
                {"plan": plan_to_ir(plan)}, timeout=120
            )
            assert result["ok"], result
            assert canonical(table_from_ir(result["table"])) == reference
            health = pool.health()
            assert health["tier"] == "process"
            assert health["start_method"] == start_method
            assert health["crashes"] == 0

    def test_killed_worker_raises_typed_error_and_pool_recovers(self):
        schema = simple_schema()
        source = InMemorySource(schema, simple_instance())
        plan = simple_plan(schema)
        reference = canonical(plan.execute(source))
        pool = ProcessWorkerPool(
            source, workers=2, start_method="fork"
        )
        with pool:
            # Hard-kill a worker mid-task: the executor breaks.
            future = pool._executor.submit(os._exit, 13)
            with pytest.raises(Exception):
                future.result(timeout=60)
            # The next request surfaces a *typed* failure, not a hang
            # and not a bare concurrent.futures internal error.
            with pytest.raises(WorkerCrashed) as excinfo:
                pool.run_request({"plan": plan_to_ir(plan)}, timeout=60)
            assert excinfo.value.restarts >= 1
            # ... and the pool has already been rebuilt: same request,
            # same bytes, no manual intervention.
            result = pool.run_request({"plan": plan_to_ir(plan)}, timeout=120)
            assert result["ok"], result
            assert canonical(table_from_ir(result["table"])) == reference
            health = pool.health()
            assert health["alive"]
            assert health["crashes"] == 1
            assert health["restarts"] == 1

    def test_run_request_before_start_is_typed(self):
        source = InMemorySource(simple_schema(), simple_instance())
        pool = ProcessWorkerPool(source, workers=1)
        with pytest.raises(WorkerCrashed):
            pool.run_request({"plan": {}})


# ------------------------------------------------------------ latency tracker
class TestLatencyTracker:
    def test_negative_samples_are_ignored(self):
        tracker = LatencyTracker()
        tracker.observe(-1.0)
        assert tracker.samples == 0


# ------------------------------------------------------------------ watchdog
class TestWatchdog:
    def test_process_pool_watchdog_kills_and_pool_recovers(self):
        schema = simple_schema()
        source = StormyLatencySource(
            InMemorySource(schema, simple_instance()),
            base_latency=0.0,
            slow_latency=30.0,
            slow_every=3,  # each worker's third access hangs
        )
        plan = simple_plan(schema)
        reference = canonical(plan.execute(source))
        pool = ProcessWorkerPool(
            source, workers=1, start_method="fork", watchdog_seconds=0.5
        )
        with pool:
            # Request 1: accesses 1-2 on the single worker, both fast.
            result = pool.run_request({"plan": plan_to_ir(plan)}, timeout=60)
            assert result["ok"]
            # Request 2: access 3 sleeps 30s; the watchdog reclaims the
            # slot in 0.5s with a typed, killed=True stall.
            with pytest.raises(WorkerStalled) as excinfo:
                pool.run_request({"plan": plan_to_ir(plan)}, timeout=60)
            assert excinfo.value.killed
            # Request 3: the recreated worker starts a fresh storm
            # counter, so the same request now succeeds -- same bytes.
            result = pool.run_request({"plan": plan_to_ir(plan)}, timeout=60)
            assert result["ok"]
            assert canonical(table_from_ir(result["table"])) == reference
            health = pool.health()
            assert health["alive"]
            assert health["stalls"] == 1
            assert health["watchdog_kills"] == 1
            assert health["restarts"] == 1

    def test_watchdog_seconds_must_be_positive(self):
        source = InMemorySource(simple_schema(), simple_instance())
        with pytest.raises(ValueError):
            ProcessWorkerPool(source, watchdog_seconds=0.0)
        with pytest.raises(ValueError):
            ProcessWorkerPool(source, workers=0)


# ------------------------------------------------- the deadline crosses tiers
class TestDeadlineCrossesTheTier:
    """The payload ships the seconds a deadline has left; the worker
    restarts it on its own clock, so an expired request frees its slot
    (before PR 21 only the parent's wait timed out)."""

    @staticmethod
    def keyed_schema():
        return (
            SchemaBuilder("slow")
            .relation("R", 2)
            .relation("S", 2)
            .access("mt_R", "R", inputs=[], cost=1.0)
            .access("mt_S", "S", inputs=[0], cost=1.0)
            .build()
        )

    def slow_source(self, latency, keys=12):
        schema = self.keyed_schema()
        instance = Instance(
            {
                "R": [(f"a{i}", f"b{i}") for i in range(keys)],
                "S": [(f"b{i}", f"c{i}") for i in range(keys)],
            }
        )
        return LatencySource(InMemorySource(schema, instance), latency)

    def test_payload_deadline_is_enforced_by_the_worker(self):
        source = self.slow_source(0.005)
        plan = simple_plan(source.schema)
        payload = {"plan": plan_to_ir(plan), "collect_stats": True}
        late = execute_payload(source, dict(payload, deadline=1e-6))
        assert late["ok"] is False
        assert late["error_type"] == "DeadlineExceeded"
        assert source.calls <= 1
        # A deadline already spent on the way is typed too, not a crash.
        spent = execute_payload(source, dict(payload, deadline=-0.5))
        assert spent["error_type"] == "DeadlineExceeded"
        # No key (or None): no deadline, as before.
        for unbounded in (payload, dict(payload, deadline=None)):
            result = execute_payload(source, unbounded)
            assert result["ok"] and len(result["table"]["rows"]) == 12

# ------------------------------------------------------- encoded-plan memo
class TestEncodedPlanMemo:
    """Satellite: hot plans are IR-encoded once, not once per dispatch."""

    def test_encoding_is_memoized_and_faithful(self):
        schema = simple_schema()
        plan = simple_plan(schema)
        first = encoded_plan_ir(plan)
        assert encoded_plan_ir(plan) is first
        assert first == plan_to_ir(plan)
        # Memoized payloads still cross the boundary as plain JSON.
        assert json.loads(json.dumps(first)) == first


# -------------------------------------------- partial markings across the tier
class TestPartialMarkingsAcrossTier:
    """Satellite: ``partial``/``truncated_rows`` survive the tier path.

    The markings are computed worker-side (the budget lives in the
    payload), cross back as plain JSON, and must land on the
    :class:`QueryResponse` exactly as the in-process path would set
    them -- under both process start methods, and even when
    a worker crash lands mid-burst.
    """

    def _expected(self, schema):
        plan = simple_plan(schema)
        source = InMemorySource(schema, simple_instance())
        return plan, sorted(plan.execute(source).rows)

    def _assert_marked(self, response, reference, keep):
        assert response.error is None
        assert response.partial is True
        assert response.complete is False
        assert response.truncated_rows == len(reference) - keep
        assert sorted(response.table.rows) == reference[:keep]

    @pytest.mark.parametrize("start_method", ["spawn", "fork"])
    def test_process_tier_marks_truncation_end_to_end(self, start_method):
        schema = simple_schema()
        plan, reference = self._expected(schema)
        source = InMemorySource(schema, simple_instance())
        pool = ProcessWorkerPool(
            source, workers=2, start_method=start_method
        )
        service = QueryService(source, workers=2, worker_pool=pool)
        with service:
            response = service.serve(
                plan, budget=ResourceBudget(max_result_rows=3), timeout=120
            )
            self._assert_marked(response, reference, 3)
            # An unbudgeted request through the same tier is complete
            # and unmarked -- truncation state never leaks across
            # requests.
            clean = service.serve(plan, timeout=120)
            assert clean.complete is True
            assert clean.partial is False
            assert clean.truncated_rows == 0

    def test_markings_survive_a_mid_burst_worker_crash(self):
        schema = simple_schema()
        plan, reference = self._expected(schema)
        source = InMemorySource(schema, simple_instance())
        pool = ProcessWorkerPool(
            source, workers=2, start_method="fork"
        )
        service = QueryService(source, workers=2, worker_pool=pool)
        with service:
            before = service.serve(
                plan, budget=ResourceBudget(max_result_rows=3), timeout=120
            )
            self._assert_marked(before, reference, 3)
            # Hard-kill a worker, then keep serving budget requests:
            # the crash surfaces typed on at most the requests it hit,
            # and every surviving answer still carries its markings.
            pool._executor.submit(os._exit, 13)
            tickets = [
                service.submit(
                    plan,
                    budget=ResourceBudget(max_result_rows=3),
                    deadline=120,
                )
                for _ in range(4)
            ]
            crashed = 0
            for ticket in tickets:
                response = ticket.result(timeout=130)
                if response.error is not None:
                    assert isinstance(response.error, WorkerCrashed)
                    crashed += 1
                else:
                    self._assert_marked(response, reference, 3)
            # Give the executor a beat to notice the corpse, then prove
            # the recovered pool serves marked answers again.
            time.sleep(0.3)
            after = service.serve(
                plan, budget=ResourceBudget(max_result_rows=3), timeout=120
            )
            if after.error is not None:
                # The crash surfaced here instead: typed, and the pool
                # was recreated by the same call -- retry once.
                assert isinstance(after.error, WorkerCrashed)
                after = service.serve(
                    plan, budget=ResourceBudget(max_result_rows=3), timeout=120
                )
            self._assert_marked(after, reference, 3)
            assert pool.health()["crashes"] >= 1
            assert pool.health()["restarts"] >= 1
