"""QueryService over the process/thread execution tier.

The contract under test: routing execution through a worker pool is
*invisible* in the answers (byte-identical tables, identical partial
prefixes under budgets), visible in ``health()`` (worker-tier
liveness), and failure-isolated (a killed worker fails the ticket with
a typed error instead of hanging, and the pool recovers for the next
request).
"""

import os

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import SourceUnavailable, WorkerCrashed
from repro.exec import AccessCache, RetryPolicy
from repro.exec.budget import ResourceBudget
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.logic.queries import parse_cq
from repro.planner.search import SearchOptions, find_best_plan
from repro.schema.core import SchemaBuilder
from repro.service import ProcessWorkerPool, QueryService, ThreadWorkerPool


def workload():
    schema = (
        SchemaBuilder("svc_parallel")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )
    instance = Instance(
        {
            "R": [(f"a{i}", f"b{i % 4}") for i in range(24)],
            "S": [(f"b{i % 4}", f"c{i}") for i in range(24)],
        }
    )
    result = find_best_plan(
        schema,
        parse_cq("q(a, c) :- R(a, b) & S(b, c)"),
        SearchOptions(max_accesses=4),
    )
    assert result.found
    return schema, instance, result.best_plan


def canonical(table):
    return (table.attributes, tuple(sorted(map(repr, table.rows))))


@pytest.fixture(scope="module")
def parts():
    return workload()


class TestTierEquivalence:
    @pytest.mark.parametrize("tier", ["thread", "process"])
    def test_answers_identical_to_in_service_execution(self, parts, tier):
        schema, instance, plan = parts
        source = InMemorySource(schema, instance)
        reference = canonical(plan.execute(source))
        if tier == "process":
            pool = ProcessWorkerPool(source, workers=2)
        else:
            pool = ThreadWorkerPool(source, workers=2)
        with QueryService(source, workers=2, worker_pool=pool) as service:
            responses = [
                ticket.result(timeout=120)
                for ticket in [service.submit(plan) for _ in range(4)]
            ]
        for response in responses:
            assert response.complete, response.describe()
            assert canonical(response.table) == reference

    def test_budget_truncation_prefix_identical_through_pool(self, parts):
        schema, instance, plan = parts
        source = InMemorySource(schema, instance)
        reference = sorted(plan.execute(source).rows)
        pool = ProcessWorkerPool(source, workers=1)
        with QueryService(source, workers=1, worker_pool=pool) as service:
            response = service.serve(
                plan,
                timeout=120,
                budget=ResourceBudget(max_result_rows=5),
            )
        assert response.partial
        assert response.truncated_rows == len(reference) - 5
        assert sorted(response.table.rows) == reference[:5]

    def test_columnar_executor_through_pool(self, parts):
        schema, instance, plan = parts
        source = InMemorySource(schema, instance)
        reference = canonical(plan.execute(source))
        pool = ProcessWorkerPool(source, workers=1)
        service = QueryService(
            source, workers=1, worker_pool=pool, executor="columnar"
        )
        with service:
            response = service.serve(plan, timeout=120)
        assert response.complete
        assert canonical(response.table) == reference

    def test_stats_merged_from_worker(self, parts):
        schema, instance, plan = parts
        source = InMemorySource(schema, instance)
        pool = ThreadWorkerPool(source, workers=1)
        with QueryService(source, workers=1, worker_pool=pool) as service:
            response = service.serve(plan, timeout=60)
            health = service.health()
        assert response.complete
        # The worker's per-command stats are the response's record, and
        # its totals land in the service ledger.
        assert response.stats is not None
        assert response.stats.commands
        assert health.stats is not None
        assert health.stats["commands"] == []
        assert (
            health.stats["accesses_dispatched"]
            == response.stats.accesses_dispatched
            > 0
        )


class TestWhatATierRequestDoesNotShare:
    """A tier request runs with no access cache and breakers of its own."""

    def test_the_service_cache_is_never_consulted(self, parts):
        schema, instance, plan = parts
        source = InMemorySource(schema, instance)
        cache = AccessCache()
        pool = ThreadWorkerPool(source, workers=1)
        with QueryService(
            source, workers=1, cache=cache, worker_pool=pool
        ) as service:
            responses = [service.serve(plan, timeout=60) for _ in range(3)]
        assert all(response.complete for response in responses)
        assert responses[-1].stats.accesses_dispatched > 0
        assert (cache.hits, cache.misses) == (0, 0)

    def test_a_breaker_opened_in_the_tier_stays_there(self, parts):
        schema, instance, plan = parts
        # Every key fails its first 10 attempts; three are allowed, and
        # the third failure opens the method's breaker.
        source = FaultInjectingSource(
            InMemorySource(schema, instance),
            FaultPolicy(unavailable_rate=1.0, burst=10),
        )
        pool = ThreadWorkerPool(source, workers=1)
        with QueryService(
            source,
            workers=1,
            retry=RetryPolicy(max_attempts=3),
            worker_pool=pool,
        ) as service:
            response = service.serve(plan, timeout=60)
            health = service.health()
        assert isinstance(response.error, SourceUnavailable)
        assert response.stats.breaker_trips == 1
        assert health.breakers == {}


class TestHealthReporting:
    def test_health_reports_worker_tier(self, parts):
        schema, instance, plan = parts
        source = InMemorySource(schema, instance)
        pool = ProcessWorkerPool(source, workers=2)
        with QueryService(source, workers=1, worker_pool=pool) as service:
            service.serve(plan, timeout=120)
            health = service.health()
        tier = health.worker_tier
        assert tier is not None
        assert tier["tier"] == "process"
        assert tier["alive"]
        assert tier["workers"] == 2
        assert tier["tasks"] >= 1
        assert "worker_tier" in health.as_dict()

    def test_no_pool_means_no_tier_section(self, parts):
        schema, instance, _plan = parts
        source = InMemorySource(schema, instance)
        with QueryService(source, workers=1) as service:
            health = service.health()
        assert health.worker_tier is None
        assert "DEGRADED" not in health.summary()

    def test_dead_pool_is_reported_degraded_not_hung(self, parts):
        schema, instance, plan = parts
        source = InMemorySource(schema, instance)
        pool = ThreadWorkerPool(source, workers=1)
        with QueryService(source, workers=1, worker_pool=pool) as service:
            # Simulate the tier dying out from under the service.
            pool.shutdown()
            health = service.health()
            assert health.worker_tier is not None
            assert not health.worker_tier["alive"]
            assert "DEGRADED" in health.summary()
            # Requests fail with a typed error -- they do not hang.
            response = service.serve(plan, timeout=30)
            assert not response.ok
            assert isinstance(response.error, WorkerCrashed)


class TestCrashRecovery:
    def test_killed_worker_fails_ticket_typed_and_pool_recovers(
        self, parts
    ):
        schema, instance, plan = parts
        source = InMemorySource(schema, instance)
        reference = canonical(plan.execute(source))
        pool = ProcessWorkerPool(
            source, workers=2, start_method="fork"
        )
        with QueryService(source, workers=1, worker_pool=pool) as service:
            # Warm the pool, then hard-kill a worker underneath it.
            assert service.serve(plan, timeout=120).complete
            victim = pool._executor.submit(os._exit, 13)
            with pytest.raises(Exception):
                victim.result(timeout=60)
            # The in-flight ticket fails with the typed crash error...
            response = service.serve(plan, timeout=60)
            assert not response.ok
            assert isinstance(response.error, WorkerCrashed)
            # ...and the tier has already restarted: same plan, same
            # answer, and health records the crash instead of hiding it.
            recovered = service.serve(plan, timeout=120)
            assert recovered.complete, recovered.describe()
            assert canonical(recovered.table) == reference
            health = service.health()
        assert health.worker_tier["alive"]
        assert health.worker_tier["crashes"] == 1
        assert health.worker_tier["restarts"] == 1
