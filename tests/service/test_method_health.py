"""Health-aware degraded planning: one outage, one re-plan, recovery.

A real outage is driven through a live ``QueryService`` and the
paper-side consequence asserted: planning swings to
``schema.without_methods(dead)`` exactly once (the degraded schema
fingerprint is a different cache key), serving continues marked
``degraded``, and recovery swings the key straight back to the warm
healthy-schema entry.  The dead set is the breakers' forced-open set.
"""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import (
    DeadlineExceeded,
    MethodOutage,
    NoViablePlan,
    PlanFailed,
    ReproError,
    RowBudgetExceeded,
)
from repro.exec import ResourceBudget
from repro.faults import FaultInjectingSource, FaultPolicy
from repro.logic.queries import parse_cq
from repro.planner.plan_cache import PlanCache
from repro.schema.core import SchemaBuilder
from repro.service.service import QueryService


def redundant_schema():
    """R reachable two ways (cheap primary, pricey backup), S one way."""
    return (
        SchemaBuilder("outage")
        .relation("R", 2)
        .relation("S", 2)
        .access("primary_R", "R", inputs=[], cost=1.0)
        .access("backup_R", "R", inputs=[], cost=5.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )


def fragile_schema():
    """R reachable exactly one way: its outage leaves no viable plan."""
    return (
        SchemaBuilder("fragile")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[], cost=1.0)
        .build()
    )


def small_instance():
    return Instance(
        {
            "R": [(f"a{i}", f"b{i % 3}") for i in range(9)],
            "S": [(f"b{i % 3}", f"c{i}") for i in range(9)],
        }
    )


QUERY = parse_cq("q(a, c) :- R(a, b) & S(b, c)")


def outage_service(schema, dead_method, **kwargs):
    source = FaultInjectingSource(
        InMemorySource(schema, small_instance()),
        FaultPolicy.outage(dead_method, after=0, seed=0),
    )
    service = QueryService(
        source,
        workers=2,
        plan_cache=PlanCache(capacity=8),
        default_deadline=30.0,
        **kwargs,
    )
    return source, service


def serve_query(service, timeout=30.0):
    return service.submit_query(QUERY).result(timeout)


# ------------------------------------------------- service degraded planning
class TestDegradedPlanning:
    def test_one_outage_costs_one_replan_then_serving_continues(self):
        _, service = outage_service(redundant_schema(), "primary_R")
        oracle = frozenset(small_instance().evaluate(QUERY))
        with service:
            first = serve_query(service)
            assert isinstance(first.error, (MethodOutage, PlanFailed))
            service.wait_idle(timeout=10.0)
            for _ in range(3):
                response = serve_query(service)
                assert response.error is None, response.error
                assert frozenset(response.table.rows) == oracle
                # Full answers, but the serving regime is flagged.
                assert response.degraded is True
                service.wait_idle(timeout=10.0)
            health = service.health()
            assert health.dead_methods == ["primary_R"]
            # One transition, one search against the degraded schema --
            # requests two and three hit the degraded cache entry.
            assert health.replans == 1

    def test_recovery_closes_the_loop_without_a_new_search(self):
        source, service = outage_service(redundant_schema(), "primary_R")
        with service:
            serve_query(service)  # pays for the outage
            service.wait_idle(timeout=10.0)
            serve_query(service)  # triggers the one re-plan
            service.wait_idle(timeout=10.0)
            planned_before = service.health().planned
            source.policy = FaultPolicy(seed=0)  # the backend heals
            assert service.mark_method_recovered("primary_R") is True
            response = serve_query(service)
            assert response.error is None
            assert response.degraded is False
            service.wait_idle(timeout=10.0)
            health = service.health()
            assert health.dead_methods == []
            assert health.recoveries == 1
            # The healthy-schema plan was still cached under its own
            # key: recovery costs zero additional searches.
            assert health.planned == planned_before

    def test_no_viable_plan_serves_marked_partial_when_degraded_allowed(self):
        _, service = outage_service(fragile_schema(), "mt_R")
        oracle = frozenset(small_instance().evaluate(QUERY))
        with service:
            first = serve_query(service)
            assert isinstance(first.error, ReproError)
            service.wait_idle(timeout=10.0)
            ticket = service.submit_query(QUERY)
            response = ticket.result(10.0)
            # No plan avoids the dead method, so the accessible part
            # answers: explicitly partial + degraded, sound (a subset
            # of the oracle), fully accounted.
            assert response.error is None
            assert response.partial is True
            assert response.complete is False
            assert response.degraded is True
            assert frozenset(response.table.rows) <= oracle
            health = service.health()
            assert health.degraded_served >= 1
            assert health.served == health.completed + health.partial + health.failed

    def test_plan_for_raises_typed_no_viable_plan(self):
        _, service = outage_service(fragile_schema(), "mt_R")
        with service:
            serve_query(service)
            service.wait_idle(timeout=10.0)
            with pytest.raises(NoViablePlan) as excinfo:
                service.plan_for(QUERY)
            assert excinfo.value.dead_methods == ("mt_R",)


# ------------------------------------------- governance of degraded answers
def lookup_schema():
    """R only by key or by a free scan that is out; S free."""
    return (
        SchemaBuilder("lookup")
        .relation("R", 2)
        .relation("S", 1)
        .access("mR", "R", inputs=[0], cost=1.0)
        .access("mR_free", "R", inputs=[], cost=5.0)
        .access("mS", "S", inputs=[], cost=1.0)
        .build()
    )


LOOKUP_QUERY = parse_cq("Q(b) :- R(a, b)")


class TestDegradedAnswersAreGoverned:
    """The accessible-part fallback obeys the budget and the deadline."""

    def degraded_service(self, **kwargs):
        instance = Instance(
            {
                "R": [(f"a{i}", f"b{i}") for i in range(10)],
                "S": [(f"a{i}",) for i in range(6)],
            }
        )
        source = FaultInjectingSource(
            InMemorySource(lookup_schema(), instance),
            FaultPolicy.outage("mR_free"),
        )
        return QueryService(source, workers=1, **kwargs)

    def test_the_unbudgeted_fallback_is_the_reachable_six_rows(self):
        with self.degraded_service() as service:
            response = service.serve_query(LOOKUP_QUERY)
            assert response.partial and response.degraded
            assert response.failovers == 1
            assert response.truncated_rows == 0
            assert sorted(row[0].value for row in response.table.rows) == [
                f"b{i}" for i in range(6)
            ]

    def test_truncate_mode_keeps_the_sorted_prefix_and_counts(self):
        with self.degraded_service() as service:
            service.serve_query(LOOKUP_QUERY)  # observes the outage
            response = service.submit_query(
                LOOKUP_QUERY, budget=ResourceBudget(max_result_rows=3)
            ).result(10)
            assert response.partial and response.degraded
            assert response.truncated_rows == 3
            assert sorted(row[0].value for row in response.table.rows) == [
                "b0", "b1", "b2"
            ]
            assert "3 rows truncated" in response.describe()

    def test_error_mode_raises_the_healthy_paths_budget_error(self):
        with self.degraded_service() as service:
            service.serve_query(LOOKUP_QUERY)
            response = service.submit_query(
                LOOKUP_QUERY,
                budget=ResourceBudget(
                    max_result_rows=3, on_result_overflow="error"
                ),
            ).result(10)
            assert isinstance(response.error, RowBudgetExceeded)
            assert response.table is None and not response.partial
            health = service.health()
            assert health.served == 3 and health.failed == 2

    def test_the_default_budget_applies_as_in_submit(self):
        template = ResourceBudget(max_result_rows=2)
        with self.degraded_service(default_budget=template) as service:
            service.serve_query(LOOKUP_QUERY)
            response = service.submit_query(LOOKUP_QUERY).result(10)
            assert len(response.table.rows) == 2
            assert response.truncated_rows == 4
            # A fresh copy per request: the template is never written.
            assert template.truncated_rows == 0

    def test_an_expired_deadline_is_a_typed_error(self):
        with self.degraded_service() as service:
            service.serve_query(LOOKUP_QUERY)
            response = service.submit_query(
                LOOKUP_QUERY, deadline=1e-9
            ).result(10)
            assert isinstance(response.error, DeadlineExceeded)
            assert response.table is None
            assert response.degraded


# ------------------------------------------------------- retry-after hinting
class _StubTier:
    """A worker-pool stand-in with a fixed width and backlog."""

    workers = 2

    def __init__(self, backlog):
        self._backlog = backlog

    def backlog(self):
        return self._backlog


class TestRetryAfterHint:
    def _service(self, pool=None):
        schema = fragile_schema()
        service = QueryService(
            InMemorySource(schema, small_instance()),
            workers=8,
            worker_pool=pool,
        )
        service._service_time.observe(2.0)
        return service

    def test_hint_uses_the_narrower_tier_width(self):
        # 6 requests deep in the tier behind 2 processes drain two at a
        # time: the hint must price the tier's width (6 * 2 / 2 = 6s),
        # not the 8 service threads (which would claim 1.5s).
        service = self._service(_StubTier(backlog=6))
        assert service._retry_after_hint() == pytest.approx(6.0)

    def test_hint_without_a_tier_uses_service_width(self):
        service = self._service(None)
        # Nothing queued or in flight: the floor is one mean service time.
        assert service._retry_after_hint() == pytest.approx(2.0)

    def test_tier_backlog_beyond_in_flight_counts_as_waiting(self):
        # Another client of a shared pool (never a hedge duplicate) shows up
        # as tier backlog beyond the one request we handed to the tier.
        service = self._service(_StubTier(backlog=3))
        service._in_flight = service._on_tier = 1
        # waiting = queue(0) + in_flight(1) + max(0, 3 - on_tier(1)) = 3
        assert service._retry_after_hint() == pytest.approx(3.0)

    def test_a_request_still_planning_is_not_on_the_tier(self):
        # Our one request is planning in its submitting thread: in
        # flight, but not part of the tier's backlog of 3, all of which
        # is other clients' work.
        service = self._service(_StubTier(backlog=3))
        service._in_flight = 1
        # waiting = queue(0) + in_flight(1) + max(0, 3 - on_tier(0)) = 4
        assert service._retry_after_hint() == pytest.approx(4.0)
