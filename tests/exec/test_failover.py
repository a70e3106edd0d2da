"""Proof-driven failover: ``serve_query`` re-plans around dead methods.

The request that meets an outage is answered in the same call: the
failed attempt marks the method dead, the next attempt plans over the
schema minus the dead set (or degrades to the accessible part), and
every attempt is an admitted, accounted request of the service.
"""

import pytest

from repro.data.source import InMemorySource
from repro.errors import (
    DeadlineExceeded,
    MethodOutage,
    NoViablePlan,
    TransientAccessError,
)
from repro.exec import BreakerRegistry, RetryPolicy
from repro.faults import FaultInjectingSource, FaultPolicy, VirtualClock
from repro.planner.plan_cache import PlanCache
from repro.planner.search import find_best_plan
from repro.scenarios import example1, example5
from repro.service import QueryService

pytestmark = pytest.mark.timeout(120)


def serving(scenario, policy=None, retries=2):
    """A one-worker service on a virtual clock over a (faulty) source."""
    clock = VirtualClock()
    source = InMemorySource(scenario.schema, scenario.instance(0))
    if policy is not None:
        source = FaultInjectingSource(source, policy, clock=clock)
    return QueryService(
        source,
        workers=1,
        plan_cache=PlanCache(capacity=8),
        retry=RetryPolicy(max_attempts=retries + 1),
        breakers=BreakerRegistry(clock=clock),
        clock=clock,
        sleep=clock.sleep,
    )


def reference_rows(scenario):
    """The fault-free answer via the normal planner/executor path."""
    result = find_best_plan(scenario.schema, scenario.query)
    assert result.found
    source = InMemorySource(scenario.schema, scenario.instance(0))
    return result.best_plan.execute(source).rows


def assert_balanced(service, submitted):
    """``served + shed + rejected == submitted``, outcome by outcome."""
    health = service.health()
    assert health.served + health.shed + health.rejected == submitted
    assert health.served == health.completed + health.partial + health.failed
    assert health.in_flight == 0
    return health


class TestFailover:
    def test_healthy_run_needs_no_failover(self):
        scenario = example5()
        with serving(scenario) as service:
            response = service.serve_query(scenario.query)
            assert response.complete and response.ok and not response.partial
            assert response.failovers == 0
            assert not response.degraded
            assert "complete" in response.describe()
            assert "failover" not in response.describe()
            health = assert_balanced(service, 1)
            assert health.method_health["dead_methods"] == []
            assert health.method_health["replans"] == 0

    def test_outage_fails_over_to_next_cheapest_plan(self):
        scenario = example5()
        with serving(scenario, FaultPolicy.outage("mt_udirect1")) as service:
            response = service.serve_query(scenario.query)
            assert response.complete and response.degraded
            assert response.failovers == 1
            assert "1 failover(s)" in response.describe()
            # The failover plan computes the same certain answers.
            assert response.table.rows == reference_rows(scenario)
            # Two admitted requests: the one that met the outage failed,
            # its re-submission completed.
            health = assert_balanced(service, 2)
            assert (health.completed, health.partial, health.failed) == (1, 0, 1)
            assert health.method_health["dead_methods"] == ["mt_udirect1"]
            assert health.method_health["replans"] == 1

    def test_submit_query_leaves_the_outage_to_the_next_request(self):
        scenario = example5()
        with serving(scenario, FaultPolicy.outage("mt_udirect1")) as service:
            first = service.submit_query(scenario.query).result(30)
            assert isinstance(first.error, MethodOutage)
            # The dead set is there by the time the waiter wakes.
            assert service.current_dead_methods() == ("mt_udirect1",)
            second = service.submit_query(scenario.query).result(30)
            assert second.complete and second.degraded
            assert second.failovers == 0
            assert_balanced(service, 2)

    def test_transient_faults_do_not_trigger_failover(self):
        scenario = example5()
        policy = FaultPolicy.transient(0.4, seed=1)
        with serving(scenario, policy, retries=3) as service:
            response = service.serve_query(scenario.query)
            assert response.complete and not response.degraded
            assert response.failovers == 0
            assert response.stats.retries > 0
            assert response.table.rows == reference_rows(scenario)
            health = assert_balanced(service, 1)
            assert health.method_health["dead_methods"] == []
            assert health.method_health["replans"] == 0

    def test_exhausted_retries_do_not_declare_the_method_dead(self):
        scenario = example5()
        # Every key fails ten times in a row: two attempts give up.
        policy = FaultPolicy.transient(1.0, seed=1, burst=10)
        with serving(scenario, policy, retries=1) as service:
            response = service.serve_query(scenario.query)
            assert isinstance(response.error, TransientAccessError)
            assert response.failovers == 0
            health = assert_balanced(service, 1)
            assert health.method_health["dead_methods"] == []
            assert health.method_health["replans"] == 0

    def test_dead_method_stays_dead_across_queries(self):
        scenario = example5()
        with serving(scenario, FaultPolicy.outage("mt_udirect1")) as service:
            first = service.serve_query(scenario.query)
            assert first.failovers == 1
            second = service.serve_query(scenario.query)
            # The second serving plans around the known-dead method
            # directly: the degraded schema's plan is a cache hit.
            assert second.complete and second.degraded
            assert second.failovers == 0
            assert second.table.rows == first.table.rows
            health = assert_balanced(service, 3)
            assert health.method_health["dead_methods"] == ["mt_udirect1"]
            assert health.method_health["replans"] == 1
            assert health.failed == 1

    def test_cascading_outages_keep_failing_over(self):
        scenario = example5()
        policy = FaultPolicy(
            seed=0, outages={"mt_udirect1": 0, "mt_udirect2": 0}
        )
        with serving(scenario, policy) as service:
            response = service.serve_query(scenario.query)
            assert response.complete
            assert response.failovers == 2
            assert response.table.rows == reference_rows(scenario)
            health = assert_balanced(service, 3)
            assert set(health.method_health["dead_methods"]) == {
                "mt_udirect1",
                "mt_udirect2",
            }
            assert (health.completed, health.failed) == (1, 2)


class TestPartialAnswers:
    def test_partial_answer_when_no_plan_survives(self):
        scenario = example1()
        with serving(scenario, FaultPolicy.outage("mt_udir")) as service:
            response = service.serve_query(scenario.query)
            # mt_prof needs an eid input nobody can supply: no full plan.
            assert not response.complete and response.error is None
            assert response.partial and response.ok and response.degraded
            assert response.failovers == 1
            assert response.table.rows == frozenset()
            assert "PARTIAL (accessible-part fallback)" in response.describe()
            health = assert_balanced(service, 2)
            assert (health.completed, health.partial, health.failed) == (0, 1, 1)

    def test_all_methods_dead_raises_no_viable_plan_with_context(self):
        scenario = example1()
        with serving(scenario) as service:
            for method in ("mt_prof", "mt_udir"):
                service.method_health.mark_dead(method)
            with pytest.raises(NoViablePlan) as excinfo:
                service.plan_for(scenario.query)
            assert excinfo.value.dead_methods == ("mt_prof", "mt_udir")


class TestDeadlines:
    def test_expired_deadline_aborts_without_failover(self):
        scenario = example5()
        # Every access costs a simulated second; the plan makes many.
        policy = FaultPolicy.transient(0.0, latency=1.0)
        with serving(scenario, policy) as service:
            response = service.serve_query(scenario.query, deadline=2.5)
            assert not response.ok
            assert isinstance(response.error, DeadlineExceeded)
            assert response.failovers == 0
            assert_balanced(service, 1)

    def test_the_deadline_covers_every_attempt(self):
        scenario = example5()
        with serving(scenario, FaultPolicy.outage("mt_udirect1")) as service:
            asked = []
            submit_query = service.submit_query

            def recording(query, **kwargs):
                """Note each attempt's deadline; an attempt takes 100 s."""
                asked.append(kwargs["deadline"])
                ticket = submit_query(query, **kwargs)
                ticket.result(30)
                service.clock.advance(100.0)
                return ticket

            service.submit_query = recording
            response = service.serve_query(scenario.query, deadline=500.0)
            assert response.complete and response.failovers == 1
            # Measured from the first submission: the second attempt
            # got what the first one left.
            assert asked == [500.0, 400.0]
            assert_balanced(service, 2)
