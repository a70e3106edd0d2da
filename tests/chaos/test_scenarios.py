"""The seven-scenario chaos matrix: every run terminates, typed, sound.

Each test runs one deterministic scenario end-to-end against a live
service and asserts (a) the report is clean -- zero hangs, zero
invariant violations, which covers the accounting identity and
oracle-exactness -- and (b) the scenario-specific counters prove the
chaos actually happened (a scenario that injected nothing proves
nothing).
"""

import pytest

from repro.chaos import SCENARIOS, run_matrix, run_scenario


def assert_clean(report):
    assert report.hangs == 0, report.summary()
    assert report.violations == [], [str(v) for v in report.violations]
    assert report.ok


class TestScenarioMatrix:
    def test_matrix_names(self):
        assert SCENARIOS == (
            "worker_kill",
            "worker_stall",
            "latency_storm",
            "burst_outage",
            "permanent_outage",
            "http_rate_limit_storm",
            "sqlite_disconnect",
        )

    def test_unknown_scenario_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown chaos scenario"):
            run_scenario("meteor_strike")

    def test_run_matrix_subset_preserves_order(self):
        reports = run_matrix(
            names=["permanent_outage", "burst_outage"], quick=True
        )
        assert [r.scenario for r in reports] == [
            "permanent_outage",
            "burst_outage",
        ]
        for report in reports:
            assert_clean(report)


class TestWorkerKill:
    def test_killed_worker_is_typed_and_recovered(self):
        report = run_scenario("worker_kill", seed=0, quick=True)
        assert_clean(report)
        tier = report.details["tier"]
        assert tier["crashes"] >= 1
        assert tier["restarts"] >= 1
        # The kill cost at least one request, typed -- and the
        # recreated pool served the follow-up burst clean.
        assert report.error_types.get("WorkerCrashed", 0) >= 1
        assert report.outcomes["complete"] >= 3


class TestWorkerStall:
    def test_watchdog_kills_and_recycles_the_stuck_pool(self):
        report = run_scenario("worker_stall", seed=0, quick=True)
        assert_clean(report)
        tier = report.details["tier"]
        assert tier["stalls"] >= 1
        assert tier["watchdog_kills"] >= 1
        assert report.error_types.get("WorkerStalled", 0) >= 1
        # The 30s storm never shows up in the wall clock: the watchdog
        # bound (0.5s) is what stalled requests actually cost.
        assert report.elapsed < 30.0
        assert report.outcomes["complete"] >= 1


class TestLatencyStorm:
    def test_hedging_rides_out_the_storm_with_identical_answers(self):
        report = run_scenario("latency_storm", seed=0, quick=True)
        assert_clean(report)
        # Every single answer matched the oracle (assert_clean), and
        # the tail was actually hedged, not just lucky.
        assert report.outcomes["complete"] == report.submitted
        hedging = report.details["hedging"]
        assert hedging["hedges"] >= 1 and hedging["hedge_wins"] >= 1
        assert hedging["hedges"] == (
            hedging["hedge_wins"] + hedging["hedge_waste"]
        )


class TestBurstOutage:
    def test_retries_defeat_bursty_faults_with_zero_client_impact(self):
        report = run_scenario("burst_outage", seed=0, quick=True)
        assert_clean(report)
        assert report.outcomes["complete"] == report.submitted
        assert report.details["faults"]["injected_total"] >= 1


class TestPermanentOutage:
    def test_one_outage_one_replan_then_recovery(self):
        report = run_scenario("permanent_outage", seed=0, quick=True)
        assert_clean(report)
        # Exactly one request paid for the outage...
        assert report.outcomes["failed"] == 1
        # ...exactly one re-plan followed (the degraded cache key
        # missed once; every later request hit it)...
        assert report.details["during_outage"]["replans"] == 1
        assert report.details["during_outage"]["dead_methods"] == [
            "primary_R"
        ]
        # ...the degraded regime was visibly flagged on responses...
        assert report.details["degraded_responses"] >= 1
        # ...and recovery emptied the dead set without a new search.
        final = report.health
        assert final["dead_methods"] == []
        assert final["recoveries"] == 1
        assert final["replans"] == 1


class TestHttpRateLimitStorm:
    def test_storm_trips_policing_yet_every_answer_is_exact(self):
        report = run_scenario("http_rate_limit_storm", seed=0, quick=True)
        assert_clean(report)
        assert report.outcomes["complete"] == report.submitted
        # The storm genuinely tripped the server's policing...
        assert report.details["transport"]["over_budget"] >= 1
        # ...and every 429 was ridden out via Retry-After, client-side.
        assert report.details["retry_after_waits"] >= 1


class TestSqliteDisconnect:
    def test_mid_plan_disconnects_reconnect_to_the_same_snapshot(self):
        report = run_scenario("sqlite_disconnect", seed=0, quick=True)
        assert_clean(report)
        assert report.outcomes["complete"] == report.submitted
        # The connection was severed mid-plan, repeatedly, and every
        # reconnect reloaded the same epoch (assert_clean covers the
        # oracle identity).
        assert report.details["reconnects"] >= 1
        assert report.details["statements"] >= 2

