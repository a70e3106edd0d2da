"""Tests for saturation-completeness tracking (certified negatives).

A planning run books every saturation into one ``ChaseStats``
(``absorb_saturation``); its ``incomplete`` counter is the log of the
saturations that stopped short of a complete fixpoint, and the run's
proof space is certified exhausted only while that counter is 0.
"""

from repro.chase.engine import ChaseResult
from repro.chase.stats import ChaseStats
from repro.planner.proof_to_plan import absorb_saturation


def booked(*results):
    stats = ChaseStats()
    for result in results:
        absorb_saturation(stats, result)
    return stats


class TestSaturationLog:
    def test_starts_complete(self):
        assert ChaseStats().incomplete == 0

    def test_complete_result_keeps_flag(self):
        stats = booked(ChaseResult(reached_fixpoint=True))
        assert stats.incomplete == 0

    def test_blocked_result_clears_flag(self):
        stats = booked(ChaseResult(reached_fixpoint=True, blocked=1))
        assert stats.incomplete == 1

    def test_truncated_result_clears_flag(self):
        stats = booked(ChaseResult(reached_fixpoint=True, depth_truncated=2))
        assert stats.incomplete == 1

    def test_budget_stop_clears_flag(self):
        stats = booked(ChaseResult(reached_fixpoint=False))
        assert stats.incomplete == 1

    def test_flag_is_sticky(self):
        stats = booked(
            ChaseResult(False, stats=ChaseStats(runs=1, rounds=2)),
            ChaseResult(True, stats=ChaseStats(runs=1, rounds=1)),
        )
        assert stats.incomplete == 1
        # Both runs' chase counters are absorbed alongside.
        assert (stats.runs, stats.rounds) == (2, 3)

    def test_counts_every_incomplete_saturation(self):
        stats = booked(
            ChaseResult(reached_fixpoint=False),
            ChaseResult(reached_fixpoint=True, blocked=3),
            ChaseResult(reached_fixpoint=True),
        )
        assert stats.incomplete == 2


class TestExhaustionSemantics:
    def test_blocking_disables_certification(self):
        """A guarded cyclic schema saturates under blocking (the policy
        it derives): the search still works, but a failed run must NOT
        claim exhaustion."""
        from repro.logic.queries import cq
        from repro.planner.search import SearchOptions, find_best_plan
        from repro.schema.core import SchemaBuilder

        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_r", "R", inputs=[0])
            .tgd("R(x, y) -> R(y, z)")
            .build()
        )
        query = cq([], [("R", ["?x", "?y"])])
        assert schema.chase_policy().blocking is not None
        result = find_best_plan(schema, query, SearchOptions(max_accesses=3))
        assert not result.found
        assert not result.exhausted  # blocking happened somewhere
