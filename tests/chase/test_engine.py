"""Unit tests for the chase fixpoint engine and its safety valves."""

import pytest

from repro.chase.blocking import BlockingPolicy
from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import (
    ChasePolicy,
    chase_to_fixpoint,
    saturate,
)
from repro.logic.atoms import Atom
from repro.logic.dependencies import parse_tgd
from repro.logic.terms import Constant, NullFactory


A, B = Constant("a"), Constant("b")


class TestFixpoint:
    def test_linear_chain_terminates(self):
        rules = [
            parse_tgd("R(x) -> S(x)"),
            parse_tgd("S(x) -> T(x)"),
        ]
        config = ChaseConfiguration([Atom("R", (A,))])
        result = chase_to_fixpoint(config, rules, NullFactory("t"))
        assert result.reached_fixpoint
        assert result.is_complete
        assert Atom("T", (A,)) in config
        assert result.firings == 2

    def test_terminating_existential_chase(self):
        rules = [parse_tgd("R(x) -> S(x, y)"), parse_tgd("S(x, y) -> T(y)")]
        config = ChaseConfiguration([Atom("R", (A,))])
        result = chase_to_fixpoint(config, rules, NullFactory("t"))
        assert result.reached_fixpoint
        assert len(config.facts_of("T")) == 1

    def test_restricted_chase_reuses_witnesses(self):
        # R(a) and S(a,b) present: R(x)->S(x,y) must not fire.
        rules = [parse_tgd("R(x) -> S(x, y)")]
        config = ChaseConfiguration([Atom("R", (A,)), Atom("S", (A, B))])
        result = chase_to_fixpoint(config, rules, NullFactory("t"))
        assert result.firings == 0

    def test_work_budget_stops(self):
        # Cyclic existential chase: diverges without a budget.  Each
        # firing costs one scan (the new fact, seeding the body) and its
        # successor's head check finds nothing to scan.
        rules = [parse_tgd("R(x, y) -> R(y, z)")]
        config = ChaseConfiguration([Atom("R", (A, B))])
        policy = ChasePolicy(max_work=25)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert not result.reached_fixpoint
        assert result.firings == 25

    def test_depth_bound_truncates(self):
        rules = [parse_tgd("R(x, y) -> R(y, z)")]
        config = ChaseConfiguration([Atom("R", (A, B))])
        policy = ChasePolicy(max_depth=3)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert result.reached_fixpoint  # no more *allowed* triggers
        assert result.depth_truncated > 0
        assert not result.is_complete
        assert all(config.depth(f) <= 3 for f in config)

    def test_blocking_terminates_cyclic_guarded_chase(self):
        # Classic diverging ID cycle: R(x,y) -> R(y,z).
        rules = [parse_tgd("R(x, y) -> R(y, z)")]
        config = ChaseConfiguration([Atom("R", (A, B))])
        policy = ChasePolicy(
            max_work=10_000, blocking=BlockingPolicy(enabled=True)
        )
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert result.reached_fixpoint
        assert result.blocked > 0
        assert result.firings < 10  # tiny model, not a spent budget

    def test_two_way_cycle_with_blocking(self):
        rules = [
            parse_tgd("P(x) -> E(x, y)"),
            parse_tgd("E(x, y) -> P(y)"),
        ]
        config = ChaseConfiguration([Atom("P", (A,))])
        policy = ChasePolicy(blocking=BlockingPolicy(enabled=True))
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert result.reached_fixpoint

    def test_saturate_is_fixpoint_alias(self):
        rules = [parse_tgd("R(x) -> S(x)")]
        config = ChaseConfiguration([Atom("R", (A,))])
        result = saturate(config, rules, NullFactory("t"))
        assert result.reached_fixpoint
        assert Atom("S", (A,)) in config


class TestPolicy:
    def test_result_is_complete_semantics(self):
        from repro.chase.engine import ChaseResult

        assert ChaseResult(True).is_complete
        assert not ChaseResult(True, blocked=1).is_complete
        assert not ChaseResult(False).is_complete
