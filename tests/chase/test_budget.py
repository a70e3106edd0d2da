"""The work budget: join candidates scanned, head checks included."""

import pytest

from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy, chase_to_fixpoint
from repro.logic.atoms import Atom
from repro.logic.dependencies import parse_tgd
from repro.logic.terms import Constant, NullFactory
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example5


def diverging_config():
    """The classic non-terminating existential cycle."""
    rules = [parse_tgd("R(x, y) -> R(y, z)")]
    config = ChaseConfiguration([Atom("R", (Constant("a"), Constant("b")))])
    return config, rules


class TestWorkBudget:
    def test_a_diverging_chase_ends_truncated_with_partial_stats(self):
        config, rules = diverging_config()
        policy = ChasePolicy(max_work=20)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert not result.reached_fixpoint
        assert not result.is_complete
        stats = result.stats
        # The check follows each match's head check: the match that
        # crossed the budget is the last one counted, and never fired.
        assert 20 < stats.hom.candidates_scanned
        assert stats.triggers_fired == result.firings > 0
        assert stats.triggers_enumerated == result.firings + 1
        assert len(config) == 1 + result.firings

    def test_head_checks_count(self):
        # The body's one scan, then the head check: a full rule's head is
        # ground and checking it scans nothing; an existential head is a
        # join, and the run counts its scans.
        facts = [Atom("R", (Constant("a"), Constant("b")))]
        for text, scans in (("R(x, y) -> S(x)", 1), ("R(x, y) -> R(x, z)", 2)):
            config = ChaseConfiguration(facts)
            result = chase_to_fixpoint(
                config, [parse_tgd(text)], NullFactory("t")
            )
            assert result.is_complete
            assert result.stats.hom.candidates_scanned == scans

    def test_head_check_work_stops_a_diverging_chase(self):
        # Most matches of this rule find their head already holds: it
        # fires rarely and spends its work in head checks, which the
        # budget counts.
        rules = [parse_tgd("R(x, y) & R(u, v) -> R(y, w) & R(w, v)")]
        config, _ = diverging_config()
        policy = ChasePolicy(max_work=2_000)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert not result.reached_fixpoint
        stats = result.stats
        assert stats.triggers_filtered > stats.triggers_fired
        assert stats.hom.candidates_scanned > 10 * result.firings

    def test_the_budget_does_not_bite_a_terminating_chase(self):
        rules = [parse_tgd("R(x) -> S(x)"), parse_tgd("S(x) -> T(x)")]
        config = ChaseConfiguration([Atom("R", (Constant("a"),))])
        policy = ChasePolicy(max_work=100)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert result.reached_fixpoint
        assert result.stats.hom.candidates_scanned <= 100

    def test_generous_budget_does_not_bite(self):
        rules = [parse_tgd("R(x) -> S(x)")]
        config = ChaseConfiguration([Atom("R", (Constant("a"),))])
        result = chase_to_fixpoint(config, rules, NullFactory("t"))
        assert result.is_complete


class TestPolicyPlumbing:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChasePolicy(max_work=0)
        with pytest.raises(ValueError):
            ChasePolicy(max_work=-1)

    def test_the_planner_saturates_under_the_callers_budgets(
        self, monkeypatch
    ):
        """A budget on the schema's policy reaches the planner's
        saturations: they end incomplete, and the search claims no
        certificate."""
        scenario = example5()
        policy = ChasePolicy(max_work=1)
        monkeypatch.setattr(scenario.schema, "chase_policy", lambda: policy)
        result = find_best_plan(
            scenario.schema, scenario.query, SearchOptions()
        )
        assert result.stats.chase.incomplete > 0
        assert not result.exhausted
