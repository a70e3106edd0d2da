"""Hard chase budgets: step and wall-clock caps that fail fast."""

import pytest

from repro.chase.engine import ChasePolicy, chase_to_fixpoint
from repro.errors import ChaseBudgetExceeded
from repro.logic.atoms import Atom
from repro.logic.dependencies import parse_tgd
from repro.logic.terms import Constant, NullFactory
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example5


def diverging_config():
    """The classic non-terminating existential cycle."""
    from repro.chase.configuration import ChaseConfiguration

    rules = [parse_tgd("R(x, y) -> R(y, z)")]
    config = ChaseConfiguration([Atom("R", (Constant("a"), Constant("b")))])
    return config, rules


class TestStepBudget:
    def test_max_steps_raises_with_partial_stats(self):
        config, rules = diverging_config()
        policy = ChasePolicy(max_steps=20)
        with pytest.raises(ChaseBudgetExceeded) as excinfo:
            chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        error = excinfo.value
        assert error.steps == 21  # the step that crossed the cap
        assert error.stats is not None
        assert error.elapsed >= 0
        assert "20" in str(error)

    def test_max_steps_does_not_bite_a_terminating_chase(self):
        rules = [parse_tgd("R(x) -> S(x)"), parse_tgd("S(x) -> T(x)")]
        from repro.chase.configuration import ChaseConfiguration

        config = ChaseConfiguration([Atom("R", (Constant("a"),))])
        policy = ChasePolicy(max_steps=100)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert result.reached_fixpoint


class TestWallClockBudget:
    def test_max_seconds_raises_on_a_diverging_chase(self):
        config, rules = diverging_config()
        policy = ChasePolicy(max_firings=10**9, max_seconds=1e-4)
        with pytest.raises(ChaseBudgetExceeded) as excinfo:
            chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert excinfo.value.elapsed > 1e-4

    def test_generous_budget_does_not_bite(self):
        rules = [parse_tgd("R(x) -> S(x)")]
        from repro.chase.configuration import ChaseConfiguration

        config = ChaseConfiguration([Atom("R", (Constant("a"),))])
        policy = ChasePolicy(max_seconds=60.0)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        assert result.reached_fixpoint


class TestPolicyPlumbing:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChasePolicy(max_steps=0)
        with pytest.raises(ValueError):
            ChasePolicy(max_seconds=-1.0)

    def test_the_planner_saturates_under_the_callers_budgets(
        self, monkeypatch
    ):
        """A hard budget on the schema's policy reaches the planner's
        saturations and propagates out of the search."""
        scenario = example5()
        policy = ChasePolicy(max_steps=1)
        monkeypatch.setattr(scenario.schema, "chase_policy", lambda: policy)
        with pytest.raises(ChaseBudgetExceeded):
            find_best_plan(scenario.schema, scenario.query, SearchOptions())

    def test_budget_error_is_importable_from_chase_package(self):
        from repro.chase import ChaseBudgetExceeded as FromChase
        from repro.errors import ReproError

        assert FromChase is ChaseBudgetExceeded
        assert issubclass(FromChase, ReproError)
