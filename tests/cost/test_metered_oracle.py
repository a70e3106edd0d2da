"""The metered oracle on the paper's Example 5.

Algorithm 1 minimises the cost function it is given; the meter
(``charged_cost()``) charges each method's weight per key called.  The
two disagree on ``example5(3)``: the simple-cost optimum (cost 6,
``mt_udirect1`` then ``mt_prof`` on every row) meters 401, while a
plan of cost 8 that intersects ``mt_udirect1`` and ``mt_udirect2``
before ``mt_prof`` meters 153.

The oracle is the search with every pruning off: each successful node
is a proof, each proof's plan is run on a fresh source, and the
cheapest meter wins.  Every such plan must return the certain answers
(Thm 5 holds for every proof, not only the best one).  An estimator
that predicts the meter changes the simple pick's 401 on purpose.
"""

import pytest

from repro.data.source import InMemorySource
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example5


@pytest.fixture(scope="module")
def problem():
    scenario = example5(3)
    return scenario, scenario.instance(0)


def metered(scenario, instance, plan):
    """The plan's answer rows and what the meter charged for them."""
    source = InMemorySource(scenario.schema, instance)
    rows = set(plan.execute(source).rows)
    return rows, source.charged_cost()


@pytest.fixture(scope="module")
def oracle(problem):
    """Every distinct plan of every proof, with its answer and meter."""
    scenario, instance = problem
    result = find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(
            max_accesses=6,
            prune_by_cost=False,
            domination=False,
            collect_tree=True,
        ),
    )
    assert scenario.query.is_boolean
    plans = {}
    for node in result.tree:
        if node.successful:
            plan = node.state.finish(())
            plans.setdefault(repr(plan.commands), plan)
    return {
        key: (plan, *metered(scenario, instance, plan))
        for key, plan in plans.items()
    }


def test_every_proof_plan_returns_the_certain_answers(problem, oracle):
    scenario, instance = problem
    truth = set(instance.evaluate(scenario.query))
    assert truth
    assert len(oracle) == 15
    for plan, rows, _ in oracle.values():
        assert rows == truth, plan.methods_used()


def test_the_oracle_minimum_meters_153(oracle):
    cheapest = min(charge for _, _, charge in oracle.values())
    assert cheapest == 153.0
    assert ("mt_udirect1", "mt_udirect2", "mt_prof") in [
        plan.methods_used()
        for plan, _, charge in oracle.values()
        if charge == cheapest
    ]


def test_the_simple_pick_meters_401(problem, oracle):
    scenario, instance = problem
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=6)
    )
    assert result.best_cost == 6.0
    assert result.best_plan.methods_used() == ("mt_udirect1", "mt_prof")
    assert metered(scenario, instance, result.best_plan)[1] == 401.0
    assert repr(result.best_plan.commands) in oracle
