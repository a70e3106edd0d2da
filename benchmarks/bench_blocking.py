"""BLOCK: guarded-bag blocking termination on cyclic Guarded TGDs.

Without blocking these chases diverge (we show the work budget spent);
with blocking they terminate in a handful of firings.  Series: time and
firing counts per cyclic family.
"""

import pytest

from benchmarks.conftest import record
from repro.chase.blocking import BlockingPolicy
from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy, chase_to_fixpoint
from repro.logic.atoms import Atom
from repro.logic.dependencies import parse_tgd
from repro.logic.terms import Constant, NullFactory

FAMILIES = {
    "self-loop": ["R(x, y) -> R(y, z)"],
    "two-cycle": ["P(x) -> E(x, y)", "E(x, y) -> P(y)"],
    "three-cycle": [
        "A(x) -> B(x, y)",
        "B(x, y) -> C(y, z)",
        "C(x, y) -> A(y)",
    ],
}

SEEDS = {
    "self-loop": [Atom("R", (Constant("a"), Constant("b")))],
    "two-cycle": [Atom("P", (Constant("a"),))],
    "three-cycle": [Atom("A", (Constant("a"),))],
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_blocking_terminates(benchmark, family):
    rules = [parse_tgd(text) for text in FAMILIES[family]]

    def chase_with_blocking():
        config = ChaseConfiguration(SEEDS[family])
        policy = ChasePolicy(blocking=BlockingPolicy(enabled=True))
        return chase_to_fixpoint(
            config, rules, NullFactory("t"), policy
        ), config

    result, config = benchmark(chase_with_blocking)
    assert result.reached_fixpoint
    assert result.firings < 50  # finite, small model
    record(
        benchmark,
        firings=result.firings,
        blocked=result.blocked,
        facts=len(config),
    )


@pytest.mark.parametrize("family", list(FAMILIES))
def test_no_blocking_diverges(benchmark, family):
    """Control: the same chase without blocking spends its whole budget."""
    rules = [parse_tgd(text) for text in FAMILIES[family]]
    budget = 300

    def chase_unblocked():
        config = ChaseConfiguration(SEEDS[family])
        policy = ChasePolicy(max_work=budget)
        return chase_to_fixpoint(config, rules, NullFactory("t"), policy)

    result = benchmark(chase_unblocked)
    assert not result.reached_fixpoint
    assert result.stats.hom.candidates_scanned > budget
    record(
        benchmark,
        firings=result.firings,
        scanned=result.stats.hom.candidates_scanned,
    )
