"""Differential tests: semi-naive (delta-driven) vs. naive chase.

The semi-naive engine is the default; the naive engine is kept as the
reference oracle.  These tests assert the two strategies agree -- same
fact sets with isomorphic labelled nulls, same completeness verdict --
across the scenario library, randomized TGD sets, and the curated
blocking / depth-bound interactions, and that semi-naive does strictly
less trigger-enumeration work.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.chase.blocking import BlockingPolicy
from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy, chase_to_fixpoint, saturate
from repro.chase.firing import find_triggers, find_triggers_delta
from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD, parse_tgd
from repro.logic.homomorphisms import find_homomorphism
from repro.logic.terms import Constant, NullFactory, Variable
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import (
    example1,
    example2,
    example5,
    redundant_sources,
    referential_chain,
    view_stack_scenario,
    webservices,
)
from repro.schema.accessible import AccessibleSchema, Variant


A, B, C = Constant("a"), Constant("b"), Constant("c")

SCENARIOS = {
    "example1": example1,
    "example2": example2,
    "example5": example5,
    "redundant3": lambda: redundant_sources(3),
    "chain3": lambda: referential_chain(3),
    "views": view_stack_scenario,
    "webservices": webservices,
}


def equivalent(left: ChaseConfiguration, right: ChaseConfiguration) -> bool:
    """Same facts up to a renaming of labelled nulls."""
    if len(left) != len(right):
        return False
    if left.relation_signature() != right.relation_signature():
        return False
    ground_left = {f for f in left if not f.nulls()}
    ground_right = {f for f in right if not f.nulls()}
    if ground_left != ground_right:
        return False
    return (
        find_homomorphism(list(left), right.index, map_nulls=True) is not None
        and find_homomorphism(list(right), left.index, map_nulls=True)
        is not None
    )


def run_both(rules, facts, **policy_kwargs):
    """Chase the same input under both strategies; return both outcomes."""
    outcomes = {}
    for strategy in ("naive", "semi-naive"):
        config = ChaseConfiguration(facts)
        policy = ChasePolicy(strategy=strategy, **policy_kwargs)
        result = chase_to_fixpoint(config, rules, NullFactory("t"), policy)
        outcomes[strategy] = (config, result)
    return outcomes["naive"], outcomes["semi-naive"]


def saturate_scenario(scenario, strategy, variant=Variant.FORWARD):
    """The planner's initial saturation of a scenario, one strategy."""
    acc = AccessibleSchema(scenario.schema, variant)
    facts, _ = scenario.query.canonical_database()
    config = ChaseConfiguration(facts)
    for fact in acc.initial_accessible_facts():
        config.add(fact)
    result = saturate(
        config,
        list(acc.free_rules),
        NullFactory("d"),
        ChasePolicy(strategy=strategy),
    )
    return config, result


# ---------------------------------------------------------- scenario library
class TestScenarioDifferential:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_free_rule_saturation_matches_oracle(self, name):
        scenario = SCENARIOS[name]()
        naive_config, naive_result = saturate_scenario(scenario, "naive")
        semi_config, semi_result = saturate_scenario(scenario, "semi-naive")
        assert equivalent(naive_config, semi_config)
        assert naive_result.is_complete == semi_result.is_complete
        assert naive_result.firings == semi_result.firings

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_bidirectional_saturation_matches_oracle(self, name):
        scenario = SCENARIOS[name]()
        naive_config, _ = saturate_scenario(
            scenario, "naive", Variant.BIDIRECTIONAL
        )
        semi_config, _ = saturate_scenario(
            scenario, "semi-naive", Variant.BIDIRECTIONAL
        )
        assert equivalent(naive_config, semi_config)

    @pytest.mark.parametrize(
        "name", ["example1", "example5", "redundant3", "chain3"]
    )
    def test_planner_search_matches_oracle(self, monkeypatch, name):
        scenario = SCENARIOS[name]()
        results = {}
        for strategy in ("naive", "semi-naive"):
            policy = ChasePolicy(strategy=strategy)
            monkeypatch.setattr(
                scenario.schema, "chase_policy", lambda: policy
            )
            results[strategy] = find_best_plan(
                scenario.schema, scenario.query, SearchOptions()
            )
        naive, semi = results["naive"], results["semi-naive"]
        assert naive.found == semi.found
        assert naive.best_cost == semi.best_cost
        assert naive.exhausted == semi.exhausted
        # The whole point: the delta-driven engine enumerates far fewer
        # candidate matches across the search's many saturations.
        assert (
            semi.stats.chase.triggers_enumerated
            <= naive.stats.chase.triggers_enumerated
        )


# ------------------------------------------------------------ randomized TGDs
VARS = [Variable(n) for n in "xyz"]
CONSTS = [Constant(f"c{i}") for i in range(4)]
RELATIONS = ["R2", "S2", "T1"]


def _arity(relation: str) -> int:
    return int(relation[-1])


@st.composite
def full_tgds(draw):
    """Random *full* TGDs (no existentials): chase always terminates."""
    body = []
    for _ in range(draw(st.integers(1, 2))):
        relation = draw(st.sampled_from(RELATIONS))
        body.append(
            Atom(
                relation,
                tuple(
                    draw(st.sampled_from(VARS))
                    for _ in range(_arity(relation))
                ),
            )
        )
    body_vars = [
        t for atom in body for t in atom.terms if isinstance(t, Variable)
    ]
    head_rel = draw(st.sampled_from(RELATIONS))
    pool = body_vars + CONSTS[:1]
    head_terms = tuple(
        draw(st.sampled_from(pool)) for _ in range(_arity(head_rel))
    )
    return TGD(tuple(body), (Atom(head_rel, head_terms),))


@st.composite
def existential_tgds(draw):
    """Single-head TGDs that may invent nulls in the head."""
    body_rel = draw(st.sampled_from(RELATIONS))
    body_terms = tuple(
        draw(st.sampled_from(VARS)) for _ in range(_arity(body_rel))
    )
    body = (Atom(body_rel, body_terms),)
    body_vars = [t for t in body_terms if isinstance(t, Variable)]
    fresh = Variable("w")
    head_rel = draw(st.sampled_from(RELATIONS))
    pool = body_vars + [fresh] if body_vars else [fresh]
    head_terms = tuple(
        draw(st.sampled_from(pool)) for _ in range(_arity(head_rel))
    )
    return TGD(body, (Atom(head_rel, head_terms),))


@st.composite
def fact_sets(draw):
    facts = []
    for _ in range(draw(st.integers(1, 6))):
        relation = draw(st.sampled_from(RELATIONS))
        terms = tuple(
            draw(st.sampled_from(CONSTS)) for _ in range(_arity(relation))
        )
        facts.append(Atom(relation, terms))
    return facts


@given(st.lists(full_tgds(), min_size=1, max_size=4), fact_sets())
@settings(max_examples=60, deadline=None)
def test_full_tgd_differential(rules, facts):
    """Full TGDs have a unique fixpoint: the strategies agree exactly."""
    (naive_config, naive_result), (semi_config, semi_result) = run_both(
        rules, facts
    )
    assert set(naive_config) == set(semi_config)
    assert naive_result.is_complete and semi_result.is_complete
    assert naive_result.firings == semi_result.firings
    # Genuine fixpoint: the semi-naive run left no candidate match behind.
    for rule in rules:
        assert not list(find_triggers(rule, semi_config))


@given(st.lists(existential_tgds(), min_size=1, max_size=3), fact_sets())
@settings(max_examples=50, deadline=None)
def test_existential_tgd_differential(rules, facts):
    """When both runs terminate untruncated, results are isomorphic."""
    (naive_config, naive_result), (semi_config, semi_result) = run_both(
        rules, facts, max_work=5_000
    )
    assume(naive_result.is_complete and semi_result.is_complete)
    assert equivalent(naive_config, semi_config)


# ------------------------------------------------- blocking / depth curated
class TestSafetyValveDifferential:
    def test_blocking_cyclic_chase(self):
        rules = [parse_tgd("R(x, y) -> R(y, z)")]
        (nc, nr), (sc, sr) = run_both(
            [rules[0]],
            [Atom("R", (A, B))],
            blocking=BlockingPolicy(enabled=True),
        )
        assert nr.reached_fixpoint and sr.reached_fixpoint
        assert nr.blocked > 0 and sr.blocked > 0
        assert nr.is_complete == sr.is_complete
        assert equivalent(nc, sc)

    def test_blocking_two_way_cycle(self):
        rules = [
            parse_tgd("P(x) -> E(x, y)"),
            parse_tgd("E(x, y) -> P(y)"),
        ]
        (nc, nr), (sc, sr) = run_both(
            rules, [Atom("P", (A,))], blocking=BlockingPolicy(enabled=True)
        )
        assert nr.reached_fixpoint and sr.reached_fixpoint
        assert equivalent(nc, sc)

    def test_max_depth_truncation(self):
        rules = [parse_tgd("R(x, y) -> R(y, z)")]
        (nc, nr), (sc, sr) = run_both(
            rules, [Atom("R", (A, B))], max_depth=3
        )
        assert nr.reached_fixpoint and sr.reached_fixpoint
        assert nr.depth_truncated > 0 and sr.depth_truncated > 0
        assert not nr.is_complete and not sr.is_complete
        assert equivalent(nc, sc)
        assert all(sc.depth(f) <= 3 for f in sc)

    def test_blocking_and_max_depth_together(self):
        rules = [
            parse_tgd("P(x) -> E(x, y)"),
            parse_tgd("E(x, y) -> P(y)"),
        ]
        (nc, nr), (sc, sr) = run_both(
            rules,
            [Atom("P", (A,))],
            blocking=BlockingPolicy(enabled=True),
            max_depth=4,
        )
        assert nr.reached_fixpoint and sr.reached_fixpoint
        assert nr.is_complete == sr.is_complete
        assert equivalent(nc, sc)

    def test_budget_truncation_firings_ordered(self):
        # A work budget buys the same scans, not the same firings: the
        # naive loop re-scans old matches every round, so it gets fewer.
        rules = [parse_tgd("R(x, y) -> R(y, z)")]
        (_, nr), (_, sr) = run_both(
            rules, [Atom("R", (A, B))], max_work=25
        )
        assert not nr.reached_fixpoint and not sr.reached_fixpoint
        assert 0 < nr.firings <= sr.firings


# ----------------------------------------------------------- delta plumbing
class TestDeltaMachinery:
    def test_generation_counts_insertions(self):
        config = ChaseConfiguration([Atom("R", (A, B))])
        assert config.generation == 1
        config.add(Atom("R", (B, C)))
        assert config.generation == 2
        config.add(Atom("R", (A, B)))  # duplicate: no new generation
        assert config.generation == 2
        assert config.facts_since(1) == (Atom("R", (B, C)),)
        assert config.facts_since(2) == ()

    def test_copy_preserves_generation_log(self):
        config = ChaseConfiguration([Atom("R", (A, B))])
        clone = config.copy()
        assert clone.generation == 1
        clone.add(Atom("R", (B, C)))
        assert clone.facts_since(1) == (Atom("R", (B, C)),)
        assert config.generation == 1  # original untouched

    def test_find_triggers_delta_only_sees_delta(self):
        rule = parse_tgd("R(x, y) -> S(x, y)")
        config = ChaseConfiguration([Atom("R", (A, B))])
        mark = config.generation
        config.add(Atom("R", (B, C)))
        triggers = list(find_triggers_delta(rule, config, mark))
        assert [t.body_image() for t in triggers] == [(Atom("R", (B, C)),)]

    def test_find_triggers_delta_empty_delta(self):
        rule = parse_tgd("R(x, y) -> S(x, y)")
        config = ChaseConfiguration([Atom("R", (A, B))])
        assert list(find_triggers_delta(rule, config, config.generation)) == []

    def test_delta_join_reaches_across_old_facts(self):
        # Two-atom body: pivot on the new fact, join partner is old.
        rule = parse_tgd("R(x, y) & S(y, z) -> T(x, z)")
        config = ChaseConfiguration([Atom("S", (B, C))])
        mark = config.generation
        config.add(Atom("R", (A, B)))
        triggers = list(find_triggers_delta(rule, config, mark))
        assert len(triggers) == 1
        assert triggers[0].body_image() == (
            Atom("R", (A, B)),
            Atom("S", (B, C)),
        )

    def test_saturate_resumption_equals_full_restart(self):
        rules = [
            parse_tgd("R(x, y) -> S(y, x)"),
            parse_tgd("S(x, y) & R(y, z) -> T(x, z)"),
        ]
        base = [Atom("R", (A, B)), Atom("R", (B, C))]
        # Incremental: saturate, add a fact, re-saturate from the watermark.
        config = ChaseConfiguration(base)
        nulls = NullFactory("t")
        saturate(config, rules, nulls)
        mark = config.generation
        config.add(Atom("R", (C, A)))
        resumed = saturate(config, rules, nulls, since_generation=mark)
        assert resumed.reached_fixpoint
        # Oracle: chase everything from scratch, naively.
        oracle = ChaseConfiguration(base + [Atom("R", (C, A))])
        chase_to_fixpoint(
            oracle, rules, NullFactory("u"), ChasePolicy(strategy="naive")
        )
        assert set(config) == set(oracle)

    def test_chase_result_carries_stats(self):
        rules = [parse_tgd("R(x) -> S(x)"), parse_tgd("S(x) -> T(x)")]
        config = ChaseConfiguration([Atom("R", (A,))])
        result = chase_to_fixpoint(config, rules, NullFactory("t"))
        stats = result.stats
        assert stats.strategy == "semi-naive"
        assert stats.rounds >= 2
        assert stats.triggers_fired == 2
        assert stats.triggers_enumerated >= stats.triggers_fired
        assert stats.runs == 1

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            ChasePolicy(strategy="bogus")

    def test_the_planner_saturates_under_the_callers_strategy(
        self, monkeypatch
    ):
        """The schema's policy carries the strategy to the planner."""
        scenario = example1()
        policy = ChasePolicy(strategy="naive")
        monkeypatch.setattr(scenario.schema, "chase_policy", lambda: policy)
        result = find_best_plan(
            scenario.schema, scenario.query, SearchOptions()
        )
        assert result.stats.chase.strategy == "naive"
