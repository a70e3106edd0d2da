"""Unit tests for trigger detection and rule firing."""

import pytest

from repro.chase.configuration import ChaseConfiguration, Provenance
from repro.chase.engine import chase_to_fixpoint
from repro.chase.firing import (
    Trigger,
    find_triggers,
    head_satisfied,
)
from repro.logic.atoms import Atom, Substitution
from repro.logic.dependencies import parse_tgd
from repro.logic.terms import Constant, Null, NullFactory, Variable


A, B = Constant("a"), Constant("b")


def config_of(*facts):
    return ChaseConfiguration(facts)


class TestConfiguration:
    def test_add_rejects_non_facts(self):
        config = ChaseConfiguration()
        with pytest.raises(ValueError):
            config.add(Atom("R", (Variable("x"),)))

    def test_add_tracks_accessible(self):
        config = ChaseConfiguration()
        config.add(Atom("_accessible", (A,)))
        assert config.is_accessible(A)
        assert config.accessible_values() == {A}

    def test_provenance_and_depth(self):
        config = config_of(Atom("R", (A,)))
        assert config.depth(Atom("R", (A,))) == 0
        fact = Atom("S", (A,))
        config.add(fact, Provenance("rule", (Atom("R", (A,)),), 1))
        assert config.depth(fact) == 1
        assert config.provenance(fact).rule == "rule"

    def test_copy_independent(self):
        config = config_of(Atom("R", (A,)))
        clone = config.copy()
        clone.add(Atom("R", (B,)))
        assert len(config) == 1
        assert len(clone) == 2

    def test_relation_signature_sorted(self):
        config = config_of(Atom("S", (A,)), Atom("R", (A,)), Atom("R", (B,)))
        assert config.relation_signature() == (("R", 2), ("S", 1))

    def test_nulls_collected(self):
        n = Null("n0")
        config = config_of(Atom("R", (n, A)))
        assert config.nulls() == {n}


class TestTriggers:
    def test_candidate_match_found(self):
        tgd = parse_tgd("R(x) -> S(x)")
        config = config_of(Atom("R", (A,)))
        triggers = list(find_triggers(tgd, config))
        assert len(triggers) == 1

    def test_restricted_chase_skips_satisfied_heads(self):
        tgd = parse_tgd("R(x) -> S(x)")
        config = config_of(Atom("R", (A,)), Atom("S", (A,)))
        assert list(find_triggers(tgd, config)) == []

    def test_existential_head_satisfaction_any_witness(self):
        tgd = parse_tgd("R(x) -> S(x, y)")
        config = config_of(Atom("R", (A,)), Atom("S", (A, B)))
        # S(a, b) witnesses the existential: no trigger.
        assert list(find_triggers(tgd, config)) == []

    def test_head_satisfied_respects_frontier(self):
        tgd = parse_tgd("R(x) -> S(x, y)")
        config = config_of(Atom("R", (A,)), Atom("S", (B, B)))
        hom = Substitution({Variable("x"): A})
        assert not head_satisfied(tgd, hom, config)

    def test_trigger_key_identity(self):
        tgd = parse_tgd("R(x) -> S(x)")
        config = config_of(Atom("R", (A,)))
        (t1,) = find_triggers(tgd, config)
        (t2,) = find_triggers(tgd, config)
        # A trigger is identified by its rule and body image, as the
        # engine's deduplication keys it (by rule slot, not by name).
        assert (t1.rule, t1.body_image()) == (t2.rule, t2.body_image())


class TestFiring:
    """Firing runs through the fixpoint engine, one rule at a time."""

    def test_full_tgd_firing(self):
        tgd = parse_tgd("R(x, y) -> S(y, x)")
        config = config_of(Atom("R", (A, B)))
        result = chase_to_fixpoint(config, [tgd], NullFactory("t"))
        assert Atom("S", (B, A)) in config
        assert result.new_facts == (Atom("S", (B, A)),)

    def test_existential_firing_mints_nulls(self):
        tgd = parse_tgd("R(x) -> S(x, y)")
        config = config_of(Atom("R", (A,)))
        result = chase_to_fixpoint(config, [tgd], NullFactory("t"))
        (fact,) = result.new_facts
        assert fact.terms[0] == A
        assert isinstance(fact.terms[1], Null)

    def test_firing_sets_depth(self):
        tgd = parse_tgd("R(x) -> S(x)")
        config = config_of(Atom("R", (A,)))
        chase_to_fixpoint(config, [tgd], NullFactory("t"))
        assert config.depth(Atom("S", (A,))) == 1
        assert config.provenance(Atom("S", (A,))).trigger_facts == (
            Atom("R", (A,)),
        )

    def test_multi_head_firing_adds_all_atoms(self):
        tgd = parse_tgd("R(x) -> S(x) & T(x, y)")
        config = config_of(Atom("R", (A,)))
        result = chase_to_fixpoint(config, [tgd], NullFactory("t"))
        assert result.firings == 1
        assert len(result.new_facts) == 2
