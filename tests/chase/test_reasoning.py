"""Unit tests for chase-based entailment and certain answers."""

import pytest

from repro.chase.engine import ChasePolicy
from repro.chase.reasoning import (
    certain_answer_holds,
    entails_under_constraints,
    is_contained_under,
)
from repro.logic.atoms import Atom
from repro.logic.dependencies import parse_tgd
from repro.logic.queries import cq
from repro.logic.terms import Constant


class TestEntailment:
    def test_direct_consequence(self):
        constraints = [parse_tgd("R(x) -> S(x)")]
        premise = cq(["?x"], [("R", ["?x"])])
        conclusion = cq(["?x"], [("S", ["?x"])])
        assert entails_under_constraints(premise, conclusion, constraints)

    def test_no_entailment_without_constraint(self):
        premise = cq(["?x"], [("R", ["?x"])])
        conclusion = cq(["?x"], [("S", ["?x"])])
        assert not entails_under_constraints(premise, conclusion, [])

    def test_transitive_chain(self):
        constraints = [
            parse_tgd("R(x) -> S(x)"),
            parse_tgd("S(x) -> T(x)"),
        ]
        premise = cq(["?x"], [("R", ["?x"])])
        conclusion = cq(["?x"], [("T", ["?x"])])
        assert entails_under_constraints(premise, conclusion, constraints)

    def test_existential_witnesses(self):
        constraints = [parse_tgd("Person(x) -> HasParent(x, y)")]
        premise = cq(["?x"], [("Person", ["?x"])])
        conclusion = cq(
            ["?x"], [("HasParent", ["?x", "?p"])]
        )
        assert entails_under_constraints(premise, conclusion, constraints)

    def test_free_variables_must_align(self):
        constraints = [parse_tgd("R(x, y) -> S(y, x)")]
        premise = cq(["?a", "?b"], [("R", ["?a", "?b"])])
        swapped = cq(["?b", "?a"], [("S", ["?a", "?b"])])
        not_swapped = cq(["?a", "?b"], [("S", ["?a", "?b"])])
        assert entails_under_constraints(premise, swapped, constraints)
        assert not entails_under_constraints(
            premise, not_swapped, constraints
        )

    def test_head_arity_mismatch_false(self):
        premise = cq(["?x"], [("R", ["?x"])])
        conclusion = cq([], [("R", ["?x"])])
        assert not entails_under_constraints(premise, conclusion, [])

    def test_containment_alias(self):
        constraints = [parse_tgd("R(x) -> S(x)")]
        sub = cq([], [("R", ["?x"])])
        sup = cq([], [("S", ["?x"])])
        assert is_contained_under(sub, sup, constraints)
        assert not is_contained_under(sup, sub, constraints)

    def test_bounded_policy_keeps_soundness(self):
        # A diverging constraint set with a tiny budget: entailment that
        # needs depth 2 only is still found.
        constraints = [parse_tgd("R(x, y) -> R(y, z)")]
        premise = cq([], [("R", ["?x", "?y"])])
        conclusion = cq([], [("R", ["?y", "?z"]), ("R", ["?x", "?y"])])
        policy = ChasePolicy(max_work=50)
        assert entails_under_constraints(
            premise, conclusion, constraints, policy
        )


class TestCertainAnswers:
    def test_derived_fact_counts(self):
        constraints = [parse_tgd("R(x) -> S(x)")]
        facts = [Atom("R", (Constant("a"),))]
        query = cq([], [("S", ["?x"])])
        assert certain_answer_holds(query, facts, constraints)

    def test_absent_fact_does_not_count(self):
        query = cq([], [("S", ["?x"])])
        assert not certain_answer_holds(
            query, [Atom("R", (Constant("a"),))], []
        )
