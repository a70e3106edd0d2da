"""Tests for constraint analysis: weak acyclicity and classification."""

from hypothesis import given, settings, strategies as st

from repro.logic.analysis import (
    analyze_constraints,
    is_weakly_acyclic,
    position_dependency_graph,
)
from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD, parse_tgd
from repro.logic.terms import Variable
from repro.schema.core import SchemaBuilder


class TestPositionGraph:
    def test_normal_edge_for_copied_variable(self):
        edges = position_dependency_graph([parse_tgd("R(x) -> S(x)")])
        assert edges == {(("R", 0), ("S", 0)): False}

    def test_special_edge_for_existential(self):
        edges = position_dependency_graph([parse_tgd("R(x) -> S(x, y)")])
        assert edges[("R", 0), ("S", 1)] is True
        assert edges[("R", 0), ("S", 0)] is False

    def test_non_frontier_body_variable_no_edges(self):
        edges = position_dependency_graph([parse_tgd("R(x, z) -> S(x)")])
        assert (("R", 1), ("S", 0)) not in edges

    def test_an_edge_both_normal_and_special_is_special(self):
        edges = position_dependency_graph(
            [parse_tgd("R(x) -> S(x)"), parse_tgd("R(x) -> S(y), T(x)")]
        )
        assert edges[("R", 0), ("S", 0)] is True


class TestWeakAcyclicity:
    def test_acyclic_full_tgds(self):
        assert is_weakly_acyclic(
            [parse_tgd("R(x) -> S(x)"), parse_tgd("S(x) -> T(x)")]
        )

    def test_cycle_without_existentials_ok(self):
        # R -> S -> R is a cycle, but with no special edge: WA.
        assert is_weakly_acyclic(
            [parse_tgd("R(x) -> S(x)"), parse_tgd("S(x) -> R(x)")]
        )

    def test_self_special_loop_not_wa(self):
        # The classic diverging ID: R(x,y) -> exists z R(y,z).
        assert not is_weakly_acyclic([parse_tgd("R(x, y) -> R(y, z)")])

    def test_two_rule_special_cycle_not_wa(self):
        assert not is_weakly_acyclic(
            [
                parse_tgd("P(x) -> E(x, y)"),
                parse_tgd("E(x, y) -> P(y)"),
            ]
        )

    def test_special_edge_closing_a_longer_cycle_not_wa(self):
        # P.0 -special-> E.1 -> F.0 -> P.0: the component has three
        # positions, and the special edge is inside it.
        assert not is_weakly_acyclic(
            [
                parse_tgd("P(x) -> E(x, y)"),
                parse_tgd("E(x, y) -> F(y)"),
                parse_tgd("F(x) -> P(x)"),
            ]
        )

    def test_existential_into_sink_is_wa(self):
        # Existentials that never flow back are fine.
        assert is_weakly_acyclic(
            [parse_tgd("R(x) -> S(x, y)"), parse_tgd("S(x, y) -> T(x)")]
        )

    def test_example_schemas_are_wa(self):
        from repro.scenarios import example1, example2, example5

        for factory in (example1, example2, example5):
            schema = factory().schema
            assert is_weakly_acyclic(schema.constraints)

    def test_empty_set_trivially_wa(self):
        assert is_weakly_acyclic([])


class TestAnalyzeConstraints:
    def test_census(self):
        analysis = analyze_constraints(
            [
                parse_tgd("R(x, y) -> S(y, x)"),  # full ID... no: full
                parse_tgd("R(x, y) -> T(x, z)"),
            ]
        )
        assert analysis.total == 2
        assert analysis.full_tgds == 1
        assert analysis.guarded
        assert analysis.weakly_acyclic
        assert analysis.chase_terminates

    def test_describe_mentions_properties(self):
        analysis = analyze_constraints([parse_tgd("R(x) -> S(x)")])
        text = analysis.describe()
        assert "weakly acyclic" in text
        assert "guarded" in text

    def test_non_wa_flagged(self):
        analysis = analyze_constraints([parse_tgd("R(x, y) -> R(y, z)")])
        assert not analysis.weakly_acyclic
        assert not analysis.chase_terminates


VARIABLES = [Variable(name) for name in "xyzw"]
ARITIES = {"P": 1, "F": 1, "R": 2, "S": 2}


@st.composite
def random_tgd(draw):
    """A TGD over unary P, F and binary R, S: one or two body atoms over
    x, y, z and one or two head atoms over x, y, z, w (a head variable
    missing from the body is existential)."""
    relations = st.sampled_from(sorted(ARITIES))

    def atoms(pool, count):
        out = []
        for _ in range(count):
            relation = draw(relations)
            terms = tuple(
                draw(st.sampled_from(pool)) for _ in range(ARITIES[relation])
            )
            out.append(Atom(relation, terms))
        return tuple(out)

    body = atoms(VARIABLES[:3], draw(st.integers(1, 2)))
    return TGD(body, atoms(VARIABLES, draw(st.integers(1, 2))))


def reachable(edges, start):
    """Every position some path of ``edges`` reaches from ``start``."""
    seen, frontier = {start}, [start]
    while frontier:
        node = frontier.pop()
        for source, target in edges:
            if source == node and target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


@given(st.lists(random_tgd(), max_size=6))
@settings(max_examples=600, deadline=None)
def test_weak_acyclicity_is_the_definition(tgds):
    """Weakly acyclic exactly when no special edge (u, v) has u
    reachable from v."""
    edges = position_dependency_graph(tgds)
    expected = not any(
        source in reachable(edges, target)
        for (source, target), special in edges.items()
        if special
    )
    assert is_weakly_acyclic(tgds) == expected


class TestPolicySelection:
    def test_wa_schema_gets_plain_policy(self):
        from repro.scenarios import example2

        policy = example2().schema.chase_policy()
        assert policy.blocking is None
        assert policy.max_depth is None

    def test_cyclic_guarded_gets_blocking(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .tgd("R(x, y) -> R(y, z)")
            .build()
        )
        assert schema.chase_policy().blocking is not None
