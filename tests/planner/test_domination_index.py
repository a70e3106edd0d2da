"""The delta registry against the from-scratch reference scan.

Algorithm 1 always runs on :class:`FingerprintRegistry`.  Searched again
with :class:`LinearRegistry` put in its place it must prune exactly the
same nodes, by the same dominators, on every scenario of the library,
and the two search strategies must agree on the optimum with full
pruning on.
"""

import pytest

from repro.chase.configuration import ChaseConfiguration
from repro.logic.atoms import Atom, Substitution
from repro.logic.terms import Constant, Null
from repro.planner import search as search_module
from repro.planner.domination import (
    FingerprintRegistry,
    LinearRegistry,
    relevant_facts,
    signature_of,
)
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

SCENARIOS = {
    "example1": example1,
    "example2": example2,
    "example5": example5,
    "redundant4": lambda: redundant_sources(4),
    "chain3": lambda: referential_chain(3),
    "views": view_stack_scenario,
    "webservices": webservices,
}


def tree_shape(result):
    """What the search did, node by node (prunes included)."""
    return [
        (
            node.node_id,
            node.parent_id,
            node.pruned,
            node.dominated_by,
            node.successful,
        )
        for node in result.tree
    ]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestFingerprintMatchesOracle:
    def test_same_nodes_pruned(self, name, monkeypatch):
        scenario = SCENARIOS[name]()
        options = SearchOptions(collect_tree=True)
        indexed = find_best_plan(scenario.schema, scenario.query, options)
        monkeypatch.setattr(
            search_module, "FingerprintRegistry", LinearRegistry
        )
        oracle = find_best_plan(scenario.schema, scenario.query, options)
        assert oracle.stats.domination.seeded_hits == 0  # really the scan
        assert tree_shape(indexed) == tree_shape(oracle)
        assert indexed.best_cost == oracle.best_cost
        assert indexed.exhausted == oracle.exhausted
        # The subsumption filter only ever *skips* homomorphism attempts.
        assert (
            indexed.stats.domination.hom_calls
            <= oracle.stats.domination.hom_calls
        )


class TestSignature:
    def test_constants_are_rigid(self):
        pattern = [Atom("R", (Constant("a"), Null("n")))]
        signature = signature_of(pattern, frozenset())
        assert ("rel", "R") in signature
        assert ("occ", "R", 0, Constant("a")) in signature
        # Non-rigid nulls contribute no occurrence elements.
        assert ("occ", "R", 1, Null("n")) not in signature

    def test_frozen_nulls_are_rigid(self):
        null = Null("h")
        pattern = [Atom("R", (null,))]
        assert ("occ", "R", 0, null) in signature_of(
            pattern, frozenset({null})
        )
        assert ("occ", "R", 0, null) not in signature_of(
            pattern, frozenset()
        )

    def test_subsumption_is_monotone_in_the_pattern(self):
        small = [Atom("R", (Constant("a"),))]
        large = small + [Atom("S", (Constant("b"), Null("n")))]
        assert signature_of(small, frozenset()) <= signature_of(
            large, frozenset()
        )


def registry_pair(rigid=frozenset()):
    frozen = Substitution({null: null for null in rigid})
    return (
        FingerprintRegistry(frozen, rigid),
        LinearRegistry(frozen, rigid),
    )


class TestRegistries:
    def test_identity_domination(self):
        config = ChaseConfiguration([Atom("R", (Constant("a"),))])
        for registry in registry_pair():
            registry.register(7, 1.0, config)
            assert registry.find_dominator(1.0, config) == 7

    def test_expensive_entries_never_dominate(self):
        config = ChaseConfiguration([Atom("R", (Constant("a"),))])
        for registry in registry_pair():
            registry.register(7, 5.0, config)
            assert registry.find_dominator(1.0, config) is None

    def test_missing_relation_blocks_domination(self):
        small = ChaseConfiguration([Atom("R", (Constant("a"),))])
        larger = ChaseConfiguration(
            [Atom("R", (Constant("a"),)), Atom("S", (Constant("b"),))]
        )
        for registry in registry_pair():
            registry.register(1, 0.0, small)
            assert registry.find_dominator(9.0, larger) is None
            assert registry.find_dominator(9.0, small) == 1

    def test_rigid_null_must_map_to_itself(self):
        frozen_null, other = Null("h"), Null("x")
        target = ChaseConfiguration([Atom("R", (other,))])
        probe = ChaseConfiguration([Atom("R", (frozen_null,))])
        # Without rigidity the nulls may collapse: dominated.
        for registry in registry_pair():
            registry.register(1, 0.0, target)
            assert registry.find_dominator(1.0, probe) == 1
        # With the head null frozen, R(h) has no image: not dominated.
        for registry in registry_pair(rigid=frozenset({frozen_null})):
            registry.register(1, 0.0, target)
            assert registry.find_dominator(1.0, probe) is None

    def test_cheapest_dominator_is_tried_first(self):
        config = ChaseConfiguration([Atom("R", (Constant("a"),))])
        frozen = Substitution({})
        registry = FingerprintRegistry(frozen, frozenset())
        registry.register(1, 3.0, config)
        registry.register(2, 1.0, config)
        assert registry.find_dominator(5.0, config) == 2
        # Only the (successful) cheapest entry needed a homomorphism.
        assert registry.stats.hom_calls == 1

    def test_relevant_facts_exclude_accessed_copies(self):
        config = ChaseConfiguration(
            [Atom("R", (Constant("a"),)), Atom("Accessed_R", (Constant("a"),))]
        )
        assert {atom.relation for atom in relevant_facts(config)} == {"R"}
