"""Unit tests for the homomorphism search and fact index."""

import pytest

from repro.logic.atoms import Atom, Substitution
from repro.logic.homomorphisms import (
    FactIndex,
    HomStats,
    extend_homomorphism,
    find_homomorphism,
    find_homomorphisms,
    find_homomorphisms_through,
    has_homomorphism,
)
from repro.logic.terms import Constant, Null, Variable


X, Y, Z = Variable("x"), Variable("y"), Variable("z")
A, B, C = Constant("a"), Constant("b"), Constant("c")
N1, N2 = Null("n1"), Null("n2")


def index_of(*facts):
    return FactIndex(facts)


class TestFactIndex:
    def test_add_and_contains(self):
        index = FactIndex()
        fact = Atom("R", (A, B))
        assert index.add(fact)
        assert fact in index
        assert not index.add(fact)  # duplicate
        assert len(index) == 1

    def test_facts_of_relation(self):
        index = index_of(Atom("R", (A,)), Atom("S", (B,)))
        assert index.facts_of("R") == frozenset({Atom("R", (A,))})
        assert index.facts_of("T") == frozenset()

    def test_copy_is_independent(self):
        index = index_of(Atom("R", (A,)))
        clone = index.copy()
        clone.add(Atom("R", (B,)))
        assert len(index) == 1
        assert len(clone) == 2

    def test_candidates_uses_position_index(self):
        index = index_of(
            Atom("R", (A, B)), Atom("R", (A, C)), Atom("R", (B, C))
        )
        binding = Substitution({X: A})
        candidates = set(index.candidates(Atom("R", (X, Y)), binding, False))
        assert candidates == {Atom("R", (A, B)), Atom("R", (A, C))}

    def test_candidates_unknown_constant_empty(self):
        index = index_of(Atom("R", (A,)))
        assert list(
            index.candidates(Atom("R", (B,)), Substitution(), False)
        ) == []


class TestExtendHomomorphism:
    def test_binds_variables(self):
        result = extend_homomorphism(
            Atom("R", (X, Y)), Atom("R", (A, B)), Substitution()
        )
        assert result is not None
        assert result[X] == A and result[Y] == B

    def test_conflicting_binding_fails(self):
        binding = Substitution({X: B})
        assert (
            extend_homomorphism(Atom("R", (X,)), Atom("R", (A,)), binding)
            is None
        )

    def test_repeated_variable_must_agree(self):
        assert (
            extend_homomorphism(
                Atom("R", (X, X)), Atom("R", (A, B)), Substitution()
            )
            is None
        )
        ok = extend_homomorphism(
            Atom("R", (X, X)), Atom("R", (A, A)), Substitution()
        )
        assert ok is not None

    def test_constants_are_rigid(self):
        assert (
            extend_homomorphism(Atom("R", (A,)), Atom("R", (B,)), Substitution())
            is None
        )

    def test_nulls_rigid_by_default(self):
        assert (
            extend_homomorphism(
                Atom("R", (N1,)), Atom("R", (A,)), Substitution()
            )
            is None
        )

    def test_nulls_mappable_when_requested(self):
        result = extend_homomorphism(
            Atom("R", (N1,)), Atom("R", (A,)), Substitution(), map_nulls=True
        )
        assert result is not None
        assert result[N1] == A

    def test_relation_mismatch(self):
        assert (
            extend_homomorphism(Atom("R", (X,)), Atom("S", (A,)), Substitution())
            is None
        )


class TestFindHomomorphisms:
    def test_single_atom_all_matches(self):
        index = index_of(Atom("R", (A,)), Atom("R", (B,)))
        homs = list(find_homomorphisms([Atom("R", (X,))], index))
        assert {h[X] for h in homs} == {A, B}

    def test_join_via_shared_variable(self):
        index = index_of(
            Atom("R", (A, B)),
            Atom("S", (B, C)),
            Atom("S", (A, C)),
        )
        homs = list(
            find_homomorphisms([Atom("R", (X, Y)), Atom("S", (Y, Z))], index)
        )
        assert len(homs) == 1
        assert homs[0][Y] == B

    def test_empty_pattern_yields_identity(self):
        homs = list(find_homomorphisms([], index_of()))
        assert len(homs) == 1

    def test_respects_seed_binding(self):
        index = index_of(Atom("R", (A,)), Atom("R", (B,)))
        homs = list(
            find_homomorphisms(
                [Atom("R", (X,))], index, Substitution({X: B})
            )
        )
        assert len(homs) == 1
        assert homs[0][X] == B

    def test_no_match(self):
        assert not has_homomorphism([Atom("T", (X,))], index_of(Atom("R", (A,))))

    def test_find_homomorphism_returns_first_or_none(self):
        index = index_of(Atom("R", (A,)))
        assert find_homomorphism([Atom("R", (X,))], index) is not None
        assert find_homomorphism([Atom("S", (X,))], index) is None

    def test_cartesian_product_count(self):
        index = index_of(
            Atom("R", (A,)), Atom("R", (B,)), Atom("S", (A,)), Atom("S", (B,))
        )
        homs = list(
            find_homomorphisms([Atom("R", (X,)), Atom("S", (Y,))], index)
        )
        assert len(homs) == 4

    def test_null_pattern_maps_into_constants(self):
        index = index_of(Atom("R", (A, B)))
        homs = list(
            find_homomorphisms(
                [Atom("R", (N1, N2))], index, map_nulls=True
            )
        )
        assert len(homs) == 1
        assert homs[0][N1] == A


class TestGenerationLog:
    def test_generation_and_facts_since(self):
        index = FactIndex()
        assert index.generation == 0
        index.add(Atom("R", (A,)))
        index.add(Atom("R", (B,)))
        assert index.generation == 2
        assert index.facts_since(0) == (Atom("R", (A,)), Atom("R", (B,)))
        assert index.facts_since(1) == (Atom("R", (B,)),)
        assert index.facts_since(2) == ()

    def test_duplicates_do_not_advance_generation(self):
        index = index_of(Atom("R", (A,)))
        index.add(Atom("R", (A,)))
        assert index.generation == 1

    def test_facts_since_is_stable_snapshot(self):
        index = index_of(Atom("R", (A,)))
        delta = index.facts_since(0)
        index.add(Atom("R", (B,)))
        assert delta == (Atom("R", (A,)),)

    def test_copy_preserves_log(self):
        index = index_of(Atom("R", (A,)))
        clone = index.copy()
        clone.add(Atom("R", (B,)))
        assert clone.facts_since(0) == (Atom("R", (A,)), Atom("R", (B,)))
        assert index.facts_since(0) == (Atom("R", (A,)),)


class TestFactsOfCaching:
    def test_cached_view_shared_between_calls(self):
        index = index_of(Atom("R", (A,)))
        assert index.facts_of("R") is index.facts_of("R")

    def test_cache_invalidated_on_add(self):
        index = index_of(Atom("R", (A,)))
        before = index.facts_of("R")
        index.add(Atom("R", (B,)))
        after = index.facts_of("R")
        assert before == frozenset({Atom("R", (A,))})
        assert after == frozenset({Atom("R", (A,)), Atom("R", (B,))})

    def test_size_of(self):
        index = index_of(Atom("R", (A,)), Atom("R", (B,)), Atom("S", (A,)))
        assert index.size_of("R") == 2
        assert index.size_of("S") == 1
        assert index.size_of("T") == 0


class TestSnapshotCandidates:
    def test_snapshot_returns_immutable_copy(self):
        index = index_of(Atom("R", (A,)))
        snap = index.candidates(Atom("R", (X,)), Substitution(), False, True)
        assert isinstance(snap, tuple)
        index.add(Atom("R", (B,)))
        assert snap == (Atom("R", (A,)),)

    def test_streaming_search_survives_insertion(self):
        index = index_of(Atom("R", (A,)), Atom("R", (B,)))
        seen = []
        for hom in find_homomorphisms(
            [Atom("R", (X,))], index, snapshot=True
        ):
            seen.append(hom[X])
            index.add(Atom("R", (C,)))  # mutate mid-stream: must not blow up
        assert set(seen) == {A, B}


class TestFindHomomorphismsThrough:
    def test_pivot_restricts_matches(self):
        index = index_of(Atom("R", (A, B)), Atom("R", (B, C)))
        homs = list(
            find_homomorphisms_through(
                [Atom("R", (X, Y))], index, Atom("R", (X, Y)), Atom("R", (B, C))
            )
        )
        assert len(homs) == 1
        assert homs[0][X] == B and homs[0][Y] == C

    def test_pivot_joins_remaining_atoms(self):
        index = index_of(
            Atom("R", (A, B)), Atom("S", (B, C)), Atom("S", (B, A))
        )
        pattern = [Atom("R", (X, Y)), Atom("S", (Y, Z))]
        homs = list(
            find_homomorphisms_through(
                pattern, index, pattern[0], Atom("R", (A, B))
            )
        )
        assert {h[Z] for h in homs} == {A, C}

    def test_pivot_clash_yields_nothing(self):
        index = index_of(Atom("R", (A, A)))
        pattern = [Atom("R", (X, X))]
        homs = list(
            find_homomorphisms_through(
                pattern, index, pattern[0], Atom("R", (A, A))
            )
        )
        assert len(homs) == 1
        clashing = list(
            find_homomorphisms_through(
                [Atom("R", (X, X))],
                index_of(Atom("R", (A, B))),
                Atom("R", (X, X)),
                Atom("R", (A, B)),
            )
        )
        assert clashing == []

    def test_pivot_must_be_a_pattern_atom(self):
        index = index_of(Atom("R", (A,)))
        with pytest.raises(ValueError):
            list(
                find_homomorphisms_through(
                    [Atom("R", (X,))], index, Atom("S", (X,)), Atom("R", (A,))
                )
            )

    def test_agrees_with_unrestricted_search(self):
        index = index_of(
            Atom("R", (A, B)), Atom("R", (B, C)), Atom("S", (B, C))
        )
        pattern = [Atom("R", (X, Y)), Atom("S", (Y, Z))]
        unrestricted = {
            tuple(sorted(h.items(), key=repr))
            for h in find_homomorphisms(pattern, index)
        }
        through = set()
        for atom in pattern:
            for fact in index.facts_of(atom.relation):
                for h in find_homomorphisms_through(
                    pattern, index, atom, fact
                ):
                    through.add(tuple(sorted(h.items(), key=repr)))
        assert through == unrestricted


class TestHomStats:
    def test_counts_candidate_scans_and_backtracks(self):
        index = index_of(Atom("R", (A, B)), Atom("R", (B, C)))
        stats = HomStats()
        # Both positions unbound: the full bucket is scanned, and the
        # repeated variable makes every candidate clash.
        list(find_homomorphisms([Atom("R", (X, X))], index, stats=stats))
        assert stats.candidates_scanned == 2
        assert stats.backtracks == 2


class TestFactIndexFork:
    def test_fork_shares_prefix_but_not_writes(self):
        index = index_of(Atom("R", (A, B)))
        clone = index.fork()
        assert clone.add(Atom("R", (B, C)))
        assert Atom("R", (B, C)) not in index
        assert index.add(Atom("S", (A,)))
        assert Atom("S", (A,)) not in clone

    def test_fork_generation_and_facts_since(self):
        index = index_of(Atom("R", (A, B)))
        watermark = index.generation
        clone = index.fork()
        assert clone.generation == watermark
        clone.add(Atom("R", (B, C)))
        clone.add(Atom("S", (A,)))
        assert clone.facts_since(watermark) == (
            Atom("R", (B, C)),
            Atom("S", (A,)),
        )
        assert index.facts_since(watermark) == ()

    def test_facts_since_walks_prefix_segments(self):
        index = FactIndex()
        index.add(Atom("R", (A,)))
        watermark = index.generation
        index.add(Atom("R", (B,)))
        middle = index.fork()
        middle.add(Atom("R", (C,)))
        leaf = middle.fork()
        leaf.add(Atom("S", (A,)))
        assert leaf.facts_since(watermark) == (
            Atom("R", (B,)),
            Atom("R", (C,)),
            Atom("S", (A,)),
        )

    def test_fork_of_fork_isolated_buckets(self):
        root = index_of(Atom("R", (A, B)))
        middle = root.fork()
        middle.add(Atom("R", (A, C)))
        leaf = middle.fork()
        leaf.add(Atom("R", (A, A)))
        assert root.facts_of("R") == frozenset({Atom("R", (A, B))})
        assert middle.facts_of("R") == frozenset(
            {Atom("R", (A, B)), Atom("R", (A, C))}
        )
        assert len(leaf.facts_of("R")) == 3

    def test_homomorphisms_work_on_forks(self):
        index = index_of(Atom("R", (A, B)))
        clone = index.fork()
        clone.add(Atom("R", (B, C)))
        pattern = [Atom("R", (X, Y)), Atom("R", (Y, Z))]
        assert has_homomorphism(pattern, clone)
        assert not has_homomorphism(pattern, index)


class TestFactsWith:
    def test_lookup_by_relation_position_term(self):
        index = index_of(
            Atom("R", (A, B)), Atom("R", (A, C)), Atom("R", (B, A))
        )
        assert set(index.facts_with("R", 0, A)) == {
            Atom("R", (A, B)),
            Atom("R", (A, C)),
        }
        assert index.facts_with("R", 1, A) == (Atom("R", (B, A)),)

    def test_missing_key_returns_empty(self):
        index = index_of(Atom("R", (A, B)))
        assert index.facts_with("R", 0, C) == ()
        assert index.facts_with("S", 0, A) == ()

    def test_sees_facts_through_fork(self):
        index = index_of(Atom("R", (A, B)))
        clone = index.fork()
        clone.add(Atom("R", (A, C)))
        assert set(clone.facts_with("R", 0, A)) == {
            Atom("R", (A, B)),
            Atom("R", (A, C)),
        }
        assert index.facts_with("R", 0, A) == (Atom("R", (A, B)),)
