"""Unit tests for atoms and substitutions."""

import copy
import operator
import pickle

import pytest

from repro.logic.atoms import Atom, Substitution, apply_to_atoms
from repro.logic.terms import Constant, Null, Variable


X, Y, Z = Variable("x"), Variable("y"), Variable("z")
A, B = Constant("a"), Constant("b")
N1, N2 = Null("n1"), Null("n2")


class TestAtom:
    def test_arity(self):
        assert Atom("R", (X, Y, A)).arity == 3

    def test_is_fact_when_no_variables(self):
        assert Atom("R", (A, N1)).is_fact
        assert not Atom("R", (A, X)).is_fact

    def test_variables_in_first_occurrence_order(self):
        atom = Atom("R", (Y, X, Y))
        assert atom.variables() == (Y, X)

    def test_nulls_deduplicated(self):
        atom = Atom("R", (N1, N2, N1))
        assert atom.nulls() == (N1, N2)

    def test_constants(self):
        assert Atom("R", (A, X, B, A)).constants() == (A, B)

    def test_apply_substitution(self):
        sub = Substitution({X: A, Y: N1})
        assert Atom("R", (X, Y, Z)).apply(sub) == Atom("R", (A, N1, Z))

    def test_rename_relation(self):
        assert Atom("R", (X,)).rename_relation("S") == Atom("S", (X,))

    def test_equality_and_hash(self):
        assert Atom("R", (X, A)) == Atom("R", (X, A))
        assert hash(Atom("R", (X, A))) == hash(Atom("R", (X, A)))
        assert Atom("R", (X, A)) != Atom("R", (A, X))

    def test_terms_coerced_to_tuple(self):
        atom = Atom("R", [X, Y])  # list input
        assert isinstance(atom.terms, tuple)


class TestAtomIsATuple:
    """An atom is the 2-tuple ``(relation, terms)`` hashed by
    ``tuple.__hash__``, and nothing else of a tuple shows -- as a term
    is the 1-tuple of its payload (``test_terms.py``)."""

    ATOMS = [
        Atom("R", (X, A)),
        Atom("S", (N1, N2, N1)),
        Atom("T", ()),
        Atom("_accessible", (Constant(3),)),
    ]

    @pytest.mark.parametrize("atom", ATOMS, ids=repr)
    def test_the_hash_is_the_hash_of_relation_and_terms(self, atom):
        assert Atom.__hash__ is tuple.__hash__
        assert hash(atom) == hash((atom.relation, atom.terms))

    def test_a_set_of_atoms_iterates_like_the_set_of_pairs(self):
        pairs = [(f"R{i % 7}", (Constant(i), Null(f"n{i}"))) for i in range(200)]
        as_atoms = [(a.relation, a.terms) for a in {Atom(*p) for p in pairs}]
        assert as_atoms == list(set(pairs))

    @pytest.mark.parametrize("atom", ATOMS, ids=repr)
    def test_never_equal_to_a_plain_tuple_in_either_order(self, atom):
        pair = (atom.relation, atom.terms)
        assert atom != pair and pair != atom
        assert not atom == pair and not pair == atom
        assert len({atom, pair}) == 2
        assert len({pair, atom}) == 2

    def test_equal_only_to_an_equal_atom(self):
        assert Atom("R", (X, A)) == Atom("R", [X, A])
        assert not Atom("R", (X, A)) != Atom("R", (X, A))
        assert Atom("R", (X, A)) != Atom("S", (X, A))
        assert Atom("R", (X, A)) != "R"

    @pytest.mark.parametrize(
        "use",
        [iter, len, tuple, list, lambda a: a[0], lambda a: "R" in a,
         lambda a: a + ("S",), lambda a: ("S",) + a, lambda a: 2 * a],
        ids=["iter", "len", "tuple", "list", "index", "in", "add", "radd",
             "mul"],
    )
    def test_an_atom_is_not_a_sequence(self, use):
        with pytest.raises(TypeError):
            use(Atom("R", (X, A)))

    @pytest.mark.parametrize(
        "compare",
        [operator.lt, operator.le, operator.gt, operator.ge],
        ids=["<", "<=", ">", ">="],
    )
    def test_atoms_are_unordered(self, compare):
        left, right = Atom("R", (A,)), Atom("S", (B,))
        for a, b in ((left, right), (left, ("S", (B,))), (("S", (B,)), left)):
            with pytest.raises(TypeError):
                compare(a, b)

    def test_always_true(self):
        assert bool(Atom("T", ())) is True

    @pytest.mark.parametrize("atom", ATOMS, ids=repr)
    def test_copy_and_pickle_round_trip(self, atom):
        for clone in (
            copy.copy(atom),
            copy.deepcopy(atom),
            pickle.loads(pickle.dumps(atom)),
            pickle.loads(pickle.dumps(atom, protocol=2)),
        ):
            assert clone == atom
            assert type(clone) is Atom
            assert type(clone.terms) is tuple
            assert hash(clone) == hash(atom)

    def test_frozen(self):
        import dataclasses

        atom = Atom("R", (X,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            atom.relation = "S"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del atom.terms
        with pytest.raises(dataclasses.FrozenInstanceError):
            atom.extra = 1
        assert not hasattr(atom, "__dict__")

    def test_structural_pattern_matching(self):
        match Atom("R", (X, A)):
            case Atom(relation, terms):
                assert (relation, terms) == ("R", (X, A))
            case _:
                raise AssertionError("the atom did not match")

    @pytest.mark.parametrize(
        "mapping",
        [{}, {X: A}, {X: N1, Y: B}, {N1: A, N2: X}, {X: Y, Y: X}, {A: B}],
        ids=["empty", "var", "vars", "nulls", "swap", "constant-key"],
    )
    def test_apply_equals_the_generator_form(self, mapping):
        sub = Substitution(mapping)
        for atom in (
            Atom("R", (X, Y, Z)),
            Atom("S", (N1, A, N2, N1)),
            Atom("T", (A, B, X)),
            Atom("U", ()),
        ):
            applied = atom.apply(sub)
            expected = Atom(
                atom.relation, tuple(sub.get(t, t) for t in atom.terms)
            )
            assert applied == expected
            assert type(applied) is Atom
            assert type(applied.terms) is tuple
            assert hash(applied) == hash(expected)


class TestSubstitution:
    def test_get_with_default(self):
        sub = Substitution({X: A})
        assert sub.get(X) == A
        assert sub.get(Y) is None
        assert sub.get(Y, Y) == Y

    def test_extended_does_not_mutate_original(self):
        sub = Substitution({X: A})
        bigger = sub.extended(Y, B)
        assert Y not in sub
        assert bigger[Y] == B
        assert bigger[X] == A

    def test_restrict(self):
        sub = Substitution({X: A, Y: B})
        only_x = sub.restrict([X])
        assert X in only_x
        assert Y not in only_x

    def test_compose_applies_left_then_right(self):
        first = Substitution({X: Y})
        second = Substitution({Y: A})
        composed = first.compose(second)
        assert composed[X] == A
        assert composed[Y] == A

    def test_compose_keeps_right_only_keys(self):
        composed = Substitution({X: A}).compose(Substitution({Z: B}))
        assert composed[Z] == B

    def test_equality_and_hash(self):
        assert Substitution({X: A}) == Substitution({X: A})
        assert hash(Substitution({X: A})) == hash(Substitution({X: A}))

    def test_apply_to_atoms(self):
        sub = Substitution({X: A})
        atoms = apply_to_atoms([Atom("R", (X,)), Atom("S", (X, Y))], sub)
        assert atoms == (Atom("R", (A,)), Atom("S", (A, Y)))

    def test_len_and_iter(self):
        sub = Substitution({X: A, Y: B})
        assert len(sub) == 2
        assert set(sub) == {X, Y}
