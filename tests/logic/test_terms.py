"""Unit tests for terms: identity, hashing, factories, ordering."""

import pytest

from repro.logic.terms import (
    Constant,
    Null,
    NullFactory,
    Variable,
    fresh_null,
    is_ground,
    reset_null_counter,
)


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_hashable(self):
        assert len({Variable("x"), Variable("x"), Variable("y")}) == 2

    def test_repr(self):
        assert repr(Variable("uname")) == "?uname"

    def test_not_ground(self):
        assert not is_ground(Variable("x"))


class TestConstant:
    def test_equality_by_value(self):
        assert Constant("smith") == Constant("smith")
        assert Constant(3) != Constant("3")

    def test_string_repr_quoted(self):
        assert repr(Constant("smith")) == "'smith'"

    def test_numeric_repr(self):
        assert repr(Constant(3)) == "3"

    def test_ground(self):
        assert is_ground(Constant("smith"))

    def test_distinct_from_variable_with_same_name(self):
        assert Constant("x") != Variable("x")


class TestNull:
    def test_equality_by_name(self):
        assert Null("n1") == Null("n1")
        assert Null("n1") != Null("n2")

    def test_repr(self):
        assert repr(Null("Q_e")) == "_Q_e"

    def test_ground(self):
        assert is_ground(Null("n0"))


class TestNullFactory:
    def test_mints_distinct_nulls(self):
        factory = NullFactory("t")
        nulls = [factory() for _ in range(10)]
        assert len(set(nulls)) == 10

    def test_hint_appears_in_name(self):
        factory = NullFactory("t")
        null = factory(hint="uid")
        assert "uid" in null.name

    def test_two_factories_same_prefix_collide_deterministically(self):
        a, b = NullFactory("p"), NullFactory("p")
        assert a() == b()  # determinism is the point: same prefix+index

    def test_global_fresh_null_distinct(self):
        reset_null_counter()
        assert fresh_null() != fresh_null()

    def test_reset_restarts_sequence(self):
        reset_null_counter()
        first = fresh_null()
        reset_null_counter()
        assert fresh_null() == first


class TestOrdering:
    def test_terms_sortable_across_kinds(self):
        terms = [Constant("b"), Null("a"), Variable("c"), Constant(1)]
        ordered = sorted(terms)
        assert len(ordered) == 4

    def test_sorting_is_stable_by_repr(self):
        terms = [Constant("b"), Constant("a")]
        assert sorted(terms) == [Constant("a"), Constant("b")]


KINDS = [(Variable, "name"), (Constant, "value"), (Null, "name")]
PAYLOADS = ["x", "", "smith", 0, 1, -7, 2.5, True, 10**30]


class TestHashIsTheOnePinnedAtConstruction:
    """The stored hash must equal the old dataclass hash, ``hash((payload,))``:
    set and dict iteration order everywhere depends on it."""

    @pytest.mark.parametrize("kind, _field", KINDS)
    @pytest.mark.parametrize("payload", PAYLOADS)
    def test_hash_equals_hash_of_the_payload_tuple(self, kind, _field, payload):
        assert hash(kind(payload)) == hash((payload,))

    def test_a_set_of_terms_iterates_like_the_set_of_payload_tuples(self):
        payloads = [f"v{i}" for i in range(200)]
        as_terms = [c.value for c in set(map(Constant, payloads))]
        as_tuples = [t[0] for t in {(p,) for p in payloads}]
        assert as_terms == as_tuples


class TestEqualityMatrix:
    def test_numeric_payloads_compare_as_python_does(self):
        assert Constant(1) == Constant(1.0) == Constant(True)
        assert len({Constant(1), Constant(1.0), Constant(True)}) == 1
        assert Constant(0) != Constant("0")

    @pytest.mark.parametrize("payload", ["x", "n0"])
    def test_kinds_never_equal_each_other(self, payload):
        terms = [kind(payload) for kind, _field in KINDS]
        for i, a in enumerate(terms):
            for j, b in enumerate(terms):
                assert (a == b) == (i == j)
        assert len(set(terms)) == 3

    def test_not_equal_to_the_bare_payload_or_its_tuple(self):
        assert Constant("a") != "a"
        assert Constant("a") != ("a",)
        assert Null("a") != "a"

    def test_identity_short_circuits(self):
        nan = Constant(float("nan"))
        assert nan == nan

    def test_payload_identity_counts_as_equality(self):
        # The dataclass compared ``(payload,) == (payload,)``, which
        # checks identity before ``==``: two terms over *one* NaN object
        # are equal (and dedup in a set), over two NaN objects they are not.
        nan = float("nan")
        assert Constant(nan) == Constant(nan)
        assert len({Constant(nan), Constant(nan)}) == 1
        assert Constant(nan) != Constant(float("nan"))


class TestFrozenSlotValues:
    @pytest.mark.parametrize("kind, field", KINDS)
    def test_keyword_and_positional_construction(self, kind, field):
        assert kind(**{field: "q"}) == kind("q")
        assert getattr(kind("q"), field) == "q"
        assert kind.__match_args__ == (field,)

    @pytest.mark.parametrize("kind, field", KINDS)
    def test_assignment_and_deletion_raise(self, kind, field):
        import dataclasses

        term = kind("q")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(term, field, "other")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(term, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            term.extra = 1
        assert getattr(term, field) == "q"

    @pytest.mark.parametrize("kind, _field", KINDS)
    def test_no_instance_dict(self, kind, _field):
        assert not hasattr(kind("q"), "__dict__")

    @pytest.mark.parametrize("kind, _field", KINDS)
    @pytest.mark.parametrize("payload", ["q", 3])
    def test_copy_and_pickle_round_trip(self, kind, _field, payload):
        import copy
        import pickle

        term = kind(payload)
        for clone in (
            copy.copy(term),
            copy.deepcopy(term),
            pickle.loads(pickle.dumps(term)),
            pickle.loads(pickle.dumps(term, protocol=2)),
        ):
            assert clone == term
            assert type(clone) is kind
            assert hash(clone) == hash(term)

    def test_structural_pattern_matching(self):
        match Constant(5):
            case Constant(value):
                assert value == 5
            case _:
                raise AssertionError("Constant(5) did not match")
