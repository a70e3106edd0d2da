"""Unit tests for terms: identity, hashing, factories, ordering."""

import json
import operator

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.atoms import Atom
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import (
    Constant,
    Null,
    NullFactory,
    Variable,
    fresh_null,
    is_ground,
    reset_null_counter,
)
from repro.schema.core import SchemaBuilder
from repro.source_contract import checked_inputs
from repro.sources.sqlite import SQLiteSource


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


class TestRepresentation:
    """A term is a 1-tuple hashed by ``tuple.__hash__`` and nothing else
    of a tuple: a scalar everywhere but in the hash."""

    @pytest.mark.parametrize("kind, _field", KINDS)
    def test_the_hash_is_tuples_own_slot(self, kind, _field):
        # A Python-level ``__hash__`` would put a frame back on every
        # set and dict operation of the chase and the executors.
        assert kind.__hash__ is tuple.__hash__

    @pytest.mark.parametrize("kind, _field", KINDS)
    @pytest.mark.parametrize(
        "use",
        [iter, len, tuple, list, json.dumps, lambda t: t[0],
         lambda t: "q" in t, lambda t: t + ("r",), lambda t: ("r",) + t,
         lambda t: 2 * t],
        ids=["iter", "len", "tuple", "list", "json", "index", "in",
             "add", "radd", "mul"],
    )
    def test_a_term_is_not_a_sequence(self, kind, _field, use):
        with pytest.raises(TypeError):
            use(kind("q"))

    @pytest.mark.parametrize("kind, _field", KINDS)
    @pytest.mark.parametrize("payload", ["", 0, False])
    def test_always_true(self, kind, _field, payload):
        assert bool(kind(payload)) is True

    @pytest.mark.parametrize(
        "compare",
        [operator.lt, operator.le, operator.gt, operator.ge],
        ids=["<", "<=", ">", ">="],
    )
    def test_no_order_against_a_plain_tuple(self, compare):
        with pytest.raises(TypeError):
            compare(Constant("a"), ("b",))
        with pytest.raises(TypeError):
            compare(("b",), Constant("a"))

    def test_order_among_terms_is_by_repr(self):
        assert Constant("a") < Constant("b") <= Constant("b")
        assert Variable("a") > Constant("z")  # "?a" > "'z'"
        assert Null("a") >= Variable("a")  # "_a" > "?a"

    @pytest.mark.parametrize("kind, _field", KINDS)
    def test_never_equal_to_a_plain_tuple_in_either_order(self, kind, _field):
        term = kind("a")
        assert ("a",) != term and term != ("a",)
        assert not ("a",) == term and not term == ("a",)
        assert len({term, ("a",)}) == 2
        assert len({("a",), term}) == 2

    def test_numpy_builds_a_flat_object_array(self):
        np = pytest.importorskip("numpy")
        terms = [Constant("a"), Constant(1), Null("n"), Variable("x")]
        array = np.array(terms, dtype=object)
        assert array.shape == (len(terms),)
        assert all(a is t for a, t in zip(array, terms))
        rows = np.array([(Constant("a"), Constant("b"))] * 3, dtype=object)
        assert rows.shape == (3, 2)


BARE_SCHEMA = (
    SchemaBuilder("bare").relation("R", 1).access("mR", "R", inputs=[0]).build()
)


def _sqlite_access(term):
    source = SQLiteSource(BARE_SCHEMA, Instance({"R": [("a",)]}))
    try:
        return source.access("mR", term)
    finally:
        source.close()


class TestABareTermIsNotATupleOfTerms:
    """Where a tuple of terms is wanted, one term raises ``TypeError`` --
    as it did when terms were not tuples.  Without the guards a tuple
    term would build an atom over the raw payload, store the row
    ``('a',)``, or look up a key of raw payloads."""

    @pytest.mark.parametrize(
        "use",
        [
            lambda t: Atom("R", t),
            lambda t: Instance().add("R", t),
            lambda t: ConjunctiveQuery(t, (Atom("R", (Variable("x"),)),)),
            lambda t: t < ("b",),
            json.dumps,
            lambda t: InMemorySource(
                BARE_SCHEMA, Instance({"R": [("a",)]})
            ).access("mR", t),
            _sqlite_access,
            lambda t: checked_inputs(BARE_SCHEMA.method("mR"), t),
        ],
        ids=["atom", "instance-add", "query-head", "order", "json",
             "memory-access", "sqlite-access", "checked-inputs"],
    )
    @pytest.mark.parametrize("kind, _field", KINDS)
    def test_raises_type_error(self, use, kind, _field):
        with pytest.raises(TypeError):
            use(kind("x"))

    def test_a_tuple_of_terms_is_still_taken_as_it_is(self):
        terms = (Constant("a"), Variable("x"))
        assert Atom("R", terms).terms is terms
        assert Atom("R", list(terms)).terms == terms
        assert ConjunctiveQuery([Variable("x")], [Atom("R", terms)]).head == (
            Variable("x"),
        )
