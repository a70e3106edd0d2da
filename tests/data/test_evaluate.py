"""``Instance.evaluate`` against the homomorphism reference.

The instance answers a conjunctive query with its own set-at-a-time
join over the stored rows.  The reference is
``ConjunctiveQuery.evaluate(FactIndex(instance.facts()))``, the
backtracking homomorphism search, which shares no code with it.  The
properties draw instances over ``R/2``, ``S/3`` and ``T/1`` whose cells
mix types that compare equal across types (``1``, ``1.0``, ``True``;
``0``, ``0.0``, ``-0.0``, ``False``) and NaN, which equals only itself
by identity; queries mix constants, variables repeated within and
across atoms, cross products, a relation the instance never holds and
boolean heads.

Three mutants of the evaluator die here: dropping the check that a
variable repeated within an atom reads equal cells; keeping a
relation's indexes across an ``add`` to it; and projecting away a
variable that a later atom joins on.
"""

from __future__ import annotations

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

import repro
from repro.data.instance import Instance
from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD
from repro.logic.homomorphisms import (
    FactIndex,
    find_homomorphism,
    find_homomorphisms,
)
from repro.logic.queries import ConjunctiveQuery, cq
from repro.logic.terms import Constant, Variable

NAN = float("nan")
OTHER_NAN = float("nan")
#: The NaN object appears twice, so rows and queries share it often.
CELLS = ["a", "b", 1, 1.0, True, False, 0, 0.0, -0.0, NAN, NAN, OTHER_NAN]
ARITY = {"R": 2, "S": 3, "T": 1}
#: ``U`` is in no instance.
QUERY_ARITY = {**ARITY, "U": 2}
VARIABLES = [Variable(name) for name in "xyzw"]

cells = st.sampled_from(CELLS)
relations = st.sampled_from(sorted(ARITY))


@st.composite
def rows(draw):
    relation = draw(relations)
    return relation, tuple(draw(cells) for _ in range(ARITY[relation]))


@st.composite
def instances(draw):
    instance = Instance()
    for relation, row in draw(st.lists(rows(), max_size=14)):
        instance.add(relation, row)
    return instance


terms = st.one_of(
    st.sampled_from(VARIABLES), cells.map(Constant)
)


@st.composite
def bodies(draw, max_atoms: int = 4):
    body = []
    for _ in range(draw(st.integers(1, max_atoms))):
        relation = draw(st.sampled_from(sorted(QUERY_ARITY)))
        body.append(
            Atom(
                relation,
                tuple(draw(terms) for _ in range(QUERY_ARITY[relation])),
            )
        )
    return tuple(body)


@st.composite
def queries(draw):
    body = draw(bodies())
    variables = sorted(
        {v for atom in body for v in atom.variables()}, key=lambda v: v.name
    )
    head = draw(st.permutations(variables))[: draw(st.integers(0, 3))]
    return ConjunctiveQuery(tuple(head), body)


@st.composite
def tgds(draw):
    return TGD(draw(bodies(max_atoms=2)), draw(bodies(max_atoms=2)))


def reference(instance, query):
    return query.evaluate(FactIndex(instance.facts()))


def satisfies_by_homomorphisms(instance, tgd):
    """Every body match restricted to the frontier extends to the head."""
    index = FactIndex(instance.facts())
    return all(
        find_homomorphism(list(tgd.head), index, hom.restrict(tgd.frontier()))
        is not None
        for hom in find_homomorphisms(list(tgd.body), index)
    )


class TestAgainstTheReference:
    @settings(max_examples=400, deadline=None)
    @given(instances(), queries())
    def test_evaluate_equals_the_homomorphism_reference(self, instance, query):
        assert instance.evaluate(query) == reference(instance, query)

    @settings(max_examples=300, deadline=None)
    @given(instances(), tgds())
    def test_satisfies_agrees_with_the_homomorphism_definition(
        self, instance, tgd
    ):
        assert instance.satisfies(tgd) == satisfies_by_homomorphisms(
            instance, tgd
        )

    @settings(max_examples=150, deadline=None)
    @given(
        instances(),
        st.lists(
            st.one_of(rows(), queries()), min_size=1, max_size=12
        ),
    )
    def test_adds_interleaved_with_evaluations(self, instance, steps):
        for step in steps:
            if isinstance(step, ConjunctiveQuery):
                assert instance.evaluate(step) == reference(instance, step)
                continue
            relation, row = step
            before = dict(instance._indexes)
            if instance.add(relation, row):
                assert relation not in instance._indexes
            for other, indexes in before.items():
                if other != relation:
                    assert instance._indexes[other] is indexes


class TestNamedCases:
    """One small case per mutant the properties kill, and the edges."""

    def test_a_variable_repeated_within_an_atom_reads_equal_cells(self):
        instance = Instance({"R": [("a", "a"), ("b", "c")]})
        query = cq(["?x"], [("R", ["?x", "?x"])])
        assert instance.evaluate(query) == {(Constant("a"),)}

    def test_an_add_is_seen_and_other_indexes_survive_it(self):
        instance = Instance({"R": [("a", "b")], "S": [("b", "c", "d")]})
        over_r = cq(["?y"], [("R", ["a", "?y"])])
        over_s = cq(["?z"], [("S", ["?y", "?z", "d"])])
        assert instance.evaluate(over_r) == {(Constant("b"),)}
        assert instance.evaluate(over_s) == {(Constant("c"),)}
        kept = instance._indexes["S"]
        instance.add("R", ("a", "c"))
        assert instance.evaluate(over_r) == {
            (Constant("b"),),
            (Constant("c"),),
        }
        assert instance._indexes["S"] is kept

    def test_a_variable_a_later_atom_joins_on_is_kept(self):
        instance = Instance(
            {
                "T": [("a",)],
                "R": [("a", "b"), ("c", "d")],
                "S": [("b", "1", "x"), ("d", "2", "y")],
            }
        )
        # T binds x; R(x, y) then binds y, which only S reads.
        query = cq(["?x", "?z"], [("T", ["?x"]), ("R", ["?x", "?y"]),
                                  ("S", ["?y", "?z", "?w"])])
        assert instance.evaluate(query) == {(Constant("a"), Constant("1"))}
        assert instance.evaluate(query) == reference(instance, query)

    def test_cross_types_and_nan_match_as_the_reference_does(self):
        instance = Instance({"R": [(1, NAN), (0.0, OTHER_NAN)]})
        for value, other in ((True, NAN), (-0.0, OTHER_NAN), (1, OTHER_NAN)):
            query = cq([], [("R", [value, other])])
            assert instance.evaluate(query) == reference(instance, query)
        assert instance.evaluate(cq([], [("R", [1.0, NAN])])) == {()}
        assert instance.evaluate(cq([], [("R", [1, float("nan")])])) == set()

    def test_an_atom_of_another_arity_matches_nothing(self):
        instance = Instance({"R": [("a", "b"), ("a", "b", "c")]})
        query = cq(["?x"], [("R", ["?x", "?y"])])
        assert instance.evaluate(query) == reference(instance, query)
        assert instance.evaluate(query) == {(Constant("a"),)}

    def test_absent_relations_and_boolean_heads(self):
        instance = Instance({"T": [("a",)]})
        assert instance.evaluate(cq([], [("T", ["?x"])])) == {()}
        assert instance.evaluate(cq([], [("U", ["?x"])])) == set()
        assert instance.evaluate(cq([], [("T", ["b"])])) == set()
        assert instance.evaluate(ConjunctiveQuery((), ())) == {()}

    def test_evaluate_adds_no_attribute_but_the_index_map(self):
        instance = Instance({"R": [("a", "b")], "T": [("b",)]})
        keys = set(vars(instance))
        instance.evaluate(cq(["?x"], [("R", ["?x", "?y"]), ("T", ["?y"])]))
        instance.satisfies(TGD(
            (Atom("R", (Variable("x"), Variable("y"))),),
            (Atom("T", (Variable("y"),)),),
        ))
        assert set(vars(instance)) == keys
        assert "_indexes" in keys and instance._indexes["R"]


#: Packages the oracle must not reach: the plans, executors and sources
#: it is the check of.
CHECKED = ("repro.plans", "repro.exec", "repro.sources")


def _repro_imports(module: str):
    """The ``repro`` modules ``module``'s source names in any import."""
    package = Path(repro.__file__).parent
    path = package.joinpath(*module.split(".")[1:])
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from (name for name in names if name.split(".")[0] == "repro")


def test_the_oracle_imports_no_plan_executor_or_source():
    """The closure of named imports, at module or function level.

    A package's ``__init__`` is followed only where an import names the
    package itself; ``repro/__init__.py`` re-exports everything and is
    not a dependency of the modules below it.
    """
    seen, frontier = set(), ["repro.data.instance"]
    while frontier:
        module = frontier.pop()
        if module in seen or module == "repro":
            continue
        seen.add(module)
        frontier.extend(_repro_imports(module))
    reached = sorted(
        m for m in seen if any(m == c or m.startswith(c + ".") for c in CHECKED)
    )
    assert reached == []
    assert "repro.logic.queries" in seen
