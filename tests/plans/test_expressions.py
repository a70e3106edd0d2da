"""Unit tests for RA expressions and NamedTable semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.terms import Constant
from repro.plans.commands import AccessCommand, MiddlewareCommand, identity_output_map
from repro.plans.expressions import (
    Difference,
    EqAttr,
    EqConst,
    EvaluationError,
    Join,
    Literal,
    NamedTable,
    NeqAttr,
    NeqConst,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union,
    row_picker,
)
from repro.plans.plan import Plan
from repro.plans.rewrite import rewrite_expression, split_conditions
from repro.schema.core import SchemaBuilder


A, B, C, D = (Constant(v) for v in "abcd")


def table(attrs, rows):
    return NamedTable.from_rows(attrs, rows)


@pytest.fixture
def env():
    return {
        "R": table(["x", "y"], [(A, B), (A, C), (B, C)]),
        "S": table(["y", "z"], [(B, D), (C, D)]),
        "T": table(["x", "y"], [(A, B)]),
    }


class TestNamedTable:
    def test_duplicate_attribute_rejected(self):
        with pytest.raises(EvaluationError):
            NamedTable(("x", "x"), frozenset())

    def test_row_width_checked(self):
        with pytest.raises(EvaluationError):
            NamedTable(("x",), frozenset({(A, B)}))

    def test_row_width_message_names_the_offending_width(self):
        with pytest.raises(EvaluationError, match=r"row width 1 != 2 attrs"):
            NamedTable(("x", "y"), frozenset({(A, B), (A,)}))
        with pytest.raises(EvaluationError, match=r"row width 3 != 2 attrs"):
            NamedTable(("x", "y"), frozenset({(A, B), (A, B, C)}))

    def test_identity_projection_is_the_table_itself(self):
        t = table(["x", "y"], [(A, B), (A, C)])
        assert t.project(["x", "y"]) is t
        assert t.project(("x", "y")) is t

    def test_permuted_or_narrower_projection_is_a_new_table(self):
        t = table(["x", "y"], [(A, B), (A, C)])
        swapped = t.project(["y", "x"])
        assert swapped is not t
        assert swapped.attributes == ("y", "x")
        assert swapped.rows == frozenset({(B, A), (C, A)})
        assert t.project(["x"]).rows == frozenset({(A,)})
        assert t.project([]).rows == frozenset({()})

    def test_singleton(self):
        t = NamedTable.singleton()
        assert t.attributes == ()
        assert len(t) == 1

    def test_project_deduplicates(self):
        t = table(["x", "y"], [(A, B), (A, C)])
        assert len(t.project(["x"])) == 1

    def test_project_reorders(self):
        t = table(["x", "y"], [(A, B)])
        assert t.project(["y", "x"]).rows == frozenset({(B, A)})

    def test_unknown_column(self):
        with pytest.raises(EvaluationError):
            table(["x"], []).column("zz")

    def test_rename(self):
        t = table(["x"], [(A,)]).rename({"x": "u"})
        assert t.attributes == ("u",)

    def test_rename_onto_one_name_raises(self):
        t = table(["x", "y"], [(A, B)])
        with pytest.raises(EvaluationError, match="duplicate attribute"):
            t.rename({"x": "y"})
        with pytest.raises(EvaluationError, match="duplicate attribute"):
            t.rename({"x": "u", "y": "u"})


class TestRowPicker:
    @pytest.mark.parametrize(
        "columns", [(), (0,), (2,), (0, 1), (2, 0), (1, 1, 0), (0, 1, 2)]
    )
    def test_always_a_tuple_of_the_picked_cells(self, columns):
        row = (A, B, C)
        assert row_picker(columns)(row) == tuple(row[c] for c in columns)


class TestScanProjectSelect:
    def test_scan(self, env):
        assert Scan("R").evaluate(env) is env["R"]

    def test_scan_unknown_table(self, env):
        with pytest.raises(EvaluationError):
            Scan("ZZ").evaluate(env)

    def test_project(self, env):
        result = Project(Scan("R"), ("x",)).evaluate(env)
        assert result.rows == frozenset({(A,), (B,)})

    def test_project_unknown_attr_fails(self, env):
        with pytest.raises(EvaluationError):
            Project(Scan("R"), ("zz",)).evaluate(env)

    def test_select_eq_const(self, env):
        result = Select(Scan("R"), (EqConst("x", A),)).evaluate(env)
        assert len(result) == 2

    def test_select_eq_attr(self, env):
        t = {"U": table(["x", "y"], [(A, A), (A, B)])}
        result = Select(Scan("U"), (EqAttr("x", "y"),)).evaluate(t)
        assert result.rows == frozenset({(A, A)})

    def test_select_neq(self, env):
        result = Select(Scan("R"), (NeqConst("x", A),)).evaluate(env)
        assert result.rows == frozenset({(B, C)})

    def test_select_conjunction(self, env):
        result = Select(
            Scan("R"), (EqConst("x", A), EqConst("y", C))
        ).evaluate(env)
        assert result.rows == frozenset({(A, C)})


class TestJoin:
    def test_natural_join_on_shared_attr(self, env):
        result = Join(Scan("R"), Scan("S")).evaluate(env)
        assert result.attributes == ("x", "y", "z")
        assert result.rows == frozenset(
            {(A, B, D), (A, C, D), (B, C, D)}
        )

    def test_join_no_shared_attrs_is_product(self, env):
        t = {
            "L": table(["x"], [(A,), (B,)]),
            "M": table(["y"], [(C,)]),
        }
        result = Join(Scan("L"), Scan("M")).evaluate(t)
        assert len(result) == 2

    def test_join_with_singleton_identity(self, env):
        result = Join(Scan("R"), Singleton()).evaluate(env)
        assert result.rows == env["R"].rows

    def test_join_all_attrs_shared_is_intersection(self, env):
        result = Join(Scan("R"), Scan("T")).evaluate(env)
        assert result.rows == frozenset({(A, B)})


class TestUnionDifference:
    def test_union(self, env):
        result = Union(Scan("R"), Scan("T")).evaluate(env)
        assert result.rows == env["R"].rows

    def test_union_reorders_right(self):
        env = {
            "L": table(["x", "y"], [(A, B)]),
            "M": table(["y", "x"], [(C, D)]),
        }
        result = Union(Scan("L"), Scan("M")).evaluate(env)
        assert (D, C) in result.rows

    def test_union_mismatch_rejected(self, env):
        with pytest.raises(EvaluationError):
            Union(Scan("R"), Scan("S")).evaluate(env)

    def test_difference(self, env):
        result = Difference(Scan("R"), Scan("T")).evaluate(env)
        assert result.rows == frozenset({(A, C), (B, C)})

    def test_difference_mismatch_rejected(self, env):
        with pytest.raises(EvaluationError):
            Difference(Scan("R"), Scan("S")).evaluate(env)


class TestClassificationFlags:
    def test_spj_expression_flags(self, env):
        expr = Project(Select(Join(Scan("R"), Scan("S")), ()), ("x",))
        assert not expr.uses_union
        assert not expr.uses_difference
        assert not expr.uses_inequality

    def test_union_flag_propagates(self):
        expr = Project(Union(Scan("R"), Scan("T")), ("x",))
        assert expr.uses_union

    def test_difference_flag_propagates(self):
        expr = Select(Difference(Scan("R"), Scan("T")), ())
        assert expr.uses_difference

    def test_inequality_flag(self):
        expr = Select(Scan("R"), (NeqAttr("x", "y"),))
        assert expr.uses_inequality

    def test_tables_read(self):
        expr = Union(Join(Scan("R"), Scan("S")), Scan("T"))
        assert expr.tables_read() == {"R", "S", "T"}

    def test_rename_expression(self, env):
        expr = Rename(Scan("R"), (("x", "u"),))
        assert expr.evaluate(env).attributes == ("u", "y")
        assert expr.attributes({"R": ("x", "y")}) == ("u", "y")


class TestSplitConditions:
    LEFT, RIGHT = ("a", "b"), ("b", "c")

    def split(self, *conditions):
        return split_conditions(conditions, self.LEFT, self.RIGHT)

    @pytest.mark.parametrize(
        "cond",
        [EqConst("a", A), NeqConst("a", A), EqAttr("a", "b"), NeqAttr("b", "a")],
    )
    def test_left_only(self, cond):
        assert self.split(cond) == ((cond,), (), ())

    @pytest.mark.parametrize(
        "cond",
        [EqConst("c", A), NeqConst("c", A), EqAttr("c", "b"), NeqAttr("b", "c")],
    )
    def test_right_only(self, cond):
        assert self.split(cond) == ((), (cond,), ())

    @pytest.mark.parametrize(
        "cond", [EqConst("b", A), NeqConst("b", A), EqAttr("b", "b")]
    )
    def test_shared_attribute_goes_left(self, cond):
        assert self.split(cond) == ((cond,), (), ())

    @pytest.mark.parametrize("cond", [EqAttr("a", "c"), NeqAttr("c", "a")])
    def test_two_sided_is_residual(self, cond):
        assert self.split(cond) == ((), (), (cond,))

    def test_unknown_attribute_is_residual(self):
        conds = (EqConst("zz", A), NeqAttr("a", "zz"))
        assert self.split(*conds) == ((), (), conds)

    def test_anything_but_the_four_conditions_is_rejected(self):
        with pytest.raises(TypeError, match="not a condition"):
            self.split(EqConst("a", A), "a = b")

    def test_order_is_kept_within_each_part(self):
        c1, c2, c3, c4 = (
            NeqConst("a", A), EqConst("c", B), EqConst("a", B), NeqAttr("a", "c")
        )
        assert self.split(c1, c2, c3, c4) == ((c1, c3), (c2,), (c4,))

    def test_pure_inputs_untouched(self):
        conds = [EqConst("a", A)]
        split_conditions(conds, self.LEFT, self.RIGHT)
        assert conds == [EqConst("a", A)]


# ------------------------------------ rewritten plans == row-by-row oracle
# Beside three strings, the cells on which a selection's shortcuts could
# part from ``Constant.__eq__``: payloads equal across types (1, 1.0,
# True), the two zeros, and NaN -- one object used twice, which equals
# itself by identity, and a second object, which equals neither.
NAN = float("nan")
CELLS = [
    A,
    B,
    C,
    Constant(1),
    Constant(1.0),
    Constant(True),
    Constant(0.0),
    Constant(-0.0),
    Constant(NAN),
    Constant(NAN),
    Constant(float("nan")),
]
NAMES = ["p", "q", "r", "s", "t"]
FRESH = ["u", "v"]


def holds(condition, attributes, row):
    """One condition on one row, by attribute position: no shared code."""
    def cell(name):
        return row[attributes.index(name)]

    if isinstance(condition, EqAttr):
        return cell(condition.left) == cell(condition.right)
    if isinstance(condition, NeqAttr):
        return cell(condition.left) != cell(condition.right)
    if isinstance(condition, EqConst):
        return cell(condition.attribute) == condition.value
    return cell(condition.attribute) != condition.value


def reads(condition):
    if isinstance(condition, (EqAttr, NeqAttr)):
        return (condition.left, condition.right)
    return (condition.attribute,)


def reference(expr, env):
    """``(attributes, rows)`` of a σ/π/⋈/ρ tree, one row at a time.

    Nested-loop natural join, per-row selection, comprehension
    projection; every name is checked before any row is looked at.
    Shares no code with either engine or the rewrite.
    """
    if isinstance(expr, Scan):
        table = env[expr.table]
        return table.attributes, set(table.rows)
    if isinstance(expr, Rename):
        attrs, rows = reference(expr.child, env)
        renames = dict(expr.mapping)
        return tuple(renames.get(a, a) for a in attrs), rows
    if isinstance(expr, Join):
        left_attrs, left_rows = reference(expr.left, env)
        right_attrs, right_rows = reference(expr.right, env)
        shared = [a for a in right_attrs if a in left_attrs]
        extra = [i for i, a in enumerate(right_attrs) if a not in left_attrs]
        attrs = left_attrs + tuple(right_attrs[i] for i in extra)
        rows = {
            lrow + tuple(rrow[i] for i in extra)
            for lrow in left_rows
            for rrow in right_rows
            if all(
                lrow[left_attrs.index(a)] == rrow[right_attrs.index(a)]
                for a in shared
            )
        }
        return attrs, rows
    attrs, rows = reference(expr.child, env)
    if isinstance(expr, Select):
        for condition in expr.conditions:
            if any(a not in attrs for a in reads(condition)):
                raise EvaluationError(f"no attribute in {condition!r}")
        return attrs, {
            row
            for row in rows
            if all(holds(c, attrs, row) for c in expr.conditions)
        }
    if any(a not in attrs for a in expr.attrs):
        raise EvaluationError(f"no attribute in {expr.attrs}")
    columns = [attrs.index(a) for a in expr.attrs]
    return tuple(expr.attrs), {tuple(row[c] for c in columns) for row in rows}


def outcome(thunk):
    try:
        result = thunk()
    except EvaluationError:
        return "raises"
    if isinstance(result, NamedTable):
        return result.attributes, frozenset(result.rows)
    return result[0], frozenset(result[1])


@st.composite
def tables(draw):
    attrs = draw(
        st.lists(st.sampled_from(NAMES), unique=True, min_size=1, max_size=3)
    )
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(CELLS)] * len(attrs)), max_size=8
        )
    )
    return NamedTable.from_rows(attrs, rows)


def conditions_over(names):
    """The four condition classes over the given attribute names."""
    attr = st.sampled_from(names)
    return st.one_of(
        st.builds(EqAttr, attr, attr),
        st.builds(NeqAttr, attr, attr),
        st.builds(EqConst, attr, st.sampled_from(CELLS)),
        st.builds(NeqConst, attr, st.sampled_from(CELLS)),
    )


# A name in no table: wherever it is read, every evaluation must raise.
GHOST = "zz"


@st.composite
def trees(draw, schema, depth):
    """A random σ/π/⋈/ρ tree over ``schema``; returns (tree, attributes).

    ``spj`` draws the shape the rewrite acts on, ``π(σ(⋈))``, whose
    conditions may read one input, both or neither.  One node in eight
    reads :data:`GHOST`, so the eager error is part of the property too.
    """
    kinds = ["scan"]
    if depth > 0:
        kinds += ["select", "project", "join", "rename", "spj", "spj"]
    kind = draw(st.sampled_from(kinds))
    if kind == "scan":
        table = draw(st.sampled_from(sorted(schema)))
        return Scan(table), schema[table]
    two_sided = []
    if kind in ("join", "spj"):
        left, left_attrs = draw(trees(schema, depth - 1))
        right, right_attrs = draw(trees(schema, depth - 1))
        extra = tuple(a for a in right_attrs if a not in left_attrs)
        child, attrs = Join(left, right), left_attrs + extra
        if kind == "join":
            return child, attrs
        left_only = [a for a in left_attrs if a not in right_attrs]
        if left_only and extra:
            # The conditions that must stay above the join.
            one, other = st.sampled_from(left_only), st.sampled_from(extra)
            two_sided = [st.builds(EqAttr, one, other), st.builds(NeqAttr, other, one)]
    else:
        child, attrs = draw(trees(schema, depth - 1))
    ghost = draw(st.integers(0, 7)) == 0
    names = list(attrs) + [GHOST] if ghost else list(attrs)

    def select(child):
        if not names:
            return child
        pool = st.one_of([conditions_over(names)] + two_sided)
        conditions = draw(st.lists(pool, max_size=3))
        return Select(child, tuple(conditions))

    def project(child):
        picked = draw(st.lists(st.sampled_from(names), unique=True)) if names else []
        return Project(child, tuple(picked)), tuple(picked)

    if kind == "select":
        return select(child), attrs
    if kind == "project":
        return project(child)
    if kind == "spj":
        return project(select(child))
    if not attrs:
        return Rename(child, ()), attrs
    old = draw(st.sampled_from(list(attrs)))
    new = draw(st.sampled_from([a for a in NAMES + FRESH if a not in attrs]))
    return Rename(child, ((old, new),)), tuple(new if a == old else a for a in attrs)


@st.composite
def tree_cases(draw):
    env = {name: draw(tables()) for name in ("L", "R", "S")}
    schema = {name: table.attributes for name, table in env.items()}
    tree, _ = draw(trees(schema, draw(st.integers(1, 4))))
    return env, tree


def literal_plan(env, tree):
    """The tables as literal commands, then ``OUT := tree``."""
    commands = [MiddlewareCommand(n, Literal(t)) for n, t in env.items()]
    return Plan(tuple(commands) + (MiddlewareCommand("OUT", tree),), "OUT")


class TestFusedJoinMatchesRowByRow:
    @settings(max_examples=300, deadline=None)
    @given(tree_cases())
    def test_select_project_over_join(self, case):
        """Rewritten, under either engine, equals the row-by-row oracle."""
        env, tree = case
        plan = literal_plan(env, tree)
        expected = outcome(lambda: reference(tree, env))
        assert outcome(lambda: tree.evaluate(env)) == expected, tree
        assert outcome(lambda: plan.execute(None)) == expected, tree
        assert outcome(
            lambda: plan.execute(None, executor="columnar")
        ) == expected, tree

    def test_unknown_name_raises_before_access(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 1)
            .access("mt_R", "R", inputs=[], cost=1.0)
            .build()
        )
        cond = (EqConst("zz", A),)
        plan = Plan(
            (
                AccessCommand(
                    "L", "mt_R", Singleton(), (), identity_output_map(("p",))
                ),
                MiddlewareCommand(
                    "OUT", Select(Join(Scan("L"), Scan("L")), cond)
                ),
            ),
            "OUT",
        )
        for rows in ([], [("a",)]):  # the join is empty, then not
            source = InMemorySource(schema, Instance({"R": rows}))
            for executor in ("interpreter", "columnar", "differential"):
                with pytest.raises(EvaluationError, match="no attribute 'zz'"):
                    plan.execute(source, executor=executor)
            with pytest.raises(EvaluationError, match="no attribute 'zz'"):
                plan.run(source)
            assert source.total_invocations == 0

    def test_one_sided_selection_forms_no_discarded_pair(self):
        # 3 x 3 rows on one key; the right-only condition keeps one right
        # row, so 3 pairs may be concatenated, not 9.
        pairs = []

        class CountingRow(tuple):
            def __add__(self, other):
                pairs.append((self, other))
                return tuple(self) + other

        left = NamedTable(
            ("p", "k"),
            frozenset(CountingRow(r) for r in [(A, A), (B, A), (C, A)]),
        )
        right = table(["k", "s"], [(A, A), (A, B), (A, C)])
        env = {"L": left, "R": right}
        expr = Project(
            Select(Join(Scan("L"), Scan("R")), (EqConst("s", B),)), ("p", "s")
        )
        rewritten = rewrite_expression(
            expr, {"L": left.attributes, "R": right.attributes}
        )
        result = rewritten.evaluate(env)
        assert result.rows == frozenset({(A, B), (B, B), (C, B)})
        assert len(pairs) == 3
