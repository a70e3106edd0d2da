"""Unit tests for RA expressions and NamedTable semantics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.terms import Constant
from repro.plans.expressions import (
    Difference,
    EqAttr,
    EqConst,
    EvaluationError,
    Join,
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
    split_conditions,
)


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


class _Always:
    """A condition class the compiler does not know: ``holds`` only."""

    def __init__(self, verdict):
        self.verdict = verdict

    def holds(self, table, row):
        return self.verdict


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

    def test_unknown_attribute_and_unknown_class_are_residual(self):
        unknown = _Always(True)
        conds = (EqConst("zz", A), unknown, NeqAttr("a", "zz"))
        assert self.split(*conds) == ((), (), conds)

    def test_order_is_kept_within_each_part(self):
        c1, c2, c3, c4 = (
            NeqConst("a", A), EqConst("c", B), EqConst("a", B), NeqAttr("a", "c")
        )
        assert self.split(c1, c2, c3, c4) == ((c1, c3), (c2,), (c4,))

    def test_pure_inputs_untouched(self):
        conds = [EqConst("a", A)]
        split_conditions(conds, self.LEFT, self.RIGHT)
        assert conds == [EqConst("a", A)]


# ------------------------------------------- fused join == row-by-row oracle
CELLS = [A, B, C]
NAMES = ["p", "q", "r", "s"]


def reference(left, right, conditions, attrs):
    """``π[attrs](σ[conditions](left ⋈ right))`` one row at a time.

    Nested-loop natural join, ``holds``-based selection (so an unknown
    attribute raises exactly when a joined row reaches that condition),
    comprehension projection: shares no code with the fused path.
    """
    shared = [a for a in right.attributes if a in left.attributes]
    extra = [a for a in right.attributes if a not in left.attributes]
    joined = NamedTable(
        left.attributes + tuple(extra),
        frozenset(
            lrow + tuple(rrow[right.column(a)] for a in extra)
            for lrow in left.rows
            for rrow in right.rows
            if all(
                lrow[left.column(a)] == rrow[right.column(a)] for a in shared
            )
        ),
    )
    kept = [
        row
        for row in joined.rows
        if all(cond.holds(joined, row) for cond in conditions)
    ]
    if attrs is None:
        return joined.attributes, frozenset(kept)
    columns = [joined.column(a) for a in attrs]
    return tuple(attrs), frozenset(
        tuple(row[c] for c in columns) for row in kept
    )


def outcome(thunk):
    try:
        result = thunk()
    except EvaluationError:
        return "raises"
    if isinstance(result, NamedTable):
        return result.attributes, result.rows
    return result


@st.composite
def tables(draw):
    attrs = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=3))
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(CELLS)] * len(attrs)), max_size=8
        )
    )
    return NamedTable.from_rows(attrs, rows)


def known_conditions(names):
    """The four compiled classes over attributes that exist."""
    attr = st.sampled_from(names)
    return st.one_of(
        st.builds(EqAttr, attr, attr),
        st.builds(NeqAttr, attr, attr),
        st.builds(EqConst, attr, st.sampled_from(CELLS)),
        st.builds(NeqConst, attr, st.sampled_from(CELLS)),
    )


# Either of these sends the whole selection down the lazy ``holds`` path:
# an attribute in no table, or a condition class the compiler does not know.
LAZY_CONDITIONS = st.one_of(
    st.builds(EqConst, st.just("zz"), st.sampled_from(CELLS)),
    st.builds(NeqAttr, st.sampled_from(NAMES), st.just("zz")),
    st.builds(_Always, st.booleans()),
)


@st.composite
def join_cases(draw):
    left, right = draw(tables()), draw(tables())
    left_only = [a for a in left.attributes if a not in right.attributes]
    right_only = [a for a in right.attributes if a not in left.attributes]
    out = left.attributes + tuple(right_only)
    pool = []
    if out:
        pool.append(known_conditions(out))
    if left_only and right_only:
        # Two-sided: the only conditions that stay above the join.
        one, other = st.sampled_from(left_only), st.sampled_from(right_only)
        pool += [
            st.builds(EqAttr, one, other),
            st.builds(NeqAttr, other, one),
        ]
    conditions = draw(st.lists(st.one_of(pool), max_size=3)) if pool else []
    if draw(st.sampled_from([False, False, False, True])):
        conditions.insert(
            draw(st.integers(0, len(conditions))), draw(LAZY_CONDITIONS)
        )
    attrs = draw(st.lists(st.sampled_from(out), unique=True)) if out else []
    return left, right, tuple(conditions), tuple(attrs)


class TestFusedJoinMatchesRowByRow:
    @settings(max_examples=300, deadline=None)
    @given(join_cases())
    def test_select_project_over_join(self, case):
        left, right, conditions, attrs = case
        env = {"L": left, "R": right}
        join = Join(Scan("L"), Scan("R"))
        for expr, conds, project in (
            (Select(join, conditions), conditions, None),
            (Project(Select(join, conditions), attrs), conditions, attrs),
            (Project(join, attrs), (), attrs),
        ):
            assert outcome(lambda: expr.evaluate(env)) == outcome(
                lambda: reference(left, right, conds, project)
            ), expr

    def test_unknown_attribute_raises_only_when_a_joined_row_exists(self):
        cond = (EqConst("zz", A),)
        join = Join(Scan("L"), Scan("R"))
        empty = {"L": table(["p"], [(A,)]), "R": table(["p"], [(B,)])}
        assert Select(join, cond).evaluate(empty).is_empty
        full = {"L": table(["p"], [(A,)]), "R": table(["p"], [(A,)])}
        with pytest.raises(EvaluationError):
            Select(join, cond).evaluate(full)

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
        result = Project(
            Select(Join(Scan("L"), Scan("R")), (EqConst("s", B),)), ("p", "s")
        ).evaluate(env)
        assert result.rows == frozenset({(A, B), (B, B), (C, B)})
        assert len(pairs) == 3
