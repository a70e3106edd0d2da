"""Property-based tests for the plan layer.

Random expression trees over a fixed environment: serialization
round-trips preserve evaluation; dead-command elimination preserves
output; SQL rendering never crashes and mentions every referenced table.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.logic.terms import Constant
from repro.plans.commands import MiddlewareCommand
from repro.plans.expressions import (
    Difference,
    Literal,
    EqAttr,
    EqConst,
    Join,
    NamedTable,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.plans.ir import ir_to_plan, plan_to_ir
from repro.plans.plan import Plan
from repro.plans.tools import (
    eliminate_dead_commands,
    to_sql,
)


A, B, C = Constant("a"), Constant("b"), Constant("c")

ENV_SCHEMA = {
    "T1": ("x", "y"),
    "T2": ("x", "y"),
    "T3": ("y", "z"),
}


def make_env():
    return {
        "T1": NamedTable.from_rows(["x", "y"], [(A, B), (B, C), (A, A)]),
        "T2": NamedTable.from_rows(["x", "y"], [(A, B), (C, C)]),
        "T3": NamedTable.from_rows(["y", "z"], [(B, C), (A, A)]),
    }


def seed_commands():
    """Middleware commands defining the fixed environment tables."""
    return tuple(
        MiddlewareCommand(name, Literal(table))
        for name, table in sorted(make_env().items())
    )


@st.composite
def expressions(draw, depth: int = 3):
    """Random well-typed expressions over the fixed environment."""
    if depth == 0:
        return Scan(draw(st.sampled_from(list(ENV_SCHEMA))))
    op = draw(
        st.sampled_from(
            ["scan", "project", "select", "rename", "join", "union",
             "difference"]
        )
    )
    if op == "scan":
        return Scan(draw(st.sampled_from(list(ENV_SCHEMA))))
    if op in ("union", "difference"):
        # Same-attribute operands: use T1/T2.
        left = Scan(draw(st.sampled_from(["T1", "T2"])))
        right = Scan(draw(st.sampled_from(["T1", "T2"])))
        return Union(left, right) if op == "union" else Difference(
            left, right
        )
    child = draw(expressions(depth=depth - 1))
    attrs = child.attributes(ENV_SCHEMA)
    if op == "project":
        if not attrs:
            return child
        keep = draw(
            st.lists(
                st.sampled_from(sorted(attrs)),
                min_size=1,
                max_size=len(attrs),
                unique=True,
            )
        )
        return Project(child, tuple(keep))
    if op == "select":
        if not attrs:
            return child
        attr = draw(st.sampled_from(sorted(attrs)))
        kind = draw(st.sampled_from(["const", "attr"]))
        if kind == "const":
            return Select(child, (EqConst(attr, draw(st.sampled_from([A, B, C]))),))
        other = draw(st.sampled_from(sorted(attrs)))
        if other == attr:
            return child
        return Select(child, (EqAttr(attr, other),))
    if op == "rename":
        if not attrs:
            return child
        attr = draw(st.sampled_from(sorted(attrs)))
        fresh = f"r_{attr}"
        if fresh in attrs:
            return child
        return Rename(child, ((attr, fresh),))
    if op == "join":
        other = draw(expressions(depth=depth - 1))
        return Join(child, other)
    raise AssertionError(op)


@given(expressions())
@settings(max_examples=80, deadline=None)
def test_static_attributes_agree_with_evaluation(expr):
    env = make_env()
    table = expr.evaluate(env)
    assert table.attributes == expr.attributes(ENV_SCHEMA)


@given(expressions())
@settings(max_examples=80, deadline=None)
def test_serialization_roundtrip_preserves_evaluation(expr):
    plan = Plan(
        seed_commands() + (MiddlewareCommand("OUT", expr),),
        "OUT",
    )
    env = make_env()
    data = json.loads(json.dumps(plan_to_ir(plan)))
    restored = ir_to_plan(data)
    # Evaluate both output expressions directly over the environment.
    original = plan.commands[-1].expr.evaluate(env)
    copied = restored.commands[-1].expr.evaluate(env)
    assert original.rows == copied.rows
    assert original.attributes == copied.attributes


@given(expressions())
@settings(max_examples=60, deadline=None)
def test_sql_rendering_total(expr):
    plan = Plan(
        seed_commands() + (MiddlewareCommand("OUT", expr),), "OUT"
    )
    sql = to_sql(plan)
    assert "CREATE TEMP TABLE OUT" in sql
    for table in expr.tables_read():
        assert table in sql


@given(expressions(), expressions())
@settings(max_examples=40, deadline=None)
def test_dead_command_elimination_preserves_output(live, dead):
    plan = Plan(
        seed_commands()
        + (
            MiddlewareCommand("DEAD", dead),
            MiddlewareCommand("OUT", live),
        ),
        "OUT",
    )
    cleaned = eliminate_dead_commands(plan)
    env = make_env()
    assert (
        cleaned.commands[-1].expr.evaluate(env).rows
        == live.evaluate(env).rows
    )
    # The dead command is gone unless the live expression reads it.
    if "DEAD" not in live.tables_read():
        assert all(c.target != "DEAD" for c in cleaned.commands)
