"""Plan tools: dead-command elimination, union, SQL rendering.

Proof-generated plans are systematic rather than tidy: they may assign
temporary tables that no later command reads (typically leftovers from
exposures whose join output was superseded).  :func:`eliminate_dead_commands`
removes them without changing the output table's contents.

:func:`to_sql` renders a plan as a readable sequence of SQL statements
over temporary tables -- access commands become commented service calls
(there is no SQL for "invoke the web form"), middleware commands become
``CREATE TEMP TABLE ... AS SELECT``.  This is documentation output, not
an executable dialect.  The wire format of a plan is
:mod:`repro.plans.ir`.
"""

from __future__ import annotations

from typing import List, Set

from repro.logic.terms import Constant
from repro.plans.commands import (
    AccessCommand,
    Command,
    MiddlewareCommand,
)
from repro.plans.expressions import (
    Difference,
    Literal,
    EqAttr,
    EqConst,
    Expression,
    Join,
    NeqAttr,
    NeqConst,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union,
)
from repro.plans.plan import Plan


# ------------------------------------------------------------ dead code
def eliminate_dead_commands(plan: Plan) -> Plan:
    """Drop commands whose target is never read downstream.

    Walks backwards from the output table through ``tables_read`` of each
    needed command.  Access commands are treated like any other producer:
    if nothing reads their table, the access is pure cost and is removed
    (this can only remove accesses, never add them, so the plan stays
    complete whenever it was).

    Redefinitions are handled by *liveness*, not by a seen-target set:
    keeping a definition of ``T`` removes ``T`` from the needed set
    (earlier definitions are shadowed), but a kept command between two
    definitions that reads ``T`` re-adds it, so the earlier definition
    it actually reads is kept too.
    """
    needed: Set[str] = {plan.output_table}
    kept_reversed: List[Command] = []
    for command in reversed(plan.commands):
        if command.target in needed:
            kept_reversed.append(command)
            needed.discard(command.target)
            needed |= command.tables_read()
    return Plan(
        tuple(reversed(kept_reversed)),
        plan.output_table,
        name=plan.name,
    )


# ------------------------------------------------------------------ union
def union_plans(plans: List[Plan], name: str = "union") -> Plan:
    """Combine plans into one USPJ plan unioning their outputs.

    All plans must produce tables over the same attribute *set* (order
    may differ; the union reorders).  Temporary tables are renamed apart
    with a per-plan prefix so the command sequences cannot collide.
    Unioning complete plans for the same query is again complete; the
    combinator is the plan-level counterpart of the U in Theorem 1's
    USPJ plans.
    """
    if not plans:
        raise ValueError("union_plans needs at least one plan")
    commands: List[Command] = []
    branch_outputs: List[str] = []
    for index, plan in enumerate(plans):
        prefix = f"u{index}_"
        for command in plan.commands:
            commands.append(_prefix_command(command, prefix))
        branch_outputs.append(prefix + plan.output_table)
    expr: Expression = Scan(branch_outputs[0])
    for output in branch_outputs[1:]:
        expr = Union(expr, Scan(output))
    commands.append(MiddlewareCommand("T_union", expr))
    return Plan(tuple(commands), "T_union", name=name)


def _prefix_command(command: Command, prefix: str) -> Command:
    if isinstance(command, AccessCommand):
        return AccessCommand(
            target=prefix + command.target,
            method=command.method,
            input_expr=_prefix_expr(command.input_expr, prefix),
            input_binding=command.input_binding,
            output_map=command.output_map,
        )
    return MiddlewareCommand(
        prefix + command.target, _prefix_expr(command.expr, prefix)
    )


def _prefix_expr(expr: Expression, prefix: str) -> Expression:
    if isinstance(expr, Scan):
        return Scan(prefix + expr.table)
    return expr.map_children(lambda child: _prefix_expr(child, prefix))


# ------------------------------------------------------------------ SQL
def to_sql(plan: Plan) -> str:
    """Render the plan as documentation-grade SQL over temp tables."""
    statements = []
    for command in plan.commands:
        if isinstance(command, AccessCommand):
            inputs = ", ".join(
                repr(entry) if isinstance(entry, Constant) else entry
                for entry in command.input_binding
            ) or "no inputs"
            statements.append(
                f"-- {command.target}: invoke access method "
                f"{command.method}({inputs}) for each row of:\n"
                f"--   {_sql_expr(command.input_expr)}"
            )
        else:
            statements.append(
                f"CREATE TEMP TABLE {command.target} AS\n"
                f"  {_sql_expr(command.expr)};"
            )
    statements.append(f"SELECT * FROM {plan.output_table};")
    return "\n".join(statements)


def _sql_expr(expr: Expression) -> str:
    if isinstance(expr, Singleton):
        return "SELECT 1"
    if isinstance(expr, Literal):
        if expr.table.is_empty:
            return "SELECT NULL WHERE FALSE"
        rows = " UNION ALL ".join(
            "SELECT "
            + ", ".join(
                f"{cell.value!r} AS {attr}"
                for cell, attr in zip(row, expr.table.attributes)
            )
            for row in sorted(expr.table.rows, key=repr)
        )
        return rows
    if isinstance(expr, Scan):
        return f"SELECT * FROM {expr.table}"
    if isinstance(expr, Project):
        attrs = ", ".join(expr.attrs) or "1"
        return f"SELECT DISTINCT {attrs} FROM ({_sql_expr(expr.child)})"
    if isinstance(expr, Select):
        conditions = " AND ".join(
            _sql_condition(c) for c in expr.conditions
        ) or "TRUE"
        return f"SELECT * FROM ({_sql_expr(expr.child)}) WHERE {conditions}"
    if isinstance(expr, Join):
        return (
            f"({_sql_expr(expr.left)}) NATURAL JOIN "
            f"({_sql_expr(expr.right)})"
        )
    if isinstance(expr, Union):
        return f"({_sql_expr(expr.left)}) UNION ({_sql_expr(expr.right)})"
    if isinstance(expr, Difference):
        return f"({_sql_expr(expr.left)}) EXCEPT ({_sql_expr(expr.right)})"
    if isinstance(expr, Rename):
        pairs = ", ".join(f"{a} AS {b}" for a, b in expr.mapping)
        return f"SELECT {pairs} FROM ({_sql_expr(expr.child)})"
    return repr(expr)


def _sql_condition(condition) -> str:
    if isinstance(condition, EqAttr):
        return f"{condition.left} = {condition.right}"
    if isinstance(condition, EqConst):
        return f"{condition.attribute} = {condition.value!r}"
    if isinstance(condition, NeqAttr):
        return f"{condition.left} <> {condition.right}"
    if isinstance(condition, NeqConst):
        return f"{condition.attribute} <> {condition.value!r}"
    return repr(condition)
