"""One request, start to finish: rebind the plan, guard, execute.

A deployed mediator does not run a plan once: it serves the same plan
for many parameter values, or several alternative plans over the same
sources.  Every such run goes through :func:`run_request` -- the one
runner the service, the worker tier and any caller outside them share
-- with an :class:`~repro.exec.context.ExecutionContext` carrying what
the runs have in common: one :class:`~repro.exec.cache.AccessCache` (so
identical accesses are paid once *across* runs) and one aggregated
:class:`~repro.exec.stats.ExecStats`.

Parameter bindings are plan rewrites: :func:`substitute_constants`
replaces schema constants wherever a plan mentions them (access input
bindings, selection conditions, literal tables), which is how "the same
plan for last name 'smith'" becomes "... for last name 'jones'" without
re-planning.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.data.decorators import budgeted
from repro.exec.context import ExecutionContext
from repro.logic.terms import Constant
from repro.plans.commands import AccessCommand, Command, MiddlewareCommand
from repro.plans.expressions import (
    Difference,
    EqConst,
    Expression,
    Join,
    Literal,
    NamedTable,
    NeqConst,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
    Union,
)
from repro.plans.plan import Plan


def _to_constant_map(mapping: Mapping[object, object]) -> Dict[Constant, Constant]:
    coerced: Dict[Constant, Constant] = {}
    for old, new in mapping.items():
        old_c = old if isinstance(old, Constant) else Constant(old)
        new_c = new if isinstance(new, Constant) else Constant(new)
        coerced[old_c] = new_c
    return coerced


def substitute_constants(
    plan: Plan, mapping: Mapping[object, object]
) -> Plan:
    """A copy of ``plan`` with schema constants replaced per ``mapping``.

    Keys and values may be raw Python values or :class:`Constant`.
    Constants are replaced in access input bindings, in (in)equality
    selection conditions and in literal tables; attribute names are
    untouched.  An empty mapping returns the plan unchanged.
    """
    subst = _to_constant_map(mapping)
    if not subst:
        return plan
    commands = tuple(_sub_command(c, subst) for c in plan.commands)
    return Plan(commands, plan.output_table, name=plan.name)


def _sub_command(command: Command, subst: Dict[Constant, Constant]) -> Command:
    if isinstance(command, AccessCommand):
        return AccessCommand(
            target=command.target,
            method=command.method,
            input_expr=_sub_expr(command.input_expr, subst),
            input_binding=tuple(
                subst.get(entry, entry) if isinstance(entry, Constant) else entry
                for entry in command.input_binding
            ),
            output_map=command.output_map,
        )
    return MiddlewareCommand(command.target, _sub_expr(command.expr, subst))


def _sub_expr(expr: Expression, subst: Dict[Constant, Constant]) -> Expression:
    if isinstance(expr, (Singleton, Scan)):
        return expr
    if isinstance(expr, Literal):
        return Literal(
            NamedTable(
                expr.table.attributes,
                frozenset(
                    tuple(subst.get(cell, cell) for cell in row)
                    for row in expr.table.rows
                ),
            )
        )
    if isinstance(expr, Project):
        return Project(_sub_expr(expr.child, subst), expr.attrs)
    if isinstance(expr, Select):
        return Select(
            _sub_expr(expr.child, subst),
            tuple(_sub_condition(c, subst) for c in expr.conditions),
        )
    if isinstance(expr, Rename):
        return Rename(_sub_expr(expr.child, subst), expr.mapping)
    if isinstance(expr, (Join, Union, Difference)):
        return type(expr)(
            _sub_expr(expr.left, subst), _sub_expr(expr.right, subst)
        )
    raise TypeError(f"cannot substitute constants in {expr!r}")


def _sub_condition(condition, subst: Dict[Constant, Constant]):
    if isinstance(condition, EqConst):
        return EqConst(condition.attribute, subst.get(condition.value, condition.value))
    if isinstance(condition, NeqConst):
        return NeqConst(condition.attribute, subst.get(condition.value, condition.value))
    return condition


def run_request(
    source,
    plan: Plan,
    bindings: Optional[Mapping[object, object]],
    context: ExecutionContext,
    *,
    executor: str = "interpreter",
) -> NamedTable:
    """One request, start to finish: rebind, guard the source, execute.

    The runner the service and the worker tier share.  The answer is
    the output table, truncated per the budget
    (``context.truncated_rows`` says by how much); every failure is a
    typed :class:`~repro.errors.ReproError`.
    """
    if bindings:
        plan = substitute_constants(plan, bindings)
    return plan.execute(
        budgeted(source, context.budget), context, executor=executor
    )
