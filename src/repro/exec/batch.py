"""One request, start to finish: run the plan under its bindings.

A deployed mediator does not run a plan once: it serves the same plan
for many parameter values, or several alternative plans over the same
sources.  Every such run goes through :func:`run_request` -- the one
runner the service, the worker tier and any caller outside them share
-- with an :class:`~repro.exec.context.ExecutionContext` carrying what
the runs have in common: one :class:`~repro.exec.cache.AccessCache` (so
identical accesses are paid once *across* runs) and one aggregated
:class:`~repro.exec.stats.ExecStats`.

Parameter bindings rename schema constants: "the same plan for last
name 'smith'" becomes "... for last name 'jones'" without re-planning.
:func:`substitute_constants` is the definition, as a plan rewrite: it
replaces the constants wherever a plan mentions them (access input
bindings, selection conditions, literal tables).  :func:`run_request`
rewrites nothing.  It runs the plan's memoised executable form
(:mod:`repro.plans.rewrite`) as it stands and hands the bindings to the
command loop, which reads them at exactly those three places: a
constant condition's stage, an access command's constant input cell,
a literal table's rows.  The two agree -- for every plan, source and
mapping, ``run_request(source, plan, b, ctx)`` returns the rows, makes
the accesses in the order and books the per-command dispatch counts
that ``substitute_constants(plan, b).execute(source, ctx)`` does
(``tests/exec/test_runtime_binding.py``) -- because the substitution
changes constants and never an attribute, so it commutes with the
rewrite and the run sees the same values either way.  A bound request
thus builds no plan, form or schedule of its own.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, Mapping, Optional

from repro.exec.context import ExecutionContext
from repro.logic.terms import Constant, _to_constant
from repro.plans.commands import AccessCommand, Command, MiddlewareCommand
from repro.plans.expressions import (
    NO_BINDINGS,
    EqConst,
    Expression,
    Join,
    Literal,
    NamedTable,
    NeqConst,
    Select,
)
from repro.plans.plan import Plan, run_commands


def substitute_constants(
    plan: Plan, mapping: Mapping[object, object]
) -> Plan:
    """A copy of ``plan`` with schema constants replaced per ``mapping``.

    Keys and values may be raw Python values or :class:`Constant`.
    Constants are replaced in access input bindings, in (in)equality
    selection conditions -- a fused join's too -- and in literal tables;
    attribute names are untouched.  A mapping that touches nothing
    returns the plan itself.
    """
    substitute = _substitution(mapping)
    commands = tuple(map(substitute, plan.commands))
    if all(map(operator.is_, commands, plan.commands)):
        return plan
    return Plan(commands, plan.output_table, name=plan.name)


def _constants(mapping: Mapping[object, object]) -> Dict[Constant, Constant]:
    """``mapping`` with raw keys and values coerced to :class:`Constant`."""
    return {_to_constant(old): _to_constant(new) for old, new in mapping.items()}


def _substitution(
    mapping: Mapping[object, object]
) -> Callable[[Command], Command]:
    """Constants replaced per ``mapping`` (raw values coerced) in one command.

    Every untouched subtree, condition tuple and binding is shared, so a
    command that mentions none of the constants comes back as itself.
    """
    subst = _constants(mapping)

    def _cells(cells):
        if not any(isinstance(c, Constant) and c in subst for c in cells):
            return cells
        return tuple(subst.get(c, c) if isinstance(c, Constant) else c for c in cells)

    def _conditions(conditions):
        if not any(
            isinstance(c, (EqConst, NeqConst)) and c.value in subst
            for c in conditions
        ):
            return conditions
        return tuple(
            type(c)(c.attribute, subst.get(c.value, c.value))
            if isinstance(c, (EqConst, NeqConst))
            else c
            for c in conditions
        )

    def _expr(expr: Expression) -> Expression:
        if isinstance(expr, Literal):
            table = expr.table
            if not any(cell in subst for row in table.rows for cell in row):
                return expr
            rows = frozenset(map(_cells, table.rows))
            return Literal(NamedTable(table.attributes, rows))
        expr = expr.map_children(_expr)
        if isinstance(expr, Select):
            conditions = _conditions(expr.conditions)
            if conditions is not expr.conditions:
                return Select(expr.child, conditions)
        elif isinstance(expr, Join) and expr.conditions:
            conditions = _conditions(expr.conditions)
            if conditions is not expr.conditions:
                return Join(expr.left, expr.right, conditions, expr.project_to)
        return expr

    def _command(command: Command) -> Command:
        if isinstance(command, AccessCommand):
            expr = _expr(command.input_expr)
            binding = _cells(command.input_binding)
            if expr is command.input_expr and binding is command.input_binding:
                return command
            return AccessCommand(
                command.target, command.method, expr, binding, command.output_map
            )
        expr = _expr(command.expr)
        if expr is command.expr:
            return command
        return MiddlewareCommand(command.target, expr)

    return _command


def run_request(
    source,
    plan: Plan,
    bindings: Optional[Mapping[object, object]],
    context: ExecutionContext,
) -> NamedTable:
    """One request, start to finish: the plan run under ``bindings``.

    The runner the service and the worker tier share; it runs the
    interpreter (the columnar engine is reached only through
    :meth:`Plan.execute <repro.plans.plan.Plan.execute>`).  The bindings
    (raw values coerced to :class:`Constant`) are read where the run
    reads a constant, so the plan's memoised executable form runs as it
    stands.  The answer is the output table, truncated per the budget
    (``context.truncated_rows`` says by how much); every failure is a
    typed :class:`~repro.errors.ReproError`.  Whether the rebound plan
    answers the rebound query is the caller's to know (``docs/theory.md``,
    "Rebinding a plan"): :meth:`QueryService.submit_query
    <repro.service.service.QueryService.submit_query>` checks it,
    :meth:`QueryService.submit <repro.service.service.QueryService.submit>`
    and this runner do not.
    """
    form = plan.executable()
    return run_commands(
        form.commands,
        form.output_table,
        form.frees,
        {},
        source,
        context,
        len,
        bindings=_constants(bindings) if bindings else NO_BINDINGS,
    )
