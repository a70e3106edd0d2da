"""Batch execution: many runs sharing one source, index and cache.

A deployed mediator does not run a plan once: it serves the same plan
for many parameter values, or several alternative plans over the same
sources.  :class:`BatchExecutor` is that serving loop in miniature --
every run goes through one shared :class:`~repro.data.source.InMemorySource`
(so its per-method indexes are built once) and one shared
:class:`~repro.exec.cache.AccessCache` (so identical accesses are paid
once *across* runs), with one aggregated
:class:`~repro.exec.stats.ExecStats`.

Parameter bindings are plan rewrites: :func:`substitute_constants`
replaces schema constants wherever a plan mentions them (access input
bindings, selection conditions, literal tables), which is how "the same
plan for last name 'smith'" becomes "... for last name 'jones'" without
re-planning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.data.decorators import budgeted
from repro.errors import ReproError
from repro.exec.cache import AccessCache
from repro.exec.context import ExecutionContext
from repro.exec.stats import ExecStats
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

    The runner the service, the worker tier and :class:`BatchExecutor`
    share.  The answer is the output table, truncated per the budget
    (``context.truncated_rows`` says by how much); every failure is a
    typed :class:`~repro.errors.ReproError`.
    """
    if bindings:
        plan = substitute_constants(plan, bindings)
    return plan.execute(
        budgeted(source, context.budget), context, executor=executor
    )


@dataclass(frozen=True)
class BatchItem:
    """The structured per-plan result of a batch run: table or error."""

    index: int
    plan: str
    table: Optional[NamedTable] = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        """Whether this plan produced a table."""
        return self.table is not None

    def __repr__(self) -> str:
        if self.ok:
            return f"BatchItem(#{self.index} {self.plan}: {len(self.table.rows)} rows)"
        return f"BatchItem(#{self.index} {self.plan}: FAILED {self.error!r})"


class BatchExecutor:
    """Run plans repeatedly over one shared source, index and cache."""

    def __init__(
        self,
        source,
        cache: Optional[AccessCache] = None,
        collect_stats: bool = True,
        resilience=None,
        executor: str = "interpreter",
    ) -> None:
        self.source = source
        self.cache = cache
        self.stats = ExecStats() if collect_stats else None
        self.context = ExecutionContext(
            cache=cache, stats=self.stats, resilience=resilience
        )
        self.executor = executor
        self.failed = 0

    def run(
        self, plan: Plan, bindings: Optional[Mapping[object, object]] = None
    ) -> NamedTable:
        """Execute one plan (optionally rebound) through the shared state.

        Errors propagate to the caller; :meth:`run_plans` is the
        error-isolating batch surface.
        """
        return run_request(
            self.source, plan, bindings, self.context, executor=self.executor
        )

    def run_bindings(
        self, plan: Plan, bindings_list: Sequence[Mapping[object, object]]
    ) -> List[NamedTable]:
        """One plan over many parameter bindings (shared cache across runs)."""
        return [self.run(plan, bindings) for bindings in bindings_list]

    def run_plans(self, plans: Sequence[Plan]) -> List[BatchItem]:
        """Many plans over the shared source/cache, errors isolated.

        One failing plan does not abort the batch: each plan yields a
        :class:`BatchItem` carrying either its result table or the
        error it died with (any deliberate :class:`~repro.errors.
        ReproError` -- access faults, evaluation errors, expired
        deadlines).  Failures are tallied in :attr:`failed` and shown
        by :meth:`summary`.  The batch is sequential; for concurrent
        runs over the same source and cache submit the plans to a
        :class:`~repro.service.QueryService`.
        """
        items: List[BatchItem] = []
        for index, plan in enumerate(plans):
            try:
                table = self.run(plan)
            except ReproError as error:
                self.failed += 1
                items.append(
                    BatchItem(index=index, plan=plan.name, error=error)
                )
            else:
                items.append(
                    BatchItem(index=index, plan=plan.name, table=table)
                )
        return items

    def summary(self) -> str:
        """Digest of the aggregated stats (and cache, when present)."""
        parts = []
        if self.stats is not None:
            parts.append(self.stats.summary())
        if self.cache is not None:
            parts.append(f"cache: {self.cache.summary()}")
        if self.failed:
            parts.append(f"{self.failed} plan run(s) FAILED")
        return "; ".join(parts) or "no instrumentation collected"
