"""Proof-driven plan failover: graceful degradation via re-planning.

The whole point of the paper is that a query usually has *many*
proof-derived plans over different access methods; cost picks one.  When
the picked plan's method dies mid-run -- a breaker opens, a
:class:`~repro.errors.MethodOutage` fires, retries give up -- the right
reaction is not "error", it is "plan again without that method": the
proof search already enumerates the alternatives, so the next-cheapest
viable plan over the *surviving* methods is one
:func:`~repro.planner.search.find_best_plan` call away
(:meth:`Schema.without_methods <repro.schema.core.Schema.without_methods>`
expresses "the schema minus the dead methods").

:class:`FailoverExecutor` drives that loop.  Its result is always an
explicit :class:`FailoverOutcome`:

* ``complete`` -- some plan ran to completion; its answers are certain
  answers of the query, identical to what the fault-free run returns
  (Proposition 2: every complete plan computes the certain answers).
* ``partial`` -- no full plan survives the dead methods.  The executor
  then falls back to the *accessible part* of what is still reachable
  (``AccPart`` over the surviving schema) and evaluates the query on
  it: a sound under-approximation of the certain answers, returned
  clearly marked rather than silently wrong.
* neither -- even the degraded path failed (e.g. the deadline expired);
  ``error`` says why.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import (
    AccessError,
    CircuitOpen,
    DeadlineExceeded,
    MethodOutage,
    NoViablePlan,
)
from repro.exec.context import ExecutionContext
from repro.exec.resilience import ResilientDispatcher
from repro.exec.stats import ExecStats
from repro.logic.queries import ConjunctiveQuery
from repro.planner.search import (
    SearchOptions,
    accessible_answer,
    find_plan_avoiding,
)
from repro.plans.expressions import NamedTable
from repro.plans.plan import Plan
from repro.schema.core import Schema


@dataclass
class FailoverOutcome:
    """The explicitly marked result of a failover execution."""

    table: Optional[NamedTable]
    complete: bool
    partial: bool
    plans_tried: Tuple[str, ...] = ()
    dead_methods: Tuple[str, ...] = ()
    failovers: int = 0
    static_cost: Optional[float] = None
    error: Optional[Exception] = None

    @property
    def ok(self) -> bool:
        """Whether any answer (complete or partial) was produced."""
        return self.table is not None

    def describe(self) -> str:
        """A one-line human-readable digest."""
        if self.complete:
            status = "complete"
        elif self.partial:
            status = "PARTIAL (accessible-part fallback)"
        else:
            status = f"FAILED ({self.error})"
        dead = f", dead={list(self.dead_methods)}" if self.dead_methods else ""
        return (
            f"{status}: {len(self.table.rows) if self.table else 0} rows "
            f"after {self.failovers} failover(s), "
            f"{len(self.plans_tried)} plan(s) tried{dead}"
        )


class FailoverExecutor:
    """Execute a query with automatic re-planning around dead methods.

    The executor owns the planning loop, not the source: pass any
    source (typically a
    :class:`~repro.faults.source.FaultInjectingSource` in tests and a
    real remote gateway in deployments) plus the resilience stack the
    accesses should run under.  Methods declared dead by the dispatcher
    (open breaker, hard outage, exhausted retries) accumulate in
    ``dead_methods`` and stay excluded for subsequent queries served by
    the same executor -- the serving-loop behaviour a mediator needs.
    """

    def __init__(
        self,
        schema: Schema,
        source,
        *,
        resilience: Optional[ResilientDispatcher] = None,
        options: Optional[SearchOptions] = None,
        cache=None,
        stats: Optional[ExecStats] = None,
        allow_partial: bool = True,
    ) -> None:
        self.schema = schema
        self.source = source
        self.resilience = resilience or ResilientDispatcher()
        self.options = options
        self.stats = stats
        self.context = ExecutionContext(
            cache=cache, stats=stats, resilience=self.resilience
        )
        self.allow_partial = allow_partial
        self.dead_methods: List[str] = []

    # ------------------------------------------------------------ serving
    def run(self, query: ConjunctiveQuery) -> FailoverOutcome:
        """Serve one query, failing over across plans as methods die."""
        plans_tried: List[str] = []
        failovers = 0
        last_error: Optional[Exception] = None
        while True:
            try:
                plan, cost = self._plan(query)
            except NoViablePlan as error:
                last_error = error
                break
            plans_tried.append(plan.name)
            try:
                table = plan.execute(self.source, self.context)
            except DeadlineExceeded as error:
                return self._finish(
                    None, plans_tried, failovers, error=error
                )
            except AccessError as error:
                last_error = error
                dead = self._diagnose(error)
                if dead is None:
                    return self._finish(
                        None, plans_tried, failovers, error=error
                    )
                failovers += 1
                if self.stats is not None:
                    self.stats.failovers += 1
                continue
            return self._finish(
                table,
                plans_tried,
                failovers,
                complete=True,
                static_cost=cost,
            )
        # No full plan survives: degrade to the accessible part.
        if self.allow_partial:
            try:
                # AccPart is read off the wrapped instance (the
                # simulation's ground truth restricted to what surviving
                # methods can reveal), so it stays correct even while
                # the faulty access path is down.
                return self._finish(
                    accessible_answer(
                        self.schema,
                        self.source.instance,
                        query,
                        self.dead_methods,
                    ),
                    plans_tried,
                    failovers,
                    partial=True,
                    error=last_error,
                )
            except Exception as error:  # pragma: no cover -- defensive
                last_error = error
        return self._finish(None, plans_tried, failovers, error=last_error)

    # ------------------------------------------------------------ helpers
    def _plan(self, query: ConjunctiveQuery) -> Tuple[Plan, float]:
        """The cheapest plan over the schema minus the dead methods."""
        result = find_plan_avoiding(
            self.schema, query, self.dead_methods, self.options
        )
        plan = result.best_plan
        if self.dead_methods:
            plan = Plan(
                plan.commands,
                plan.output_table,
                name=f"{plan.name}~failover{len(self.dead_methods)}",
            )
        return plan, result.best_cost

    def _diagnose(self, error: AccessError) -> Optional[str]:
        """Mark the failing method dead; ``None`` when undiagnosable."""
        method = error.method
        if method is None or method in self.dead_methods:
            return None
        self.dead_methods.append(method)
        # Force the breaker open so later plans sharing the dispatcher
        # fail fast instead of re-probing a method we know is dead.
        if self.resilience.breakers is not None and isinstance(
            error, (MethodOutage, CircuitOpen)
        ):
            self.resilience.breakers.for_method(method).record_failure(
                permanent=True
            )
        return method

    def _finish(
        self,
        table: Optional[NamedTable],
        plans_tried: List[str],
        failovers: int,
        complete: bool = False,
        partial: bool = False,
        static_cost: Optional[float] = None,
        error: Optional[Exception] = None,
    ) -> FailoverOutcome:
        return FailoverOutcome(
            table=table,
            complete=complete,
            partial=partial,
            plans_tried=tuple(plans_tried),
            dead_methods=tuple(self.dead_methods),
            failovers=failovers,
            static_cost=static_cost,
            error=error,
        )
