"""Per-request resource governance for plan execution.

A service cannot let one pathological request starve the pool: a plan
whose intermediate tables explode, whose output is unboundedly large,
or whose access fan-out is unbounded must be cut off with a *typed*
outcome, not discovered via an out-of-memory kill.  A
:class:`ResourceBudget` states the ceilings, rides in the run's
:class:`~repro.exec.context.ExecutionContext` (row budgets, checked by
the command loop) and is wrapped around the source as a
:class:`~repro.data.decorators.BudgetedSource` (access/cost budgets,
the PR 4 :class:`~repro.errors.AccessBudgetExceeded` machinery) by
:func:`repro.data.decorators.budgeted`, the one guard, called by the
one request runner (:func:`repro.exec.batch.run_request`).

Degradation policy: a *resident*-row overflow (intermediate state) is
always an error -- there is no sound partial answer to salvage from a
half-built join.  A *result*-row overflow defaults to degradation: the
output is truncated to a deterministic prefix (sorted rows, so two runs
truncate identically) and the budget records how many rows were
dropped, which the caller surfaces as an explicitly marked partial
answer -- the same "marked, never silent" contract as the
accessible-part fallback of
:meth:`QueryService.submit_query <repro.service.service.QueryService.submit_query>`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.errors import RowBudgetExceeded

#: result-row overflow policies
TRUNCATE = "truncate"
ERROR = "error"


@dataclass
class ResourceBudget:
    """Ceilings one request may not exceed, plus what tripping recorded.

    ``max_result_rows`` / ``max_resident_rows``
        row budgets enforced inside ``Plan.execute``: the output table
        size and the peak total of resident temporary rows.
    ``max_accesses`` / ``max_cost``
        access budgets, enforced by wrapping the request's source in a
        :class:`~repro.data.decorators.BudgetedSource`
        (:func:`~repro.data.decorators.budgeted`; raises
        :class:`~repro.errors.AccessBudgetExceeded`).
    ``on_result_overflow``
        ``"truncate"`` (default: degrade to a marked partial answer) or
        ``"error"`` (raise :class:`~repro.errors.RowBudgetExceeded`).
    ``truncated_rows``
        mutable outcome: how many result rows truncation dropped.  A
        budget instance is therefore per-request state; use
        :meth:`fresh` to stamp new requests from a shared template.
    """

    max_result_rows: Optional[int] = None
    max_resident_rows: Optional[int] = None
    max_accesses: Optional[int] = None
    max_cost: Optional[float] = None
    on_result_overflow: str = TRUNCATE
    truncated_rows: int = 0

    def __post_init__(self) -> None:
        for name in ("max_result_rows", "max_resident_rows", "max_accesses"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.max_cost is not None and self.max_cost < 0:
            raise ValueError("max_cost must be non-negative")
        if self.on_result_overflow not in (TRUNCATE, ERROR):
            raise ValueError(
                "on_result_overflow must be 'truncate' or 'error'"
            )

    def fresh(self) -> "ResourceBudget":
        """A clean per-request copy of this budget template."""
        return replace(self, truncated_rows=0)

    @property
    def truncated(self) -> bool:
        """Whether this request's answer was truncated (i.e. partial)."""
        return self.truncated_rows > 0

    # ------------------------------------------------------- enforcement
    def check_resident(self, rows: int) -> None:
        """Raise when the resident-row total exceeds the ceiling."""
        if (
            self.max_resident_rows is not None
            and rows > self.max_resident_rows
        ):
            raise RowBudgetExceeded(
                f"resident-row budget exceeded: {rows} rows live, "
                f"budget {self.max_resident_rows}",
                kind="resident",
                rows=rows,
                budget=self.max_resident_rows,
            )

    def admit_result(self, table):
        """Apply the result-row budget to the final output table.

        Returns the (possibly deterministically truncated) table;
        truncation is recorded in :attr:`truncated_rows`.  With
        ``on_result_overflow="error"`` an overflow raises instead.
        """
        if (
            self.max_result_rows is None
            or len(table.rows) <= self.max_result_rows
        ):
            return table
        if self.on_result_overflow == ERROR:
            raise RowBudgetExceeded(
                f"result-row budget exceeded: {len(table.rows)} rows, "
                f"budget {self.max_result_rows}",
                kind="result",
                rows=len(table.rows),
                budget=self.max_result_rows,
            )
        kept = frozenset(sorted(table.rows)[: self.max_result_rows])
        self.truncated_rows += len(table.rows) - len(kept)
        return type(table)(table.attributes, kept)
