"""Per-request result-row ceiling for plan execution.

A service cannot let one request with an unboundedly large answer tie
up a worker: its output must be cut off with a *typed* outcome.  A
:class:`ResourceBudget` states the ceiling and rides in the run's
:class:`~repro.exec.context.ExecutionContext`; the command loop admits
the output table through :meth:`ResourceBudget.admit_result`.  A budget
is configuration, never a run's record: it is frozen, so one budget
object may serve any number of requests, and what a run dropped is
written to that run's context (``ExecutionContext.truncated_rows``).

Degradation policy: a result-row overflow defaults to degradation: the
output is truncated to a deterministic prefix (sorted rows, so two runs
truncate identically) and the dropped count is returned, which the
caller surfaces as an explicitly marked partial answer -- the same
"marked, never silent" contract as the accessible-part fallback of
:meth:`QueryService.submit_query <repro.service.service.QueryService.submit_query>`.
This check, at run time, is the only one: nothing refuses a request
ahead of its run on a static size bound.  A bound computed before a run
is an *upper* bound, and an upper bound over the ceiling proves no
overflow -- only a lower bound could.  A plan built from a proof returns
the certain answers, so a request whose answer fits is served.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import RowBudgetExceeded

#: result-row overflow policies
TRUNCATE = "truncate"
ERROR = "error"


@dataclass(frozen=True)
class ResourceBudget:
    """The result-row ceiling one request may not exceed.

    ``max_result_rows``
        the output table's size ceiling (``None``: no ceiling).
    ``on_result_overflow``
        ``"truncate"`` (default: degrade to a marked partial answer) or
        ``"error"`` (raise :class:`~repro.errors.RowBudgetExceeded`).
    """

    max_result_rows: Optional[int] = None
    on_result_overflow: str = TRUNCATE

    def __post_init__(self) -> None:
        if self.max_result_rows is not None and self.max_result_rows < 0:
            raise ValueError("max_result_rows must be non-negative")
        if self.on_result_overflow not in (TRUNCATE, ERROR):
            raise ValueError(
                "on_result_overflow must be 'truncate' or 'error'"
            )

    def admit_result(self, table):
        """Apply the ceiling to the final output table.

        Returns the (possibly deterministically truncated) table and
        the number of rows truncation dropped.  With
        ``on_result_overflow="error"`` an overflow raises instead.
        """
        if (
            self.max_result_rows is None
            or len(table.rows) <= self.max_result_rows
        ):
            return table, 0
        if self.on_result_overflow == ERROR:
            raise RowBudgetExceeded(
                f"result-row budget exceeded: {len(table.rows)} rows, "
                f"budget {self.max_result_rows}",
                rows=len(table.rows),
                budget=self.max_result_rows,
            )
        kept = frozenset(sorted(table.rows)[: self.max_result_rows])
        return type(table)(table.attributes, kept), len(table.rows) - len(kept)
