"""Execution runtime: indexed, deduplicated, cached plan execution.

The planner's job ends with a complete, low-static-cost plan; this
package makes *running* that plan cheap.  Four cooperating pieces:

* the instance's access indexes
  (:meth:`~repro.data.instance.Instance.access_index`), which
  :class:`~repro.data.source.InMemorySource` answers from (each access
  is a bucket lookup instead of a relation scan),
* :class:`AccessCache` -- a bounded LRU memoizing ``(method, inputs)``
  results across commands, plans and batch runs, with an explicit
  metering policy (``charge_hits``),
* the tuned evaluator in :mod:`repro.plans` (deduplicated access
  dispatch, smaller-side hash joins, selection/projection fusion,
  temp-table freeing) driven by :meth:`repro.plans.plan.Plan.execute`,
* :class:`ExecStats` and :func:`run_request` -- the observability and
  the one request runner (rebind, execute) the service and the worker
  tier share,
* :class:`ExecutionContext` (:mod:`repro.exec.context`) -- the cache,
  stats, dispatcher, budget and truncation count of one run: what
  ``Plan.execute`` takes besides the source, and ships to a worker,
* :class:`ResourceBudget` (:mod:`repro.exec.budget`) -- a frozen
  result-row ceiling; overflow degrades to an explicitly marked
  partial answer,
* the fault-tolerance stack (:mod:`repro.exec.resilience`):
  :class:`RetryPolicy` (exponential backoff, deterministic jitter),
  :class:`Deadline`, per-method :class:`CircuitBreaker`\\ s, all driven
  by the context's :class:`ResilientDispatcher`,
* the columnar backend (:mod:`repro.exec.columnar`) -- plans compiled
  via the serializable IR (:mod:`repro.plans.ir`) to vectorized numpy
  execution, selected with ``Plan.execute(..., executor="columnar")``
  (or ``"differential"`` to run both backends and assert identical
  answers).  Kept out of this namespace so the interpreter path never
  imports numpy.

See ``docs/theory.md`` ("Execution runtime", "Fault model and degraded
access") for why access memoization is sound and what degraded
execution guarantees.
"""

# Leaves first: repro.plans imports repro.exec.context, and batch
# imports repro.plans.
from repro.exec.budget import ResourceBudget
from repro.exec.cache import AccessCache
from repro.exec.resilience import (
    BreakerRegistry,
    CircuitBreaker,
    Deadline,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.exec.stats import CommandStats, ExecStats
from repro.exec.context import ExecutionContext
from repro.exec.batch import run_request, substitute_constants

__all__ = [
    "AccessCache",
    "BreakerRegistry",
    "CircuitBreaker",
    "CommandStats",
    "Deadline",
    "ExecStats",
    "ExecutionContext",
    "ResilientDispatcher",
    "ResourceBudget",
    "RetryPolicy",
    "run_request",
    "substitute_constants",
]
