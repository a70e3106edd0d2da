"""Deterministic chaos engineering for the query service stack.

The paper's guarantee is *static*: every proof-derived plan computes
the certain answers on any execution of the accessible schema.  This
package tests the *dynamic* counterpart the serving stack added on top:
under injected chaos -- killed workers, stalled workers, latency
storms, bursty and permanent source outages -- a live
:class:`~repro.service.QueryService` must

* **terminate**: every submitted request reaches a terminal outcome
  within its deadline (zero hangs),
* **stay sound**: every answer it does produce is byte-identical to
  the clean oracle when marked ``complete`` and a subset of it when
  marked ``partial`` (zero silent divergences),
* **account for everything**: served + shed + rejected == submitted,
* **degrade typed**: every failure is a typed :mod:`repro.errors`
  class, every under-approximation explicitly marked.

Every scenario is seeded and deterministic (the fault schedules come
from :mod:`repro.faults`' keyed hashes, the storm schedules from
per-instance counters), so a chaos failure replays bit-for-bit.

Surface: :func:`~repro.chaos.runner.run_scenario` /
:func:`~repro.chaos.runner.run_matrix` drive one or all scenarios and
return :class:`~repro.chaos.runner.ChaosReport` objects;
``SCENARIOS`` names the matrix.
"""

from repro.chaos.invariants import (
    InvariantViolation,
    verify_accounting,
    verify_response,
)
from repro.chaos.runner import (
    SCENARIOS,
    ChaosReport,
    run_matrix,
    run_scenario,
)

__all__ = [
    "SCENARIOS",
    "ChaosReport",
    "InvariantViolation",
    "run_matrix",
    "run_scenario",
    "verify_accounting",
    "verify_response",
]
