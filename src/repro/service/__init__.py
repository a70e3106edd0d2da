"""The concurrent query service (admission, shedding, governance).

Public surface of :mod:`repro.service`:

* :class:`~repro.service.service.QueryService` -- the bounded worker
  pool serving plan runs over one shared, lock-protected runtime.
  Its books are one :class:`~repro.obs.Record`,
  :class:`~repro.service.service.ServiceBooks`; ``health()`` returns
  them with the gauges as a :class:`~repro.service.service.ServiceHealth`.
* :class:`~repro.service.request.QueryRequest` /
  :class:`~repro.service.request.QueryResponse` /
  :class:`~repro.service.request.Ticket` -- one serving's input,
  explicitly marked outcome, and thread-safe future.
* :class:`~repro.service.admission.AdmissionQueue` -- bounded
  priority-aware admission with load shedding and preemption.
* The priority classes ``PRIORITY_HIGH`` / ``PRIORITY_NORMAL`` /
  ``PRIORITY_BEST_EFFORT``.
* :class:`~repro.service.workers.ProcessWorkerPool` -- the execution
  tier that ships plan IR (not pickles) to worker processes to scale
  CPU-bound serving past the GIL.  It has no hedging of its own: a
  slow access is re-issued below the cache by
  :class:`~repro.data.decorators.HedgedSource`, on any tier.
* :class:`~repro.service.workers.LatencyTracker` -- the EWMA mean of
  service times behind the service's retry-after hint.

Health-aware degraded planning keeps no ledger of its own: the
dead-method set is the service's breakers' forced-open set
(:meth:`QueryService.current_dead_methods
<repro.service.service.QueryService.current_dead_methods>`).
"""

from repro.service.admission import AdmissionQueue
from repro.service.request import (
    PRIORITY_BEST_EFFORT,
    PRIORITY_CLASSES,
    PRIORITY_HIGH,
    PRIORITY_NAMES,
    PRIORITY_NORMAL,
    QueryRequest,
    QueryResponse,
    Ticket,
)
from repro.service.service import QueryService, ServiceBooks, ServiceHealth
from repro.service.workers import (
    LatencyTracker,
    ProcessWorkerPool,
    SourceSpecError,
    source_to_spec,
    spec_to_source,
)

__all__ = [
    "AdmissionQueue",
    "LatencyTracker",
    "ProcessWorkerPool",
    "PRIORITY_BEST_EFFORT",
    "PRIORITY_CLASSES",
    "PRIORITY_HIGH",
    "PRIORITY_NAMES",
    "PRIORITY_NORMAL",
    "QueryRequest",
    "QueryResponse",
    "QueryService",
    "ServiceBooks",
    "ServiceHealth",
    "SourceSpecError",
    "Ticket",
    "source_to_spec",
    "spec_to_source",
]
