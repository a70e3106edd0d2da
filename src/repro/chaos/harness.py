"""The scenario harness: submit, collect, bucket, verify, report.

:class:`ScenarioHarness` is the shared driver every chaos scenario
runs inside.  It owns the scenario's wall-clock budget, funnels every
submission through one choke point (so nothing escapes accounting),
buckets every terminal outcome, checks every resolved response against
the clean oracle, and folds the whole run into a :class:`ChaosReport`
-- the JSON-able artifact the tests assert on and
``benchmarks/bench_chaos.py`` serializes.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional

from repro.chaos.invariants import (
    OUTCOMES,
    InvariantViolation,
    verify_accounting,
    verify_response,
)
from repro.errors import ReproError, ServiceOverloaded, ServiceStopped
from repro.service.request import Ticket
from repro.service.service import ServiceBooks


@dataclass
class ChaosReport:
    """Everything one chaos scenario run observed, JSON-able."""

    scenario: str
    seed: int
    submitted: int
    outcomes: Dict[str, int]
    #: Tickets still unresolved when the scenario deadline passed --
    #: always 0 on a passing run (each one is also a termination
    #: violation).
    hangs: int
    #: Typed error class name -> count, over every failed outcome.
    error_types: Dict[str, int]
    elapsed: float
    deadline: float
    violations: List[InvariantViolation]
    health: Dict[str, Any]
    #: Scenario-specific extras (pool health, fault stats, cache
    #: counters ...) -- whatever the scenario wants asserted on.
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when every invariant held and nothing hung."""
        return not self.violations and self.hangs == 0

    def summary(self) -> str:
        """A one-line human-readable digest."""
        buckets = ", ".join(
            f"{key}={self.outcomes.get(key, 0)}"
            for key in OUTCOMES
            if self.outcomes.get(key)
        )
        return (
            f"{self.scenario}[seed={self.seed}]: "
            f"{'OK' if self.ok else 'VIOLATED'} -- "
            f"{self.submitted} submitted ({buckets or 'nothing'}), "
            f"{self.hangs} hangs, {len(self.violations)} violations, "
            f"{self.elapsed:.2f}s/{self.deadline:.0f}s"
        )

    def as_dict(self) -> Dict[str, Any]:
        """A JSON-able representation (for BENCH_chaos.json)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "submitted": self.submitted,
            "outcomes": dict(self.outcomes),
            "hangs": self.hangs,
            "error_types": dict(self.error_types),
            "elapsed": self.elapsed,
            "deadline": self.deadline,
            "violations": [v.as_dict() for v in self.violations],
            "health": self.health,
            "details": self.details,
        }


class ScenarioHarness:
    """Drive one scenario against a live service, enforcing invariants.

    Usage shape::

        harness = ScenarioHarness("worker_kill", seed, 60.0, oracle_rows)
        with service:
            harness.submit(service.submit, plan)
            ...inject chaos...
            harness.collect()
        report = harness.finish(service, details={...})

    Every submission goes through :meth:`submit` (door rejections are
    bucketed, typed-ness is checked); every ticket is awaited by
    :meth:`collect` under the scenario's *remaining* budget, so a hung
    request becomes a ``termination`` violation instead of hanging the
    harness itself.
    """

    def __init__(
        self,
        scenario: str,
        seed: int,
        deadline_seconds: float,
        oracle_rows: FrozenSet,
    ) -> None:
        self.scenario = scenario
        self.seed = seed
        self.deadline_seconds = deadline_seconds
        self.oracle_rows = oracle_rows
        self.started = time.monotonic()
        self.submitted = 0
        self.outcomes: Counter = Counter()
        self.error_types: Counter = Counter()
        self.hangs = 0
        self.violations: List[InvariantViolation] = []
        self.responses: List = []
        self._tickets: List[Ticket] = []
        self._carried = ServiceBooks()

    def remaining(self) -> float:
        """Seconds left in the scenario's wall-clock budget."""
        return max(
            0.0, self.deadline_seconds - (time.monotonic() - self.started)
        )

    # ---------------------------------------------------------- driving
    def submit(self, submit_fn: Callable[..., Ticket], *args, **kwargs):
        """Submit one request through the service's own entry point.

        Door rejections are terminal outcomes too: a typed raise
        buckets as ``rejected``; an *untyped* raise is a ``typed``
        violation on top.  Returns the ticket, or None when rejected.
        """
        self.submitted += 1
        try:
            ticket = submit_fn(*args, **kwargs)
        except ReproError as error:
            self.outcomes["rejected"] += 1
            self.error_types[type(error).__name__] += 1
            return None
        except Exception as error:  # noqa: BLE001 -- that IS the check
            self.outcomes["rejected"] += 1
            self.error_types[type(error).__name__] += 1
            self.violations.append(
                InvariantViolation(
                    "typed",
                    f"submission raised untyped "
                    f"{type(error).__name__}: {error}",
                )
            )
            return None
        self._tickets.append(ticket)
        return ticket

    def collect(self, oracle_rows: Optional[FrozenSet] = None) -> None:
        """Await every outstanding ticket within the remaining budget.

        A ticket that does not resolve in time is a hang: counted,
        reported as a ``termination`` violation, and *left behind* --
        the harness never blocks past the scenario deadline (a small
        grace period covers scheduler noise at the boundary).
        """
        oracle = self.oracle_rows if oracle_rows is None else oracle_rows
        tickets, self._tickets = self._tickets, []
        for ticket in tickets:
            try:
                response = ticket.result(timeout=self.remaining() + 2.0)
            except TimeoutError:
                self.hangs += 1
                self.violations.append(
                    InvariantViolation(
                        "termination",
                        f"{ticket.request.request_id}: unresolved when "
                        f"the {self.deadline_seconds:.0f}s scenario "
                        "deadline passed",
                    )
                )
                continue
            self.responses.append(response)
            self._bucket(response)
            self.violations.extend(verify_response(response, oracle))

    def _bucket(self, response) -> None:
        error = response.error
        if error is not None:
            self.error_types[type(error).__name__] += 1
            if isinstance(error, (ServiceOverloaded, ServiceStopped)):
                # Resolved through the shed path (preemption, stop).
                self.outcomes["shed"] += 1
            else:
                self.outcomes["failed"] += 1
        elif response.complete:
            self.outcomes["complete"] += 1
        elif response.partial:
            self.outcomes["partial"] += 1
        else:
            # Unmarked answer: verify_response already flagged it; it
            # still needs a bucket so the accounting identity stands.
            self.outcomes["failed"] += 1

    def carry_over(self, service) -> None:
        """Fold a finished service generation's books into the run's.

        Restart scenarios (disk corruption) span two service
        generations; the accounting identity is over the whole run, so
        the retired generation's books carry forward into
        :meth:`finish`'s check against the final generation.
        """
        try:
            service.wait_idle(timeout=10.0)
        except Exception:  # pragma: no cover -- stopped services are idle
            pass
        self._carried.absorb(service.health())

    def books(self, service) -> ServiceBooks:
        """The run's books: every retired generation's and ``service``'s."""
        books = ServiceBooks()
        books.absorb(self._carried)
        books.absorb(service.health())
        return books

    # -------------------------------------------------------- reporting
    def finish(
        self, service, details: Optional[Dict[str, Any]] = None
    ) -> ChaosReport:
        """Close the run: final accounting check, report assembly."""
        self.collect()
        # Tickets resolve before the service folds them into its
        # counters; settle the books before snapshotting them.
        try:
            service.wait_idle(timeout=10.0)
        except Exception:  # pragma: no cover -- stopped services are idle
            pass
        elapsed = time.monotonic() - self.started
        health = service.health().as_dict()
        accounted = dict(self.outcomes)
        if self.hangs == 0:
            # With hangs the per-ticket books are knowingly short; the
            # termination violations already tell that story louder
            # than a second accounting mismatch would.
            self.violations.extend(
                verify_accounting(
                    self.submitted, accounted, self.books(service)
                )
            )
        if elapsed > self.deadline_seconds:
            self.violations.append(
                InvariantViolation(
                    "termination",
                    f"scenario overran its budget: {elapsed:.2f}s > "
                    f"{self.deadline_seconds:.0f}s",
                )
            )
        return ChaosReport(
            scenario=self.scenario,
            seed=self.seed,
            submitted=self.submitted,
            outcomes=accounted,
            hangs=self.hangs,
            error_types=dict(self.error_types),
            elapsed=elapsed,
            deadline=self.deadline_seconds,
            violations=list(self.violations),
            health=health,
            details=details or {},
        )
