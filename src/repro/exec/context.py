"""One execution context: everything a plan run carries besides its source.

The paper (Section 2) gives a plan one semantics -- run the commands in
order over temporary tables -- and says nothing of caches, retries,
deadlines or row budgets.  Those are the runtime's, and they travel as
one object through :meth:`Plan.execute <repro.plans.plan.Plan.execute>`,
both engines' commands, the request runner
(:func:`repro.exec.batch.run_request`) and the worker tier.  This module
imports only :mod:`repro.errors` and the leaves of :mod:`repro.exec`
that import nothing from :mod:`repro.plans`, so :mod:`repro.plans`
imports it at module level.

**Shared or per request.**  The ``cache`` and the breaker registry
inside ``resilience`` may be shared by every request of a process: both
are locked, and both are monotone observations of a deterministic
source (``docs/theory.md``, "One execution context"), so sharing them
changes what a request pays, never what it answers.  Everything else
is one request's own and is written without a lock: ``stats``, the
``resilience`` dispatcher (its counters, its deadline),
``truncated_rows`` (the result rows the budget dropped) and
``command_stats``, which the command loop points at the record of the
command now running.  The ``budget`` is frozen configuration: any
number of runs may share one.

**Wire form.**  :meth:`ExecutionContext.to_payload` writes the fields
named in ``wire_fields``, a dataclass among them by its own scalar
fields; :meth:`ExecutionContext.from_payload` reads them back, every
key optional.  The cache, the breakers, the sleep callable, the
stats object and the run's outcomes are process-local and do not
cross.  The deadline crosses as the seconds *remaining* when the
payload was written and restarts on the receiver's clock: two
processes share no clock to read a timestamp on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, ClassVar, Dict, Mapping, Optional, Tuple

from repro.exec.budget import ResourceBudget
from repro.exec.resilience import (
    BreakerRegistry,
    Deadline,
    ResilientDispatcher,
    RetryPolicy,
)
from repro.exec.stats import CommandStats, ExecStats

_SCALARS = (type(None), bool, int, float, str)


def _ship(value: Any) -> Any:
    """A wire field's JSON form: a dataclass by its scalar fields.

    A field holding no JSON scalar (``RetryPolicy.retry_on``, a tuple of
    exception classes) stays behind; the receiver's default stands.
    """
    if not is_dataclass(value):
        return value
    shipped = {f.name: getattr(value, f.name) for f in fields(value)}
    return {k: v for k, v in shipped.items() if isinstance(v, _SCALARS)}


@dataclass(slots=True, eq=False)
class ExecutionContext:
    """``cache``, ``stats``, ``resilience``, ``budget`` of one run: all
    optional."""

    cache: Optional[Any] = None
    stats: Optional[ExecStats] = None
    resilience: Optional[ResilientDispatcher] = None
    budget: Optional[ResourceBudget] = None
    command_stats: Optional[CommandStats] = field(
        default=None, init=False, repr=False
    )
    #: Result rows the budget dropped from this run's answer.
    truncated_rows: int = field(default=0, init=False)

    #: The keys :meth:`to_payload` writes, in order.
    wire_fields: ClassVar[Tuple[str, ...]] = (
        "collect_stats", "budget", "retry", "deadline",
    )
    #: The dataclass each structured wire field is rebuilt as.
    wire_types: ClassVar[Dict[str, type]] = {
        "budget": ResourceBudget, "retry": RetryPolicy,
    }

    def check_stop(self, index: int) -> None:
        """The stop check before command ``index``: the deadline."""
        if self.resilience is not None:
            self.resilience.check_deadline(f"command #{index}")

    @property
    def collect_stats(self) -> bool:
        """Whether the run records :class:`ExecStats`."""
        return self.stats is not None

    @property
    def retry(self) -> Optional[RetryPolicy]:
        """The dispatcher's retry policy."""
        return self.resilience.retry if self.resilience is not None else None

    @property
    def deadline(self) -> Optional[float]:
        """Seconds the dispatcher's deadline has left, read now."""
        if self.resilience is None or self.resilience.deadline is None:
            return None
        return self.resilience.deadline.remaining()

    def to_payload(self) -> Dict[str, Any]:
        """The shippable fields as plain JSON-able data."""
        return {name: _ship(getattr(self, name)) for name in self.wire_fields}

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "ExecutionContext":
        """The receiver's context: fresh stats, fresh breakers, own clock.

        A dataclass field the payload lacks keeps its default, a key
        the dataclass lacks is dropped; a deadline that ran out on the
        way restarts already over (``Deadline`` refuses a length <= 0).
        """
        built = {
            name: kind(
                **{f.name: data[f.name] for f in fields(kind) if f.name in data}
            )
            for name, kind in cls.wire_types.items()
            if (data := payload.get(name)) is not None
        }
        left = payload.get("deadline")
        return cls(
            stats=ExecStats() if payload.get("collect_stats") else None,
            resilience=ResilientDispatcher(
                retry=built.get("retry"),
                breakers=BreakerRegistry(),
                deadline=None if left is None else Deadline(max(left, 1e-9)),
            ),
            budget=built.get("budget"),
        )
