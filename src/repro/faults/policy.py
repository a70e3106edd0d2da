"""Fault schedules: which accesses fail, how, and for how long.

A :class:`FaultPolicy` is *declarative*: it never holds mutable state.
Whether a given access misbehaves is decided by hashing ``(seed, method,
inputs)`` into the unit interval (:func:`unit_interval` -- a keyed
BLAKE2 hash, stable across processes and ``PYTHONHASHSEED``) and
comparing against the per-kind rates.  A faulty access fails on its
first ``burst`` attempts and succeeds from then on, which is what makes
the transient faults genuinely transient: a retry policy with more than
``burst`` attempts always reaches the real answer, and the differential
tests can assert byte-identical results against the fault-free run.

Permanent failures are separate: ``outages`` maps a method name to the
(0-based) invocation index from which that method is hard-down, raising
:class:`~repro.errors.MethodOutage` forever after -- the scenario the
service re-plans around.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple

from repro.obs import Record

# The transient fault kinds, in the order the unit interval is carved up.
KIND_UNAVAILABLE = "unavailable"
KIND_TIMEOUT = "timeout"
KIND_RATE_LIMIT = "rate_limit"
KIND_TRUNCATION = "truncation"
TRANSIENT_KINDS = (
    KIND_UNAVAILABLE,
    KIND_TIMEOUT,
    KIND_RATE_LIMIT,
    KIND_TRUNCATION,
)


def unit_interval(*parts: object) -> float:
    """Hash arbitrary parts into [0, 1), stably across processes.

    Python's builtin ``hash`` is salted per process; fault schedules
    must replay across runs, so this uses BLAKE2 over the ``repr`` of
    the parts instead.
    """
    text = "\x1f".join(repr(part) for part in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultPolicy:
    """A seeded, deterministic fault schedule over access invocations.

    ``unavailable_rate`` / ``timeout_rate`` / ``rate_limit_rate`` /
    ``truncation_rate``
        the fraction of distinct ``(method, inputs)`` keys that fail
        with each transient kind (the bands must sum to at most 1).
    ``burst``
        how many consecutive attempts at a faulty key fail before it
        recovers; retries beyond the burst deterministically succeed.
    ``truncation_keep``
        how many rows a truncated result retains.
    ``latency``
        simulated seconds every successful access takes (advanced on the
        wrapper's clock, never slept).
    ``outages``
        method name -> per-method invocation index from which the method
        is permanently down (0 = dead from the start).
    """

    seed: int = 0
    unavailable_rate: float = 0.0
    timeout_rate: float = 0.0
    rate_limit_rate: float = 0.0
    truncation_rate: float = 0.0
    burst: int = 1
    truncation_keep: int = 1
    latency: float = 0.0
    outages: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        rates = (
            self.unavailable_rate,
            self.timeout_rate,
            self.rate_limit_rate,
            self.truncation_rate,
        )
        if any(rate < 0 for rate in rates) or sum(rates) > 1.0 + 1e-9:
            raise ValueError(
                "fault rates must be non-negative and sum to at most 1"
            )
        if self.burst < 1:
            raise ValueError("burst must be at least 1")
        if self.truncation_keep < 0:
            raise ValueError("truncation_keep must be non-negative")
        if any(start < 0 for start in self.outages.values()):
            raise ValueError("outage start indices must be non-negative")

    @classmethod
    def transient(
        cls,
        rate: float,
        seed: int = 0,
        burst: int = 1,
        latency: float = 0.0,
    ) -> "FaultPolicy":
        """A mixed transient schedule at one overall fault rate.

        The rate is split among the retryable kinds the way outages tend
        to split in the wild: mostly hard unavailability, then timeouts,
        then rate limiting (truncation is opt-in -- it changes answers,
        not just availability, so benchmarks enable it explicitly).
        """
        return cls(
            seed=seed,
            unavailable_rate=rate * 0.5,
            timeout_rate=rate * 0.3,
            rate_limit_rate=rate * 0.2,
            burst=burst,
            latency=latency,
        )

    @classmethod
    def outage(cls, method: str, after: int = 0, seed: int = 0) -> "FaultPolicy":
        """A schedule whose only fault is one method's hard outage."""
        return cls(seed=seed, outages={method: after})

    # -------------------------------------------------- plain-data round trip
    def to_dict(self) -> Dict[str, object]:
        """The nine fields as JSON-able data (what source specs carry)."""
        data: Dict[str, object] = {
            f.name: getattr(self, f.name) for f in fields(self)
        }
        data["outages"] = dict(self.outages)
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPolicy":
        """Inverse of :meth:`to_dict`; every field must be present."""
        values = {f.name: data[f.name] for f in fields(cls)}
        values["outages"] = dict(values["outages"])
        return cls(**values)

    # ------------------------------------------------------- the schedule
    def kind_for(self, method: str, inputs: Tuple) -> Optional[str]:
        """The transient fault kind of one access key, or ``None``.

        Pure: the same (seed, method, inputs) always maps to the same
        kind, so a schedule can be replayed and reasoned about.
        """
        draw = unit_interval(self.seed, method, inputs)
        threshold = 0.0
        for kind, rate in (
            (KIND_UNAVAILABLE, self.unavailable_rate),
            (KIND_TIMEOUT, self.timeout_rate),
            (KIND_RATE_LIMIT, self.rate_limit_rate),
            (KIND_TRUNCATION, self.truncation_rate),
        ):
            threshold += rate
            if draw < threshold:
                return kind
        return None

    def is_out(self, method: str, invocation: int) -> bool:
        """Whether the method is hard-down at its n-th invocation."""
        start = self.outages.get(method)
        return start is not None and invocation >= start


@dataclass
class FaultStats(Record):
    """What a :class:`~repro.faults.source.FaultInjectingSource` did."""

    calls: int = 0
    delivered: int = 0
    injected: Dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in TRANSIENT_KINDS}
    )
    outage_refusals: int = 0
    injected_latency: float = 0.0

    derived = ("injected_total",)

    @property
    def injected_total(self) -> int:
        """All injected transient failures, across kinds."""
        return sum(self.injected.values())

    def summary(self) -> str:
        """A one-line human-readable digest."""
        kinds = ", ".join(
            f"{kind}={count}"
            for kind, count in self.injected.items()
            if count
        )
        return (
            f"{self.calls} calls, {self.delivered} delivered, "
            f"{self.injected_total} transient faults"
            + (f" ({kinds})" if kinds else "")
            + f", {self.outage_refusals} outage refusals, "
            f"{self.injected_latency:.2f}s injected latency"
        )
