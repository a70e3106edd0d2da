"""Execution instrumentation: per-command and per-run counters.

:class:`ExecStats` is the ``stats`` field of a run's
:class:`~repro.exec.context.ExecutionContext` and collects, per
command, wall time and row flow, plus the access dispatch breakdown
the runtime's optimisations act on: how many input rows each access
command saw, how many *distinct* input tuples were
actually dispatched (the dedup win), and how many dispatches were
answered by the :class:`~repro.exec.cache.AccessCache` without touching
the source (the memoization win).  ``peak_resident_rows`` tracks the
largest total number of temporary-table rows alive at once, which is
what the temp-table freeing in ``Plan.execute`` bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class CommandStats:
    """Counters for one executed command."""

    index: int
    target: str
    kind: str  # "access" | "middleware"
    # The access method invoked (None for middleware commands).  This is
    # what lets downstream consumers -- notably the feedback-driven cost
    # calibration (repro.cost.calibration) -- aggregate observed row
    # flow per (relation, method) without re-deriving it from the plan.
    method: Optional[str] = None
    wall_time: float = 0.0
    rows_in: int = 0
    rows_out: int = 0
    dispatched: int = 0  # distinct input tuples sent to dispatch
    deduped: int = 0  # duplicate input tuples collapsed before dispatch
    # Raw tuples the source (or cache) answered with, before the output
    # mapping's equality filter and set-semantics dedup.  rows_out /
    # rows_fetched is therefore a true selectivity observation in (0, 1].
    rows_fetched: int = 0
    cache_hits: int = 0  # dispatches answered from the AccessCache
    freed_tables: int = 0  # temp tables released after this command
    retries: int = 0  # dispatches re-attempted after a transient fault
    faults: int = 0  # transient faults seen (retried or given up on)

    def as_dict(self) -> Dict:
        """A JSON-able representation: the fields, in declaration order."""
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: Dict) -> "CommandStats":
        """Inverse of :meth:`as_dict` (cross-process stats shipping).

        By the dataclass's own fields: one the payload lacks keeps its
        default, so a field added here ships without a codec to update.
        """
        fields = cls.__dataclass_fields__
        return cls(**{k: data[k] for k in fields if k in data})


@dataclass
class ExecStats:
    """Aggregated execution statistics for one (or a batch of) plan runs."""

    commands: List[CommandStats] = field(default_factory=list)
    wall_time: float = 0.0
    peak_resident_rows: int = 0
    runs: int = 0
    # Synced from the dispatcher's breaker registry after each run.
    breaker_trips: int = 0

    def command(
        self,
        index: int,
        target: str,
        kind: str,
        method: Optional[str] = None,
    ) -> CommandStats:
        """Open a fresh per-command record and return it."""
        stats = CommandStats(
            index=index, target=target, kind=kind, method=method
        )
        self.commands.append(stats)
        return stats

    def note_resident(self, rows: int) -> None:
        """Record the currently resident row total; keeps the maximum."""
        if rows > self.peak_resident_rows:
            self.peak_resident_rows = rows

    def merge(self, other: "ExecStats") -> None:
        """Fold another run's stats into this one (service aggregation).

        Additive counters (runs, wall time, per-command records) sum;
        ``peak_resident_rows`` takes the maximum -- the peaks of two
        requests do not stack unless they were resident simultaneously,
        which per-request tracking cannot see;
        ``breaker_trips`` also takes the maximum because each request
        snapshots the *same* monotone registry-wide total.  The service
        serializes merges under its own lock; this method itself is not
        thread-safe.
        """
        self.commands.extend(other.commands)
        self.wall_time += other.wall_time
        self.runs += other.runs
        if other.peak_resident_rows > self.peak_resident_rows:
            self.peak_resident_rows = other.peak_resident_rows
        if other.breaker_trips > self.breaker_trips:
            self.breaker_trips = other.breaker_trips

    # ------------------------------------------------------------ totals
    @property
    def accesses_dispatched(self) -> int:
        """Distinct input tuples dispatched across all access commands."""
        return sum(c.dispatched for c in self.commands)

    @property
    def accesses_deduped(self) -> int:
        """Duplicate input tuples collapsed before dispatch."""
        return sum(c.deduped for c in self.commands)

    @property
    def cache_hits(self) -> int:
        """Dispatches short-circuited by the access cache."""
        return sum(c.cache_hits for c in self.commands)

    @property
    def source_invocations(self) -> int:
        """Dispatches that actually reached the source."""
        return self.accesses_dispatched - self.cache_hits

    @property
    def rows_out(self) -> int:
        """Total rows produced across all commands."""
        return sum(c.rows_out for c in self.commands)

    @property
    def retries(self) -> int:
        """Dispatches re-attempted after transient faults, across commands."""
        return sum(c.retries for c in self.commands)

    @property
    def faults(self) -> int:
        """Transient faults seen across commands (retried or not)."""
        return sum(c.faults for c in self.commands)

    def summary(self) -> str:
        """A one-line human-readable digest."""
        resilience = ""
        if self.faults or self.breaker_trips:
            resilience = (
                f", {self.faults} faults / {self.retries} retries, "
                f"{self.breaker_trips} breaker trips"
            )
        return (
            f"{self.runs} run(s), {len(self.commands)} commands in "
            f"{self.wall_time * 1e3:.2f} ms: "
            f"{self.accesses_dispatched} dispatched "
            f"({self.accesses_deduped} deduped, "
            f"{self.cache_hits} cache hits, "
            f"{self.source_invocations} reached the source), "
            f"peak resident rows {self.peak_resident_rows}"
            + resilience
        )

    def as_dict(self) -> Dict:
        """A JSON-able representation (used by the benchmarks)."""
        return {
            "runs": self.runs,
            "wall_time": self.wall_time,
            "peak_resident_rows": self.peak_resident_rows,
            "accesses_dispatched": self.accesses_dispatched,
            "accesses_deduped": self.accesses_deduped,
            "cache_hits": self.cache_hits,
            "source_invocations": self.source_invocations,
            "retries": self.retries,
            "faults": self.faults,
            "breaker_trips": self.breaker_trips,
            "commands": [c.as_dict() for c in self.commands],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExecStats":
        """Inverse of :meth:`as_dict`.

        Worker processes serialize their per-request stats with
        ``as_dict()`` (plain JSON survives any executor transport); the
        parent rebuilds them here and folds them into the service totals
        with the existing :meth:`merge`.  The derived totals
        (dispatched, cache hits, ...) are recomputed from the command
        records rather than trusted from the payload.
        """
        own = {k: data[k] for k in cls.__dataclass_fields__ if k in data}
        own["commands"] = [
            CommandStats.from_dict(entry) for entry in data.get("commands", ())
        ]
        return cls(**own)
