"""Execution instrumentation: per-command and per-run counters.

:class:`ExecStats` is the ``stats`` field of a run's
:class:`~repro.exec.context.ExecutionContext`.  Its ``commands`` are
the run's transcript: per command, wall time, row flow and the dispatch
breakdown the runtime acts on -- input rows seen, *distinct* tuples
dispatched (the dedup win), dispatches the access cache answered (the
memoization win), retries, faults and breaker trips.  Its totals are
counters the command loop adds each record to once, when the command
ends, returned or raised.  Both classes are :class:`~repro.obs.Record`
s: ``absorb`` folds the totals (and the peak, by maximum) but not the
per-run transcript, so the service's ledger stays one record's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs import MAX, PER_RUN, Record


@dataclass
class CommandStats(Record):
    """Counters for one executed command."""

    index: int = 0
    target: str = ""
    kind: str = ""  # "access" | "middleware"
    # The access method invoked (None for middleware commands), so a
    # run's row flow can be read per method without re-deriving it from
    # the plan.
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
    breaker_trips: int = 0  # breakers this command's failures opened
    raised: int = 0  # 1: the access raised; its row flow is no observation


@dataclass
class ExecStats(Record):
    """Execution statistics for one plan run, or totals over many."""

    commands: List[CommandStats] = field(
        default_factory=list, metadata=PER_RUN
    )
    wall_time: float = 0.0
    # Two requests' peaks stack only if they were resident at once,
    # which per-request tracking cannot see.
    peak_resident_rows: int = field(default=0, metadata=MAX)
    runs: int = 0
    accesses_dispatched: int = 0
    accesses_deduped: int = 0
    cache_hits: int = 0  # dispatches short-circuited by the access cache
    rows_out: int = 0
    retries: int = 0
    faults: int = 0
    breaker_trips: int = 0

    derived = ("source_invocations",)

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

    def count(self, record: CommandStats) -> None:
        """Add one ended command's counters to the totals."""
        self.accesses_dispatched += record.dispatched
        self.accesses_deduped += record.deduped
        self.cache_hits += record.cache_hits
        self.rows_out += record.rows_out
        self.retries += record.retries
        self.faults += record.faults
        self.breaker_trips += record.breaker_trips

    def note_resident(self, rows: int) -> None:
        """Record the currently resident row total; keeps the maximum."""
        if rows > self.peak_resident_rows:
            self.peak_resident_rows = rows

    @property
    def source_invocations(self) -> int:
        """Dispatches that actually reached the source."""
        return self.accesses_dispatched - self.cache_hits

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

    @classmethod
    def from_dict(cls, data: Dict) -> "ExecStats":
        """A shipped run's record: its command list rebuilt and the
        totals recounted from it, never read off the payload."""
        run = ("wall_time", "peak_resident_rows", "runs")
        stats = cls(**{key: data[key] for key in run if key in data})
        for entry in data.get("commands", ()):
            stats.commands.append(CommandStats.from_dict(entry))
            stats.count(stats.commands[-1])
        return stats
