"""Instrumentation for chase runs.

:class:`ChaseStats` is the per-run (and aggregable) measurement record of
the fixpoint engine: how many rounds the run took, how many candidate
matches were enumerated versus actually fired, how hard the backtracking
join worked, and where the wall time went (trigger search vs. firing).

An Algorithm 1 search absorbs every per-node saturation into one
:class:`~repro.obs.Record` of this class (``SearchStats.chase``), which
also counts the saturations that stopped short of a complete fixpoint:
what the CLI and the benchmarks report, and what certifies a failed
search as a negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.homomorphisms import HomStats
from repro.obs import Record


@dataclass
class ChaseStats(Record):
    """Counters and timings for one (or several absorbed) chase runs.

    * ``rounds`` -- sweeps over the rule list until no rule fired;
    * ``triggers_enumerated`` -- body homomorphisms produced by trigger
      search, *before* the restricted-chase head filter;
    * ``triggers_filtered`` -- enumerated matches discarded because their
      head was already satisfied;
    * ``triggers_fired`` -- firings that added at least one fact;
    * ``hom`` -- backtracking-join effort (candidate scans, dead ends);
    * ``time_search`` / ``time_fire`` -- wall seconds spent enumerating
      triggers vs. firing them (depth check, blocking check, insertion);
    * ``runs`` -- how many chase runs were absorbed into this record;
    * ``incomplete`` -- saturations the planner booked that did not
      reach a complete fixpoint (budget hit, trigger blocked or capped).
    """

    strategy: str = ""
    rounds: int = 0
    triggers_enumerated: int = 0
    triggers_filtered: int = 0
    triggers_fired: int = 0
    hom: HomStats = field(default_factory=HomStats)
    time_search: float = 0.0
    time_fire: float = 0.0
    # 0 for a fresh aggregate; the engine stamps 1 on each run's record.
    runs: int = 0
    incomplete: int = 0

    def summary(self) -> str:
        """A one-line human rendering for CLI output."""
        return (
            f"{self.strategy or 'chase'}: {self.rounds} rounds, "
            f"{self.triggers_fired}/{self.triggers_enumerated} "
            f"triggers fired/enumerated, "
            f"{self.hom.candidates_scanned} candidates scanned "
            f"({self.time_search * 1e3:.1f} ms search, "
            f"{self.time_fire * 1e3:.1f} ms fire, {self.runs} runs)"
        )
