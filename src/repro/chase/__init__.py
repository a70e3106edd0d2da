"""The chase: forward-chaining proof system for TGDs (Section 4).

A chase proof starts from the canonical database of a query and fires
dependencies until the target query matches.  This subpackage provides the
fact-store :class:`ChaseConfiguration` with provenance, trigger detection,
a fixpoint engine with pluggable termination policies (a work budget, a
depth cap, guarded-bag blocking), eager-proof saturation, and chase-based
reasoning services (entailment and containment under TGDs).
"""

from repro.chase.configuration import ChaseConfiguration, Provenance
from repro.chase.firing import (
    Trigger,
    find_triggers,
    find_triggers_delta,
)
from repro.chase.engine import (
    ChasePolicy,
    ChaseResult,
    chase_to_fixpoint,
    saturate,
)
from repro.chase.stats import ChaseStats
from repro.chase.blocking import BagTree, BlockingPolicy
from repro.chase.reasoning import (
    certain_answer_holds,
    entails_under_constraints,
    is_contained_under,
)

__all__ = [
    "BagTree",
    "BlockingPolicy",
    "ChaseConfiguration",
    "ChasePolicy",
    "ChaseResult",
    "ChaseStats",
    "Provenance",
    "Trigger",
    "certain_answer_holds",
    "chase_to_fixpoint",
    "entails_under_constraints",
    "find_triggers",
    "find_triggers_delta",
    "is_contained_under",
    "saturate",
]
