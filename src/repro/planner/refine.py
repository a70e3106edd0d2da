"""Proof refinement: minimization and iterative-deepening planning.

``minimize_proof`` post-processes a successful chase proof by greedily
dropping exposures whose removal keeps the proof successful (the
remaining firings must still be fireable in order and still produce a
match for InferredAccQ).  First-found proofs -- e.g. from
``stop_on_first`` searches -- are often padded with accesses a later
match never uses; minimizing them lowers every monotone cost.

``find_best_plan_iterative`` wraps Algorithm 1 with iterative deepening
on the access budget: try d = 1, 2, ... until a plan is found or the cap
is reached.  With certified exhaustion at each level, the first success
uses the *minimum possible number of access commands*, and failures
below the cap are certified level by level.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.cost.functions import CostFunction
from repro.logic.queries import ConjunctiveQuery
from repro.planner.plan_state import PlanningError
from repro.planner.proof_to_plan import ChaseProof, Exposure, replay_proof
from repro.planner.search import (
    SearchOptions,
    SearchResult,
    find_best_plan,
)
from repro.schema.accessible import AccessibleSchema
from repro.schema.core import Schema


def proof_is_valid(
    acc: AccessibleSchema,
    proof: ChaseProof,
) -> bool:
    """Whether the exposure sequence replays into a successful proof."""
    try:
        replay_proof(acc, proof)
        return True
    except PlanningError:
        return False


def minimize_proof(
    acc: AccessibleSchema,
    proof: ChaseProof,
) -> ChaseProof:
    """Greedily remove exposures while the proof stays successful.

    Quadratic in proof length (each removal attempt replays the proof);
    proofs are short (bounded by the access budget), so this is cheap
    relative to the search that produced them.
    """
    exposures: List[Exposure] = list(proof.exposures)
    changed = True
    while changed:
        changed = False
        for index in range(len(exposures) - 1, -1, -1):
            candidate = ChaseProof(
                proof.query,
                tuple(exposures[:index] + exposures[index + 1:]),
            )
            if proof_is_valid(acc, candidate):
                del exposures[index]
                changed = True
    return ChaseProof(proof.query, tuple(exposures))


def find_best_plan_iterative(
    schema: Schema,
    query: ConjunctiveQuery,
    max_accesses: int = 6,
    cost: Optional[CostFunction] = None,
) -> Tuple[SearchResult, int]:
    """Iterative deepening on the access budget.

    Returns (result, depth_reached).  The result is the first level's
    search that found a plan (so its plan uses the minimum number of
    access commands any complete plan needs), or the last level's failed
    search when nothing was found up to ``max_accesses``.
    """
    last: Optional[SearchResult] = None
    for depth in range(1, max_accesses + 1):
        result = find_best_plan(
            schema,
            query,
            SearchOptions(max_accesses=depth, cost=cost),
        )
        if result.found:
            return result, depth
        last = result
        if not result.exhausted:
            # Truncated saturation: deeper levels may still succeed, but
            # the per-level negative is no longer certified; continue.
            continue
    assert last is not None
    return last, max_accesses
