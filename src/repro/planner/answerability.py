"""Plan existence: is a query completely answerable?

Theorem 1 reduces existence of a (U)SPJ plan to entailment of
``InferredAccQ`` from ``Q`` over ``AcSch(S0)``; for TGD constraints the
chase is the proof system.  For Guarded TGDs the question is decidable
(2EXPTIME-complete, Section 3), and the guarded-bag blocking the schema
chooses for them (:meth:`~repro.schema.core.Schema.chase_policy`) makes
the chase search terminate; for arbitrary TGDs this is a sound
semi-decision procedure bounded by the access budget.
"""

from __future__ import annotations

import enum

from repro.logic.queries import ConjunctiveQuery
from repro.planner.search import (
    SearchOptions,
    SearchResult,
    find_any_plan,
    find_best_plan,
)
from repro.cost.functions import CountingCostFunction
from repro.schema.core import Schema


class Answerability(enum.Enum):
    """Three-valued answerability verdict."""

    ANSWERABLE = "answerable"
    NO_PLAN_WITHIN_BUDGET = "no-plan-within-budget"
    UNKNOWN = "unknown"


def is_answerable(
    schema: Schema,
    query: ConjunctiveQuery,
    max_accesses: int = 6,
) -> bool:
    """True when some complete SPJ plan with at most ``max_accesses``
    access commands answers the query."""
    return answerability_witness(schema, query, max_accesses).found


def answerability_witness(
    schema: Schema,
    query: ConjunctiveQuery,
    max_accesses: int = 6,
) -> SearchResult:
    """The full search result (witnessing plan and proof when they exist)."""
    return find_any_plan(schema, query, max_accesses=max_accesses)


def decide_answerability(
    schema: Schema,
    query: ConjunctiveQuery,
    max_accesses: int = 6,
) -> Answerability:
    """Three-valued decision with certified negatives.

    ``ANSWERABLE``
        a witnessing plan was found (always correct).
    ``NO_PLAN_WITHIN_BUDGET``
        the bounded proof space was *exhausted* with every cost-free
        saturation reaching a true fixpoint (no blocking, no depth cap,
        no spent work budget): there is certifiably no complete SPJ plan
        with at most ``max_accesses`` access commands.
    ``UNKNOWN``
        the search failed but some saturation was truncated (e.g. by
        blocking or the work budget), so absence of a proof is not a
        proof of absence.
    """
    result = find_best_plan(
        schema,
        query,
        SearchOptions(
            max_accesses=max_accesses,
            cost=CountingCostFunction(),
            # Full exploration (no early stop) so exhaustion is meaningful;
            # cost/domination pruning never hide proofs' existence.
            stop_on_first=False,
        ),
    )
    if result.found:
        return Answerability.ANSWERABLE
    if result.exhausted:
        return Answerability.NO_PLAN_WITHIN_BUDGET
    return Answerability.UNKNOWN
