"""Counterexamples to access-determinacy (the proof of Claim 1, run).

Claim 1's proof is constructive in the negative direction: when ``Q``
does **not** entail ``InferredAccQ`` over ``AcSch<->(S0)``, a model of
the axioms satisfying ``Q and not InferredAccQ`` splits into two
instances -- ``I1`` (the original relations) and ``I2`` (the
inferred-accessible relations, renamed back) -- that have the *same
accessible part* while ``Q`` holds in ``I1`` and not in ``I2``.  No plan
can distinguish them, so no plan answers ``Q``.

:func:`determinacy_counterexample` executes exactly that construction:
chase the canonical database of Q with the bidirectional axioms to a
genuine fixpoint; if ``InferredAccQ`` never matched, read the two
instances off the final configuration (labelled nulls become fresh
constants).  The returned pair is a concrete, machine-checkable witness:
``accessible_part(schema, I1) == accessible_part(schema, I2)`` and the
boolean query evaluates differently -- both facts are verified by the
test suite rather than trusted.

Only *boolean* queries are supported (for non-boolean ones the
construction needs tuple-level bookkeeping that Claim 1 hand-waves).
``None`` is returned when the query IS determined or when the bounded
chase could not certify a fixpoint.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy, chase_to_fixpoint
from repro.data.instance import Instance
from repro.logic.queries import ConjunctiveQuery, QueryError
from repro.logic.terms import Constant, Null, NullFactory, Term
from repro.planner.proof_to_plan import success_match
from repro.schema.accessible import (
    AccessibleSchema,
    Variant,
    is_accessed_name,
    is_infacc_name,
    original_name,
)
from repro.schema.core import Schema


def determinacy_counterexample(
    schema: Schema,
    query: ConjunctiveQuery,
    policy: Optional[ChasePolicy] = None,
) -> Optional[Tuple[Instance, Instance]]:
    """Two same-accessible-part instances on which Q differs, or None."""
    if not query.is_boolean:
        raise QueryError(
            "counterexample construction supports boolean queries only"
        )
    acc = AccessibleSchema(schema, Variant.BIDIRECTIONAL)
    facts, frozen = query.canonical_database()
    config = ChaseConfiguration(facts)
    for fact in acc.initial_accessible_facts():
        config.add(fact)
    result = chase_to_fixpoint(
        config,
        list(acc.rules),
        NullFactory("cx"),
        policy or ChasePolicy(),
    )
    if not result.is_complete:
        return None  # cannot certify the model is a genuine fixpoint
    if success_match(config, query, frozen) is not None:
        return None  # determined: no counterexample exists
    grounding: Dict[Null, Constant] = {}

    def ground(term: Term) -> Constant:
        """Rename labelled nulls to fresh constants, consistently."""
        if isinstance(term, Null):
            if term not in grounding:
                grounding[term] = Constant(f"cx_{term.name}")
            return grounding[term]
        assert isinstance(term, Constant)
        return term

    original = Instance()
    inferred = Instance()
    schema_relations = {relation.name for relation in schema.relations}
    for fact in config:
        terms = tuple(ground(t) for t in fact.terms)
        if fact.relation in schema_relations:
            original.add(fact.relation, terms)
        elif is_infacc_name(fact.relation):
            inferred.add(original_name(fact.relation), terms)
    return original, inferred
