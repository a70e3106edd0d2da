"""Semantic preservation properties as chase-checkable entailments.

Claims 1-3 of the paper translate the model-theoretic preservation
properties into entailments over the accessible-schema variants:

* *access-determinacy*  (Claim 1)  <->  entailment over ``AcSch<->``,
* *subinstance-access-determinacy / monotonicity* (Claim 2) <-> ``AcSch``,
* *induced-subinstance determinacy* (Claim 3) <-> ``AcSch-neg``.

For TGD constraints the entailments are checked by the chase; the checks
are sound (True is always right) and complete whenever the bounded chase
reaches a fixpoint.
"""

from __future__ import annotations

from typing import Optional

from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy, chase_to_fixpoint
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import NullFactory
from repro.planner.proof_to_plan import success_match
from repro.schema.accessible import AccessibleSchema, Variant
from repro.schema.core import Schema


def _entails_infacc(
    schema: Schema,
    query: ConjunctiveQuery,
    variant: Variant,
    policy: Optional[ChasePolicy],
) -> bool:
    acc = AccessibleSchema(schema, variant)
    facts, frozen = query.canonical_database()
    config = ChaseConfiguration(facts)
    for fact in acc.initial_accessible_facts():
        config.add(fact)
    chase_to_fixpoint(
        config,
        list(acc.rules),
        NullFactory("d"),
        policy or ChasePolicy(max_depth=8),
    )
    return success_match(config, query, frozen) is not None


def is_access_determined(
    schema: Schema,
    query: ConjunctiveQuery,
    policy: Optional[ChasePolicy] = None,
) -> bool:
    """Claim 1 / Theorem 2: RA-plan existence (bounded chase check)."""
    return _entails_infacc(schema, query, Variant.BIDIRECTIONAL, policy)


def is_monotonically_determined(
    schema: Schema,
    query: ConjunctiveQuery,
    policy: Optional[ChasePolicy] = None,
) -> bool:
    """Claim 2 / Theorem 1: USPJ-plan existence (bounded chase check)."""
    return _entails_infacc(schema, query, Variant.FORWARD, policy)


def is_induced_subinstance_determined(
    schema: Schema,
    query: ConjunctiveQuery,
    policy: Optional[ChasePolicy] = None,
) -> bool:
    """Claim 3 / Theorem 3: USPJ-with-atomic-negation plan existence."""
    return _entails_infacc(schema, query, Variant.NEGATIVE, policy)
