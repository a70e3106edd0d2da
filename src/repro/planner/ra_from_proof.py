"""Theorem 7: RA / USPJ-with-negation plans from bidirectional proofs.

The backward-induction algorithm of Section 4 ("RA-plans for schemas with
TGDs"): given a chase proof over ``AcSch<->(S0)`` -- a sequence of
*positive* accessibility firings (expose ``R(c)``, as in the SPJ case)
and *negative* accessibility firings (expose ``InfAcc_R(c)``, i.e. use an
access to *verify* facts, compiled to a universal quantifier) -- build an
executable FO query by backward induction, then compile it to a plan with
Proposition 1.

A proof using only the ``AcSch-neg`` axioms (negative firings demanding
*all* positions accessible) yields a USPJ-with-atomic-negation plan; a
general bidirectional proof yields an RA plan.  The search helper
:func:`find_bidirectional_proof` does a bounded DFS over access firings of
both polarities to discover such proofs automatically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chase.configuration import ChaseConfiguration, Provenance
from repro.chase.engine import saturate
from repro.fo.executable import executable_to_plan
from repro.fo.formulas import (
    And,
    Exists,
    FOAtom,
    Forall,
    Formula,
    Implies,
    Top,
)
from repro.logic.atoms import Atom, Substitution
from repro.logic.terms import Constant, Null, NullFactory, Term, Variable
from repro.planner.plan_state import PlanningError
from repro.planner.proof_to_plan import initial_configuration, success_match
from repro.plans.plan import Plan
from repro.schema.accessible import (
    AccessibleSchema,
    Variant,
    accessed_name,
    infacc_name,
)
from repro.schema.core import AccessMethod, Schema


@dataclass(frozen=True)
class BackwardStep:
    """One access firing in a bidirectional proof.

    ``negative=False``: a positive firing exposing the original-relation
    fact ``fact`` (hidden fact becomes accessed).
    ``negative=True``: a negative firing exposing ``InfAcc_R(fact.terms)``
    (a derived fact is *verified* through the access and transferred to
    the original relation).
    """

    fact: Atom
    method: str
    negative: bool = False

    def __repr__(self) -> str:
        polarity = "neg" if self.negative else "pos"
        return f"{polarity}-expose {self.fact!r} via {self.method}"


def ra_plan_from_proof(
    schema: Schema,
    query,
    steps: Sequence[BackwardStep],
    name: str = "ra-plan",
) -> Plan:
    """Backward-induct an executable query from the proof; compile it."""
    formula = executable_query_from_proof(schema, query, steps)
    return executable_to_plan(formula, schema, name=name)


def uspj_neg_plan(
    schema: Schema,
    query,
    steps: Sequence[BackwardStep],
    name: str = "uspj-neg-plan",
) -> Plan:
    """Alias documenting the AcSch-neg case of Theorem 7."""
    return ra_plan_from_proof(schema, query, steps, name=name)


def executable_query_from_proof(
    schema: Schema,
    query,
    steps: Sequence[BackwardStep],
) -> Formula:
    """The executable FO sentence the backward induction produces.

    Accessibility is replayed forward to know which chase constants are
    bound at each step; the formula is then assembled back-to-front:
    trivial proofs yield Top, a positive step wraps the remainder in an
    existential guard, a negative step in a universal guard.
    """
    bound: Set[Null] = set()
    step_new_nulls: List[Tuple[Null, ...]] = []
    for step in steps:
        method = schema.method(step.method)
        for position in method.input_positions:
            term = step.fact.terms[position]
            if isinstance(term, Null) and term not in bound:
                raise PlanningError(
                    f"step {step!r}: input {term!r} not yet accessible"
                )
        fresh = tuple(
            null for null in step.fact.nulls() if null not in bound
        )
        step_new_nulls.append(fresh)
        bound.update(fresh)
    formula: Formula = Top()
    for step, fresh in zip(reversed(steps), reversed(step_new_nulls)):
        variables = tuple(Variable(null.name) for null in fresh)
        guard = Atom(
            step.fact.relation,
            tuple(_as_variable(t) for t in step.fact.terms),
        )
        if step.negative:
            formula = Forall(variables, Implies(FOAtom(guard), formula))
        else:
            formula = Exists(variables, And(FOAtom(guard), formula))
    return formula


def _as_variable(term: Term) -> Term:
    if isinstance(term, Null):
        return Variable(term.name)
    return term


# ------------------------------------------------------------ proof search
def find_bidirectional_proof(
    schema: Schema,
    query,
    max_steps: int = 6,
    variant: Variant = Variant.BIDIRECTIONAL,
) -> Optional[Tuple[BackwardStep, ...]]:
    """Bounded DFS for a chase proof over AcSch<-> (or AcSch-neg).

    Returns the step sequence of the first proof found, or None.  Positive
    steps expose original-relation facts; negative steps fire the variant's
    negative accessibility axioms on InfAcc facts.
    """
    acc = AccessibleSchema(schema, variant)
    nulls = NullFactory("b")
    config, frozen = initial_configuration(acc, query, nulls)
    return _dfs(acc, query, frozen, config, (), max_steps, nulls)


def _dfs(
    acc: AccessibleSchema,
    query,
    frozen,
    config: ChaseConfiguration,
    steps: Tuple[BackwardStep, ...],
    budget: int,
    nulls: NullFactory,
) -> Optional[Tuple[BackwardStep, ...]]:
    if success_match(config, query, frozen) is not None:
        return steps
    if budget <= 0:
        return None
    for step in _candidate_steps(acc, config):
        child = config.copy()
        _apply_step(acc, child, step, nulls)
        found = _dfs(
            acc, query, frozen, child, steps + (step,), budget - 1, nulls
        )
        if found is not None:
            return found
    return None


def _candidate_steps(
    acc: AccessibleSchema, config: ChaseConfiguration
) -> List[BackwardStep]:
    schema = acc.schema
    out: List[BackwardStep] = []
    negative_allowed = acc.variant in (
        Variant.BIDIRECTIONAL,
        Variant.NEGATIVE,
    )
    for method in schema.methods:
        relation = method.relation
        # Positive candidates: original facts not yet accessed.
        for fact in config.facts_of(relation):
            accessed = fact.rename_relation(accessed_name(relation))
            if accessed in config:
                continue
            if all(
                config.is_accessible(fact.terms[p])
                for p in method.input_positions
            ):
                out.append(BackwardStep(fact, method.name, negative=False))
        if not negative_allowed:
            continue
        # Negative candidates: InfAcc facts not yet accessed.
        required = (
            range(schema.relation(relation).arity)
            if acc.variant is Variant.NEGATIVE
            else method.input_positions
        )
        for infacc in config.facts_of(infacc_name(relation)):
            original = infacc.rename_relation(relation)
            accessed = infacc.rename_relation(accessed_name(relation))
            if accessed in config or original in config:
                continue
            if all(
                config.is_accessible(infacc.terms[p]) for p in required
            ):
                out.append(
                    BackwardStep(original, method.name, negative=True)
                )
    out.sort(key=lambda s: (s.negative, repr(s.fact), s.method))
    return out


def _apply_step(
    acc: AccessibleSchema,
    config: ChaseConfiguration,
    step: BackwardStep,
    nulls: NullFactory,
) -> None:
    accessed = step.fact.rename_relation(accessed_name(step.fact.relation))
    provenance = Provenance(
        rule=f"{'neg-' if step.negative else ''}access[{step.method}]",
        trigger_facts=(step.fact,),
        depth=0,
    )
    # The DFS keeps every configuration saturated under the free rules,
    # so re-saturation only needs to join through the facts added here.
    pre_generation = config.generation
    config.add(accessed, provenance)
    if step.negative:
        # Accessed_R(x) -> R(x): the verified fact joins the original side.
        config.add(step.fact, provenance)
    saturate(
        config,
        acc.free_rules,
        nulls,
        acc.schema.chase_policy(),
        since_generation=pre_generation,
    )
