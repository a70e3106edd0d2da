"""Plans from chase proofs (Section 4, Theorem 5).

A chase proof that ``Q`` entails ``InferredAccQ`` is, for planning
purposes, fully determined by its sequence of accessibility-axiom firings:
everything else (original constraints, defining axioms, inferred-
accessible rules) is cost-free and fired eagerly.  :class:`ChaseProof`
records exactly that sequence -- which fact was exposed with which
method -- and :func:`plan_from_proof` replays it into a complete SPJ plan
whose structure mirrors the proof's.

The replay enforces the paper's *eager proof* discipline: cost-free rules
are saturated before and after every access firing, and one access firing
exposes, besides the chosen fact, every other fact of the same relation
that agrees with it on the method's input positions (the "facts induced
by firing" -- they come back from the very same access, so incorporating
them costs no extra access command).

One firing comes in two halves.  :func:`expose_access` is the costed
one: it extends the plan (:func:`read_exposure`, which writes nothing)
and adds the ``Accessed_`` facts with the heads of the rules whose whole
body is such a fact (:func:`write_exposure`, which applies what
:func:`exposure_writes` computes without writing).
:func:`saturate_exposed` chases the remaining free rules.
:func:`fire_access` is all of it in sequence; Algorithm 1 calls the
pieces apart, so that it can close a child by depth, cost or domination
before forking a configuration for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.chase.configuration import ChaseConfiguration, Provenance
from repro.chase.engine import ChaseResult, saturate
from repro.chase.stats import ChaseStats
from repro.logic.atoms import Atom, Substitution
from repro.logic.homomorphisms import find_homomorphism
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Null, NullFactory, Variable
from repro.planner.plan_state import PlanningError, PlanState
from repro.plans.plan import Plan
from repro.schema.accessible import (
    AccessibleSchema,
    accessed_name,
    inferred_accessible_query,
)
from repro.schema.core import AccessMethod


@dataclass(frozen=True)
class Exposure:
    """One accessibility-axiom firing: expose ``fact`` via ``method``."""

    fact: Atom
    method: str

    def __repr__(self) -> str:
        return f"expose {self.fact!r} via {self.method}"


@dataclass(frozen=True)
class ChaseProof:
    """The access-relevant skeleton of a chase proof for a query."""

    query: ConjunctiveQuery
    exposures: Tuple[Exposure, ...]

    def __repr__(self) -> str:
        steps = "; ".join(repr(e) for e in self.exposures)
        return f"ChaseProof({self.query.name}: {steps})"


def absorb_saturation(
    stats: Optional[ChaseStats], result: ChaseResult
) -> None:
    """Absorb one saturation into a planning run's ``stats`` (if any),
    counting it in ``stats.incomplete`` unless it reached a complete
    fixpoint.  While none is incomplete, the explored proof space is the
    *whole* bounded one: a failed search is a certified negative."""
    if stats is not None:
        stats.absorb(result.stats)
        stats.incomplete += not result.is_complete


@dataclass
class ReplayResult:
    """Everything the replay produced."""

    plan: Plan
    config: ChaseConfiguration
    state: PlanState
    head_nulls: Tuple[Null, ...]
    match: Substitution


def initial_configuration(
    acc_schema: AccessibleSchema,
    query: ConjunctiveQuery,
    nulls: NullFactory,
    stats: Optional[ChaseStats] = None,
) -> Tuple[ChaseConfiguration, Dict[Variable, Null]]:
    """Canonical database + schema-constant seeds, free rules saturated
    under the schema's chase policy."""
    facts, frozen = query.canonical_database()
    config = ChaseConfiguration(facts)
    for fact in acc_schema.initial_accessible_facts():
        config.add(fact)
    result = saturate(
        config,
        acc_schema.free_rules,
        nulls,
        acc_schema.schema.chase_policy(),
    )
    absorb_saturation(stats, result)
    return config, frozen


class Exposed(NamedTuple):
    """What :func:`expose_access` did, for :func:`saturate_exposed`."""

    state: PlanState
    facts: Tuple[Atom, ...]
    # Configuration generation before the first ``Accessed_`` fact went
    # in: the delta the saturation has to join through starts here.
    since_generation: int
    # Exposure-rule heads withheld by the chase policy's ``max_depth``.
    depth_truncated: int


def read_exposure(
    config: ChaseConfiguration,
    state: PlanState,
    fact: Atom,
    method: AccessMethod,
) -> Tuple[PlanState, Tuple[Atom, ...]]:
    """The read-only half of an exposure: what it would do, undone.

    Checks the method's inputs and returns the plan state extended by
    the access together with the facts it exposes: the chosen fact and
    every fact induced by the same access (Algorithm 1, line 8), less
    those already accessed.
    Nothing is written to ``config``.  The commands, and so the depth
    and cost of the node, are final in the returned state: Algorithm 1
    reads its depth and cost verdicts here, its domination verdict off
    :func:`exposure_writes`, and hands only a child that survives all
    three to :func:`write_exposure`.  Raises
    :class:`PlanningError` when the firing is impossible or a no-op.
    """
    _check_inputs_accessible(config, fact, method)
    relation = accessed_name(fact.relation)
    exposed: List[Atom] = []
    for induced in _induced_facts(config, fact, method):
        if induced.rename_relation(relation) in config:
            continue
        state = state.expose(induced, method)
        exposed.append(induced)
    if not exposed:
        raise PlanningError(
            f"{fact!r} is already exposed; firing {method.name} is a no-op"
        )
    return state, tuple(exposed)


class ExposureWrites(NamedTuple):
    """What :func:`write_exposure` would add, computed without writing."""

    # Every fact it would add, with its provenance, in the order it adds
    # them: the ``Accessed_`` copies, then the exposure-rule heads rule
    # by rule; none already in the configuration, none twice.
    facts: Dict[Atom, Provenance]
    # Exposure-rule heads withheld by the chase policy's ``max_depth``.
    depth_truncated: int


def exposure_writes(
    config: ChaseConfiguration,
    facts: Tuple[Atom, ...],
    method: AccessMethod,
    acc_schema: AccessibleSchema,
) -> ExposureWrites:
    """The pure half of :func:`write_exposure`: what it would add.

    ``Accessed_R(t)`` for every exposed fact, then the heads of the
    schema's exposure rules (``def[R]``, ``acc2inf[R]``, ``rev[R]``) for
    those facts, withholding those past the schema chase policy's
    ``max_depth``.  Each head is read off the ``Accessed_`` fact by
    position (:meth:`AccessibleSchema.exposure_heads`).  Nothing is
    written to ``config``: Algorithm 1 judges domination on the parent's
    configuration plus these facts, and forks only a child that survives.
    """
    relation = accessed_name(method.relation)
    access_rule = f"access[{method.name}]"
    writes: Dict[Atom, Provenance] = {}
    accessed_facts: List[Tuple[Atom, int]] = []
    for fact in facts:
        accessed = fact.rename_relation(relation)
        depth = config.depth(fact) + 1
        writes[accessed] = Provenance(
            rule=access_rule, trigger_facts=(fact,), depth=depth
        )
        accessed_facts.append((accessed, depth))
    # Rule by rule over all the new facts: the order (and provenance) in
    # which a chase round over the free rules would have added the heads.
    max_depth = acc_schema.schema.chase_policy().max_depth
    depth_truncated = 0
    for rule, heads in acc_schema.exposure_heads(relation):
        for accessed, accessed_depth in accessed_facts:
            depth = accessed_depth + 1
            if max_depth is not None and depth > max_depth:
                depth_truncated += 1
                continue
            provenance = Provenance(
                rule=rule, trigger_facts=(accessed,), depth=depth
            )
            terms = accessed.terms
            for head_relation, positions in heads:
                head = Atom(head_relation, map(terms.__getitem__, positions))
                if head not in writes and head not in config:
                    writes[head] = provenance
    return ExposureWrites(writes, depth_truncated)


def write_exposure(
    config: ChaseConfiguration,
    state: PlanState,
    facts: Tuple[Atom, ...],
    method: AccessMethod,
    acc_schema: AccessibleSchema,
    writes: Optional[ExposureWrites] = None,
) -> Exposed:
    """The writing half: what :func:`read_exposure` returned, in place.

    Adds what :func:`exposure_writes` computes for the exposed facts
    (``writes``, when the caller already has it for this configuration
    or one with the same facts).  The configuration still has to be
    saturated under ``acc_schema.saturation_rules``
    (:func:`saturate_exposed`).
    """
    if writes is None:
        writes = exposure_writes(config, facts, method, acc_schema)
    pre_generation = config.generation
    for fact, provenance in writes.facts.items():
        config.add(fact, provenance)
    return Exposed(state, facts, pre_generation, writes.depth_truncated)


def expose_access(
    config: ChaseConfiguration,
    state: PlanState,
    fact: Atom,
    method: AccessMethod,
    acc_schema: AccessibleSchema,
) -> Exposed:
    """The costed half of an accessibility-axiom firing, in place:
    :func:`read_exposure` followed by :func:`write_exposure`."""
    state, facts = read_exposure(config, state, fact, method)
    return write_exposure(config, state, facts, method, acc_schema)


def saturate_exposed(
    config: ChaseConfiguration,
    exposed: Exposed,
    acc_schema: AccessibleSchema,
    nulls: NullFactory,
    stats: Optional[ChaseStats] = None,
) -> ChaseResult:
    """The cost-free half: saturate what :func:`expose_access` left.

    The configuration arrived saturated under the free rules (the
    eager-proof invariant) and the exposure rules are already applied,
    so the chase runs the remaining free rules and only joins through
    the facts added since the exposure began.
    """
    result = saturate(
        config,
        acc_schema.saturation_rules,
        nulls,
        acc_schema.schema.chase_policy(),
        since_generation=exposed.since_generation,
    )
    result.depth_truncated += exposed.depth_truncated
    absorb_saturation(stats, result)
    return result


def fire_access(
    config: ChaseConfiguration,
    state: PlanState,
    fact: Atom,
    method: AccessMethod,
    acc_schema: AccessibleSchema,
    nulls: NullFactory,
    stats: Optional[ChaseStats] = None,
) -> Tuple[PlanState, Tuple[Atom, ...]]:
    """Fire one accessibility axiom in place; returns (state, exposed).

    Mutates ``config``; callers who branch (the search tree) copy first.
    :func:`expose_access` followed by :func:`saturate_exposed`: exposes
    the chosen fact and the facts induced by the same access, then
    saturates the cost-free rules.
    """
    exposed = expose_access(config, state, fact, method, acc_schema)
    saturate_exposed(config, exposed, acc_schema, nulls, stats)
    return exposed.state, exposed.facts


def _check_inputs_accessible(
    config: ChaseConfiguration, fact: Atom, method: AccessMethod
) -> None:
    if fact.relation != method.relation:
        raise PlanningError(
            f"method {method.name} is on {method.relation}, "
            f"got fact {fact!r}"
        )
    if fact not in config:
        raise PlanningError(
            f"{fact!r} is not in the chase configuration; only derived "
            f"facts can be exposed"
        )
    for position in method.input_positions:
        term = fact.terms[position]
        if not config.is_accessible(term):
            raise PlanningError(
                f"cannot fire {method.name} on {fact!r}: input value "
                f"{term!r} (position {position}) is not accessible"
            )


def _induced_facts(
    config: ChaseConfiguration, fact: Atom, method: AccessMethod
) -> Tuple[Atom, ...]:
    """All facts the access retrieving ``fact`` also exposes.

    These are the relation's facts agreeing with the chosen one on the
    method's input positions (Algorithm 1, line 8).  The chosen fact is
    listed first so its plan commands come first.
    """
    same_access = [
        other
        for other in config.facts_of(fact.relation)
        if other != fact
        and all(
            other.terms[p] == fact.terms[p]
            for p in method.input_positions
        )
    ]
    return (fact, *sorted(same_access, key=repr))


def success_pattern(
    query: ConjunctiveQuery, head_nulls: Dict[Variable, Null]
) -> Tuple[Tuple[Atom, ...], Substitution]:
    """The atoms of InferredAccQ and the binding of its free variables.

    A configuration is successful when the atoms have a homomorphism
    into it extending the binding.  Neither depends on the
    configuration, so a search builds them once.
    """
    seed = Substitution(
        {variable: head_nulls[variable] for variable in query.head}
    )
    return inferred_accessible_query(query).atoms, seed


def success_match(
    config: ChaseConfiguration,
    query: ConjunctiveQuery,
    head_nulls: Dict[Variable, Null],
) -> Optional[Substitution]:
    """A match for InferredAccQ preserving the free variables, if any."""
    atoms, seed = success_pattern(query, head_nulls)
    return find_homomorphism(atoms, config.index, seed)


def replay_proof(
    acc_schema: AccessibleSchema,
    proof: ChaseProof,
    name: str = "proof-plan",
) -> ReplayResult:
    """Replay a proof's exposures and produce the corresponding plan.

    Raises :class:`PlanningError` if an exposure is not fireable in
    sequence or if the final configuration has no match for
    ``InferredAccQ`` (i.e. the proof is not actually successful).
    """
    query = proof.query
    nulls = NullFactory("r")
    config, frozen = initial_configuration(acc_schema, query, nulls)
    state = PlanState()
    schema = acc_schema.schema
    for exposure in proof.exposures:
        method = schema.method(exposure.method)
        state, _ = fire_access(
            config, state, exposure.fact, method, acc_schema, nulls
        )
    match = success_match(config, query, frozen)
    if match is None:
        raise PlanningError(
            f"proof does not witness InferredAcc{query.name}: "
            f"no match after {len(proof.exposures)} exposures"
        )
    head_nulls = tuple(frozen[v] for v in query.head)
    plan = state.finish(head_nulls, name=name)
    return ReplayResult(
        plan=plan,
        config=config,
        state=state,
        head_nulls=head_nulls,
        match=match,
    )


def plan_from_proof(
    acc_schema: AccessibleSchema,
    proof: ChaseProof,
    name: str = "proof-plan",
) -> Plan:
    """The SPJ plan generated from a chase proof (Theorem 5)."""
    return replay_proof(acc_schema, proof, name).plan
