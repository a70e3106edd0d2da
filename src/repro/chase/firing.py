"""Trigger detection and rule firing.

A *candidate match* (trigger) for a TGD in a configuration is a
homomorphism of the body whose head is not yet satisfied (the *restricted*
chase check -- the variant the paper's Section 4 uses: a candidate match
exists only when "there is no f such that rho(e, f) holds").  Firing a
trigger adds head facts, inventing fresh labelled nulls for existential
variables.

Two enumeration modes back the fixpoint engine:

* :func:`find_triggers` -- the naive mode: every body homomorphism over
  the whole configuration;
* :func:`find_triggers_delta` -- the semi-naive mode: only homomorphisms
  whose body image touches at least one fact added after a generation
  watermark, found by seeding the join at each (body atom, delta fact)
  pivot via :func:`repro.logic.homomorphisms.find_homomorphisms_through`.

Both are generators whose restricted-chase head filter runs when a
trigger is *requested* (i.e., against the configuration as it stands at
that moment), so a streaming consumer that fires each yielded trigger
immediately needs no second ``head_satisfied`` check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from repro.chase.configuration import ChaseConfiguration, Provenance
from repro.chase.stats import ChaseStats
from repro.logic.atoms import Atom, Substitution
from repro.logic.dependencies import TGD
from repro.logic.homomorphisms import (
    find_homomorphism,
    find_homomorphisms,
    find_homomorphisms_through,
)
from repro.logic.terms import NullFactory, Variable
from repro.schema.accessible import ChaseRule

RuleLike = Union[TGD, ChaseRule]


def _tgd_of(rule: RuleLike) -> TGD:
    return rule.tgd if isinstance(rule, ChaseRule) else rule


@dataclass(frozen=True)
class Trigger:
    """A rule plus a body homomorphism, ready to fire."""

    rule: RuleLike
    homomorphism: Substitution

    @property
    def tgd(self) -> TGD:
        """The underlying dependency of the trigger's rule."""
        return _tgd_of(self.rule)

    def body_image(self) -> Tuple[Atom, ...]:
        """The facts the body maps onto."""
        return tuple(atom.apply(self.homomorphism) for atom in self.tgd.body)

    def key(self) -> Tuple[str, Tuple[Atom, ...]]:
        """Identity of the trigger for deduplication."""
        return (self.tgd.name, self.body_image())

    def __repr__(self) -> str:
        return f"Trigger({self.tgd.name}, {self.homomorphism!r})"


@dataclass(frozen=True)
class FiringResult:
    """Outcome of firing one trigger."""

    trigger: Trigger
    new_facts: Tuple[Atom, ...]

    @property
    def changed(self) -> bool:
        """Whether the firing added at least one new fact."""
        return bool(self.new_facts)


def head_satisfied(
    tgd: TGD, homomorphism: Substitution, config: ChaseConfiguration
) -> bool:
    """True when the head already holds under the body match.

    Existential head variables may map to *any* value of the configuration
    (this is what makes the chase "restricted"/standard rather than
    oblivious).
    """
    binding = homomorphism.restrict(tgd.frontier())
    return (
        find_homomorphism(list(tgd.head), config.index, binding) is not None
    )


def find_triggers(
    rule: RuleLike,
    config: ChaseConfiguration,
    restricted: bool = True,
    *,
    snapshot: bool = False,
    stats: Optional[ChaseStats] = None,
) -> Iterator[Trigger]:
    """All candidate matches of the rule in the configuration.

    With ``snapshot=True`` candidate scans run over immutable copies, so
    the consumer may fire each yielded trigger (adding facts) without
    corrupting the enumeration; facts added mid-stream are picked up by
    the next round.
    """
    tgd = _tgd_of(rule)
    hom_stats = stats.hom if stats is not None else None
    for hom in find_homomorphisms(
        list(tgd.body), config.index, snapshot=snapshot, stats=hom_stats
    ):
        if stats is not None:
            stats.triggers_enumerated += 1
        body_binding = hom.restrict(tgd.body_variables())
        if restricted and head_satisfied(tgd, body_binding, config):
            if stats is not None:
                stats.triggers_filtered += 1
            continue
        yield Trigger(rule, body_binding)


def find_triggers_delta(
    rule: RuleLike,
    config: ChaseConfiguration,
    since_generation: int,
    restricted: bool = True,
    *,
    stats: Optional[ChaseStats] = None,
) -> Iterator[Trigger]:
    """Candidate matches whose body image touches the delta.

    The delta is every fact the configuration acquired after
    ``since_generation``.  For each body atom and each delta fact of its
    relation, the backtracking join is seeded at that pivot; the remaining
    body atoms join against the *full* index.  A match containing several
    delta facts is found once per delta pivot, so matches are deduplicated
    by body image before the head filter runs.

    Soundness of the restriction: a candidate match containing *no* delta
    fact was already enumerable when every fact of its body image existed,
    i.e. in an earlier pass -- where it was fired, head-filtered, or
    suppressed, and all three outcomes are permanent (facts are never
    removed).  Candidate scans always snapshot, so the consumer may fire
    triggers while streaming.
    """
    delta = config.facts_since(since_generation)
    if not delta:
        return
    tgd = _tgd_of(rule)
    body = list(tgd.body)
    by_relation: Dict[str, List[Atom]] = {}
    for fact in delta:
        by_relation.setdefault(fact.relation, []).append(fact)
    hom_stats = stats.hom if stats is not None else None
    seen: Set[Tuple[str, Tuple[Atom, ...]]] = set()
    for pivot_atom in body:
        pivot_facts = by_relation.get(pivot_atom.relation)
        if not pivot_facts:
            continue
        for pivot_fact in pivot_facts:
            for hom in find_homomorphisms_through(
                body,
                config.index,
                pivot_atom,
                pivot_fact,
                snapshot=True,
                stats=hom_stats,
            ):
                binding = hom.restrict(tgd.body_variables())
                trigger = Trigger(rule, binding)
                key = trigger.key()
                if key in seen:
                    continue
                seen.add(key)
                if stats is not None:
                    stats.triggers_enumerated += 1
                if restricted and head_satisfied(tgd, binding, config):
                    if stats is not None:
                        stats.triggers_filtered += 1
                    continue
                yield trigger


def fire_trigger(
    trigger: Trigger,
    config: ChaseConfiguration,
    nulls: NullFactory,
) -> FiringResult:
    """Fire a trigger in place, returning the facts that were added."""
    tgd = trigger.tgd
    binding = trigger.homomorphism
    for variable in tgd.existential_order():
        binding = binding.extended(variable, nulls(hint=variable.name))
    trigger_facts = trigger.body_image()
    depth = 1 + max(
        (config.depth(fact) for fact in trigger_facts if fact in config),
        default=0,
    )
    provenance = Provenance(
        rule=tgd.name, trigger_facts=trigger_facts, depth=depth
    )
    new_facts = []
    for head_atom in tgd.head:
        fact = head_atom.apply(binding)
        if config.add(fact, provenance):
            new_facts.append(fact)
    return FiringResult(trigger, tuple(new_facts))


def fire_all_once(
    rules: Iterable[RuleLike],
    config: ChaseConfiguration,
    nulls: NullFactory,
    restricted: bool = True,
) -> Tuple[FiringResult, ...]:
    """One parallel round: fire every current trigger of every rule.

    Triggers are computed against the configuration as it was at the start
    of the round semantics-wise; because firing only ever adds facts, new
    triggers created mid-round are simply picked up next round.
    """
    results = []
    for rule in rules:
        # Materialise before firing: this is round-at-once ("parallel")
        # semantics, so the head filter inside find_triggers ran against
        # the round's *initial* configuration.  A firing earlier in the
        # materialised list can satisfy a later trigger's head, hence the
        # re-verify below is NOT redundant here (unlike the streaming
        # fixpoint engine, where the filter runs at fire time).
        for trigger in list(find_triggers(rule, config, restricted)):
            if restricted and head_satisfied(
                trigger.tgd, trigger.homomorphism, config
            ):
                continue
            results.append(fire_trigger(trigger, config, nulls))
    return tuple(results)
