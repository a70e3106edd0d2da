"""The chase fixpoint engine.

Runs rules over a configuration until no candidate match remains -- the
restricted chase: a match whose head already holds is not a candidate
(:func:`repro.chase.firing.head_satisfied`), and no policy field asks
for the oblivious variant -- with three safety valves:

* a work budget (``max_work``): the join candidates the run scans, for
  body matches and head checks alike;
* a cap on fact derivation depth (``max_depth``);
* guarded-bag blocking for existential rules (:mod:`repro.chase.blocking`).

The result reports whether a genuine fixpoint was reached or the run was
truncated; callers that need completeness guarantees (Theorem 6 view
rewriting, decision procedures for guarded schemas) check that flag.

Evaluation strategies
---------------------

``ChasePolicy.strategy`` selects how candidate matches are enumerated:

* ``"semi-naive"`` (default): delta-driven, and dispatched.  A run keeps
  the facts that arrived since it began, bucketed by relation with their
  positions in the configuration's append-only fact log (filled once
  from ``facts_since(since_generation)``, then from what each firing
  added), a per-rule watermark into that log, and an agenda of the rule
  slots *woken* by an arrival: those whose body mentions the relation of
  a fact they have not seen.  A round visits only the woken slots, in
  slot order; a visit searches for the matches whose body image touches
  a fact at or past the rule's watermark
  (:func:`repro.chase.firing.triggers_through` over the bucket
  suffixes), then moves the watermark to the present.  A match among
  exclusively-old facts was enumerable in an earlier pass, where it was
  fired, head-filtered, or suppressed -- all permanent outcomes, so
  skipping it is sound.  Saturations that *resume* an already-saturated
  configuration (the planner's per-node eager saturation) pass
  ``since_generation`` so even the first pass is delta-restricted.
* ``"naive"``: re-enumerate every body homomorphism of every rule over
  the entire configuration each round -- the textbook loop, kept as the
  differential-testing oracle.

Dispatch
--------

Visiting only woken rules enumerates exactly the triggers that a loop
over *all* rules every round would, in its order.  Such a loop, reaching
a rule none of whose body relations received a fact since its
watermark, has no pivot to seed a join at: it enumerates nothing, and
moving that watermark forward changes nothing either, because whenever
the rule is next looked at the bucket suffixes past the old and the new
watermark hold the same facts.  So skipping the visit is unobservable.
For the rules that do have a pivot the order is kept by construction: a
firing of the rule at slot ``c`` wakes the readers of each relation it
added to -- a slot above ``c`` joins the current round (the all-rules
loop would still reach it this round, and find the fact behind its
watermark), a slot at or below ``c``, the firing rule included, waits
for the next (the all-rules loop has passed it).  A round that fires
nothing wakes nobody and ends the run, so ``rounds`` counts the same
passes.  The relation -> reading slots map belongs to the rule sequence
(:class:`repro.schema.accessible.RuleSet`): ``AccessibleSchema`` builds
its rule sets once, any other sequence is wrapped per run.

Both strategies stream triggers: enumeration and firing interleave, and
the restricted-chase head filter inside the trigger generators runs when
each trigger is requested, i.e. immediately before it is fired.  The
engine therefore needs no second ``head_satisfied`` check, and the
generators, which see every enumerated match, hold the work budget.

Every run returns a :class:`ChaseStats` on its :class:`ChaseResult`:
rounds, triggers enumerated/filtered/fired, join effort, and wall time
split between trigger search and firing.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.chase.blocking import BagTree, BlockingPolicy
from repro.chase.configuration import ChaseConfiguration, Provenance
from repro.chase.firing import (
    RuleLike,
    Trigger,
    WorkSpent,
    find_triggers,
    triggers_through,
)
from repro.chase.stats import ChaseStats
from repro.logic.atoms import Atom
from repro.logic.terms import NullFactory
from repro.schema.accessible import RuleSet, tgd_of

SEMI_NAIVE = "semi-naive"
NAIVE = "naive"
_STRATEGIES = (SEMI_NAIVE, NAIVE)


@dataclass
class ChasePolicy:
    """Termination, blocking, and evaluation controls for one chase run.

    ``max_work`` is the run's budget, in join candidates scanned
    (``ChaseStats.hom.candidates_scanned``): the body joins that
    enumerate matches, a semi-naive pivot seed counting as one scan, and
    the head checks that filter them.  The trigger
    generators compare the count with it once per enumerated match; past
    it, the run returns a truncated (``reached_fixpoint=False``) result
    with the stats so far.  Scans, unlike firings, run at a roughly
    constant rate, so the budget bounds time too.
    """

    max_work: int = 2_000_000
    max_depth: Optional[int] = None
    blocking: Optional[BlockingPolicy] = None
    strategy: str = SEMI_NAIVE

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown chase strategy {self.strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )
        if self.max_work < 1:
            raise ValueError("max_work must be positive")


@dataclass
class ChaseResult:
    """Statistics and status of a chase run."""

    reached_fixpoint: bool
    firings: int = 0
    blocked: int = 0
    depth_truncated: int = 0
    new_facts: Tuple[Atom, ...] = ()
    stats: ChaseStats = field(default_factory=ChaseStats)

    @property
    def is_complete(self) -> bool:
        """No trigger was suppressed: the chase genuinely terminated."""
        return (
            self.reached_fixpoint
            and self.blocked == 0
            and self.depth_truncated == 0
        )


def chase_to_fixpoint(
    config: ChaseConfiguration,
    rules: Sequence[RuleLike],
    nulls: NullFactory,
    policy: Optional[ChasePolicy] = None,
    bag_tree: Optional[BagTree] = None,
    since_generation: int = 0,
) -> ChaseResult:
    """Fire rules in place until fixpoint (or a safety valve trips).

    ``since_generation`` (semi-naive only) declares that the configuration
    was already saturated under these rules up to that fact-log
    generation: the first pass then restricts trigger search to matches
    touching the facts added since.  Callers must only pass a non-zero
    value when the prior saturation genuinely reached a fixpoint with the
    same rule set; resuming a *truncated* saturation this way may leave
    old-fact triggers unfired (such runs are already flagged
    ``is_complete=False``, so certified-negative reasoning is unaffected).
    """
    policy = policy or ChasePolicy()
    if policy.blocking is not None and bag_tree is None:
        bag_tree = policy.blocking.fresh_tree(list(config))
    run = _Run(config, nulls, policy, bag_tree)
    try:
        if policy.strategy == SEMI_NAIVE:
            if not isinstance(rules, RuleSet):
                rules = RuleSet(rules)
            _semi_naive_rounds(run, rules, since_generation)
        else:
            _naive_rounds(run, rules)
    except WorkSpent:
        return run.result(reached_fixpoint=False)
    return run.result(reached_fixpoint=True)


class _Run:
    """One run's counters and the step every enumerated trigger takes,
    whichever strategy enumerated it."""

    def __init__(
        self,
        config: ChaseConfiguration,
        nulls: NullFactory,
        policy: ChasePolicy,
        bag_tree: Optional[BagTree],
    ) -> None:
        self.config = config
        self.nulls = nulls
        self.policy = policy
        self.bag_tree = bag_tree
        self.stats = ChaseStats(strategy=policy.strategy, runs=1)
        self.firings = 0
        self.blocked = 0
        self.truncated = 0
        self.new_facts: List[Atom] = []
        # Blocked and depth-capped triggers, by rule slot and body image:
        # two rules may share a name (unnamed TGDs default to their
        # relation names), a slot is one rule.
        self.suppressed: Set[Tuple[int, Tuple[Atom, ...]]] = set()

    def result(self, reached_fixpoint: bool) -> ChaseResult:
        """The run so far as a :class:`ChaseResult`."""
        return ChaseResult(
            reached_fixpoint=reached_fixpoint,
            firings=self.firings,
            blocked=self.blocked,
            depth_truncated=self.truncated,
            new_facts=tuple(self.new_facts),
            stats=self.stats,
        )

    def drain(self, slot: int, triggers: Iterable[Trigger]) -> bool:
        """Fire the triggers of one visit of the rule at ``slot`` as they
        are enumerated; returns whether any of them added a fact."""
        stats = self.stats
        fired = False
        iterator = iter(triggers)
        while True:
            tick = time.perf_counter()
            trigger = next(iterator, None)
            stats.time_search += time.perf_counter() - tick
            if trigger is None:
                return fired
            key = (slot, trigger.body_image())
            if key in self.suppressed:
                continue
            # No head re-check here: the generators filter satisfied
            # heads at yield time, and nothing fires between the yield
            # and this point.
            tick = time.perf_counter()
            outcome, added = _fire_checked(
                trigger, self.config, self.nulls, self.policy, self.bag_tree
            )
            stats.time_fire += time.perf_counter() - tick
            if outcome == "fired":
                self.firings += 1
                stats.triggers_fired += 1
                self.new_facts.extend(added)
                fired = True
            elif outcome == "blocked":
                self.blocked += 1
                self.suppressed.add(key)
            elif outcome == "depth":
                self.truncated += 1
                self.suppressed.add(key)


def _naive_rounds(run: _Run, rules: Sequence[RuleLike]) -> None:
    """Every rule over the whole configuration, round after round, until
    a round fires nothing."""
    progress = True
    while progress:
        progress = False
        run.stats.rounds += 1
        for slot, rule in enumerate(rules):
            triggers = find_triggers(
                rule,
                run.config,
                snapshot=True,
                stats=run.stats,
                max_work=run.policy.max_work,
            )
            if run.drain(slot, triggers):
                progress = True


class _Agenda:
    """What arrived since a semi-naive run began, whom it woke, and how
    far into the fact log each rule has looked."""

    def __init__(self, rules: RuleSet, since_generation: int) -> None:
        self.rules = rules
        self.marks = [since_generation] * len(rules)
        # relation -> (log positions, facts), both in log order.
        self.arrived: Dict[str, Tuple[List[int], List[Atom]]] = {}
        # Woken slots the current round has yet to reach (a heap, and
        # its members), and those woken at or behind its cursor.
        self.ahead: List[int] = []
        self.queued: Set[int] = set()
        self.later: Set[int] = set()

    def deliver(self, facts: Sequence[Atom], start: int, cursor: int) -> None:
        """Bucket the facts logged from position ``start`` on and wake
        their readers: above ``cursor`` this round, the rest the next."""
        readers = self.rules.readers
        for position, fact in enumerate(facts, start):
            relation = fact.relation
            bucket = self.arrived.get(relation)
            if bucket is None:
                bucket = self.arrived[relation] = ([], [])
            bucket[0].append(position)
            bucket[1].append(fact)
            for slot in readers.get(relation, ()):
                if slot <= cursor:
                    self.later.add(slot)
                elif slot not in self.queued:
                    self.queued.add(slot)
                    heapq.heappush(self.ahead, slot)

    def visit(self, generation: int) -> Tuple[int, Dict[str, List[Atom]]]:
        """The lowest woken slot ahead of the cursor, with the arrivals
        its rule has not seen in each relation of its body (copies:
        firings may deliver meanwhile); its watermark moves to
        ``generation``, the present."""
        slot = heapq.heappop(self.ahead)
        self.queued.discard(slot)
        mark = self.marks[slot]
        self.marks[slot] = generation
        unseen = {}
        for atom in tgd_of(self.rules[slot]).body:
            bucket = self.arrived.get(atom.relation)
            if bucket is not None:
                positions, facts = bucket
                unseen[atom.relation] = facts[bisect_left(positions, mark):]
        return slot, unseen

    def turn(self) -> None:
        """Start the next round: the slots that waited are now ahead."""
        self.ahead = sorted(self.later)
        self.queued = set(self.ahead)
        self.later = set()


def _semi_naive_rounds(
    run: _Run, rules: RuleSet, since_generation: int
) -> None:
    """Rounds over the woken rules only (module docstring, "Dispatch").
    The dispatch itself is booked as trigger search."""
    config = run.config
    stats = run.stats
    agenda = _Agenda(rules, since_generation)
    tick = time.perf_counter()
    agenda.deliver(config.facts_since(since_generation), since_generation, -1)
    stats.time_search += time.perf_counter() - tick
    progress = True
    while progress:
        progress = False
        stats.rounds += 1
        while agenda.ahead:
            tick = time.perf_counter()
            generation = config.generation
            slot, unseen = agenda.visit(generation)
            triggers = triggers_through(
                rules[slot],
                config,
                unseen,
                stats=stats,
                max_work=run.policy.max_work,
            )
            stats.time_search += time.perf_counter() - tick
            if run.drain(slot, triggers):
                progress = True
                tick = time.perf_counter()
                agenda.deliver(
                    config.facts_since(generation), generation, slot
                )
                stats.time_search += time.perf_counter() - tick
        agenda.turn()


def _fire_checked(
    trigger: Trigger,
    config: ChaseConfiguration,
    nulls: NullFactory,
    policy: ChasePolicy,
    bag_tree: Optional[BagTree],
) -> Tuple[str, Tuple[Atom, ...]]:
    """Fire one trigger subject to depth and blocking checks."""
    tgd = trigger.tgd
    trigger_facts = trigger.body_image()
    depth = 1 + max(
        (config.depth(f) for f in trigger_facts if f in config), default=0
    )
    if policy.max_depth is not None and depth > policy.max_depth:
        return "depth", ()
    binding = trigger.homomorphism
    existentials = tgd.existential_order()
    has_existentials = bool(existentials)
    for variable in existentials:
        binding = binding.extended(variable, nulls(hint=variable.name))
    candidate = tuple(atom.apply(binding) for atom in tgd.head)
    if (
        has_existentials
        and policy.blocking is not None
        and bag_tree is not None
        and not policy.blocking.allows(bag_tree, trigger_facts, candidate)
    ):
        return "blocked", ()
    provenance = Provenance(
        rule=tgd.name, trigger_facts=trigger_facts, depth=depth
    )
    added: List[Atom] = []
    for fact in candidate:
        if config.add(fact, provenance):
            added.append(fact)
    if has_existentials and bag_tree is not None:
        bag_tree.register_firing(trigger_facts, candidate)
    return ("fired" if added else "noop"), tuple(added)


def saturate(
    config: ChaseConfiguration,
    rules: Sequence[RuleLike],
    nulls: NullFactory,
    policy: Optional[ChasePolicy] = None,
    bag_tree: Optional[BagTree] = None,
    since_generation: int = 0,
) -> ChaseResult:
    """Eager saturation: alias of :func:`chase_to_fixpoint`.

    Named separately because the planner uses it for the "fire cost-free
    rules immediately" discipline of eager proofs (Section 4), where the
    rule set excludes accessibility axioms.  The planner threads
    ``since_generation`` so each per-node re-saturation only joins
    through the freshly exposed facts.
    """
    return chase_to_fixpoint(
        config, rules, nulls, policy, bag_tree, since_generation
    )
