"""The chase fixpoint engine.

Runs rules over a configuration until no candidate match remains, with
three safety valves:

* a total firing budget (``max_firings``),
* a cap on fact derivation depth (``max_depth``),
* guarded-bag blocking for existential rules (:mod:`repro.chase.blocking`).

The result reports whether a genuine fixpoint was reached or the run was
truncated; callers that need completeness guarantees (Theorem 6 view
rewriting, decision procedures for guarded schemas) check that flag.

Evaluation strategies
---------------------

``ChasePolicy.strategy`` selects how candidate matches are enumerated:

* ``"semi-naive"`` (default): delta-driven.  The engine keeps a per-rule
  generation watermark into the configuration's append-only fact log and,
  on each pass, only searches for matches whose body image touches a fact
  added after the rule's watermark (:func:`find_triggers_delta`).  A match
  among exclusively-old facts was enumerable in an earlier pass, where it
  was fired, head-filtered, or suppressed -- all permanent outcomes, so
  skipping it is sound.  Saturations that *resume* an already-saturated
  configuration (the planner's per-node eager saturation) pass
  ``since_generation`` so even the first pass is delta-restricted.
* ``"naive"``: re-enumerate every body homomorphism of every rule over
  the entire configuration each round -- the textbook loop, kept as the
  differential-testing oracle.

Both strategies stream triggers: enumeration and firing interleave, and
the restricted-chase head filter inside the trigger generators runs when
each trigger is requested, i.e. immediately before it is fired.  The
engine therefore needs no second ``head_satisfied`` check (contrast
:func:`repro.chase.firing.fire_all_once`, which materialises a round up
front and must re-verify).

Every run returns a :class:`ChaseStats` on its :class:`ChaseResult`:
rounds, triggers enumerated/filtered/fired, join effort, and wall time
split between trigger search and firing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.chase.blocking import BagTree, BlockingPolicy
from repro.chase.configuration import ChaseConfiguration, Provenance
from repro.chase.firing import (
    FiringResult,
    RuleLike,
    Trigger,
    _tgd_of,
    find_triggers,
    find_triggers_delta,
    head_satisfied,
)
from repro.chase.stats import ChaseStats
from repro.errors import ChaseBudgetExceeded, NonTerminatingChaseError
from repro.logic.atoms import Atom, Substitution
from repro.logic.dependencies import TGD
from repro.logic.terms import NullFactory

SEMI_NAIVE = "semi-naive"
NAIVE = "naive"
_STRATEGIES = (SEMI_NAIVE, NAIVE)


@dataclass
class ChasePolicy:
    """Termination, blocking, and evaluation controls for one chase run.

    ``max_firings`` is the soft budget: when it trips the run returns a
    truncated (``reached_fixpoint=False``) result, or raises
    :class:`NonTerminatingChaseError` under ``raise_on_budget``.

    ``max_steps`` / ``max_seconds`` are the *hard* fail-fast budgets for
    non-terminating TGD sets: ``max_steps`` bounds the total number of
    triggers the engine processes (fired, filtered or suppressed) and
    ``max_seconds`` bounds wall-clock time.  Tripping either raises
    :class:`~repro.errors.ChaseBudgetExceeded` carrying the partial
    :class:`ChaseStats`, so a hung saturation surfaces as a structured
    error instead of stalling the planner.
    """

    max_firings: int = 100_000
    max_depth: Optional[int] = None
    blocking: Optional[BlockingPolicy] = None
    raise_on_budget: bool = False
    restricted: bool = True
    strategy: str = SEMI_NAIVE
    max_steps: Optional[int] = None
    max_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown chase strategy {self.strategy!r}; "
                f"expected one of {_STRATEGIES}"
            )
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be positive when given")
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise ValueError("max_seconds must be positive when given")

    def for_saturation(self) -> "ChasePolicy":
        """A copy suitable for eager free-rule saturation in the planner."""
        return ChasePolicy(
            max_firings=self.max_firings,
            max_depth=self.max_depth,
            blocking=self.blocking,
            raise_on_budget=False,
            restricted=self.restricted,
            strategy=self.strategy,
            max_steps=self.max_steps,
            max_seconds=self.max_seconds,
        )


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
    delta_mode = policy.strategy == SEMI_NAIVE
    stats = ChaseStats(strategy=policy.strategy, runs=1)
    budget_started = time.perf_counter()
    steps = 0
    firings = 0
    blocked = 0
    truncated = 0
    all_new: List[Atom] = []
    suppressed: Set[Tuple[str, Tuple[Atom, ...]]] = set()
    # Per-rule watermark into the fact log: a pass over a rule only looks
    # for matches touching facts newer than its watermark.
    marks = [since_generation if delta_mode else 0] * len(rules)
    progress = True
    while progress:
        progress = False
        stats.rounds += 1
        for slot, rule in enumerate(rules):
            current_generation = config.generation
            if delta_mode:
                if marks[slot] >= current_generation:
                    continue  # nothing new since this rule's last pass
                triggers = find_triggers_delta(
                    rule,
                    config,
                    marks[slot],
                    policy.restricted,
                    stats=stats,
                )
                marks[slot] = current_generation
            else:
                triggers = find_triggers(
                    rule,
                    config,
                    policy.restricted,
                    snapshot=True,
                    stats=stats,
                )
            iterator = iter(triggers)
            while True:
                tick = time.perf_counter()
                trigger = next(iterator, None)
                stats.time_search += time.perf_counter() - tick
                if trigger is None:
                    break
                steps += 1
                if policy.max_steps is not None and steps > policy.max_steps:
                    raise ChaseBudgetExceeded(
                        f"chase exceeded {policy.max_steps} trigger steps "
                        f"({firings} firings, {stats.rounds} rounds)",
                        stats=stats,
                        steps=steps,
                        elapsed=time.perf_counter() - budget_started,
                    )
                if policy.max_seconds is not None:
                    elapsed = time.perf_counter() - budget_started
                    if elapsed > policy.max_seconds:
                        raise ChaseBudgetExceeded(
                            f"chase exceeded {policy.max_seconds}s wall clock "
                            f"({steps} steps, {firings} firings)",
                            stats=stats,
                            steps=steps,
                            elapsed=elapsed,
                        )
                if firings >= policy.max_firings:
                    if policy.raise_on_budget:
                        raise NonTerminatingChaseError(
                            f"chase exceeded {policy.max_firings} firings"
                        )
                    return ChaseResult(
                        reached_fixpoint=False,
                        firings=firings,
                        blocked=blocked,
                        depth_truncated=truncated,
                        new_facts=tuple(all_new),
                        stats=stats,
                    )
                if trigger.key() in suppressed:
                    continue
                # No head re-check here: the generators above filter
                # satisfied heads at yield time, and nothing fires
                # between the yield and this point.
                tick = time.perf_counter()
                outcome, added = _fire_checked(
                    trigger, config, nulls, policy, bag_tree
                )
                stats.time_fire += time.perf_counter() - tick
                if outcome == "fired":
                    firings += 1
                    stats.triggers_fired += 1
                    all_new.extend(added)
                    progress = True
                elif outcome == "blocked":
                    blocked += 1
                    suppressed.add(trigger.key())
                elif outcome == "depth":
                    truncated += 1
                    suppressed.add(trigger.key())
    return ChaseResult(
        reached_fixpoint=True,
        firings=firings,
        blocked=blocked,
        depth_truncated=truncated,
        new_facts=tuple(all_new),
        stats=stats,
    )


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
