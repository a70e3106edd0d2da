"""Trigger detection.

A *candidate match* (trigger) for a TGD in a configuration is a
homomorphism of the body whose head is not yet satisfied (the *restricted*
chase check -- the variant the paper's Section 4 uses: a candidate match
exists only when "there is no f such that rho(e, f) holds").  Firing a
trigger, which adds head facts with fresh labelled nulls for existential
variables, is the fixpoint engine's (:mod:`repro.chase.engine`).

Two enumeration modes back the fixpoint engine:

* :func:`find_triggers` -- the naive mode: every body homomorphism over
  the whole configuration;
* :func:`triggers_through` -- the semi-naive mode: only homomorphisms
  whose body image touches at least one fact of a delta, found by
  seeding the join at each (body atom, delta fact) pivot via
  :func:`repro.logic.homomorphisms.find_homomorphisms_through`.  The
  engine hands it the delta it keeps bucketed by relation;
  :func:`find_triggers_delta` buckets "everything after a generation
  watermark" itself and calls the same enumerator.

Both are generators whose restricted-chase head filter runs when a
trigger is *requested* (i.e., against the configuration as it stands at
that moment), so a streaming consumer that fires each yielded trigger
immediately needs no second ``head_satisfied`` check.  Both also hold the
run's join scans -- body joins and head checks alike -- against its work
budget once per enumerated match.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.chase.configuration import ChaseConfiguration
from repro.chase.stats import ChaseStats
from repro.logic.atoms import Atom, Substitution
from repro.logic.dependencies import TGD
from repro.logic.homomorphisms import (
    HomStats,
    find_homomorphism,
    find_homomorphisms,
    find_homomorphisms_through,
)
from repro.schema.accessible import RuleLike, tgd_of


@dataclass(frozen=True)
class Trigger:
    """A rule plus a body homomorphism, ready to fire."""

    rule: RuleLike
    homomorphism: Substitution

    def __post_init__(self) -> None:
        # Deduplication, suppression and the firing itself all read the
        # body image; it is built here, once.  A plain attribute, not a
        # field: equality, hash and repr do not see it.
        object.__setattr__(
            self,
            "_body_image",
            tuple(atom.apply(self.homomorphism) for atom in self.tgd.body),
        )

    @classmethod
    def matched(
        cls,
        rule: RuleLike,
        homomorphism: Substitution,
        body_image: Tuple[Atom, ...],
    ) -> "Trigger":
        """The trigger of a match whose body image the caller built."""
        trigger = object.__new__(cls)
        setattr_ = object.__setattr__
        setattr_(trigger, "rule", rule)
        setattr_(trigger, "homomorphism", homomorphism)
        setattr_(trigger, "_body_image", body_image)
        return trigger

    @property
    def tgd(self) -> TGD:
        """The underlying dependency of the trigger's rule."""
        return tgd_of(self.rule)

    def body_image(self) -> Tuple[Atom, ...]:
        """The facts the body maps onto."""
        return self._body_image

    def __repr__(self) -> str:
        return f"Trigger({self.tgd.name}, {self.homomorphism!r})"


def head_satisfied(
    tgd: TGD,
    homomorphism: Substitution,
    config: ChaseConfiguration,
    stats: Optional[HomStats] = None,
) -> bool:
    """True when the head already holds under the body match.

    Existential head variables may map to *any* value of the configuration
    (this is what makes the chase "restricted"/standard rather than
    oblivious), found by a join whose scans ``stats`` counts.  A full TGD
    has none, so its head is ground under the match and holds exactly
    when every head fact is present.
    """
    if tgd.is_full:
        return all(atom.apply(homomorphism) in config for atom in tgd.head)
    binding = homomorphism.restrict(tgd.frontier())
    return (
        find_homomorphism(list(tgd.head), config.index, binding, stats=stats)
        is not None
    )


class WorkSpent(Exception):
    """A trigger search passed its ``max_work``: the run ends truncated."""


def _is_candidate(
    tgd: TGD,
    homomorphism: Substitution,
    config: ChaseConfiguration,
    stats: Optional[ChaseStats],
    max_work: Optional[int],
) -> bool:
    """Whether an enumerated match's head does not hold yet, booked on
    ``stats``.  Raises :class:`WorkSpent` when the join scans so far,
    this head check's included, are past ``max_work``."""
    if stats is None:
        return not head_satisfied(tgd, homomorphism, config)
    stats.triggers_enumerated += 1
    satisfied = head_satisfied(tgd, homomorphism, config, stats.hom)
    if satisfied:
        stats.triggers_filtered += 1
    if max_work is not None and stats.hom.candidates_scanned > max_work:
        raise WorkSpent
    return not satisfied


def find_triggers(
    rule: RuleLike,
    config: ChaseConfiguration,
    *,
    snapshot: bool = False,
    stats: Optional[ChaseStats] = None,
    max_work: Optional[int] = None,
) -> Iterator[Trigger]:
    """All candidate matches of the rule in the configuration.

    With ``snapshot=True`` candidate scans run over immutable copies, so
    the consumer may fire each yielded trigger (adding facts) without
    corrupting the enumeration; facts added mid-stream are picked up by
    the next round.  With ``stats``, each enumerated match is booked and,
    after its head check, its scans are held against ``max_work``
    (:class:`WorkSpent`).
    """
    tgd = tgd_of(rule)
    hom_stats = stats.hom if stats is not None else None
    # The search starts from the empty binding and maps variables only,
    # so what it yields holds the body variables and no other: it is the
    # trigger's homomorphism as it stands.
    for hom in find_homomorphisms(
        list(tgd.body), config.index, snapshot=snapshot, stats=hom_stats
    ):
        if _is_candidate(tgd, hom, config, stats, max_work):
            yield Trigger(rule, hom)


def triggers_through(
    rule: RuleLike,
    config: ChaseConfiguration,
    delta: Mapping[str, Sequence[Atom]],
    *,
    stats: Optional[ChaseStats] = None,
    max_work: Optional[int] = None,
) -> Iterator[Trigger]:
    """Candidate matches whose body image touches the delta.

    ``delta`` maps a relation to the new facts of it, oldest first.  For
    each body atom and each delta fact of its relation, the backtracking
    join is seeded at that pivot; the remaining body atoms join against
    the *full* index.  A match containing several delta facts is found
    once per delta pivot, so matches are deduplicated by body image
    before the head filter runs.

    Soundness of the restriction: a candidate match containing *no* delta
    fact was already enumerable when every fact of its body image existed,
    i.e. in an earlier pass -- where it was fired, head-filtered, or
    suppressed, and all three outcomes are permanent (facts are never
    removed).  Candidate scans always snapshot, so the consumer may fire
    triggers while streaming; ``delta`` itself must not change meanwhile.
    """
    tgd = tgd_of(rule)
    body = list(tgd.body)
    hom_stats = stats.hom if stats is not None else None
    seen: Set[Tuple[Atom, ...]] = set()
    for pivot_atom in body:
        for pivot_fact in delta.get(pivot_atom.relation, ()):
            # As in find_triggers: the binding holds the body variables
            # and no other, so it is the trigger's, uncopied.
            for hom in find_homomorphisms_through(
                body,
                config.index,
                pivot_atom,
                pivot_fact,
                snapshot=True,
                stats=hom_stats,
            ):
                image = tuple([atom.apply(hom) for atom in body])
                if image in seen:
                    continue
                seen.add(image)
                if _is_candidate(tgd, hom, config, stats, max_work):
                    yield Trigger.matched(rule, hom, image)


def find_triggers_delta(
    rule: RuleLike,
    config: ChaseConfiguration,
    since_generation: int,
    *,
    stats: Optional[ChaseStats] = None,
    max_work: Optional[int] = None,
) -> Iterator[Trigger]:
    """:func:`triggers_through` every fact the configuration acquired
    after ``since_generation`` (read when this is called)."""
    delta: Dict[str, List[Atom]] = {}
    for fact in config.facts_since(since_generation):
        delta.setdefault(fact.relation, []).append(fact)
    return triggers_through(
        rule, config, delta, stats=stats, max_work=max_work
    )
