"""Domination pruning for Algorithm 1, checked on the delta.

Domination (the paper's second "Optimization") discards a freshly
expanded node when some already-explored node has *at least as many
useful facts* at no higher cost: a homomorphism from the new node's
relevant facts (original, inferred-accessible and ``_accessible``
relations -- everything but ``Accessed_`` copies) into the explored
node's configuration, fixing the canonical constants of the query's free
variables.

Two things keep the check from touching the whole configuration.

**Which nodes to test** -- *signature subsumption*.  Every configuration
has a signature: the relations with a relevant fact, plus every *rigid*
term occurrence ``(relation, position, term)``, rigid meaning a schema
constant or a frozen head null (the terms a domination homomorphism maps
to themselves).  A homomorphism sends each pattern atom to a fact of the
same relation that agrees with it on every rigid position, so a
dominator's signature **contains** the candidate's: subsumption can only
admit false positives, never reject a dominator.  The survivors are
found by one ``frozenset`` subset test per registered node -- a C-level
scan that measured faster than the inverted index it replaced
(EXPERIMENTS.md, FORKS) -- and visited cheapest first (registration
order among equals) up to the candidate's cost.  Per-relation fact
*counts* are deliberately not compared: homomorphisms need not be
injective, so a dominator may hold fewer facts of a relation than the
pattern it absorbs.

**What to map** -- only what the branch added.  Configurations grow
along a branch and never shrink, and a fork keeps its parent's fact log
as a prefix, so for any registered ancestor *a* of a node *n*

    relevant(n) = relevant(a)  +  relevant(n.facts_since(a.generation)).

The registry records each node's lineage (root to node), its
``generation`` at registration, its signature and its nulls.  Told the
parent of the node under test, it

* builds the child's signature as the parent's plus the signature of the
  delta past the parent (a signature is a union over facts), and a kept
  node's registered signature the same way after its saturation;
* for each surviving entry takes the lowest common ancestor *a* of the
  parent and the entry.  Every fact of *a* is in the entry and in the
  child, so the identity maps ``relevant(a)`` into the entry, and the
  child is dominated as soon as the delta past *a* maps into the entry
  by a homomorphism that fixes the nulls of *a* -- the two agree where
  they overlap and together cover the whole pattern.  That search is
  seeded with ``frozen`` plus ``n -> n`` for every null of *a* the delta
  mentions.

The seed *restricts* the search: a dominator may exist that sends some
null of *a* elsewhere.  A seeded miss therefore proves nothing and falls
through to the from-scratch search of the whole pattern into that entry,
so every verdict and every reported dominator is the one the
from-scratch check gives.  A check made without a parent (the root, or
a caller with no lineage to offer) is from scratch throughout.

:class:`FingerprintRegistry` is the registry Algorithm 1 runs on.
:class:`LinearRegistry`, the prefiltered from-scratch scan that ignores
the parent, is what tests compare it against.
"""

from __future__ import annotations

import time
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.chase.configuration import ChaseConfiguration
from repro.logic.atoms import Atom, Substitution
from repro.logic.homomorphisms import find_homomorphism
from repro.logic.terms import Constant, Null, Term
from repro.obs import Record
from repro.schema.accessible import is_accessed_name

_EPS = 1e-12

SignatureElement = Tuple
Signature = FrozenSet[SignatureElement]

_by_cost = attrgetter("cost")


def relevant_facts(config: ChaseConfiguration) -> List[Atom]:
    """Facts the domination homomorphism must preserve.

    The paper requires preservation of original-schema and
    inferred-accessible facts; we additionally preserve ``_accessible``
    facts, which only makes domination *harder* to establish (strictly
    fewer prunes -- safe).
    """
    out: List[Atom] = []
    for relation in config.relations():
        if is_accessed_name(relation):
            continue
        out.extend(config.facts_of(relation))
    return out


def _relevant(facts: Iterable[Atom]) -> List[Atom]:
    """The relevant facts of a slice of a configuration's fact log."""
    return [fact for fact in facts if not is_accessed_name(fact.relation)]


def signature_of(
    pattern: Sequence[Atom], rigid: FrozenSet[Term]
) -> Signature:
    """The canonical signature of a configuration's relevant facts.

    Elements are ``("rel", R)`` per populated relation and
    ``("occ", R, i, t)`` per rigid term occurrence.  ``rigid`` holds the
    frozen head nulls; schema constants are always rigid.
    """
    elements: Set[SignatureElement] = set()
    for atom in pattern:
        elements.add(("rel", atom.relation))
        for position, term in enumerate(atom.terms):
            if isinstance(term, Constant) or term in rigid:
                elements.add(("occ", atom.relation, position, term))
    return frozenset(elements)


@dataclass
class DominationStats(Record):
    """Instrumentation of the domination check across one search run.

    * ``checks`` -- how many nodes were tested for domination;
    * ``registry_scanned`` -- explored nodes a linear scan would have
      examined (the sum of registry sizes at each check);
    * ``candidates`` -- nodes surviving the signature-subsumption
      prefilter (before the cost cutoff);
    * ``hom_calls`` -- candidate entries actually tested for a
      homomorphism (one per entry, however it was searched);
    * ``seeded_hits`` -- entries the delta mapped into under the common
      ancestor's identity seed, with no from-scratch search;
    * ``full_searches`` -- from-scratch searches of the whole pattern
      actually run (every tested entry of a registry without lineage,
      only the seeded misses of one with);
    * ``time_seconds`` -- wall time inside the check.
    """

    checks: int = 0
    registry_scanned: int = 0
    candidates: int = 0
    hom_calls: int = 0
    seeded_hits: int = 0
    full_searches: int = 0
    time_seconds: float = 0.0

    derived = ("hom_calls_avoided",)

    @property
    def hom_calls_avoided(self) -> int:
        """Homomorphism checks the index saved over a linear scan."""
        return self.registry_scanned - self.hom_calls


@dataclass
class _Entry:
    """One registered (explored, non-pruned) search node."""

    node_id: int
    cost: float
    config: ChaseConfiguration


@dataclass
class _IndexedEntry(_Entry):
    """A registered node with what the delta check reads off it."""

    signature: Signature
    # Registry slots of the node's ancestors, root first, its own last.
    lineage: Tuple[int, ...]
    # ``config.generation`` at registration: a descendant's
    # ``facts_since`` of it is what the branch added below this node.
    generation: int
    # Every null of the configuration; the parent's own frozenset when
    # the node added none.
    nulls: FrozenSet[Null]


class DominationRegistry:
    """Interface shared by the delta registry and the reference scan.

    ``parent`` names the registered node whose configuration the one at
    hand was forked from; a registry that keeps no lineage ignores it.
    """

    def __init__(
        self, frozen: Substitution, rigid: FrozenSet[Term]
    ) -> None:
        # The identity substitution on the frozen head nulls: domination
        # must preserve the canonical constants of the free variables.
        self.frozen = frozen
        self.rigid = rigid
        self.stats = DominationStats()

    def __len__(self) -> int:
        raise NotImplementedError

    def register(
        self,
        node_id: int,
        cost: float,
        config: ChaseConfiguration,
        parent: Optional[int] = None,
    ) -> None:
        """Admit an explored node as a potential future dominator."""
        raise NotImplementedError

    def find_dominator(
        self,
        cost: float,
        config: ChaseConfiguration,
        parent: Optional[int] = None,
    ) -> Optional[int]:
        """The node id of a dominator of (cost, config), or None.

        Of several dominators both registries name the cheapest, and of
        equally cheap ones the first registered.
        """
        tick = time.perf_counter()
        try:
            return self._find(cost, config, parent)
        finally:
            self.stats.time_seconds += time.perf_counter() - tick

    def _find(
        self,
        cost: float,
        config: ChaseConfiguration,
        parent: Optional[int],
    ) -> Optional[int]:
        raise NotImplementedError

    def _maps_from_scratch(
        self, pattern: Sequence[Atom], entry: _Entry
    ) -> bool:
        """Search the whole pattern into one entry, nothing assumed."""
        self.stats.full_searches += 1
        return (
            find_homomorphism(
                pattern, entry.config.index, self.frozen, map_nulls=True
            )
            is not None
        )


class FingerprintRegistry(DominationRegistry):
    """Signature subsumption picks the entries worth testing; each is
    tested on the delta past its common ancestor with the child."""

    def __init__(
        self, frozen: Substitution, rigid: FrozenSet[Term]
    ) -> None:
        super().__init__(frozen, rigid)
        self._entries: List[_IndexedEntry] = []
        self._slot_of: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def register(
        self,
        node_id: int,
        cost: float,
        config: ChaseConfiguration,
        parent: Optional[int] = None,
    ) -> None:
        """Record the node with its signature, lineage and nulls."""
        slot = len(self._entries)
        if parent is None:
            signature = signature_of(relevant_facts(config), self.rigid)
            nulls = config.nulls()
            lineage: Tuple[int, ...] = (slot,)
        else:
            above = self._entries[self._slot_of[parent]]
            delta = config.facts_since(above.generation)
            signature = self._signature_below(above, delta)
            fresh = {
                term
                for fact in delta
                for term in fact.terms
                if isinstance(term, Null) and term not in above.nulls
            }
            nulls = above.nulls | fresh if fresh else above.nulls
            lineage = above.lineage + (slot,)
        self._entries.append(
            _IndexedEntry(
                node_id,
                cost,
                config,
                signature,
                lineage,
                config.generation,
                nulls,
            )
        )
        self._slot_of[node_id] = slot

    def _signature_below(
        self, above: _IndexedEntry, delta: Iterable[Atom]
    ) -> Signature:
        """The signature of ``above``'s configuration plus ``delta``."""
        added = signature_of(_relevant(delta), self.rigid)
        if added <= above.signature:
            return above.signature
        return above.signature | added

    def _find(
        self,
        cost: float,
        config: ChaseConfiguration,
        parent: Optional[int],
    ) -> Optional[int]:
        stats = self.stats
        stats.checks += 1
        stats.registry_scanned += len(self._entries)
        pattern: Optional[List[Atom]] = None
        if parent is None:
            lineage: Tuple[int, ...] = ()
            pattern = relevant_facts(config)
            signature = signature_of(pattern, self.rigid)
        else:
            above = self._entries[self._slot_of[parent]]
            lineage = above.lineage
            signature = self._signature_below(
                above, config.facts_since(above.generation)
            )
        # One C-level subset test per entry, in registration order.
        survivors = [
            entry for entry in self._entries if signature <= entry.signature
        ]
        if not survivors:
            return None
        stats.candidates += len(survivors)
        survivors.sort(key=_by_cost)
        # Survivors of one check mostly share their common ancestor with
        # the parent: the delta and its seed are built once per ancestor.
        seeded: Dict[int, Tuple[List[Atom], Substitution]] = {}
        for entry in survivors:
            if entry.cost > cost + _EPS:
                break  # cost-sorted: nothing cheaper remains
            stats.hom_calls += 1
            ancestor = _common_ancestor(lineage, entry.lineage)
            if ancestor is not None:
                if ancestor not in seeded:
                    seeded[ancestor] = self._seeded_delta(
                        config, self._entries[ancestor]
                    )
                delta, seed = seeded[ancestor]
                if (
                    find_homomorphism(
                        delta, entry.config.index, seed, map_nulls=True
                    )
                    is not None
                ):
                    stats.seeded_hits += 1
                    return entry.node_id
            # No lineage to lean on, or the seed was too strict: a
            # dominator may still send a null of the ancestor elsewhere.
            if pattern is None:
                pattern = relevant_facts(config)
            if self._maps_from_scratch(pattern, entry):
                return entry.node_id
        return None

    def _seeded_delta(
        self, config: ChaseConfiguration, ancestor: _IndexedEntry
    ) -> Tuple[List[Atom], Substitution]:
        """What ``config`` added below ``ancestor``, and the seed that
        pins the ancestor's nulls occurring in it to themselves."""
        delta = _relevant(config.facts_since(ancestor.generation))
        seed = self.frozen.as_dict()
        known = ancestor.nulls
        for fact in delta:
            for term in fact.terms:
                if term in known:
                    seed[term] = term
        return delta, Substitution(seed)


def _common_ancestor(
    mine: Tuple[int, ...], theirs: Tuple[int, ...]
) -> Optional[int]:
    """The last slot two lineages share from the root down, if any."""
    shared = None
    for left, right in zip(mine, theirs):
        if left != right:
            break
        shared = left
    return shared


class LinearRegistry(DominationRegistry):
    """The O(registry) from-scratch scan tests use as the reference; it
    visits entries in the delta registry's order, cheapest first and
    first registered among equals."""

    def __init__(
        self, frozen: Substitution, rigid: FrozenSet[Term]
    ) -> None:
        super().__init__(frozen, rigid)
        self._entries: List[_Entry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def register(
        self,
        node_id: int,
        cost: float,
        config: ChaseConfiguration,
        parent: Optional[int] = None,
    ) -> None:
        """File the node by cost, after the equally cheap ones already
        there; the scan needs neither signature nor parent."""
        insort(self._entries, _Entry(node_id, cost, config), key=_by_cost)

    def _find(
        self,
        cost: float,
        config: ChaseConfiguration,
        parent: Optional[int],
    ) -> Optional[int]:
        self.stats.checks += 1
        self.stats.registry_scanned += len(self._entries)
        pattern = relevant_facts(config)
        pattern_relations = {atom.relation for atom in pattern}
        for entry in self._entries:
            if entry.cost > cost + _EPS:
                break  # cost-sorted: nothing cheaper remains
            # Cheap prefilter: a homomorphism needs every relation of the
            # pattern present in the target configuration.
            if not pattern_relations <= set(entry.config.relations()):
                continue
            self.stats.candidates += 1
            self.stats.hom_calls += 1
            if self._maps_from_scratch(pattern, entry):
                return entry.node_id
        return None
