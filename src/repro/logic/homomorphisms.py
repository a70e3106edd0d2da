"""Homomorphism search over fact collections.

The workhorse of the whole system: conjunctive-query evaluation, chase
trigger detection, containment checking, success detection in proof search
and the domination pruning of Algorithm 1 are all homomorphism problems.

A homomorphism here maps *mappable* terms (variables and, when requested,
labelled nulls) of a list of pattern atoms to the terms of a fact store, so
that every pattern atom becomes a stored fact.  Schema constants are rigid:
they always map to themselves.

The search is a classical backtracking join: at each step we pick the
pattern atom with the fewest unbound mappable terms (a cheap fail-first
heuristic) and scan only the candidate facts selected through a per-relation
index keyed by (position, term).

Two entry points drive the chase engine's semi-naive evaluation:

* :func:`find_homomorphisms_through` seeds the join at a fixed
  (pattern atom, fact) pivot, which is how delta-driven trigger search
  only enumerates matches that touch at least one newly derived fact;
* the ``snapshot`` flag makes candidate scans iterate over immutable
  copies, so a consumer may *add* facts to the index between yielded
  homomorphisms (streaming trigger firing) without invalidating the
  generators' iteration state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.logic.atoms import Atom, Substitution
from repro.logic.terms import Constant, Null, Term, Variable
from repro.obs import Record


@dataclass
class HomStats(Record):
    """Instrumentation counters for backtracking-join search.

    ``candidates_scanned`` counts facts examined as potential images of a
    pattern atom; ``backtracks`` counts the scans that clashed with the
    current binding (dead ends the join had to back out of).
    """

    candidates_scanned: int = 0
    backtracks: int = 0


class FactIndex:
    """An indexed collection of facts.

    Facts are grouped by relation name and indexed by every
    ``(position, term)`` pair, which makes candidate selection during
    backtracking proportional to the number of actually-matching facts.

    The index also keeps an append-only insertion log: every fact gets a
    monotonically increasing *generation* (its position in the log), and
    :meth:`facts_since` returns the suffix added after a given generation.
    This is the delta that semi-naive chase evaluation joins through.

    Indexes support two flavours of duplication.  :meth:`copy` is a full
    deep copy.  :meth:`fork` is copy-on-write: the fork shares the
    parent's log as an immutable capped prefix segment and shares every
    per-relation and per-position bucket until one side mutates it
    (proof-search trees fork a configuration at every node expansion, and
    most buckets are never touched again on either side).
    """

    __slots__ = (
        "_by_relation",
        "_by_position",
        "_log",
        "_log_prefix",
        "_prefix_len",
        "_facts_of_cache",
        "_owned_rel",
        "_owned_pos",
    )

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._by_relation: Dict[str, Set[Atom]] = {}
        self._by_position: Dict[Tuple[str, int, Term], Set[Atom]] = {}
        self._log: List[Atom] = []
        # Shared, logically immutable (list, capped-length) log segments
        # inherited from fork ancestors; owners only ever append past the
        # cap, so reads below it are stable.
        self._log_prefix: Tuple[Tuple[List[Atom], int], ...] = ()
        self._prefix_len = 0
        self._facts_of_cache: Dict[str, FrozenSet[Atom]] = {}
        # None means "owns every bucket" (never forked); a set names the
        # buckets cloned since the last fork, everything else is shared.
        self._owned_rel: Optional[Set[str]] = None
        self._owned_pos: Optional[Set[Tuple[str, int, Term]]] = None
        for fact in facts:
            self.add(fact)

    def add(self, fact: Atom) -> bool:
        """Insert a fact; returns False if it was already present."""
        relation = fact.relation
        bucket = self._by_relation.get(relation)
        if bucket is None:
            bucket = set()
            self._by_relation[relation] = bucket
            if self._owned_rel is not None:
                self._owned_rel.add(relation)
        elif fact in bucket:
            return False
        elif self._owned_rel is not None and relation not in self._owned_rel:
            bucket = set(bucket)
            self._by_relation[relation] = bucket
            self._owned_rel.add(relation)
        bucket.add(fact)
        owned_pos = self._owned_pos
        for position, term in enumerate(fact.terms):
            key = (relation, position, term)
            entry = self._by_position.get(key)
            if entry is None:
                self._by_position[key] = {fact}
                if owned_pos is not None:
                    owned_pos.add(key)
                continue
            if owned_pos is not None and key not in owned_pos:
                entry = set(entry)
                self._by_position[key] = entry
                owned_pos.add(key)
            entry.add(fact)
        self._log.append(fact)
        self._facts_of_cache.pop(relation, None)
        return True

    @property
    def generation(self) -> int:
        """Number of facts ever inserted (facts are never removed)."""
        return self._prefix_len + len(self._log)

    def facts_since(self, generation: int) -> Tuple[Atom, ...]:
        """The facts inserted after ``generation``, in insertion order.

        The returned tuple is a stable snapshot: further insertions do not
        affect it, so callers may fire rules while iterating the delta.
        """
        if generation >= self._prefix_len:
            return tuple(self._log[generation - self._prefix_len:])
        out: List[Atom] = []
        offset = 0
        for segment, cap in self._log_prefix:
            if generation < offset + cap:
                out.extend(segment[max(0, generation - offset):cap])
            offset += cap
        out.extend(self._log)
        return tuple(out)

    def __len__(self) -> int:
        return self._prefix_len + len(self._log)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._by_relation.get(fact.relation, ())

    def __iter__(self) -> Iterator[Atom]:
        for bucket in self._by_relation.values():
            yield from bucket

    def relations(self) -> Iterable[str]:
        """Relation names with at least one indexed fact."""
        return self._by_relation.keys()

    def facts_of(self, relation: str) -> FrozenSet[Atom]:
        """The indexed facts of one relation.

        The frozenset is cached per relation and invalidated on insertion,
        so repeated queries between mutations share one snapshot.
        """
        cached = self._facts_of_cache.get(relation)
        if cached is None:
            cached = frozenset(self._by_relation.get(relation, ()))
            self._facts_of_cache[relation] = cached
        return cached

    def size_of(self, relation: str) -> int:
        """Number of facts of one relation, without materialising a set."""
        return len(self._by_relation.get(relation, ()))

    def facts_with(
        self, relation: str, position: int, term: Term
    ) -> Tuple[Atom, ...]:
        """Facts of ``relation`` holding ``term`` at ``position``.

        A public snapshot view of the per-position index; the planner's
        incremental candidate generation uses it to find the facts whose
        access-method inputs just became accessible.
        """
        entry = self._by_position.get((relation, position, term))
        return tuple(entry) if entry else ()

    def candidates(
        self,
        atom: Atom,
        binding: Substitution,
        map_nulls: bool,
        snapshot: bool = False,
    ) -> Iterable[Atom]:
        """Facts that could match ``atom`` under the current binding.

        Uses the most selective available (position, term) index entry;
        falls back to the full relation bucket when every position of the
        atom is still unbound.

        Without ``snapshot`` the *live* index set is returned -- cheap, but
        callers must not mutate the index while iterating it.  With
        ``snapshot=True`` an immutable tuple copy is returned, which is what
        streaming trigger enumeration uses so rule firings may insert facts
        between yielded matches.
        """
        bucket = self._by_relation.get(atom.relation)
        if not bucket:
            return ()
        best: Optional[Set[Atom]] = None
        for position, term in enumerate(atom.terms):
            image = _image_of(term, binding, map_nulls)
            if image is None:
                continue
            entry = self._by_position.get((atom.relation, position, image))
            if entry is None:
                return ()
            if best is None or len(entry) < len(best):
                best = entry
        chosen = best if best is not None else bucket
        return tuple(chosen) if snapshot else chosen

    def copy(self) -> "FactIndex":
        """An independent deep copy of the index."""
        clone = FactIndex.__new__(FactIndex)
        clone._by_relation = {k: set(v) for k, v in self._by_relation.items()}
        clone._by_position = {k: set(v) for k, v in self._by_position.items()}
        # Prefix segments are append-only and capped, so sharing them is
        # safe even under further mutation of either side.
        clone._log_prefix = self._log_prefix
        clone._prefix_len = self._prefix_len
        clone._log = list(self._log)
        clone._facts_of_cache = dict(self._facts_of_cache)
        clone._owned_rel = None
        clone._owned_pos = None
        return clone

    def fork(self) -> "FactIndex":
        """A copy-on-write copy sharing the log prefix and all buckets.

        After a fork both sides treat every current bucket as shared and
        clone a bucket the first time they mutate it, so forking costs one
        dict copy per index instead of one set copy per bucket.  The log
        is shared as an immutable capped segment; each side appends to its
        own tail, and :meth:`facts_since` stitches the view together.
        """
        clone = FactIndex.__new__(FactIndex)
        clone._by_relation = dict(self._by_relation)
        clone._by_position = dict(self._by_position)
        clone._facts_of_cache = dict(self._facts_of_cache)
        if self._log:
            clone._log_prefix = self._log_prefix + (
                (self._log, len(self._log)),
            )
        else:
            clone._log_prefix = self._log_prefix
        clone._prefix_len = self._prefix_len + len(self._log)
        clone._log = []
        clone._owned_rel = set()
        clone._owned_pos = set()
        # The parent's buckets are now shared too: it must clone before
        # mutating, or the fork would observe the change.
        self._owned_rel = set()
        self._owned_pos = set()
        return clone


def _image_of(
    term: Term, binding: Substitution, map_nulls: bool
) -> Optional[Term]:
    """The already-determined image of a pattern term, or None if free."""
    if isinstance(term, Variable) or (map_nulls and isinstance(term, Null)):
        return binding.get(term)
    return term


def _mappable(term: Term, map_nulls: bool) -> bool:
    return isinstance(term, Variable) or (map_nulls and isinstance(term, Null))


def extend_homomorphism(
    atom: Atom, fact: Atom, binding: Substitution, map_nulls: bool = False
) -> Optional[Substitution]:
    """Try to extend ``binding`` so that ``atom`` maps onto ``fact``.

    Returns the extended substitution, or None when the terms clash.
    ``binding`` is never mutated: its mapping is copied once, when the
    first unbound term is met, and ``binding`` itself comes back when
    the atom binds nothing new.
    """
    terms = atom.terms
    images = fact.terms
    if atom.relation != fact.relation or len(terms) != len(images):
        return None
    mapping = binding._mapping
    copied = False
    for term, image in zip(terms, images):
        if isinstance(term, Variable) or (
            map_nulls and isinstance(term, Null)
        ):
            bound = mapping.get(term)
            if bound is None:
                if not copied:
                    mapping = dict(mapping)
                    copied = True
                mapping[term] = image
            elif bound != image:
                return None
        elif term != image:
            return None
    return Substitution.adopting(mapping) if copied else binding


def find_homomorphisms(
    atoms: Sequence[Atom],
    index: FactIndex,
    binding: Optional[Substitution] = None,
    map_nulls: bool = False,
    snapshot: bool = False,
    stats: Optional[HomStats] = None,
) -> Iterator[Substitution]:
    """All homomorphisms of ``atoms`` into ``index`` extending ``binding``.

    ``map_nulls=True`` additionally treats labelled nulls in the pattern as
    mappable -- this is what containment checks and domination pruning need,
    where the pattern is itself a set of chase facts.
    """
    start = binding if binding is not None else Substitution()
    remaining = list(atoms)
    yield from _search(remaining, index, start, map_nulls, snapshot, stats)


def find_homomorphisms_through(
    atoms: Sequence[Atom],
    index: FactIndex,
    pivot_atom: Atom,
    pivot_fact: Atom,
    binding: Optional[Substitution] = None,
    map_nulls: bool = False,
    snapshot: bool = False,
    stats: Optional[HomStats] = None,
) -> Iterator[Substitution]:
    """Homomorphisms of ``atoms`` whose ``pivot_atom`` maps onto ``pivot_fact``.

    The semi-naive entry point: the pivot is bound *first*, so the
    backtracking join only explores matches whose image contains the pivot
    fact.  ``pivot_atom`` must be one of ``atoms``; one occurrence of it is
    consumed by the pivot, the remaining atoms are joined against the full
    index as usual.
    """
    remaining = list(atoms)
    try:
        remaining.remove(pivot_atom)
    except ValueError:
        raise ValueError(
            f"pivot atom {pivot_atom!r} is not among the pattern atoms"
        ) from None
    start = binding if binding is not None else Substitution()
    seeded = extend_homomorphism(pivot_atom, pivot_fact, start, map_nulls)
    if stats is not None:
        # The pivot fact is a scanned candidate too, matched or not.
        stats.candidates_scanned += 1
    if seeded is None:
        if stats is not None:
            stats.backtracks += 1
        return
    yield from _search(remaining, index, seeded, map_nulls, snapshot, stats)


def _search(
    remaining: List[Atom],
    index: FactIndex,
    binding: Substitution,
    map_nulls: bool,
    snapshot: bool = False,
    stats: Optional[HomStats] = None,
) -> Iterator[Substitution]:
    if not remaining:
        yield binding
        return
    position = _pick_atom(remaining, binding, map_nulls)
    atom = remaining[position]
    rest = remaining[:position] + remaining[position + 1:]
    for fact in index.candidates(atom, binding, map_nulls, snapshot):
        if stats is not None:
            stats.candidates_scanned += 1
        extended = extend_homomorphism(atom, fact, binding, map_nulls)
        if extended is not None:
            yield from _search(rest, index, extended, map_nulls, snapshot, stats)
        elif stats is not None:
            stats.backtracks += 1


def _pick_atom(
    remaining: Sequence[Atom], binding: Substitution, map_nulls: bool
) -> int:
    """Fail-first: pick the atom with the fewest unbound mappable terms."""
    best_index = 0
    best_score = None
    for i, atom in enumerate(remaining):
        unbound = sum(
            1
            for t in atom.terms
            if _mappable(t, map_nulls) and t not in binding
        )
        if unbound == 0:
            return i
        if best_score is None or unbound < best_score:
            best_score = unbound
            best_index = i
    return best_index


def find_homomorphism(
    atoms: Sequence[Atom],
    index: FactIndex,
    binding: Optional[Substitution] = None,
    map_nulls: bool = False,
    stats: Optional[HomStats] = None,
) -> Optional[Substitution]:
    """The first homomorphism found, or None."""
    for hom in find_homomorphisms(
        atoms, index, binding, map_nulls, stats=stats
    ):
        return hom
    return None


def has_homomorphism(
    atoms: Sequence[Atom],
    index: FactIndex,
    binding: Optional[Substitution] = None,
    map_nulls: bool = False,
) -> bool:
    """Existence check for a homomorphism."""
    return find_homomorphism(atoms, index, binding, map_nulls) is not None
