"""Chase configurations: indexed fact sets with provenance.

A configuration is the set of facts of one element of a chase sequence.
Beyond membership it tracks, per fact, *how* the fact was derived
(:class:`Provenance`: producing rule, trigger facts, derivation depth).
Derivation depth is the paper's tie-breaking policy for choosing candidate
facts in Algorithm 1 ("a candidate node of minimal derivation depth").

Configurations support cheap copying, which the proof-search tree relies
on: every search node owns its own configuration.
"""

from __future__ import annotations

from collections import ChainMap
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    MutableMapping,
    Optional,
    Set,
    Tuple,
)

from repro.logic.atoms import Atom
from repro.logic.homomorphisms import FactIndex
from repro.logic.terms import Constant, Null, Term
from repro.schema.accessible import ACCESSIBLE


@dataclass(frozen=True, slots=True)
class Provenance:
    """How a fact entered the configuration."""

    rule: str
    trigger_facts: Tuple[Atom, ...]
    depth: int

    @classmethod
    def initial(cls) -> "Provenance":
        """Provenance of facts present from the start (depth 0)."""
        return cls(rule="<initial>", trigger_facts=(), depth=0)


class ChaseConfiguration:
    """An indexed, provenance-tracking set of facts."""

    __slots__ = ("_index", "_provenance", "_accessible")

    def __init__(self, facts: Iterable[Atom] = ()) -> None:
        self._index = FactIndex()
        self._provenance: MutableMapping[Atom, Provenance] = {}
        self._accessible: Set[Term] = set()
        initial = Provenance.initial()
        for fact in facts:
            self.add(fact, initial)

    # -------------------------------------------------------- mutation
    def add(self, fact: Atom, provenance: Optional[Provenance] = None) -> bool:
        """Insert a fact; returns False when it was already present."""
        if not fact.is_fact:
            raise ValueError(f"not a ground fact: {fact!r}")
        if not self._index.add(fact):
            return False
        self._provenance[fact] = (
            provenance if provenance is not None else Provenance.initial()
        )
        if fact.relation == ACCESSIBLE:
            self._accessible.add(fact.terms[0])
        return True

    def add_all(
        self, facts: Iterable[Atom], provenance: Optional[Provenance] = None
    ) -> Tuple[Atom, ...]:
        """Insert facts; returns those that were genuinely new."""
        added = []
        for fact in facts:
            if self.add(fact, provenance):
                added.append(fact)
        return tuple(added)

    # --------------------------------------------------------- queries
    @property
    def index(self) -> FactIndex:
        """The underlying indexed fact store."""
        return self._index

    @property
    def generation(self) -> int:
        """Monotone insertion counter (facts are never removed).

        Semi-naive chase evaluation records a generation watermark and
        later asks :meth:`facts_since` for the delta of facts added past
        it; see :mod:`repro.chase.engine`.
        """
        return self._index.generation

    def facts_since(self, generation: int) -> Tuple[Atom, ...]:
        """Facts added after ``generation``, oldest first (a stable
        snapshot -- safe to iterate while firing rules)."""
        return self._index.facts_since(generation)

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._index

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._index)

    def facts_of(self, relation: str) -> FrozenSet[Atom]:
        """The facts of one relation (empty when none)."""
        return self._index.facts_of(relation)

    def relations(self) -> Iterable[str]:
        """Relation names with at least one fact."""
        return self._index.relations()

    def accessible_values(self) -> FrozenSet[Term]:
        """Values v with ``_accessible(v)`` in the configuration."""
        return frozenset(self._accessible)

    def is_accessible(self, term: Term) -> bool:
        """Whether ``_accessible(term)`` holds in this configuration."""
        return term in self._accessible

    def provenance(self, fact: Atom) -> Provenance:
        """How the fact was derived (rule, trigger facts, depth)."""
        return self._provenance[fact]

    def depth(self, fact: Atom) -> int:
        """Derivation depth (0 for initial facts)."""
        return self._provenance[fact].depth

    def nulls(self) -> FrozenSet[Null]:
        """Every labelled null occurring in some fact."""
        out: Set[Null] = set()
        for fact in self._index:
            out.update(fact.nulls())
        return frozenset(out)

    def relation_signature(self) -> Tuple[Tuple[str, int], ...]:
        """Sorted (relation, fact-count) pairs -- a cheap pre-filter for
        configuration-homomorphism checks in domination pruning."""
        return tuple(
            sorted(
                (relation, self._index.size_of(relation))
                for relation in self._index.relations()
            )
        )

    # ----------------------------------------------------------- copies
    def copy(self) -> "ChaseConfiguration":
        """An independent copy (used when the search tree branches).

        Copy-on-write: the fact index shares the parent's generation-log
        prefix and every bucket until one side mutates it
        (:meth:`FactIndex.fork`), and provenance is layered
        (:class:`collections.ChainMap`) so the copy is O(index keys), not
        O(total facts x arity).  Writes on either side never leak to the
        other; a fact re-added on one side shadows the shared provenance.
        """
        clone = ChaseConfiguration.__new__(ChaseConfiguration)
        clone._index = self._index.fork()
        provenance = self._provenance
        if isinstance(provenance, ChainMap):
            clone._provenance = provenance.new_child()
        else:
            clone._provenance = ChainMap({}, provenance)
        clone._accessible = set(self._accessible)
        return clone

    def deep_copy(self) -> "ChaseConfiguration":
        """A fully materialised copy sharing no mutable state.

        What :meth:`copy` must be indistinguishable from; tests fork
        with it as the reference.
        """
        clone = ChaseConfiguration.__new__(ChaseConfiguration)
        clone._index = self._index.copy()
        clone._provenance = dict(self._provenance)
        clone._accessible = set(self._accessible)
        return clone

    def __repr__(self) -> str:
        return f"ChaseConfiguration({len(self._index)} facts)"
