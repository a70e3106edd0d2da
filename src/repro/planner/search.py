"""Algorithm 1: cost-guided exploration of the proof space (Section 5).

The search maintains a *partial proof tree*.  Each node carries a chase
configuration (saturated under cost-free rules -- the eager-proof
discipline), the partial plan generated so far, and its cost.  Expanding
a node fires one accessibility axiom for a *candidate fact for exposure*:
a fact of an original relation, not yet accessed, whose chosen method's
input positions all hold accessible values.  Both prunings below are
decided on the exposure alone, before the child's saturation, so only the
children kept in the tree are chased (``docs/theory.md``, "Pruning before
saturation").

Pruning (the paper's "Optimizations"):

* cost-bound -- monotone costs let us abort any node whose partial plan
  already costs at least as much as the best complete plan found;
* domination -- a new node is discarded when an already-explored node has
  "at least as many useful facts" (a homomorphism over the original,
  inferred-accessible and accessible relations, fixing the canonical
  constants of the query's free variables) at no higher cost.

Search order follows the paper: depth-first on the leftmost branch, with
candidates ordered by derivation depth and methods by expected cost; a
best-first (cheapest partial plan) strategy is also provided.

The hot loop is incremental end to end (see ``docs/theory.md``,
"Search-state indexing and incrementality"):

* domination queries go through a fingerprint-indexed registry
  (:mod:`repro.planner.domination`) instead of a linear scan, and the
  registry, told the child's parent, maps only what the branch added
  below the ancestor the child shares with each candidate dominator;
  the old scan is available as a differential oracle
  (``domination_index``);
* children inherit the parent's ranked candidate list and extend it only
  from ``config.facts_since(parent_generation)`` plus facts whose input
  positions newly became accessible (``incremental_candidates``);
* monotone cost functions are charged only for the appended commands via
  :meth:`CostFunction.delta_cost` (``incremental_cost``);
* configuration forks are copy-on-write (``cow_configs``), sharing the
  parent's generation-log prefix instead of deep-copying the index.

Each piece can be switched back to the original full recomputation for
differential testing and the search benchmarks' baseline mode.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy
from repro.chase.stats import ChaseStats
from repro.cost.functions import (
    CostFunction,
    CountingCostFunction,
    SimpleCostFunction,
)
from repro.logic.atoms import Atom, Substitution
from repro.logic.homomorphisms import find_homomorphism
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Null, NullFactory, Term, Variable
from repro.planner.domination import (
    DominationRegistry,
    DominationStats,
    make_registry,
)
from repro.planner.plan_state import PlanState, PlanningError
from repro.planner.proof_to_plan import (
    ChaseProof,
    Exposed,
    Exposure,
    SaturationLog,
    expose_access,
    initial_configuration,
    saturate_exposed,
    success_pattern,
)
from repro.plans.plan import Plan
from repro.schema.accessible import (
    ACCESSIBLE,
    AccessibleSchema,
    Variant,
    accessed_name,
    infacc_name,
    is_accessed_name,
    is_infacc_name,
)
from repro.schema.core import AccessMethod, Schema


@dataclass
class SearchOptions:
    """Tuning knobs for Algorithm 1."""

    max_accesses: int = 6
    cost: Optional[CostFunction] = None
    prune_by_cost: bool = True
    # Incumbent-based branch-and-bound: close any non-successful node
    # whose cost plus the cost function's admissible completion margin
    # (``CostFunction.min_access_charge()`` -- every descendant appends
    # at least one more access command) already reaches the incumbent
    # best cost.  Strictly stronger than ``prune_by_cost`` alone and
    # plan-preserving whenever the margin is sound (a descendant could
    # at best *tie* the incumbent, never beat it); off by default so
    # node-count baselines stay bit-identical.
    prune_by_bound: bool = False
    domination: bool = True
    expose_induced: bool = True
    strategy: str = "dfs"  # or "best-first"
    # Candidate ordering within a node: "depth" prefers facts of minimal
    # derivation depth (paper default), "method" prefers the cheapest
    # method first (the fixed method priority of Example 5 / Figure 1).
    candidate_order: str = "depth"
    # Optional beam width: keep only the best-ranked N candidates per
    # node.  Cuts the tree aggressively but FORFEITS Theorem 9 optimality
    # (and certified negatives: exhausted is forced False).
    beam_width: Optional[int] = None
    chase_policy: Optional[ChasePolicy] = None
    max_nodes: Optional[int] = None
    stop_on_first: bool = False
    collect_tree: bool = False
    # Domination registry flavour: "fingerprint" (signature-subsumption
    # index, each survivor tested on the delta), "linear" (the original
    # prefiltered from-scratch scan), "naive" (a full homomorphism per
    # registered node -- the benchmarks' unoptimized reference), or
    # "differential" (fingerprint + linear, with agreement on the
    # dominator asserted on every check).
    domination_index: str = "fingerprint"
    # Incremental hot-loop machinery; each switch falls back to the
    # original full recomputation when False (baseline/differential mode).
    incremental_candidates: bool = True
    incremental_cost: bool = True
    cow_configs: bool = True


@dataclass
class SearchStats:
    """Counters reported by one search run."""

    nodes_created: int = 0
    nodes_expanded: int = 0
    successes: int = 0
    pruned_by_cost: int = 0
    pruned_by_bound: int = 0
    pruned_by_domination: int = 0
    pruned_by_depth: int = 0
    best_cost_history: List[float] = field(default_factory=list)
    # Aggregated instrumentation of every per-node chase saturation.
    chase: ChaseStats = field(default_factory=ChaseStats)
    # Domination-check breakdown (see repro.planner.domination).
    domination: DominationStats = field(default_factory=DominationStats)
    # Dominator node id -> how many expanded children it absorbed.
    dominators: Counter = field(default_factory=Counter)
    # Candidate generation: pairs inherited from the parent's list vs.
    # freshly discovered from the configuration delta.
    candidates_inherited: int = 0
    candidates_fresh: int = 0
    # Wall time inside the hot loop's three incremental pieces.
    time_copy: float = 0.0
    time_candidates: float = 0.0
    time_cost: float = 0.0

    def summary(self) -> str:
        """A human-readable breakdown (printed by ``--search-stats``)."""
        d = self.domination
        return "\n".join(
            [
                f"nodes: created={self.nodes_created} "
                f"expanded={self.nodes_expanded} successes={self.successes}",
                f"pruned: cost={self.pruned_by_cost} "
                f"bound={self.pruned_by_bound} "
                f"domination={self.pruned_by_domination} "
                f"depth={self.pruned_by_depth}",
                f"domination checks: {d.checks} "
                f"(candidates={d.candidates} hom_calls={d.hom_calls} "
                f"avoided={d.hom_calls_avoided} "
                f"seeded_hits={d.seeded_hits} "
                f"full_searches={d.full_searches} "
                f"time={d.time_seconds:.4f}s)",
                "dominated by: "
                + (
                    " ".join(
                        f"n{node_id}x{count}"
                        for node_id, count in sorted(self.dominators.items())
                    )
                    or "-"
                ),
                f"candidates: inherited={self.candidates_inherited} "
                f"fresh={self.candidates_fresh}",
                f"time: copy={self.time_copy:.4f}s "
                f"candidates={self.time_candidates:.4f}s "
                f"cost={self.time_cost:.4f}s",
            ]
        )

    def as_dict(self) -> dict:
        """JSON-ready rendering (used by ``benchmarks/bench_search.py``)."""
        return {
            "nodes_created": self.nodes_created,
            "nodes_expanded": self.nodes_expanded,
            "successes": self.successes,
            "pruned_by_cost": self.pruned_by_cost,
            "pruned_by_bound": self.pruned_by_bound,
            "pruned_by_domination": self.pruned_by_domination,
            "pruned_by_depth": self.pruned_by_depth,
            "domination": self.domination.as_dict(),
            "candidates_inherited": self.candidates_inherited,
            "candidates_fresh": self.candidates_fresh,
            "time_copy": self.time_copy,
            "time_candidates": self.time_candidates,
            "time_cost": self.time_cost,
        }


@dataclass
class SearchNode:
    """One node of the partial proof tree."""

    node_id: int
    parent_id: Optional[int]
    config: ChaseConfiguration
    state: PlanState
    exposures: Tuple[Exposure, ...]
    cost: float
    successful: bool = False
    pruned: Optional[str] = None
    # For ``pruned == "domination"``: the id of the registered node the
    # relevant facts of this one map into.
    dominated_by: Optional[int] = None
    # Full ranked candidate list (rank, fact, method); children inherit
    # it, so it is never truncated -- ``limit`` caps consumption (beam
    # search) and ``cursor`` walks it in O(1) per candidate.
    candidates: List[Tuple[Tuple, Atom, AccessMethod]] = field(
        default_factory=list
    )
    cursor: int = 0
    limit: Optional[int] = None
    # Configuration generation at finalize time: children ask
    # ``facts_since(parent.generation)`` for their candidate delta.
    generation: int = 0
    # Opaque CostFunction accumulator threaded through delta_cost.
    cost_state: object = None

    @property
    def _end(self) -> int:
        if self.limit is None:
            return len(self.candidates)
        return min(self.limit, len(self.candidates))

    @property
    def pending(self) -> List[Tuple[Atom, AccessMethod]]:
        """Remaining (fact, method) candidates, in search order."""
        return [
            (fact, method)
            for _, fact, method in self.candidates[self.cursor : self._end]
        ]

    @property
    def has_pending(self) -> bool:
        """Whether any candidate remains to be expanded."""
        return self.cursor < self._end

    def next_candidate(self) -> Tuple[Atom, AccessMethod]:
        """Consume and return the next candidate (cursor advance)."""
        _, fact, method = self.candidates[self.cursor]
        self.cursor += 1
        return fact, method

    @property
    def depth(self) -> int:
        """Number of access commands in the partial plan."""
        return self.state.access_command_count

    @property
    def is_terminal(self) -> bool:
        """Successful or out of candidates (Algorithm 1's terminal nodes)."""
        return self.successful or not self.has_pending


@dataclass
class SearchResult:
    """Outcome of one Algorithm 1 run."""

    best_plan: Optional[Plan]
    best_cost: float
    best_proof: Optional[ChaseProof]
    stats: SearchStats
    tree: Tuple[SearchNode, ...] = ()
    # True when the bounded proof space was fully explored AND every
    # cost-free saturation genuinely reached a fixpoint: a failed search
    # is then a *certified* "no plan within the access budget".  Only
    # nodes kept in the tree are saturated, so only their saturations
    # count: a child closed by depth, cost or domination on its exposure
    # alone is never chased and cannot void the certificate.
    exhausted: bool = False

    @property
    def found(self) -> bool:
        """Whether a complete plan was found."""
        return self.best_plan is not None


def plan_search(
    acc_schema: AccessibleSchema,
    query: ConjunctiveQuery,
    options: Optional[SearchOptions] = None,
) -> SearchResult:
    """Run Algorithm 1 over the given accessible schema and query."""
    searcher = _Searcher(acc_schema, query, options or SearchOptions())
    return searcher.run()


def find_best_plan(
    schema: Schema,
    query: ConjunctiveQuery,
    options: Optional[SearchOptions] = None,
) -> SearchResult:
    """Build ``AcSch(schema)`` and search for the cheapest plan."""
    schema.validate_query(query)
    return plan_search(
        AccessibleSchema(schema, Variant.FORWARD), query, options
    )


def find_any_plan(
    schema: Schema,
    query: ConjunctiveQuery,
    max_accesses: int = 6,
    chase_policy: Optional[ChasePolicy] = None,
) -> SearchResult:
    """First-proof search: stop at the first complete plan found."""
    options = SearchOptions(
        max_accesses=max_accesses,
        cost=CountingCostFunction(),
        stop_on_first=True,
        chase_policy=chase_policy,
    )
    return find_best_plan(schema, query, options)


# ---------------------------------------------------------------- internals
class _Searcher:
    def __init__(
        self,
        acc_schema: AccessibleSchema,
        query: ConjunctiveQuery,
        options: SearchOptions,
    ) -> None:
        self.acc = acc_schema
        self.schema = acc_schema.schema
        self.query = query
        self.options = options
        self.cost = options.cost or SimpleCostFunction.from_schema(
            self.schema
        )
        self.nulls = NullFactory("s")
        self.stats = SearchStats()
        self.best_plan: Optional[Plan] = None
        self.best_cost = float("inf")
        self.best_proof: Optional[ChaseProof] = None
        self.nodes: List[SearchNode] = []
        # Domination registry over every non-pruned node explored so far;
        # built in _make_root once the frozen head nulls are known.
        self._registry: Optional[DominationRegistry] = None
        self.saturation_log = SaturationLog()
        self._drained = False
        self._ids = itertools.count()
        self.head_nulls: Dict[Variable, Null] = {}
        # InferredAccQ and the binding of its free variables: the success
        # test of every finalized node, built once in _make_root.
        self._success_atoms: Tuple[Atom, ...] = ()
        self._success_seed = Substitution()
        # Admissible completion margin for branch-and-bound: every
        # descendant of a non-successful node appends at least one
        # access command, which charges at least this much.
        self._min_access_charge = self.cost.min_access_charge()
        # Methods ordered by expected cost (the paper's fixed priority).
        self._method_priority = {
            m.name: (self.cost.method_cost(m.name), m.name)
            for m in self.schema.methods
        }
        # Accessed relations only: relations without methods can never be
        # exposed, so candidate generation skips them entirely.
        self._methods_by_relation: Dict[str, Tuple[AccessMethod, ...]] = {
            r.name: tuple(self.schema.methods_of(r.name))
            for r in self.schema.relations
            if self.schema.methods_of(r.name)
        }
        # Input positions a relation's methods read: when a term becomes
        # accessible, only facts holding it in one of these positions can
        # turn into new candidates.
        self._input_positions: Dict[str, Tuple[int, ...]] = {
            relation: tuple(
                sorted({p for m in methods for p in m.input_positions})
            )
            for relation, methods in self._methods_by_relation.items()
        }

    # ------------------------------------------------------------- setup
    def _make_root(self) -> SearchNode:
        config, frozen = initial_configuration(
            self.acc,
            self.query,
            self.nulls,
            self.options.chase_policy,
            log=self.saturation_log,
        )
        self.head_nulls = frozen
        self._success_atoms, self._success_seed = success_pattern(
            self.query, frozen
        )
        rigid = frozenset(self.head_nulls.values())
        self._registry = make_registry(
            self.options.domination_index,
            Substitution({null: null for null in rigid}),
            rigid,
        )
        root = SearchNode(
            node_id=next(self._ids),
            parent_id=None,
            config=config,
            state=PlanState(),
            exposures=(),
            cost=0.0,
            cost_state=(
                self.cost.cost_state()
                if self.options.incremental_cost
                else None
            ),
        )
        self._finalize_node(root)
        return root

    # ------------------------------------------------------------- main
    def run(self) -> SearchResult:
        """Drive the chosen search strategy over the bounded proof space
        and package the best plan found (if any) with its statistics."""
        root = self._make_root()
        if self.options.strategy == "best-first":
            self._run_best_first(root)
        else:
            self._run_dfs(root)
        self.stats.chase = self.saturation_log.stats
        self.stats.domination = self._registry.stats
        return SearchResult(
            best_plan=self.best_plan,
            best_cost=self.best_cost,
            best_proof=self.best_proof,
            stats=self.stats,
            tree=tuple(self.nodes) if self.options.collect_tree else (),
            exhausted=(
                self._drained
                and self.saturation_log.complete
                and self.options.beam_width is None
            ),
        )

    def _run_dfs(self, root: SearchNode) -> None:
        stack = [root]
        while stack:
            if self._budget_exhausted():
                return
            node = stack[-1]
            if node.is_terminal:
                stack.pop()
                continue
            fact, method = node.next_candidate()
            child = self._expand(node, fact, method)
            if child is not None:
                if self.options.stop_on_first and child.successful:
                    return
                stack.append(child)
        self._drained = True

    def _run_best_first(self, root: SearchNode) -> None:
        counter = itertools.count()
        heap: List[Tuple[float, int, SearchNode]] = []
        heapq.heappush(heap, (root.cost, next(counter), root))
        while heap:
            if self._budget_exhausted():
                return
            _, _, node = heapq.heappop(heap)
            if node.successful:
                continue
            while node.has_pending:
                fact, method = node.next_candidate()
                child = self._expand(node, fact, method)
                if child is not None:
                    if self.options.stop_on_first and child.successful:
                        return
                    if not child.is_terminal:
                        heapq.heappush(
                            heap, (child.cost, next(counter), child)
                        )
        self._drained = True

    def _budget_exhausted(self) -> bool:
        return (
            self.options.max_nodes is not None
            and self.stats.nodes_created >= self.options.max_nodes
        )

    # --------------------------------------------------------- expansion
    def _expand(
        self, node: SearchNode, fact: Atom, method: AccessMethod
    ) -> Optional[SearchNode]:
        self.stats.nodes_expanded += 1
        tick = time.perf_counter()
        if self.options.cow_configs:
            config = node.config.copy()
        else:
            config = node.config.deep_copy()
        self.stats.time_copy += time.perf_counter() - tick
        try:
            exposed = expose_access(
                config,
                node.state,
                fact,
                method,
                self.acc,
                self.options.chase_policy,
                expose_induced=self.options.expose_induced,
            )
        except PlanningError:
            return None
        # Depth and cost read only the commands, which the exposure
        # fixed; domination reads the relevant facts, and the exposure's
        # map into a closed dominator exactly when their saturation does.
        # So every verdict comes before the chase, and only a child that
        # is kept pays for one.
        state = exposed.state
        if state.access_command_count > self.options.max_accesses:
            self.stats.pruned_by_depth += 1
            return None
        tick = time.perf_counter()
        if self.options.incremental_cost:
            new_commands = state.commands[len(node.state.commands) :]
            cost_state, cost = self.cost.delta_cost(
                node.cost_state, new_commands
            )
        else:
            cost_state, cost = None, self.cost.commands_cost(state.commands)
        self.stats.time_cost += time.perf_counter() - tick
        child = SearchNode(
            node_id=next(self._ids),
            parent_id=node.node_id,
            config=config,
            state=state,
            exposures=node.exposures + (Exposure(fact, method.name),),
            cost=cost,
            cost_state=cost_state,
        )
        if self.options.prune_by_cost and cost >= self.best_cost:
            self.stats.pruned_by_cost += 1
            child.pruned = "cost"
            self._record(child)
            return None
        chased = False
        if self.options.domination:
            # A homomorphism of the exposed child's relevant facts into
            # a registered node extends to the child's saturation only
            # if that node is closed under the free rules.  Once some
            # kept node's saturation was cut short (depth cap, blocking,
            # firing budget) that is no longer known, and the child is
            # chased first; so is a child whose own exposure the depth
            # cap cut short, which puts the cut on the log whatever the
            # verdict.
            if exposed.depth_truncated or not self.saturation_log.complete:
                self._saturate(config, exposed)
                chased = True
            dominator = self._registry.find_dominator(
                cost, config, parent=node.node_id
            )
            if dominator is not None:
                self.stats.pruned_by_domination += 1
                self.stats.dominators[dominator] += 1
                child.pruned = "domination"
                child.dominated_by = dominator
                self._record(child)
                return None
        if not chased:
            self._saturate(config, exposed)
        self._finalize_node(child, parent=node)
        return child

    def _saturate(self, config: ChaseConfiguration, exposed: Exposed) -> None:
        """Chase an exposed child's configuration under the free rules."""
        saturate_exposed(
            config,
            exposed,
            self.acc,
            self.nulls,
            self.options.chase_policy,
            self.saturation_log,
        )

    def _finalize_node(
        self, node: SearchNode, parent: Optional[SearchNode] = None
    ) -> None:
        """Success check, candidate generation, registration."""
        self.stats.nodes_created += 1
        node.generation = node.config.generation
        match = find_homomorphism(
            self._success_atoms, node.config.index, self._success_seed
        )
        if match is not None:
            node.successful = True
            self.stats.successes += 1
            plan = node.state.finish(
                tuple(self.head_nulls[v] for v in self.query.head),
                name=f"plan@{node.node_id}",
            )
            plan_cost = self.cost.plan_cost(plan)
            if plan_cost < self.best_cost:
                self.best_cost = plan_cost
                self.best_plan = plan
                self.best_proof = ChaseProof(self.query, node.exposures)
                self.stats.best_cost_history.append(plan_cost)
        elif (
            self.options.prune_by_bound
            and self.best_plan is not None
            and node.cost + self._min_access_charge >= self.best_cost
        ):
            # Branch-and-bound: this node is not successful, so every
            # descendant plan costs at least node.cost plus the margin
            # -- it can at best tie the incumbent.  Close the subtree
            # (no candidates generated); the node still registers with
            # the domination index so it keeps pruning others.
            self.stats.pruned_by_bound += 1
            node.pruned = "bound"
        else:
            tick = time.perf_counter()
            if parent is not None and self.options.incremental_candidates:
                node.candidates = self._child_candidates(node, parent)
            else:
                node.candidates = self._full_candidates(node)
            if self.options.beam_width is not None:
                node.limit = self.options.beam_width
            self.stats.time_candidates += time.perf_counter() - tick
        self._record(node)
        if self.options.domination:
            self._registry.register(
                node.node_id,
                node.cost,
                node.config,
                parent=parent.node_id if parent is not None else None,
            )

    def _record(self, node: SearchNode) -> None:
        if self.options.collect_tree:
            self.nodes.append(node)

    # -------------------------------------------------------- candidates
    def _rank(
        self, config: ChaseConfiguration, fact: Atom, method: AccessMethod
    ) -> Tuple:
        """The node-independent sort key of a candidate pair.

        Derivation depth comes from the fact's provenance, fixed at first
        insertion and shared down the branch, so a pair ranks identically
        in every configuration containing the fact -- which is what lets
        children merge inherited and fresh candidates without re-sorting.
        """
        if self.options.candidate_order == "method":
            return (
                self._method_priority[method.name],
                config.depth(fact),
                repr(fact),
            )
        return (
            config.depth(fact),
            self._method_priority[method.name],
            repr(fact),
        )

    def _full_candidates(
        self, node: SearchNode
    ) -> List[Tuple[Tuple, Atom, AccessMethod]]:
        """Candidate (fact, method) pairs for exposure, in search order.

        Full rescan of every accessed relation -- used for the root and
        as the non-incremental baseline.
        """
        config = node.config
        out: List[Tuple[Tuple, Atom, AccessMethod]] = []
        for relation, methods in self._methods_by_relation.items():
            for fact in config.facts_of(relation):
                accessed = fact.rename_relation(
                    accessed_name(fact.relation)
                )
                if accessed in config:
                    continue
                for method in methods:
                    if all(
                        config.is_accessible(fact.terms[p])
                        for p in method.input_positions
                    ):
                        out.append((self._rank(config, fact, method), fact, method))
        out.sort(key=lambda item: item[0])
        return out

    def _child_candidates(
        self, node: SearchNode, parent: SearchNode
    ) -> List[Tuple[Tuple, Atom, AccessMethod]]:
        """Incremental candidate generation from the parent's list.

        Sound because configurations only grow along a branch: a pair
        valid in the parent stays valid in the child unless its fact got
        an accessed copy (checked during inheritance), and a pair valid
        in the child but not in the parent must involve either a fact
        from the delta ``facts_since(parent.generation)`` or a fact whose
        missing input term became accessible in that delta.
        """
        config = node.config
        inherited: List[Tuple[Tuple, Atom, AccessMethod]] = []
        seen: Set[Tuple[Atom, str]] = set()
        dropped = False
        for rank, fact, method in parent.candidates:
            accessed = fact.rename_relation(accessed_name(fact.relation))
            if accessed in config:
                dropped = True
                continue
            inherited.append((rank, fact, method))
            seen.add((fact, method.name))
        fresh: List[Tuple[Tuple, Atom, AccessMethod]] = []
        new_terms: List[Term] = []
        for fact in config.facts_since(parent.generation):
            if fact.relation == ACCESSIBLE:
                new_terms.append(fact.terms[0])
                continue
            methods = self._methods_by_relation.get(fact.relation)
            if methods:
                self._try_candidate(config, fact, methods, seen, fresh)
        for term in new_terms:
            for relation, positions in self._input_positions.items():
                methods = self._methods_by_relation[relation]
                for position in positions:
                    for fact in config.index.facts_with(
                        relation, position, term
                    ):
                        self._try_candidate(
                            config, fact, methods, seen, fresh
                        )
        fresh.sort(key=lambda item: item[0])
        self.stats.candidates_inherited += len(inherited)
        self.stats.candidates_fresh += len(fresh)
        # Ranks are node-independent and the inherited list is already
        # sorted (a filtered subsequence of the parent's), so a linear
        # merge reproduces the full rescan's order exactly.  Candidate
        # lists are never mutated after construction (nodes walk them by
        # integer cursor), so when nothing was filtered and nothing is
        # fresh the parent's list can be shared by reference -- deep
        # branches stop paying an O(n) copy per child.
        if not fresh:
            return parent.candidates if not dropped else inherited
        if not inherited:
            return fresh
        return list(
            heapq.merge(inherited, fresh, key=lambda item: item[0])
        )

    def _try_candidate(
        self,
        config: ChaseConfiguration,
        fact: Atom,
        methods: Sequence[AccessMethod],
        seen: Set[Tuple[Atom, str]],
        out: List[Tuple[Tuple, Atom, AccessMethod]],
    ) -> None:
        """Append every fireable (fact, method) pair not seen before."""
        accessed = fact.rename_relation(accessed_name(fact.relation))
        if accessed in config:
            return
        for method in methods:
            key = (fact, method.name)
            if key in seen:
                continue
            if all(
                config.is_accessible(fact.terms[p])
                for p in method.input_positions
            ):
                seen.add(key)
                out.append((self._rank(config, fact, method), fact, method))
