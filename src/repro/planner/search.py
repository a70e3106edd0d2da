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
  already costs at least as much as the best complete plan found, and
  any non-successful node that the cheapest further access
  (``CostFunction.min_access_charge()``) would carry that far: its
  descendants could at best tie the incumbent (``docs/theory.md``,
  "Branch-and-bound in Algorithm 1");
* domination -- a new node is discarded when an already-explored node has
  "at least as many useful facts" (a homomorphism over the original,
  inferred-accessible and accessible relations, fixing the canonical
  constants of the query's free variables) at no higher cost.

Search order is the paper's: depth-first on the leftmost branch, with
candidates ordered by derivation depth and methods by expected cost, or
by the fixed method priority of Figure 1.  A cheapest-partial-plan
frontier measured the same best cost on every recorded problem, faster
on some and slower on others, and was removed (EXPERIMENTS.md,
SEARCH-ORDER).

There is one loop (``docs/theory.md``, "Search-state indexing and
incrementality"), and what it keeps from a parent is what measured as a
win on ``plan_cold``:

* a child's configuration is a copy-on-write fork that shares its
  parent's fact log as a prefix, made only for a child that depth, cost
  and domination let through: the first two read the commands, which
  the read-only half of the exposure fixes, and domination reads the
  parent's configuration plus the facts the exposure would write
  (``docs/theory.md``, "Pruning before saturation" and "Domination
  before the fork");
* the domination registry (:mod:`repro.planner.domination`), told the
  child's parent, builds the child's signature from the parent's and
  maps only what the branch added below the ancestor the child shares
  with each candidate dominator.

Candidates are ranked per kept node from its own configuration and a
child is priced by ``commands_cost`` of its commands: inheriting the
parent's candidate list and costing only the appended commands were
both built, measured at no wall-clock effect, and removed
(EXPERIMENTS.md, FORKS).
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chase.configuration import ChaseConfiguration
from repro.chase.stats import ChaseStats
from repro.cost.functions import (
    CostFunction,
    CountingCostFunction,
    SimpleCostFunction,
)
from repro.logic.atoms import Atom, Substitution
from repro.logic.homomorphisms import find_homomorphism
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Null, NullFactory, Variable
from repro.obs import Record
from repro.planner.domination import DominationStats, FingerprintRegistry
from repro.planner.plan_state import PlanState, PlanningError
from repro.planner.proof_to_plan import (
    ChaseProof,
    Exposure,
    exposure_writes,
    initial_configuration,
    read_exposure,
    saturate_exposed,
    success_pattern,
    write_exposure,
)
from repro.plans.plan import Plan
from repro.schema.accessible import (
    AccessibleSchema,
    Variant,
    accessed_name,
    infacc_name,
    is_accessed_name,
    is_infacc_name,
)
from repro.schema.core import AccessMethod, Schema


CANDIDATE_ORDERS = ("depth", "method")


@dataclass
class SearchOptions:
    """What Algorithm 1 searches: the access budget, the cost function,
    which prunings run and in which order a node's candidates are tried.
    Every field changes the tree explored or when the search stops; none
    selects an implementation.  The chase policy is not an option: it is
    the schema's (:meth:`~repro.schema.core.Schema.chase_policy`)."""

    max_accesses: int = 6
    cost: Optional[CostFunction] = None
    # The paper's cost-bound optimisation, both halves: a child whose
    # cost reaches the incumbent is closed, and so is a non-successful
    # node whose cost plus ``CostFunction.min_access_charge()`` does
    # (every descendant appends at least one more access command, so it
    # could at best *tie* the incumbent).
    prune_by_cost: bool = True
    domination: bool = True
    # Candidate ordering within a node: "depth" prefers facts of minimal
    # derivation depth (paper default), "method" prefers the cheapest
    # method first (the fixed method priority of Example 5 / Figure 1).
    candidate_order: str = "depth"
    stop_on_first: bool = False
    collect_tree: bool = False

    def __post_init__(self) -> None:
        if self.candidate_order not in CANDIDATE_ORDERS:
            raise ValueError(
                f"unknown candidate_order {self.candidate_order!r}; "
                f"expected one of {CANDIDATE_ORDERS}"
            )
        if self.max_accesses < 0:
            raise ValueError("max_accesses must be non-negative")


@dataclass
class SearchStats(Record):
    """Counters reported by one search run."""

    nodes_created: int = 0
    nodes_expanded: int = 0
    successes: int = 0
    pruned_by_cost: int = 0
    pruned_by_bound: int = 0
    pruned_by_domination: int = 0
    pruned_by_depth: int = 0
    # Configurations forked: one per kept child (nodes_created - 1; the
    # root is built, not forked), plus one per child closed by
    # domination after its chase -- only when its exposure was depth-cut
    # or some saturation incomplete.
    configs_copied: int = 0
    best_cost_history: List[float] = field(default_factory=list)
    # Aggregated instrumentation of every per-node chase saturation.
    chase: ChaseStats = field(default_factory=ChaseStats)
    # Domination-check breakdown (see repro.planner.domination).
    domination: DominationStats = field(default_factory=DominationStats)
    # Dominator node id -> how many expanded children it absorbed.
    dominators: Counter = field(default_factory=Counter)
    # Wall time forking configurations, ranking candidates and pricing
    # children.
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
                f"time: copy={self.time_copy:.4f}s "
                f"({self.configs_copied} configs) "
                f"candidates={self.time_candidates:.4f}s "
                f"cost={self.time_cost:.4f}s",
            ]
        )


@dataclass
class SearchNode:
    """One node of the partial proof tree."""

    node_id: int
    parent_id: Optional[int]
    # The node's own configuration -- except for a child closed before
    # its fork (``pruned == "cost"``, and ``"domination"`` unless the
    # exposure was depth-cut or some saturation incomplete), where it is
    # the one the verdict was read from: the parent's, unexposed.
    config: ChaseConfiguration
    state: PlanState
    exposures: Tuple[Exposure, ...]
    cost: float
    successful: bool = False
    pruned: Optional[str] = None
    # For ``pruned == "domination"``: the id of the registered node the
    # relevant facts of this one map into.
    dominated_by: Optional[int] = None
    # Full ranked candidate list (rank, fact, method); ``cursor`` walks
    # it in O(1) per candidate.
    candidates: List[Tuple[Tuple, Atom, AccessMethod]] = field(
        default_factory=list
    )
    cursor: int = 0

    @property
    def pending(self) -> List[Tuple[Atom, AccessMethod]]:
        """Remaining (fact, method) candidates, in search order."""
        return [
            (fact, method)
            for _, fact, method in self.candidates[self.cursor :]
        ]

    @property
    def has_pending(self) -> bool:
        """Whether any candidate remains to be expanded."""
        return self.cursor < len(self.candidates)

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
) -> SearchResult:
    """First-proof search: stop at the first complete plan found."""
    options = SearchOptions(
        max_accesses=max_accesses,
        cost=CountingCostFunction(),
        stop_on_first=True,
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
        self._registry: Optional[FingerprintRegistry] = None
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

    # ------------------------------------------------------------- setup
    def _make_root(self) -> SearchNode:
        config, frozen = initial_configuration(
            self.acc, self.query, self.nulls, self.stats.chase
        )
        self.head_nulls = frozen
        self._success_atoms, self._success_seed = success_pattern(
            self.query, frozen
        )
        rigid = frozenset(self.head_nulls.values())
        # Tests shadow this registry by replacing the module's name for
        # its class; no option selects another one.
        self._registry = FingerprintRegistry(
            Substitution({null: null for null in rigid}), rigid
        )
        self._registry.stats = self.stats.domination
        root = SearchNode(
            node_id=next(self._ids),
            parent_id=None,
            config=config,
            state=PlanState(),
            exposures=(),
            cost=0.0,
        )
        self._finalize_node(root)
        return root

    # ------------------------------------------------------------- main
    def run(self) -> SearchResult:
        """Walk the bounded proof space depth-first and package the best
        plan found (if any) with its statistics."""
        self._run_dfs(self._make_root())
        return SearchResult(
            best_plan=self.best_plan,
            best_cost=self.best_cost,
            best_proof=self.best_proof,
            stats=self.stats,
            tree=tuple(self.nodes) if self.options.collect_tree else (),
            exhausted=self._drained and not self.stats.chase.incomplete,
        )

    def _run_dfs(self, root: SearchNode) -> None:
        stack = [root]
        while stack:
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

    # --------------------------------------------------------- expansion
    def _expand(
        self, node: SearchNode, fact: Atom, method: AccessMethod
    ) -> Optional[SearchNode]:
        self.stats.nodes_expanded += 1
        try:
            state, facts = read_exposure(
                node.config, node.state, fact, method
            )
        except PlanningError:
            return None
        # Depth and cost read only the commands, which the read half
        # fixed: a child they close never gets a configuration of its
        # own.  Domination reads the relevant facts, and the exposure's
        # map into a closed dominator exactly when their saturation
        # does.  So every verdict comes before the chase, and only a
        # child that is kept pays for one.
        if state.access_command_count > self.options.max_accesses:
            self.stats.pruned_by_depth += 1
            return None
        tick = time.perf_counter()
        cost = self.cost.commands_cost(state.commands)
        self.stats.time_cost += time.perf_counter() - tick
        child = SearchNode(
            node_id=next(self._ids),
            parent_id=node.node_id,
            config=node.config,
            state=state,
            exposures=node.exposures + (Exposure(fact, method.name),),
            cost=cost,
        )
        if self.options.prune_by_cost and cost >= self.best_cost:
            self.stats.pruned_by_cost += 1
            child.pruned = "cost"
            self._record(child)
            return None
        writes = exposure_writes(node.config, facts, method, self.acc)
        # A homomorphism of the exposed child's relevant facts into a
        # registered node extends to the child's saturation only if that
        # node is closed under the free rules.  Once some kept node's
        # saturation was cut short (depth cap, blocking, work budget)
        # that is no longer known, and the child is forked, written and
        # chased first; so is a child whose own exposure the depth cap
        # cut short, which puts the cut on the log whatever the verdict.
        # Otherwise the child's relevant facts are its parent's plus the
        # heads its exposure writes, and it is judged on those before it
        # is forked (``docs/theory.md``, "Domination before the fork").
        late = bool(writes.depth_truncated or self.stats.chase.incomplete)
        if self.options.domination and not late:
            dominator = self._registry.find_dominator(
                cost, node.config, parent=node.node_id, added=writes.facts
            )
            if dominator is not None:
                return self._dominated(child, dominator)
        tick = time.perf_counter()
        config = child.config = node.config.copy()
        self.stats.time_copy += time.perf_counter() - tick
        self.stats.configs_copied += 1
        exposed = write_exposure(
            config, state, facts, method, self.acc, writes
        )
        saturate_exposed(
            config, exposed, self.acc, self.nulls, self.stats.chase
        )
        if self.options.domination and late:
            dominator = self._registry.find_dominator(
                cost, config, parent=node.node_id
            )
            if dominator is not None:
                return self._dominated(child, dominator)
        self._finalize_node(child, parent=node.node_id)
        return child

    def _dominated(self, child: SearchNode, dominator: int) -> None:
        """Close a child by domination and record it."""
        self.stats.pruned_by_domination += 1
        self.stats.dominators[dominator] += 1
        child.pruned = "domination"
        child.dominated_by = dominator
        self._record(child)

    def _finalize_node(
        self, node: SearchNode, parent: Optional[int] = None
    ) -> None:
        """Success check, candidate generation, registration."""
        self.stats.nodes_created += 1
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
            self.options.prune_by_cost
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
            node.candidates = self._candidates(node.config)
            self.stats.time_candidates += time.perf_counter() - tick
        self._record(node)
        if self.options.domination:
            self._registry.register(
                node.node_id, node.cost, node.config, parent=parent
            )

    def _record(self, node: SearchNode) -> None:
        if self.options.collect_tree:
            self.nodes.append(node)

    # -------------------------------------------------------- candidates
    def _rank(
        self, config: ChaseConfiguration, fact: Atom, method: AccessMethod
    ) -> Tuple:
        """The sort key of a candidate pair.

        Derivation depth comes from the fact's provenance, fixed at first
        insertion and shared down the branch, so a pair ranks identically
        in every configuration containing the fact.
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

    def _candidates(
        self, config: ChaseConfiguration
    ) -> List[Tuple[Tuple, Atom, AccessMethod]]:
        """Candidate (fact, method) pairs for exposure, in search order:
        every fact of an accessed relation with no accessed copy yet,
        under every method whose input positions hold accessible terms.
        """
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
