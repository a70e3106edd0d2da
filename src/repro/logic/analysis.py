"""Static analysis of TGD sets: termination and structure.

The chase does not terminate for arbitrary TGDs; the standard sufficient
condition is **weak acyclicity** (Fagin, Kolaitis, Miller, Popa): build
the position dependency graph --

* a node per (relation, position),
* a *normal* edge from body position p to head position q whenever a
  universally-quantified variable occurs at p and is copied to q,
* a *special* edge from p to q whenever a variable at p occurs in a head
  atom that also introduces an existential variable at q --

and require that no cycle passes through a special edge.  Weakly acyclic
sets have a polynomially-bounded chase, so the planner can saturate
without blocking or budgets.

``analyze_constraints`` bundles this with the guardedness / inclusion-
dependency classification used by the paper (§5);
:meth:`repro.schema.core.Schema.chase_policy` reads the same two
properties to pick the chase policy every search of the schema runs.
The strongly connected components come from an iterative Tarjan walk
over the edge map, so the package needs nothing outside the standard
library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.logic.dependencies import TGD
from repro.logic.terms import Variable

Position = Tuple[str, int]
Edges = Dict[Tuple[Position, Position], bool]


def position_dependency_graph(constraints: Sequence[TGD]) -> Edges:
    """The FKMP position graph as ``{(source, target): special}``; an
    edge that is both normal and special is special."""
    edges: Edges = {}
    for tgd in constraints:
        body_positions: List[Tuple[Variable, Position]] = []
        for atom in tgd.body:
            for index, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    body_positions.append((term, (atom.relation, index)))
        existentials = tgd.existential_variables()
        head_var_positions: List[Tuple[Variable, Position]] = []
        head_exist_positions: List[Position] = []
        for atom in tgd.head:
            for index, term in enumerate(atom.terms):
                if isinstance(term, Variable):
                    position = (atom.relation, index)
                    if term in existentials:
                        head_exist_positions.append(position)
                    else:
                        head_var_positions.append((term, position))
        for variable, source in body_positions:
            if variable not in tgd.frontier():
                continue
            for head_variable, target in head_var_positions:
                if head_variable == variable:
                    edges.setdefault((source, target), False)
            for target in head_exist_positions:
                edges[source, target] = True
    return edges


def _component_roots(edges: Edges) -> Dict[Position, Position]:
    """Each node of the edge map mapped to the root of its strongly
    connected component (Tarjan's algorithm with an explicit stack)."""
    successors: Dict[Position, List[Position]] = {}
    for source, target in edges:
        successors.setdefault(source, []).append(target)
        successors.setdefault(target, [])
    index: Dict[Position, int] = {}
    low: Dict[Position, int] = {}
    component: Dict[Position, Position] = {}
    open_nodes: List[Position] = []
    for root in successors:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        open_nodes.append(root)
        work = [(root, iter(successors[root]))]
        while work:
            node, children = work[-1]
            for child in children:
                if child not in index:
                    index[child] = low[child] = len(index)
                    open_nodes.append(child)
                    work.append((child, iter(successors[child])))
                    break
                if child not in component:
                    # Visited and not yet assigned: still on the stack.
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        member = open_nodes.pop()
                        component[member] = node
                        if member == node:
                            break
    return component


def is_weakly_acyclic(constraints: Sequence[TGD]) -> bool:
    """True when no cycle of the position graph uses a special edge:
    no special edge joins two positions of one component."""
    edges = position_dependency_graph(constraints)
    component = _component_roots(edges)
    return not any(
        component[source] == component[target]
        for (source, target), special in edges.items()
        if special
    )


@dataclass(frozen=True)
class ConstraintAnalysis:
    """Summary of a TGD set's structure."""

    total: int
    full_tgds: int
    inclusion_dependencies: int
    guarded: bool
    weakly_acyclic: bool

    @property
    def chase_terminates(self) -> bool:
        """A *sufficient* static guarantee of chase termination."""
        return self.weakly_acyclic

    def describe(self) -> str:
        """A human-readable multi-line description."""
        notes = []
        if self.weakly_acyclic:
            notes.append("weakly acyclic (chase terminates)")
        if self.guarded:
            notes.append("guarded (blocking applies)")
        return (
            f"{self.total} TGDs ({self.full_tgds} full, "
            f"{self.inclusion_dependencies} inclusion dependencies)"
            + (": " + ", ".join(notes) if notes else "")
        )


def analyze_constraints(constraints: Sequence[TGD]) -> ConstraintAnalysis:
    """Classify a constraint set for planner policy selection."""
    constraints = list(constraints)
    return ConstraintAnalysis(
        total=len(constraints),
        full_tgds=sum(1 for tgd in constraints if tgd.is_full),
        inclusion_dependencies=sum(
            1 for tgd in constraints if tgd.is_inclusion_dependency
        ),
        guarded=all(tgd.is_guarded for tgd in constraints),
        weakly_acyclic=is_weakly_acyclic(constraints),
    )
