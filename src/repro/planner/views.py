"""Theorem 6: conjunctive rewriting over views by chasing.

View-based access restrictions are the special case where some relations
(the views ``V_i``) are fully accessible and constraints state each view
equivalent to a conjunctive query ``Q_i`` over a hidden base signature.
The paper shows the accessible-schema chase terminates in polynomially
many steps here, so chase-then-check decides whether a CQ over the base
can be rewritten as a CQ over the views -- recovering the seminal
answering-queries-using-views result of Levy, Mendelzon, Sagiv and
Srivastava.

:func:`views_schema` compiles view definitions into the two inclusion
TGDs per view; :func:`rewrite_over_views` runs the proof search and, on
success, also reads the rewriting back as a conjunctive query over the
view relations (every exposure in the proof contributes one view atom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.atoms import Atom
from repro.logic.dependencies import TGD
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Constant, Null, Term, Variable
from repro.planner.proof_to_plan import ChaseProof
from repro.planner.search import (
    SearchOptions,
    SearchResult,
    find_best_plan,
)
from repro.cost.functions import CountingCostFunction
from repro.plans.plan import Plan
from repro.schema.core import AccessMethod, Relation, Schema, SchemaError


@dataclass(frozen=True)
class ViewDefinition:
    """A view relation defined by a conjunctive query over the base."""

    name: str
    definition: ConjunctiveQuery

    @property
    def arity(self) -> int:
        """Arity of the view relation (its head width)."""
        return len(self.definition.head)


@dataclass
class ViewRewritingResult:
    """Outcome of a view-rewriting attempt."""

    rewritable: bool
    plan: Optional[Plan]
    rewriting: Optional[ConjunctiveQuery]
    search: SearchResult


def views_schema(
    base_relations: Sequence[Relation],
    views: Sequence[ViewDefinition],
    constants: Sequence[Constant] = (),
    extra_constraints: Sequence[TGD] = (),
    name: str = "views",
    view_inputs: Optional[Dict[str, Sequence[int]]] = None,
) -> Schema:
    """A schema where only the views are accessible.

    Each view contributes two TGDs: definition-to-view (the view contains
    every tuple its definition derives) and view-to-definition (each view
    tuple is witnessed).  Base relations get no access method; views get
    free access by default, or the binding pattern given in
    ``view_inputs`` (the views-with-access-patterns setting of Deutsch,
    Ludäscher and Nash that the paper's §1 relates itself to).
    """
    relations: List[Relation] = list(base_relations)
    methods: List[AccessMethod] = []
    constraints: List[TGD] = list(extra_constraints)
    base_names = {r.name for r in base_relations}
    for view in views:
        if view.name in base_names:
            raise SchemaError(
                f"view {view.name} collides with a base relation"
            )
        head = view.definition.head
        if len(set(head)) != len(head):
            raise SchemaError(
                f"view {view.name}: repeated head variable unsupported"
            )
        relations.append(Relation(view.name, view.arity))
        inputs = tuple((view_inputs or {}).get(view.name, ()))
        methods.append(
            AccessMethod(f"mt_{view.name}", view.name, inputs)
        )
        view_atom = Atom(view.name, tuple(head))
        constraints.append(
            TGD(
                view.definition.atoms,
                (view_atom,),
                name=f"def->{view.name}",
            )
        )
        constraints.append(
            TGD(
                (view_atom,),
                view.definition.atoms,
                name=f"{view.name}->def",
            )
        )
    return Schema(relations, methods, constants, constraints, name=name)


def rewrite_over_views(
    schema: Schema,
    query: ConjunctiveQuery,
    max_accesses: int = 8,
) -> ViewRewritingResult:
    """Decide CQ rewritability over the views of a view schema.

    The schema must come from :func:`views_schema` (or be shaped the same
    way: only fully-accessible relations carry methods).  The chase on the
    generated accessible schema terminates for view constraints, so a
    failed bounded search is a genuine "no" whenever the chase reached its
    fixpoint within budget.
    """
    options = SearchOptions(
        max_accesses=max_accesses,
        cost=CountingCostFunction(),
        stop_on_first=True,
    )
    search = find_best_plan(schema, query, options)
    if not search.found:
        return ViewRewritingResult(False, None, None, search)
    rewriting = _rewriting_from_proof(search.best_proof, query)
    return ViewRewritingResult(True, search.best_plan, rewriting, search)


def _rewriting_from_proof(
    proof: ChaseProof, query: ConjunctiveQuery
) -> ConjunctiveQuery:
    """Read the CQ-over-views off the proof's exposures.

    Every exposed fact ``V(c1..cn)`` becomes an atom with one variable per
    chase constant; the head variables are those standing for the query's
    free variables (canonical nulls are named ``<query>_<var>``).
    """
    def var_of(term: Term) -> Term:
        """Chase constants become variables; schema constants stay."""
        if isinstance(term, Null):
            return Variable(term.name)
        return term

    atoms = tuple(
        Atom(e.fact.relation, tuple(var_of(t) for t in e.fact.terms))
        for e in proof.exposures
    )
    _facts, frozen = query.canonical_database()
    head = tuple(Variable(frozen[v].name) for v in query.head)
    return ConjunctiveQuery(head, atoms, name=f"{query.name}_over_views")
