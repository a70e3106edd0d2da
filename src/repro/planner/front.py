"""The planning front: a request's query to a plan, or to a verdict.

:func:`plan_request` answers a request with the plan of a proof of its
query over ``AcSch(S)`` (Thms 1-3, 5), minus the dead methods under an
outage (Prop 2).  When no plan survives, the accessible part of the
surviving schema (:func:`accessible_answer`) is the most the interface
reveals (Benedikt-Bourhis-Ley).  The front takes no lock, keeps no books
and sees no ticket: ``QueryService`` books what it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.data.accessible_part import accessible_part
from repro.logic.atoms import Atom
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Constant, _to_constant
from repro.planner.plan_cache import PlanCache, plan_cache_key
from repro.planner.search import SearchOptions, find_best_plan
from repro.plans.expressions import NamedTable
from repro.plans.plan import Plan
from repro.schema.core import Schema

Bindings = Dict[Constant, Constant]


@dataclass(frozen=True)
class Planned:
    """A plan that answers the request.

    ``bindings`` rename the plan's constants when it runs; ``None`` when
    the plan answers the bound query as it stands.  ``searched`` says
    whether Algorithm 1 ran for it (False: a plan-cache hit).
    """

    plan: Plan
    bindings: Optional[Bindings]
    searched: bool


@dataclass(frozen=True)
class NoPlan:
    """No plan within the search budget avoids the dead methods.

    ``query`` is the bound query and ``schema`` the surviving schema the
    search ran over: :func:`accessible_answer` of the two is what may
    still be served.  ``dead`` is the dead set the search avoided.
    """

    query: ConjunctiveQuery
    schema: Schema
    dead: Tuple[str, ...]
    searched: bool = True


def plan_request(
    schema: Schema,
    query: ConjunctiveQuery,
    *,
    bindings: Optional[Mapping[object, object]] = None,
    dead: Iterable[str] = (),
    options: Optional[SearchOptions] = None,
    cache: Optional[PlanCache] = None,
) -> Union[Planned, NoPlan]:
    """Plan ``query`` with ``bindings`` over ``schema`` minus ``dead``.

    The plan of ``query`` answers the bound query once its constants are
    rewritten (``docs/theory.md``, "Rebinding a plan") unless a binding
    renames a constant some constraint mentions, or merges two constants
    of the query.  Then the bound query is planned, over the schema with
    the bound values added as constants, and comes back unbound.  The
    cache key holds the surviving schema's fingerprint, so a dead set
    keys its own entry, and no search option: ``stop_on_first`` neither
    reads nor writes the cache, and callers that vary ``max_accesses``
    share the first one's plan.
    """
    options = options if options is not None else SearchOptions()
    mapping = bindings and {
        _to_constant(key): _to_constant(value)
        for key, value in bindings.items()
    }
    if mapping and not _rewrite_is_sound(schema, query, mapping):
        supplied = tuple(
            value for value in dict.fromkeys(mapping.values())
            if value not in schema.constants
        )
        schema = Schema(
            schema.relations, schema.methods, schema.constants + supplied,
            schema.constraints, name=schema.name,
        )
        query, mapping = _bound(query, mapping), None
    dead = tuple(dead)
    surviving = schema.without_methods(dead) if dead else schema
    key = None
    if cache is not None and not options.stop_on_first:
        key = plan_cache_key(query, surviving, options.cost)
        hit = cache.get(key)
        if hit is not None:
            return Planned(hit.plan, mapping, searched=False)
    result = find_best_plan(surviving, query, options)
    if not result.found:
        return NoPlan(_bound(query, mapping), surviving, dead)
    if key is not None:
        cache.put(key, result.best_plan, result.best_cost)
    return Planned(result.best_plan, mapping, searched=True)


def accessible_answer(surviving: Schema, instance, query) -> NamedTable:
    """``query`` over ``AccPart`` of what the surviving methods reveal:
    a sound under-approximation of the certain answers, served (marked
    partial) when :func:`plan_request` returns :class:`NoPlan`."""
    part = accessible_part(surviving, instance)
    return NamedTable(
        tuple(variable.name for variable in query.head),
        frozenset(part.as_instance().evaluate(query)),
    )


def _rewrite_is_sound(schema: Schema, query, mapping: Bindings) -> bool:
    """Whether renaming the plan's constants by ``mapping`` gives a plan
    for the bound query: no constraint mentions a renamed constant, and
    no two constants of the query meet."""
    constants = query.constants()
    return mapping.keys().isdisjoint(schema.constraint_constants()) and len(
        {mapping.get(c, c) for c in constants}
    ) == len(constants)


def _bound(query: ConjunctiveQuery, mapping: Optional[Bindings]):
    """``query`` with ``mapping`` substituted into its body atoms."""
    if not mapping:
        return query
    atoms = tuple(
        Atom(atom.relation, tuple(mapping.get(t, t) for t in atom.terms))
        for atom in query.atoms
    )
    return ConjunctiveQuery(query.head, atoms, name=query.name)
