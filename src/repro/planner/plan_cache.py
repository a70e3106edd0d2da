"""A fingerprint-keyed cache of planning results.

The millions-of-users regime is many clients issuing *few distinct
queries* (path-view web-service workloads: every user asks "phone of
X", "reachable from Y" with different bindings).  Algorithm 1's search
is by far the most expensive step per request, yet its result depends
only on three inputs:

* the **query** (up to exact syntax -- we key on a canonical text
  rendering, see :func:`canonical_query_text`),
* the **schema** (relations, methods and their declared costs,
  constants, constraints -- keyed by the stable
  :meth:`Schema.fingerprint <repro.schema.core.Schema.fingerprint>`),
* the **cost model** and its knobs (keyed by
  :meth:`CostFunction.identity <repro.cost.functions.CostFunction.identity>`;
  a cached plan is only *best* relative to the cost model that
  picked it).

:func:`plan_cache_key` hashes exactly those three components with
BLAKE2b, so any change to any of them -- a method added, a cost knob
tweaked -- lands on a different key and can never resurrect a stale
plan.  That is the whole soundness argument: the cache maps a complete
planning *problem* to a planning *result*, never a partial one.

:class:`PlanCache` is a thread-safe LRU in process memory and nothing
else.  A restarted service re-plans each distinct query once, and that
search is bounded by ``ChasePolicy.max_work``; a plan kept on disk
would outlive the planner that picked it, with nothing to mark it when
it stops being the best plan.
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.cost.functions import CostFunction
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.plans.plan import Plan
from repro.schema.core import Schema

# ``json.dumps`` with non-default arguments builds a ``JSONEncoder`` per
# call; a cache key is rendered on every request, so the two renderings
# it uses are each one encoder.  Same arguments, byte-identical text.
_canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str
).encode
_constant_json = json.JSONEncoder(sort_keys=True, default=str).encode


def canonical_query_text(query: ConjunctiveQuery) -> str:
    """A deterministic text rendering of a conjunctive query.

    Variables render as ``?name``, constants as their JSON encoding
    (which keeps ``3``, ``3.0``, ``"3"`` and ``true`` apart).  The
    query *name* is deliberately excluded: it labels the request, it
    does not change the planning problem.  Atom order is preserved --
    reordered bodies key differently, which costs at most a cache miss,
    never a wrong plan.

    A query is immutable, so its text is rendered once and kept on the
    query object (outside its fields, like ``NamedTable.column_map``):
    a service keys every request that reuses one query object.
    """
    try:
        return query._canonical_text  # type: ignore[attr-defined]
    except AttributeError:
        pass

    def render(term: object) -> str:
        """Render one head/body term deterministically."""
        if isinstance(term, Variable):
            return f"?{term.name}"
        if isinstance(term, Constant):
            return _constant_json(term.value)
        raise ValueError(f"cannot render query term {term!r}")

    head = ",".join(render(v) for v in query.head)
    body = " & ".join(
        f"{atom.relation}({','.join(render(t) for t in atom.terms)})"
        for atom in query.atoms
    )
    text = f"({head}) :- {body}"
    object.__setattr__(query, "_canonical_text", text)
    return text


def plan_cache_key(
    query: ConjunctiveQuery,
    schema: Schema,
    cost: Optional[CostFunction] = None,
) -> str:
    """The BLAKE2b cache key of one planning problem.

    Hashes the canonical query text, the schema fingerprint and the
    cost-model identity together; ``cost=None`` keys as the planner's
    default (per-method declared costs), which is what
    ``find_best_plan`` resolves it to.
    """
    identity: Dict[str, Any]
    if cost is None:
        identity = {"kind": "default"}
    else:
        identity = cost.identity()
    payload = _canonical_json(
        {
            "query": canonical_query_text(query),
            "schema": schema.fingerprint(),
            "cost": identity,
        }
    )
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=16
    ).hexdigest()


@dataclass(frozen=True)
class CachedPlan:
    """One cached planning result."""

    plan: Plan
    cost: float


class PlanCache:
    """Thread-safe LRU plan cache.

    ``capacity`` bounds the number of entries; the least recently
    *used* one is evicted first.
    """

    def __init__(self, capacity: int = 128) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Plan, float]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, key: str) -> Optional[CachedPlan]:
        """The cached result for one key, or None (counted as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return CachedPlan(*entry)

    def put(self, key: str, plan: Plan, cost: float) -> None:
        """Store one planning result, evicting past ``capacity``."""
        with self._lock:
            self._entries[key] = (plan, cost)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            self.stores += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def counters(self) -> Dict[str, Any]:
        """A JSON-able snapshot of the cache counters (for health())."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self)}/{self.capacity} entries, "
            f"{self.hits} hits / {self.misses} misses)"
        )
