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

:class:`PlanCache` is a thread-safe LRU with an optional on-disk tier
(one JSON file per key under a cache directory), so warmed plans
survive process restarts and can be shared between service replicas on
the same host.  Entries carry the serialized plan IR
(:mod:`repro.plans.ir`), not pickles.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro import checked_json
from repro.checked_json import checksum as entry_checksum  # an entry's digest
from repro.cost.functions import CostFunction
from repro.logic.queries import ConjunctiveQuery
from repro.logic.terms import Constant, Variable
from repro.plans.ir import PlanIRError, ir_to_plan, plan_to_ir
from repro.plans.plan import Plan
from repro.schema.core import Schema

#: Format marker + version stamped into every on-disk cache entry.
#: Version 2 added the content checksum (entries without one are
#: treated as alien -- a miss, so old caches simply re-fill).
CACHE_KIND = "repro.plan-cache"
CACHE_VERSION = 2

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
    #: "memory" or "disk" -- where this hit was served from.
    tier: str = "memory"


class PlanCache:
    """Thread-safe LRU plan cache with an optional on-disk tier.

    ``capacity`` bounds the in-memory tier (least recently *used*
    evicted first; disk entries are never evicted by capacity).  Pass
    ``directory`` to persist entries as one JSON file per key --
    corrupt or alien files are treated as misses, never as errors.
    """

    def __init__(
        self,
        capacity: int = 128,
        directory: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.directory = directory
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Plan, float]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.stores = 0
        self.invalidations = 0
        self.quarantined = 0
        self.persist_errors = 0
        if directory:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------- lookup
    def get(self, key: str) -> Optional[CachedPlan]:
        """The cached result for one key, or None (counted as a miss)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return CachedPlan(entry[0], entry[1], tier="memory")
        loaded = self._load_from_disk(key)
        with self._lock:
            if loaded is not None:
                self.hits += 1
                self.disk_hits += 1
                self._install(key, loaded.plan, loaded.cost)
                return loaded
            self.misses += 1
            return None

    def put(
        self,
        key: str,
        plan: Plan,
        cost: float,
        meta: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Store one planning result (memory, and disk if configured).

        ``meta`` is extra JSON-able context (canonical query text,
        schema fingerprint, ...) recorded in the on-disk entry for
        humans inspecting the cache dir; it does not affect lookups.
        """
        with self._lock:
            self._install(key, plan, cost)
            self.stores += 1
        if self.directory:
            entry = {
                "format": CACHE_KIND,
                "version": CACHE_VERSION,
                "key": key,
                "cost": cost,
                "plan": plan_to_ir(plan),
            }
            if meta:
                entry["meta"] = dict(meta)
            # Two threads storing one key (both missed, both searched)
            # write distinct temp files.  A failed disk write is
            # counted, not raised -- the memory tier has the entry and
            # the next put retries the disk.
            try:
                checked_json.write(self._path(key), entry)
            except OSError:
                with self._lock:
                    self.persist_errors += 1

    def invalidate(self, key: str) -> bool:
        """Drop one entry from both tiers; True when anything was dropped."""
        dropped = False
        with self._lock:
            if self._entries.pop(key, None) is not None:
                dropped = True
        if self.directory:
            try:
                os.remove(self._path(key))
                dropped = True
            except FileNotFoundError:
                pass
        if dropped:
            with self._lock:
                self.invalidations += 1
        return dropped

    def clear(self) -> None:
        """Drop every entry (memory and disk)."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self.invalidations += count
        if self.directory:
            for name in os.listdir(self.directory):
                if name.endswith(".json"):
                    try:
                        os.remove(os.path.join(self.directory, name))
                    except FileNotFoundError:
                        pass

    # ---------------------------------------------------------- internals
    def _install(self, key: str, plan: Plan, cost: float) -> None:
        self._entries[key] = (plan, cost)
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    def _load_from_disk(self, key: str) -> Optional[CachedPlan]:
        """The disk entry for one key; a corrupt one is quarantined.

        Quarantine moves the file to ``<key>.json.quarantined`` so
        operators can inspect what rotted, the slot reads as a miss
        (the planner re-plans and the next ``put`` writes a fresh
        entry), and the event is counted -- corruption is *visible and
        survivable*, never served and never fatal.
        """
        if not self.directory:
            return None
        path = self._path(key)
        try:
            entry = checked_json.read(path, CACHE_KIND, CACHE_VERSION, key=key)
            if entry is None:
                return None
            plan = ir_to_plan(entry["plan"])
        except (checked_json.CorruptFile, KeyError, TypeError, PlanIRError):
            checked_json.quarantine(path)
            with self._lock:
                self.quarantined += 1
            return None
        return CachedPlan(plan, float(entry.get("cost", 0.0)), tier="disk")

    # ------------------------------------------------------------ surface
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
                "persistent": bool(self.directory),
                "hits": self.hits,
                "misses": self.misses,
                "disk_hits": self.disk_hits,
                "stores": self.stores,
                "invalidations": self.invalidations,
                "quarantined": self.quarantined,
                "persist_errors": self.persist_errors,
                "hit_rate": self.hits / total if total else 0.0,
            }

    def __repr__(self) -> str:
        return (
            f"PlanCache({len(self)}/{self.capacity} entries, "
            f"{self.hits} hits / {self.misses} misses"
            + (f", dir={self.directory}" if self.directory else "")
            + ")"
        )
