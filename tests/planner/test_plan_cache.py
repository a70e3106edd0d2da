"""The fingerprint-keyed plan cache: keys, LRU, goldens.

The cache key must cover the *entire* planning problem (canonical
query, schema fingerprint, cost-model identity): these tests pin the
key components as golden hex strings so an accidental change to any
ingredient -- which would silently serve a stale plan to a different
planning problem -- fails loudly here instead.
"""

import pytest

from repro.cost.functions import CostFunction, SimpleCostFunction
from repro.logic.queries import parse_cq
from repro.planner import (
    CachedPlan,
    PlanCache,
    canonical_query_text,
    find_best_plan,
    plan_cache_key,
)
from repro.planner.search import SearchOptions
from repro.schema.core import SchemaBuilder
from repro.schema.serialize import schema_fingerprint


def golden_schema():
    return (
        SchemaBuilder("golden")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[0], cost=2.0)
        .build()
    )


def join_query(name="q"):
    return parse_cq(f"{name}(a, c) :- R(a, b) & S(b, c)")


def best_plan(schema, query):
    result = find_best_plan(schema, query, SearchOptions(max_accesses=4))
    assert result.found
    return result.best_plan, result.best_cost


# ------------------------------------------------------------------ the key
class TestCacheKey:
    def test_canonical_text_excludes_query_name(self):
        assert canonical_query_text(join_query("q")) == canonical_query_text(
            join_query("renamed")
        )
        assert plan_cache_key(
            join_query("q"), golden_schema()
        ) == plan_cache_key(join_query("renamed"), golden_schema())

    def test_canonical_text_is_rendered_once_per_query_object(self):
        query = join_query()
        text = canonical_query_text(query)
        assert canonical_query_text(query) is text
        assert query == join_query() and hash(query) == hash(join_query())

    def test_different_query_different_key(self):
        schema = golden_schema()
        other = parse_cq("q(x, y) :- R(x, y)")
        assert plan_cache_key(join_query(), schema) != plan_cache_key(
            other, schema
        )

    def test_different_schema_different_key(self):
        changed = (
            SchemaBuilder("golden")
            .relation("R", 2)
            .relation("S", 2)
            .access("mt_R", "R", inputs=[], cost=1.0)
            .access("mt_S", "S", inputs=[0], cost=99.0)  # only a cost knob
            .build()
        )
        assert plan_cache_key(join_query(), golden_schema()) != (
            plan_cache_key(join_query(), changed)
        )

    def test_different_cost_model_different_key(self):
        schema = golden_schema()
        query = join_query()
        assert plan_cache_key(query, schema) != plan_cache_key(
            query, schema, SimpleCostFunction({"mt_R": 1.0})
        )
        assert plan_cache_key(
            query, schema, SimpleCostFunction({"mt_R": 1.0})
        ) != plan_cache_key(
            query, schema, SimpleCostFunction({"mt_R": 2.0})
        )

    def test_atom_order_is_preserved_not_normalized(self):
        # Reordering atoms may change the key -- that is at most a
        # cache miss, never a wrong plan, and it keeps the canonical
        # text trivially injective on the atom sequence.
        schema = golden_schema()
        reordered = parse_cq("q(a, c) :- S(b, c) & R(a, b)")
        assert plan_cache_key(join_query(), schema) != plan_cache_key(
            reordered, schema
        )


class TestGoldenPins:
    """Golden values: changing any serialization breaks these on purpose."""

    def test_schema_fingerprint_pinned(self):
        assert (
            schema_fingerprint(golden_schema())
            == "3912532a63e6195cc72b4bf792b6f0df"
        )
        assert golden_schema().fingerprint() == schema_fingerprint(
            golden_schema()
        )

    def test_canonical_query_text_pinned(self):
        assert (
            canonical_query_text(join_query())
            == "(?a,?c) :- R(?a,?b) & S(?b,?c)"
        )

    def test_plan_cache_key_pinned(self):
        assert (
            plan_cache_key(join_query(), golden_schema())
            == "db09b8d604a76c8a40a8b8a2210daa42"
        )
        assert (
            plan_cache_key(
                join_query(),
                golden_schema(),
                SimpleCostFunction({"mt_R": 1.0}, default=3.0),
            )
            == "1034e68c8ffce4ff162182f4aeb2dcf5"
        )

    def test_cost_identity_pinned(self):
        assert SimpleCostFunction({"mt_R": 1.0}, default=3.0).identity() == {
            "kind": "SimpleCostFunction",
            "per_method": {"mt_R": 1.0},
            "default": 3.0,
        }
        # A weight change moves the identity, and with it the key.
        reweighed = SimpleCostFunction({"mt_R": 2.0}, default=3.0)
        assert reweighed.identity()["per_method"] == {"mt_R": 2.0}
        assert (
            plan_cache_key(join_query(), golden_schema(), reweighed)
            != "1034e68c8ffce4ff162182f4aeb2dcf5"
        )
        base = CostFunction()
        assert base.identity() == {"kind": "CostFunction"}


# ------------------------------------------------------------------ the LRU
class TestMemoryTier:
    def test_hit_returns_stored_plan(self):
        schema = golden_schema()
        query = join_query()
        plan, cost = best_plan(schema, query)
        cache = PlanCache(capacity=4)
        key = plan_cache_key(query, schema)
        assert cache.get(key) is None
        cache.put(key, plan, cost)
        hit = cache.get(key)
        assert isinstance(hit, CachedPlan)
        assert hit.plan.describe() == plan.describe()
        assert hit.cost == cost
        counters = cache.counters()
        assert counters["hits"] == 1
        assert counters["misses"] == 1
        assert counters["stores"] == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_evicts_least_recently_used(self):
        schema = golden_schema()
        plan, cost = best_plan(schema, join_query())
        cache = PlanCache(capacity=2)
        cache.put("k1", plan, cost)
        cache.put("k2", plan, cost)
        assert cache.get("k1") is not None  # refresh k1
        cache.put("k3", plan, cost)  # evicts k2
        assert cache.get("k2") is None
        assert cache.get("k1") is not None
        assert cache.get("k3") is not None
