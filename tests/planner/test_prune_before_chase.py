"""Algorithm 1 prunes on the exposure and saturates only what it keeps.

``_Searcher._expand`` decides depth, cost and domination before the
child's chase (and, for domination, before its fork).  There is no switch back to the eager order, so the
claims are checked from the outside:

* every recorded verdict is re-derived on a *saturated* copy of the
  node (the verdict the eager order would have reached);
* the counters and the chosen proofs of the end-to-end benchmark's
  thirteen planning problems are pinned to the values the eager order
  produced;
* searches whose saturations are incomplete (depth cap, blocking), where
  the closure argument does not apply, reproduce the eager order's tree
  node for node.
"""

import pytest

from repro.chase.engine import ChasePolicy, saturate
from repro.logic.atoms import Substitution
from repro.logic.homomorphisms import find_homomorphism
from repro.logic.queries import cq
from repro.logic.terms import NullFactory
from repro.planner import search as search_module
from repro.planner.domination import LinearRegistry, relevant_facts
from repro.planner.proof_to_plan import expose_access, replay_proof
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import (
    example1,
    example2,
    example5,
    path_views,
    redundant_sources,
    referential_chain,
    view_stack_scenario,
    webservices,
)
from repro.schema.accessible import AccessibleSchema, Variant
from repro.schema.core import SchemaBuilder

SCENARIOS = {
    "example1": (example1, 6),
    "example2": (example2, 6),
    "example5": (example5, 6),
    "redundant4": (lambda: redundant_sources(4), 6),
    "chain3": (lambda: referential_chain(3), 6),
    "pathviews4": (lambda: path_views(4), 6),
    "views": (view_stack_scenario, 6),
    "webservices": (webservices, 8),
}


def dfs_ids(names):
    """Parameters whose test ids name the walk, as the golden keys of
    ``golden/search_trees.json`` do."""
    return [pytest.param(name, id=f"{name}-dfs") for name in names]


def search(schema, query, **options):
    return find_best_plan(
        schema, query, SearchOptions(collect_tree=True, **options)
    )


def shadow_policy(monkeypatch, schema, policy):
    """Make every search of ``schema`` chase under ``policy``.  A schema
    derives its policy from its constraints and no option sets another;
    the tests that need one the schema would not choose shadow the
    method on that one instance."""
    monkeypatch.setattr(schema, "chase_policy", lambda: policy)


def saturated_copy(node, acc, parent=None):
    """The node's configuration chased to fixpoint under *all* free
    rules from generation 0: independent of the exposure/saturation
    split the search relies on.  A child closed before its fork holds
    its ``parent``'s configuration; its exposure is replayed first."""
    clone = node.config.copy()
    if parent is not None and node.config is parent.config:
        exposure = node.exposures[-1]
        expose_access(
            clone,
            parent.state,
            exposure.fact,
            acc.schema.method(exposure.method),
            acc,
        )
    saturate(clone, acc.free_rules, NullFactory("t"))
    return clone


# ------------------------------------------------- (a) differential tree
@pytest.mark.parametrize("index", ["fingerprint", "linear", "differential"])
@pytest.mark.parametrize("order", ["depth", "method"])
@pytest.mark.parametrize("name", dfs_ids(sorted(SCENARIOS)))
def test_every_verdict_holds_after_saturation(
    monkeypatch, name, order, index
):
    """``index`` is what stood at the searcher's registry seam: its own
    registry, the from-scratch reference scan, or its own with every
    check repeated from scratch (``test_domination_delta.py``)."""
    if index != "fingerprint":
        # That module imports this one.
        from tests.planner.test_domination_delta import ShadowedRegistry

        monkeypatch.setattr(
            search_module,
            "FingerprintRegistry",
            LinearRegistry if index == "linear" else ShadowedRegistry,
        )
    factory, budget = SCENARIOS[name]
    scenario = factory()
    result = search(
        scenario.schema,
        scenario.query,
        max_accesses=budget,
        candidate_order=order,
    )
    assert result.found
    acc = AccessibleSchema(scenario.schema, Variant.FORWARD)
    rigid = frozenset(scenario.query.canonical_database()[1].values())
    frozen = Substitution({null: null for null in rigid})
    # Node ids are handed out in registration order, so replaying the
    # tree by id rebuilds the registry each check ran against.
    registry = LinearRegistry(frozen, rigid)
    by_id = {node.node_id: node for node in result.tree}
    assert sorted(by_id) == [node.node_id for node in result.tree]
    pruned = kept = 0
    for node in result.tree:
        if node.pruned == "cost":
            continue
        if node.pruned == "domination":
            pruned += 1
            dominator = by_id[node.dominated_by]
            assert dominator.node_id < node.node_id
            assert dominator.pruned in (None, "bound")
            assert dominator.cost <= node.cost + 1e-12
            chased = saturated_copy(node, acc, by_id[node.parent_id])
            assert (
                find_homomorphism(
                    relevant_facts(chased),
                    dominator.config.index,
                    frozen,
                    map_nulls=True,
                )
                is not None
            )
            continue
        kept += 1
        assert node.dominated_by is None
        if node.parent_id is not None:
            chased = saturated_copy(node, acc)
            assert set(chased) == set(node.config)  # kept => saturated
            assert registry.find_dominator(node.cost, chased) is None
        registry.register(node.node_id, node.cost, node.config)
    assert pruned == result.stats.pruned_by_domination
    assert kept == result.stats.nodes_created
    assert sum(result.stats.dominators.values()) == pruned


# ----------------------------------------- (b) golden counters, plan_cold
# (created, expanded, pruned_by_cost, pruned_by_domination, best_cost,
# best proof as "relation/method" steps) of ``benchmarks/e2e`` workload
# ``plan_cold``, recorded from the eager order (commit 5b6806f).  Skipped
# saturations mint fewer nulls, so null *names* differ from that commit
# and the ``repr(fact)`` tie-break of ``_rank`` could in principle reorder
# equal-rank candidates: this table is what shows it did not.  Since the
# incumbent bound is part of cost pruning, the children of a bound-closed
# node are not read: expanded and pruned_by_cost of the four example5
# rows stand 2, 16, 22 and 28 below the eager order's, together.
PLAN_COLD = {
    "example1": (example1, 6, 3, 2, 0, 0, 3.0,
                 "Udirect/mt_udir Profinfo/mt_prof"),
    "example2": (example2, 6, 6, 6, 0, 1, 6.0,
                 "Names/mt_names Ids/mt_ids Direct1/mt_d1 Direct2/mt_d2"),
    "example5[3]": (lambda: example5(3), 6, 8, 16, 6, 3, 6.0,
                    "Udirect1/mt_udirect1 Profinfo/mt_prof"),
    "example5[6]": (lambda: example5(6), 7, 11, 40, 26, 4, 6.0,
                    "Udirect1/mt_udirect1 Profinfo/mt_prof"),
    "example5[8]": (lambda: example5(8), 6, 11, 54, 40, 4, 6.0,
                    "Udirect1/mt_udirect1 Profinfo/mt_prof"),
    "example5[10]": (lambda: example5(10), 6, 11, 68, 54, 4, 6.0,
                     "Udirect1/mt_udirect1 Profinfo/mt_prof"),
    "chain[8]": (lambda: referential_chain(8), 10, 10, 9, 0, 0, 17.0,
                 "K7/mt_K7 " + " ".join(
                     f"R{i}/mt_R{i}" for i in range(7, -1, -1))),
    "pathviews[6]": (lambda: path_views(6), 8, 8, 7, 0, 0, 13.0,
                     "Entry/mt_entry " + " ".join(
                         f"Hop{i}/mt_hop{i}" for i in range(1, 7))),
    "pathviews[12]": (lambda: path_views(12), 14, 14, 13, 0, 0, 25.0,
                      "Entry/mt_entry " + " ".join(
                          f"Hop{i}/mt_hop{i}" for i in range(1, 13))),
    "webservices": (webservices, 8, 6, 6, 1, 0, 8.0,
                    "Venues/mt_venues VenueListing/mt_listing "
                    "Articles/mt_article AuthorOf/mt_authors"),
    "views[8]": (lambda: view_stack_scenario(8), 6, 4, 17, 0, 14, 1.0,
                 "VFULL/mt_VFULL"),
    "views[16]": (lambda: view_stack_scenario(16), 6, 4, 33, 0, 30, 1.0,
                  "VFULL/mt_VFULL"),
    "views[32]": (lambda: view_stack_scenario(32), 6, 4, 65, 0, 62, 1.0,
                  "VFULL/mt_VFULL"),
}


def proof_steps(result):
    return " ".join(
        f"{e.fact.relation}/{e.method}" for e in result.best_proof.exposures
    )


@pytest.mark.parametrize("key", list(PLAN_COLD))
def test_plan_cold_counters_and_proofs_match_eager_order(key):
    factory, budget, created, expanded, by_cost, by_dom, cost, steps = (
        PLAN_COLD[key]
    )
    scenario = factory()
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=budget)
    )
    stats = result.stats
    assert (
        stats.nodes_created,
        stats.nodes_expanded,
        stats.pruned_by_cost,
        stats.pruned_by_domination,
        stats.pruned_by_depth,
    ) == (created, expanded, by_cost, by_dom, 0)
    assert result.best_cost == cost
    assert proof_steps(result) == steps
    assert result.exhausted
    # (e) every saturation here is complete, so the chase ran once per
    # node kept in the tree -- not once per expansion.
    assert stats.chase.runs == stats.nodes_created
    # (d) the proof replays into the very plan the search assembled.  A
    # replay mints its own nulls, so (as before this change) only proofs
    # over the query's canonical nulls can be replayed at all.
    canonical = set(scenario.query.canonical_database()[1].values())
    if all(
        set(e.fact.nulls()) <= canonical
        for e in result.best_proof.exposures
    ):
        acc = AccessibleSchema(scenario.schema, Variant.FORWARD)
        replayed = replay_proof(acc, result.best_proof)
        assert repr(replayed.plan.commands) == repr(
            result.best_plan.commands
        )
    else:
        assert key in ("example2", "chain[8]")


def test_plan_cold_plan_cost_sum():
    assert sum(row[6] for row in PLAN_COLD.values()) == 99.0


# ------------------------------------------- (c) incomplete saturations
def cyclic_schema():
    """Three free directories feeding a cyclic guarded rule: the chase
    only ends by blocking or a depth cap, and the cheap directory makes
    cost and domination prunes both happen."""
    schema = (
        SchemaBuilder("cyc")
        .relation("Dir1", 1)
        .relation("Dir2", 1)
        .relation("Dir3", 1)
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_d1", "Dir1", inputs=[], cost=1.0)
        .access("mt_d2", "Dir2", inputs=[], cost=2.0)
        .access("mt_d3", "Dir3", inputs=[], cost=3.0)
        .access("mt_r", "R", inputs=[0], cost=1.0)
        .access("mt_s", "S", inputs=[0], cost=1.0)
        .tgd("R(x, y) -> Dir1(x)")
        .tgd("R(x, y) -> Dir2(x)")
        .tgd("R(x, y) -> Dir3(x)")
        .tgd("R(x, y) -> R(y, z)")
        .tgd("R(x, y) -> S(y, w)")
        .build()
    )
    return schema, cq([], [("R", ["?x", "?y"]), ("S", ["?y", "?w"])])


def tree_signature(result):
    """One token per recorded node, free of null names:
    ``parent>relation/method@cost`` plus ``!`` success, ``-c``/``-d``/``-b``
    pruned by cost/domination/bound."""
    tokens = []
    for node in result.tree:
        if node.parent_id is None:
            tokens.append("root")
            continue
        last = node.exposures[-1]
        token = (
            f"{node.parent_id}>{last.fact.relation}/{last.method}"
            f"@{node.cost:g}"
        )
        if node.successful:
            token += "!"
        if node.pruned:
            token += f"-{node.pruned[0]}"
        tokens.append(token)
    return " ".join(tokens)


DEPTH4 = ChasePolicy(max_depth=4)

# Tree signatures recorded from the eager order (commit 5b6806f).
_D23 = " ".join(["1>Dir2/mt_d2@3-c 1>Dir3/mt_d3@4-c"] * 4)
EAGER_TREES = {
    "blocking": (
        "root 0>Dir1/mt_d1@1 1>R/mt_r@2! 1>Dir2/mt_d2@3-c 1>Dir3/mt_d3@4-c "
        "0>Dir2/mt_d2@2-c 0>Dir3/mt_d3@3-c"
    ),
    "depth4": (
        "root 0>Dir1/mt_d1@1 1>R/mt_r@2! 1>S/mt_s@2-c 1>R/mt_r@2-c "
        + _D23
        + " 0>Dir2/mt_d2@2-c 0>Dir3/mt_d3@3-c"
        + " 0>Dir1/mt_d1@1-d 0>Dir2/mt_d2@2-c 0>Dir3/mt_d3@3-c" * 3
    ),
}


@pytest.mark.parametrize("label", dfs_ids(["blocking", "depth4"]))
def test_incomplete_saturations_reproduce_the_eager_tree(monkeypatch, label):
    schema, query = cyclic_schema()
    if label == "blocking":
        # Guarded and not weakly acyclic: the schema's own policy.
        assert schema.chase_policy().blocking is not None
    else:
        shadow_policy(monkeypatch, schema, DEPTH4)
    result = search(schema, query, max_accesses=4)
    assert tree_signature(result) == EAGER_TREES[label]
    assert result.best_cost == 2.0
    assert not result.exhausted
    # The root's own saturation is cut short, so no registered node is
    # known to be closed: every child that reaches the domination check
    # is chased first (but still none that cost closes).
    stats = result.stats
    assert stats.pruned_by_cost > 0
    assert stats.chase.runs == stats.nodes_created + stats.pruned_by_domination
    assert stats.chase.runs < 1 + stats.nodes_expanded


def test_depth_capped_exposure_voids_the_certificate(monkeypatch):
    """The root saturates completely, but the depth cap withholds what
    the one possible access would expose: the child is dominated by the
    root for lack of those facts, and that must not read as a certified
    "no plan" -- without the cap there is one."""
    scenario = referential_chain(4)
    assert search(scenario.schema, scenario.query, max_accesses=6).found
    shadow_policy(monkeypatch, scenario.schema, DEPTH4)
    capped = search(scenario.schema, scenario.query, max_accesses=6)
    assert tree_signature(capped) == "root 0>K3/mt_K3@1-d"
    assert not capped.found
    assert not capped.exhausted


def test_search_stats_summary_names_the_dominators():
    scenario = view_stack_scenario(8)
    result = search(scenario.schema, scenario.query)
    dominators = result.stats.dominators
    assert sum(dominators.values()) == result.stats.pruned_by_domination == 14
    line = "dominated by: " + " ".join(
        f"n{node_id}x{count}" for node_id, count in sorted(dominators.items())
    )
    assert line in result.stats.summary()
    scenario = example1()
    assert "dominated by: -" in search(
        scenario.schema, scenario.query
    ).stats.summary()
