"""The domination check reads the delta; its answers are from-scratch's.

``FingerprintRegistry`` tests a child against a registered node by
mapping only what the branch added below their common ancestor, seeded
with the identity on that ancestor's nulls, and builds signatures as the
parent's plus the delta's.  There is no switch back, so equality is
checked from the outside, the way ``test_prune_before_chase.py`` does it:

* during real searches every check is repeated from scratch -- no
  parent, no lineage -- against a shadow registry holding deep copies,
  and verdict and dominator id must agree;
* hand-built registries cover the cases a search does not produce on
  demand: a seed that is too strict (the fallback), a dominator in
  another branch, and shared per-node state.
"""

import pytest

from repro.chase.configuration import ChaseConfiguration
from repro.logic.atoms import Atom, Substitution
from repro.logic.terms import Constant, Null
from repro.planner import search as search_module
from repro.planner.domination import FingerprintRegistry, LinearRegistry
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import referential_chain
from tests.planner.test_prune_before_chase import (
    DEPTH4,
    PLAN_COLD,
    SCENARIOS,
    cyclic_schema,
    dfs_ids,
    shadow_policy,
)

# The 13 planning problems of ``benchmarks/e2e``'s ``plan_cold`` and the
# 8 sweep scenarios, as (scenario factory, access budget).
PROBLEMS = {key: (row[0], row[1]) for key, row in PLAN_COLD.items()}
PROBLEMS.update({f"sweep:{key}": row for key, row in SCENARIOS.items()})


class ShadowedRegistry(FingerprintRegistry):
    """The registry under test, re-asked from scratch on every check."""

    def __init__(self, frozen, rigid):
        super().__init__(frozen, rigid)
        self.shadow = FingerprintRegistry(frozen, rigid)
        self.compared = 0

    def register(self, node_id, cost, config, parent=None):
        super().register(node_id, cost, config, parent)
        self.shadow.register(node_id, cost, config.deep_copy())

    def find_dominator(self, cost, config, parent=None, added=()):
        assert parent is not None  # the search always names the parent
        fast = super().find_dominator(cost, config, parent, added)
        # From scratch on the whole child: ``added`` written into a copy.
        whole = config.deep_copy()
        for fact in added:
            assert whole.add(fact)
        slow = self.shadow.find_dominator(cost, whole)
        assert fast == slow, (fast, slow, parent)
        self.compared += 1
        return fast


@pytest.fixture
def shadowed(monkeypatch):
    """Make every search in the test run on a :class:`ShadowedRegistry`:
    the searcher builds its registry by the name ``FingerprintRegistry``
    in its own module, and that name is the seam."""
    built = []

    def make(frozen, rigid):
        built.append(ShadowedRegistry(frozen, rigid))
        return built[-1]

    monkeypatch.setattr(search_module, "FingerprintRegistry", make)
    return built


def check_books(registry, stats):
    """Counters every shadowed search must satisfy."""
    d = stats.domination
    assert d is registry.stats
    assert registry.compared == d.checks > 0
    # Every tested entry is a seeded hit, or a seeded miss that ran the
    # from-scratch search; the shadow ran one per tested entry.
    assert d.hom_calls == d.seeded_hits + d.full_searches
    assert registry.shadow.stats.hom_calls == d.hom_calls
    assert registry.shadow.stats.full_searches == d.hom_calls
    assert registry.shadow.stats.seeded_hits == 0
    assert registry.shadow.stats.candidates == d.candidates


# ------------------------------------------------ (a) real searches
@pytest.mark.parametrize("fork", ["cow", "deepcopy"])
@pytest.mark.parametrize("key", dfs_ids(PROBLEMS))
def test_every_check_equals_a_from_scratch_check(
    shadowed, monkeypatch, key, fork
):
    if fork == "deepcopy":
        # The search forks with ``copy``; a materialised fork keeps the
        # same fact log, so every delta and verdict must be the same.
        monkeypatch.setattr(
            ChaseConfiguration, "copy", ChaseConfiguration.deep_copy
        )
    factory, budget = PROBLEMS[key]
    scenario = factory()
    result = find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(max_accesses=budget),
    )
    assert result.found
    (registry,) = shadowed
    check_books(registry, result.stats)
    if key in PLAN_COLD:
        # The books the end-to-end benchmark reads, and no fallback.
        assert result.stats.pruned_by_domination == PLAN_COLD[key][5]
        assert result.stats.domination.full_searches == 0
        assert (
            result.stats.domination.seeded_hits
            == result.stats.pruned_by_domination
        )


@pytest.mark.parametrize(
    "policy", [DEPTH4, None], ids=["depth4-dfs", "blocking-dfs"]
)
def test_chase_first_checks_go_through_the_delta_too(
    shadowed, monkeypatch, policy
):
    """The root's saturation is cut short, so each child is chased
    *before* its check and the delta holds its saturation as well.
    ``None`` runs the schema's own policy, blocking."""
    schema, query = cyclic_schema()
    if policy is not None:
        shadow_policy(monkeypatch, schema, policy)
    result = find_best_plan(schema, query, SearchOptions(max_accesses=4))
    (registry,) = shadowed
    check_books(registry, result.stats)
    assert not result.exhausted
    stats = result.stats
    assert stats.chase.runs == stats.nodes_created + stats.pruned_by_domination
    if policy is DEPTH4:
        assert stats.pruned_by_domination > 0
        assert stats.domination.seeded_hits > 0


def test_depth_truncated_exposure_is_checked_on_the_delta(
    shadowed, monkeypatch
):
    scenario = referential_chain(4)
    shadow_policy(monkeypatch, scenario.schema, DEPTH4)
    result = find_best_plan(
        scenario.schema, scenario.query, SearchOptions(max_accesses=6)
    )
    (registry,) = shadowed
    check_books(registry, result.stats)
    assert not result.found
    assert result.stats.pruned_by_domination == 1
    # The child is dominated by its own parent: the common ancestor is
    # the dominator itself.
    assert result.stats.dominators == {0: 1}
    assert result.stats.domination.seeded_hits == 1


# --------------------------------------------- (b) hand-built registries
X, Y, Z, W = Null("x"), Null("y"), Null("z"), Null("w")


def grown(parent, *facts):
    """A fork of ``parent`` with ``facts`` added, as a search child is."""
    child = parent.copy()
    for fact in facts:
        child.add(fact)
    return child


def registries(rigid=frozenset()):
    frozen = Substitution({null: null for null in rigid})
    return [
        cls(frozen, rigid) for cls in (FingerprintRegistry, LinearRegistry)
    ]


def test_a_too_strict_seed_falls_back_to_the_full_search():
    """Root ``R(x)``; the registered sibling also holds ``R(y), S(y)``.
    The child adds ``S(x)``: with ``x -> x`` pinned the delta has no
    image, yet ``x -> y`` maps the whole pattern."""
    root = ChaseConfiguration([Atom("R", (X,))])
    sibling = grown(root, Atom("R", (Y,)), Atom("S", (Y,)))
    child = grown(root, Atom("S", (X,)))
    for registry in registries():
        registry.register(0, 0.0, root)
        registry.register(1, 1.0, sibling, parent=0)
        assert registry.find_dominator(1.0, child, parent=0) == 1
        assert registry.stats.seeded_hits == 0
        assert registry.stats.hom_calls == 1
        assert registry.stats.full_searches == 1


def test_a_frozen_null_keeps_the_fallback_honest():
    """Same shape with ``x`` a frozen head null: now ``x -> y`` is not
    allowed either, so neither search may succeed."""
    root = ChaseConfiguration([Atom("R", (X,))])
    sibling = grown(root, Atom("R", (Y,)), Atom("S", (Y,)))
    child = grown(root, Atom("S", (X,)))
    for registry in registries(rigid=frozenset({X})):
        registry.register(0, 0.0, root)
        registry.register(1, 1.0, sibling, parent=0)
        assert registry.find_dominator(1.0, child, parent=0) is None


def test_a_dominator_in_another_branch_is_met_at_the_root():
    """``a`` and ``b`` are children of the root; the node under test is
    a child of ``b`` and maps into ``a``.  Their common ancestor is the
    root, so the delta is everything below the root -- ``b``'s fact as
    well as the child's own -- with only the root's null pinned."""
    root = ChaseConfiguration([Atom("R", (X,))])
    a = grown(root, Atom("S", (X, Y)), Atom("T", (Y,)))
    b = grown(root, Atom("T", (W,)))
    child = grown(b, Atom("S", (X, Z)))
    for registry in registries():
        registry.register(0, 0.0, root)
        registry.register(1, 1.0, a, parent=0)
        registry.register(2, 1.0, b, parent=0)
        assert registry.find_dominator(2.0, child, parent=2) == 1
        if isinstance(registry, FingerprintRegistry):
            # Pinning the nulls of ``b`` as well (w -> w) would have
            # missed: ``a`` holds no ``T(w)``.
            stats = registry.stats
            assert (stats.seeded_hits, stats.full_searches) == (1, 0)


def test_an_entry_on_the_parents_own_path_is_its_own_ancestor():
    """A grandchild that adds nothing new maps into its grandparent by
    the delta below the grandparent alone."""
    root = ChaseConfiguration([Atom("R", (X, Y))])
    mid = grown(root, Atom("S", (Y, Z)))
    child = grown(mid, Atom("S", (Y, W)))
    index = FingerprintRegistry(Substitution({}), frozenset())
    index.register(0, 0.0, root)
    index.register(1, 0.0, mid, parent=0)
    assert index.find_dominator(1.0, child, parent=1) == 1
    assert (index.stats.seeded_hits, index.stats.full_searches) == (1, 0)


def test_index_and_oracle_name_the_cheapest_then_first_registered():
    """Which dominator is named is part of the contract the shadow
    checks: cheapest first, registration order among equals."""
    config = ChaseConfiguration([Atom("R", (Constant("a"),))])
    for registry in registries():
        registry.register(1, 3.0, config)
        registry.register(2, 1.0, config)
        registry.register(3, 1.0, config)
        assert registry.find_dominator(5.0, config) == 2
        assert registry.find_dominator(0.5, config) is None


def test_differential_registry_raises_on_a_different_dominator():
    """The shadow comparison has teeth: a from-scratch side that names
    another dominator, though one exists on both sides, is a failure."""
    root = ChaseConfiguration([Atom("R", (Constant("a"),))])
    registry = ShadowedRegistry(Substitution({}), frozenset())
    registry.register(0, 1.0, root)
    registry.register(1, 1.0, grown(root), parent=0)
    assert registry.find_dominator(1.0, grown(root), parent=0) == 0
    registry.shadow._entries.reverse()
    with pytest.raises(AssertionError):
        registry.find_dominator(1.0, grown(root), parent=0)


def test_per_node_state_is_shared_with_the_parent_when_nothing_is_new():
    """A node that adds no null and no signature element holds its
    parent's frozensets, not copies of them."""
    root = ChaseConfiguration([Atom("R", (X, Y))])
    same = grown(root, Atom("R", (Y, X)), Atom("Accessed_R", (X, Y)))
    more = grown(same, Atom("S", (Z,)))
    index = FingerprintRegistry(Substitution({}), frozenset())
    index.register(0, 0.0, root)
    index.register(1, 1.0, same, parent=0)
    index.register(2, 2.0, more, parent=1)
    first, second, third = index._entries
    assert second.nulls is first.nulls
    assert second.signature is first.signature
    assert third.nulls == {X, Y, Z}
    assert third.signature == first.signature | {("rel", "S")}
    assert third.lineage == (0, 1, 2)
    assert [entry.generation for entry in index._entries] == [1, 3, 4]
