"""A child pays after its verdict: no fork, no write before any of them.

``_Searcher._expand`` reads a child's exposure off its *parent's*
configuration (:func:`read_exposure`), decides depth and cost on the
commands that fixes, and domination on the parent's configuration plus
what the exposure would write (:func:`exposure_writes`).  Only then does
it fork the configuration and write the exposure into the fork
(:func:`write_exposure`).  A depth-cut exposure, or a search whose
saturations were not all complete, keeps the older order for domination:
fork, write, chase, then check.  No option selects another order, so it
is checked from the outside, over ``plan_cold``'s thirteen problems and
the eight-scenario sweep:

* a spy on ``ChaseConfiguration.copy`` / ``.add`` counts the forks and
  sees that a closed child never caused a write, so the forks are
  exactly the kept children;
* ``expose_access`` as it stood before the split is kept *here* as the
  reference: for every expansion of those searches, the two halves leave
  the same fact log (facts, provenance, order) and the same ``Exposed``;
* the fork-write-then-check domination verdict is kept here too: for
  every expansion, in both candidate orders, it names the same dominator
  (or none) as the check made before the fork.
"""

import pytest

from repro.chase.configuration import ChaseConfiguration, Provenance
from repro.planner.domination import DominationStats
from repro.logic.atoms import Atom, Substitution, apply_to_atoms
from repro.logic.queries import cq
from repro.logic.terms import Null, NullFactory
from repro.planner import search as search_module
from repro.planner.plan_state import PlanningError, PlanState
from repro.planner.proof_to_plan import (
    Exposed,
    _check_inputs_accessible,
    _induced_facts,
    expose_access,
    initial_configuration,
    read_exposure,
    write_exposure,
)
from repro.planner.search import SearchOptions, find_best_plan
from repro.scenarios import example5
from repro.schema.accessible import AccessibleSchema, Variant, accessed_name
from tests.planner.test_prune_before_chase import (
    DEPTH4,
    PLAN_COLD,
    SCENARIOS,
    cyclic_schema,
    shadow_policy,
)

# (label, factory, budget)
SEARCHES = [
    (key, row[0], row[1]) for key, row in PLAN_COLD.items()
] + [
    (f"{name}/dfs", factory, budget)
    for name, (factory, budget) in sorted(SCENARIOS.items())
] + [
    # A budget small enough to close children by depth (none above does).
    ("example5/shallow", example5, 1),
]
searches = pytest.mark.parametrize(
    "label,factory,budget", SEARCHES, ids=[row[0] for row in SEARCHES]
)


def run(factory, budget, **options):
    scenario = factory()
    return find_best_plan(
        scenario.schema,
        scenario.query,
        SearchOptions(max_accesses=budget, collect_tree=True, **options),
    )


# ------------------------------------------------------ the parent's exposure
def expose_access_at_parent(config, state, fact, method, acc_schema):
    """``expose_access`` of commit f9d9d1d: one pass, reads and writes
    interleaved."""
    _check_inputs_accessible(config, fact, method)
    new_state = state
    pre_generation = config.generation
    relation = accessed_name(fact.relation)
    exposed = []
    accessed_facts = []
    for induced in _induced_facts(config, fact, method):
        accessed = induced.rename_relation(relation)
        if accessed in config:
            continue
        new_state = new_state.expose(induced, method)
        config.add(
            accessed,
            Provenance(
                rule=f"access[{method.name}]",
                trigger_facts=(induced,),
                depth=config.depth(induced) + 1,
            ),
        )
        exposed.append(induced)
        accessed_facts.append(accessed)
    if not exposed:
        raise PlanningError(f"{fact!r} is already exposed")
    max_depth = acc_schema.schema.chase_policy().max_depth
    depth_truncated = 0
    for rule in acc_schema.exposure_rules(relation):
        tgd = rule.tgd
        variables = tgd.body[0].terms
        for accessed in accessed_facts:
            depth = config.depth(accessed) + 1
            if max_depth is not None and depth > max_depth:
                depth_truncated += 1
                continue
            binding = Substitution(dict(zip(variables, accessed.terms)))
            provenance = Provenance(
                rule=tgd.name, trigger_facts=(accessed,), depth=depth
            )
            config.add_all(apply_to_atoms(tgd.head, binding), provenance)
    return Exposed(new_state, tuple(exposed), pre_generation, depth_truncated)


def fact_log(config):
    return [(fact, config.provenance(fact)) for fact in config.facts_since(0)]


@pytest.fixture
def check_halves(monkeypatch):
    """``check_halves(acc)`` makes every ``read_exposure`` of a
    search replay itself, on deep copies of the configuration it reads,
    through the parent's one-pass exposure and through the two halves;
    returns the list the compared ``Exposed`` values are appended to."""

    def install(acc):
        checked = []

        def checking(config, state, fact, method):
            before = config.generation
            reference_config = config.deep_copy()
            try:
                reference = expose_access_at_parent(
                    reference_config, state, fact, method, acc
                )
            except PlanningError:
                reference = None
            halves_config = config.deep_copy()
            try:
                new_state, facts = read_exposure(config, state, fact, method)
            except PlanningError:
                assert reference is None
                raise
            finally:
                assert config.generation == before
            assert reference is not None
            halves = write_exposure(
                halves_config, new_state, facts, method, acc
            )
            assert halves == reference
            assert fact_log(halves_config) == fact_log(reference_config)
            checked.append(halves)
            return new_state, facts

        monkeypatch.setattr(search_module, "read_exposure", checking)
        return checked

    return install


@searches
def test_two_halves_write_what_the_one_pass_exposure_wrote(
    check_halves, label, factory, budget
):
    checked = check_halves(AccessibleSchema(factory().schema, Variant.FORWARD))
    result = run(factory, budget)
    # One comparison per expansion the read half let through.
    assert 0 < len(checked) <= result.stats.nodes_expanded


def test_two_halves_agree_under_a_depth_cap(monkeypatch, check_halves):
    schema, query = cyclic_schema()
    shadow_policy(monkeypatch, schema, DEPTH4)
    checked = check_halves(AccessibleSchema(schema, Variant.FORWARD))
    find_best_plan(schema, query, SearchOptions(max_accesses=4))
    assert any(exposed.depth_truncated for exposed in checked)


# --------------------------------------------------------- forks and writes
@pytest.fixture
def config_spy(monkeypatch):
    """Counts ``copy`` calls and logs the ``id`` of every configuration
    ``add`` is called on."""
    calls = {"copies": 0, "adds": []}
    copy, add = ChaseConfiguration.copy, ChaseConfiguration.add

    def spied_copy(self):
        calls["copies"] += 1
        return copy(self)

    def spied_add(self, fact, provenance=None):
        calls["adds"].append(id(self))
        return add(self, fact, provenance)

    monkeypatch.setattr(ChaseConfiguration, "copy", spied_copy)
    monkeypatch.setattr(ChaseConfiguration, "add", spied_add)
    return calls


def closed_count(stats):
    return (
        stats.pruned_by_cost
        + stats.pruned_by_depth
        + stats.pruned_by_domination
    )


@searches
def test_only_a_child_that_survives_its_verdict_is_forked(
    monkeypatch, config_spy, label, factory, budget
):
    closed = []
    expand = search_module._Searcher._expand

    def watched(self, node, fact, method):
        stats = self.stats
        verdicts = closed_count(stats)
        generation = node.config.generation
        copies, adds = config_spy["copies"], len(config_spy["adds"])
        child = expand(self, node, fact, method)
        if closed_count(stats) > verdicts:
            assert child is None
            assert node.config.generation == generation
            assert config_spy["copies"] == copies
            assert len(config_spy["adds"]) == adds
            closed.append(node.node_id)
        else:
            # Whatever was written went to the fork, never the parent.
            assert node.config.generation == generation
            assert id(node.config) not in config_spy["adds"][adds:]
        return child

    monkeypatch.setattr(search_module._Searcher, "_expand", watched)
    result = run(factory, budget)
    stats = result.stats
    assert len(closed) == closed_count(stats)
    # Every fork is a kept node's: none of these searches has a depth-cut
    # exposure or an incomplete saturation.  (The older identity read
    # ``pruned_by_domination + nodes_created - 1``: a dominated child was
    # forked and written before its check.)
    assert stats.chase.incomplete == 0
    assert (
        config_spy["copies"]
        == stats.configs_copied
        == stats.nodes_created - 1
    )
    assert stats.as_dict()["configs_copied"] == stats.configs_copied
    assert f"({stats.configs_copied} configs)" in stats.summary()
    # A child closed by cost or domination is recorded with the
    # configuration its verdict was read from: its parent's.
    by_id = {node.node_id: node for node in result.tree}
    for node in result.tree:
        if node.pruned in ("cost", "domination"):
            assert node.config is by_id[node.parent_id].config
        elif node.parent_id is not None:
            assert node.config is not by_id[node.parent_id].config


def test_an_incomplete_search_forks_a_child_before_its_domination_check(
    monkeypatch, config_spy
):
    # Under a depth cap no saturation is complete, so the registered
    # nodes are not known to be closed under the free rules: a child is
    # forked, written and chased before it is judged, as before.
    schema, query = cyclic_schema()
    shadow_policy(monkeypatch, schema, DEPTH4)
    stats = find_best_plan(schema, query, SearchOptions(max_accesses=4)).stats
    assert stats.chase.incomplete > 0
    assert stats.pruned_by_domination > 0
    assert (
        config_spy["copies"]
        == stats.configs_copied
        == stats.pruned_by_domination + stats.nodes_created - 1
    )


def test_the_sweep_closes_children_by_depth_and_by_cost():
    shallow = run(example5, 1)
    assert shallow.stats.pruned_by_depth > 0
    assert run(*PLAN_COLD["example5[10]"][:2]).stats.pruned_by_cost == 54


def test_identity_without_the_cost_verdict():
    result = run(example5, 6, prune_by_cost=False, domination=False)
    stats = result.stats
    assert stats.pruned_by_cost == stats.pruned_by_domination == 0
    assert stats.configs_copied == stats.nodes_created - 1 > 0


# ------------------------------------- domination before and after the fork
def fork_write_then_check(searcher, node, fact, method):
    """The domination verdict of the order before the check moved ahead
    of the fork: fork the parent, write the exposure, ask the registry.

    Returns ``"closed"`` for a child that never reaches the check (no-op
    exposure, depth, cost) and ``"late"`` for one the search still judges
    after its chase.  The registry's counters are set aside meanwhile, so
    the search's books are its own.
    """
    try:
        state, facts = read_exposure(node.config, node.state, fact, method)
    except PlanningError:
        return "closed"
    if state.access_command_count > searcher.options.max_accesses:
        return "closed"
    cost = searcher.cost.commands_cost(state.commands)
    if searcher.options.prune_by_cost and cost >= searcher.best_cost:
        return "closed"
    fork = node.config.deep_copy()
    exposed = write_exposure(fork, state, facts, method, searcher.acc)
    if exposed.depth_truncated or searcher.stats.chase.incomplete:
        return "late"
    registry = searcher._registry
    books, registry.stats = registry.stats, DominationStats()
    try:
        return registry.find_dominator(cost, fork, parent=node.node_id)
    finally:
        registry.stats = books


@pytest.mark.parametrize("order", ["depth", "method"])
@searches
def test_the_check_before_the_fork_names_the_fork_first_dominator(
    monkeypatch, label, factory, budget, order
):
    compared = []
    expand = search_module._Searcher._expand

    def watched(self, node, fact, method):
        reference = fork_write_then_check(self, node, fact, method)
        dominated = self.stats.pruned_by_domination
        child = expand(self, node, fact, method)
        if reference in ("closed", "late"):
            assert self.stats.pruned_by_domination == dominated
            return child
        if self.stats.pruned_by_domination > dominated:
            assert child is None
            verdict = self.nodes[-1].dominated_by
        else:
            verdict = None
        assert verdict == reference, (label, node.node_id, fact)
        compared.append(verdict)
        return child

    monkeypatch.setattr(search_module._Searcher, "_expand", watched)
    stats = run(factory, budget, candidate_order=order).stats
    assert compared
    assert sum(v is not None for v in compared) == stats.pruned_by_domination


# ----------------------------------------------- errors come before any write
class TestReadHalfRaisesBeforeAnythingIsWritten:
    UDIRECT = Atom("Udirect", (Null("Q_e"), Null("Q_l")))
    PROFINFO = Atom("Profinfo", (Null("Q_e"), Null("Q_o"), Null("Q_l")))

    @pytest.fixture
    def start(self, uni_schema):
        acc = AccessibleSchema(uni_schema, Variant.FORWARD)
        query = cq([], [("Profinfo", ["?e", "?o", "?l"])], name="Q")
        config, _ = initial_configuration(acc, query, NullFactory("t"))
        return acc, config, uni_schema

    def refused(self, config_spy, acc, config, state, fact, method):
        log = fact_log(config)
        for half in (
            lambda: read_exposure(config, state, fact, method),
            lambda: expose_access(config, state, fact, method, acc),
        ):
            writes = len(config_spy["adds"])
            with pytest.raises(PlanningError):
                half()
            assert len(config_spy["adds"]) == writes
        assert fact_log(config) == log

    def test_inaccessible_input(self, config_spy, start):
        acc, config, schema = start
        self.refused(
            config_spy, acc, config, PlanState(), self.PROFINFO,
            schema.method("mt_prof"),
        )

    def test_wrong_relation(self, config_spy, start):
        acc, config, schema = start
        self.refused(
            config_spy, acc, config, PlanState(), self.UDIRECT,
            schema.method("mt_prof"),
        )

    def test_fact_not_in_the_configuration(self, config_spy, start):
        acc, config, schema = start
        self.refused(
            config_spy, acc, config, PlanState(),
            Atom("Udirect", (Null("nope"), Null("nah"))),
            schema.method("mt_udir"),
        )

    def test_no_op_exposure(self, config_spy, start):
        acc, config, schema = start
        method = schema.method("mt_udir")
        exposed = expose_access(config, PlanState(), self.UDIRECT, method, acc)
        self.refused(
            config_spy, acc, config, exposed.state, self.UDIRECT, method
        )

    def test_plan_state_refusal_is_in_the_read_half_too(
        self, config_spy, start
    ):
        # The configuration calls the input accessible, the plan state
        # has no attribute for it: ``PlanState.expose`` is what raises.
        acc, config, schema = start
        config.add(Atom("_accessible", (Null("Q_e"),)))
        self.refused(
            config_spy, acc, config, PlanState(), self.PROFINFO,
            schema.method("mt_prof"),
        )
