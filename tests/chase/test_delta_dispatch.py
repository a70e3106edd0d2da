"""The semi-naive loop visits only woken rules -- and nothing else changes.

``chase_to_fixpoint`` hands a new fact to the rules whose body mentions
its relation instead of walking every rule every round.  No option
selects the old loop, so it is kept *here*, as the reference: every rule,
every round, each bucketing the whole delta past its own watermark
(:func:`find_triggers_delta`).  The engine must attempt the same firings
in the same order with the same outcomes, and report the same result and
the same counters -- under depth caps, blocking and work budgets, and
when resuming from a generation.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.chase import engine
from repro.chase.blocking import BlockingPolicy
from repro.chase.configuration import ChaseConfiguration
from repro.chase.engine import ChasePolicy, ChaseResult, chase_to_fixpoint
from repro.chase.firing import WorkSpent, find_triggers_delta
from repro.chase.stats import ChaseStats
from repro.logic.atoms import Atom, Substitution
from repro.logic.dependencies import TGD, parse_tgd
from repro.logic.homomorphisms import extend_homomorphism
from repro.logic.terms import Constant, Null, NullFactory, Variable
from repro.schema.accessible import RuleSet

A, B, C, D = (Constant(name) for name in "abcd")


def all_rules_every_round(config, rules, nulls, policy, since_generation=0):
    """The loop the engine ran before it dispatched: returns the
    attempted firings and the result.  Its trigger search holds the same
    work budget, in the same unit, as the engine's."""
    bag_tree = (
        policy.blocking.fresh_tree(list(config))
        if policy.blocking is not None
        else None
    )
    stats = ChaseStats(strategy=policy.strategy, runs=1)
    attempts = []
    firings = blocked = truncated = 0
    new_facts = []
    suppressed = set()
    marks = [since_generation] * len(rules)

    def result(reached_fixpoint):
        return ChaseResult(
            reached_fixpoint=reached_fixpoint,
            firings=firings,
            blocked=blocked,
            depth_truncated=truncated,
            new_facts=tuple(new_facts),
            stats=stats,
        )

    try:
        progress = True
        while progress:
            progress = False
            stats.rounds += 1
            for slot, rule in enumerate(rules):
                generation = config.generation
                if marks[slot] >= generation:
                    continue
                triggers = find_triggers_delta(
                    rule,
                    config,
                    marks[slot],
                    stats=stats,
                    max_work=policy.max_work,
                )
                marks[slot] = generation
                for trigger in triggers:
                    key = (slot, trigger.body_image())
                    if key in suppressed:
                        continue
                    outcome, added = engine._fire_checked(
                        trigger, config, nulls, policy, bag_tree
                    )
                    attempts.append((slot, trigger.body_image(), outcome))
                    if outcome == "fired":
                        firings += 1
                        stats.triggers_fired += 1
                        new_facts.extend(added)
                        progress = True
                    elif outcome == "blocked":
                        blocked += 1
                        suppressed.add(key)
                    elif outcome == "depth":
                        truncated += 1
                        suppressed.add(key)
    except WorkSpent:
        return attempts, result(False)
    return attempts, result(True)


def dispatched(monkeypatch, config, rules, nulls, policy, since_generation=0):
    """The engine on the same input, its firings seen through a spy."""
    attempts = []
    fire_checked = engine._fire_checked

    def spy(trigger, *rest):
        outcome, added = fire_checked(trigger, *rest)
        attempts.append(
            (rules.index(trigger.rule), trigger.body_image(), outcome)
        )
        return outcome, added

    with monkeypatch.context() as patch:
        patch.setattr(engine, "_fire_checked", spy)
        outcome = chase_to_fixpoint(
            config,
            rules,
            nulls,
            policy,
            since_generation=since_generation,
        )
    return attempts, outcome


COUNTERS = (
    "rounds",
    "triggers_enumerated",
    "triggers_filtered",
    "triggers_fired",
)


def assert_same_run(monkeypatch, rules, facts, policy, grow=None):
    """Run both loops on copies of one input and compare everything.

    With ``grow``, both first saturate, then receive the ``grow`` facts,
    and the compared run resumes from the generation before them.
    """
    # Distinct rules, so the spy can name a trigger's slot by its rule.
    assert len(set(rules)) == len(rules)
    ours, theirs = ChaseConfiguration(facts), ChaseConfiguration(facts)
    our_nulls, their_nulls = NullFactory("n"), NullFactory("n")
    since = 0
    if grow is not None:
        calm = ChasePolicy(max_work=300)
        chase_to_fixpoint(ours, rules, our_nulls, calm)
        all_rules_every_round(theirs, rules, their_nulls, calm)
        assert ours.facts_since(0) == theirs.facts_since(0)
        since = ours.generation
        for fact in grow:
            ours.add(fact)
            theirs.add(fact)
    expected, reference = all_rules_every_round(
        theirs, rules, their_nulls, policy, since
    )
    attempts, outcome = dispatched(
        monkeypatch, ours, rules, our_nulls, policy, since
    )
    assert attempts == expected
    # Same facts with the same provenance, in the same log order.
    assert ours.facts_since(0) == theirs.facts_since(0)
    assert [ours.provenance(f) for f in ours.facts_since(0)] == [
        theirs.provenance(f) for f in theirs.facts_since(0)
    ]
    assert (
        outcome.reached_fixpoint,
        outcome.firings,
        outcome.blocked,
        outcome.depth_truncated,
        outcome.new_facts,
    ) == (
        reference.reached_fixpoint,
        reference.firings,
        reference.blocked,
        reference.depth_truncated,
        reference.new_facts,
    )
    stats, reference_stats = outcome.stats, reference.stats
    for counter in COUNTERS:
        assert getattr(stats, counter) == getattr(reference_stats, counter)
    assert (stats.hom.candidates_scanned, stats.hom.backtracks) == (
        reference_stats.hom.candidates_scanned,
        reference_stats.hom.backtracks,
    )
    return outcome


def tgds(*texts):
    return [parse_tgd(text, name=f"r{i}") for i, text in enumerate(texts)]


def fact(relation, *terms):
    return Atom(relation, tuple(terms))


# ------------------------------------------------------------- named shapes
class TestWakingShapes:
    """One hand-built rule set per way a rule can be woken."""

    def test_relation_read_by_several_rules(self, monkeypatch):
        rules = tgds(
            "R(x, y) -> S(x)", "R(x, y) -> T(y)", "R(x, y) & S(x) -> U(x, y)"
        )
        assert RuleSet(rules).readers == {"R": (0, 1, 2), "S": (2,)}
        assert_same_run(
            monkeypatch, rules, [fact("R", A, B), fact("R", B, C)],
            ChasePolicy(),
        )

    def test_same_relation_twice_in_one_body_woken_by_itself(
        self, monkeypatch
    ):
        rules = tgds("E(x, y) & E(y, z) -> E(x, z)")
        assert RuleSet(rules).readers == {"E": (0,)}
        chain = [fact("E", A, B), fact("E", B, C), fact("E", C, D)]
        outcome = assert_same_run(monkeypatch, rules, chain, ChasePolicy())
        # The rule's own firings wake it for a second round, which
        # finds only matches whose head already holds.
        assert outcome.firings == 3 and outcome.stats.rounds == 2
        assert outcome.stats.triggers_filtered > 0

    def test_woken_by_a_lower_slot_joins_the_round(self, monkeypatch):
        rules = tgds("R(x, y) -> S(y)", "S(x) -> T(x)", "T(x) -> U(x)")
        outcome = assert_same_run(
            monkeypatch, rules, [fact("R", A, B)], ChasePolicy()
        )
        # One pass carries the fact down all three slots; the second
        # finds nobody woken.
        assert outcome.stats.rounds == 2

    def test_woken_by_a_higher_slot_waits_a_round(self, monkeypatch):
        rules = tgds("T(x) -> U(x)", "S(x) -> T(x)", "R(x, y) -> S(y)")
        outcome = assert_same_run(
            monkeypatch, rules, [fact("R", A, B)], ChasePolicy()
        )
        assert outcome.stats.rounds == 4

    def test_rule_reading_nothing_that_arrives_is_never_visited(
        self, monkeypatch
    ):
        rules = tgds("R(x, y) -> S(x)", "Z(x) -> R(x, x)")
        seen = []
        through = engine.triggers_through

        def spy(rule, *rest, **kwargs):
            seen.append(rule.name)
            return through(rule, *rest, **kwargs)

        monkeypatch.setattr(engine, "triggers_through", spy)
        chase_to_fixpoint(
            ChaseConfiguration([fact("R", A, B)]), rules, NullFactory("n")
        )
        assert seen == ["r0"]


class TestPolicies:
    EXISTENTIAL = (
        "R(x, y) -> R(y, z)",
        "R(x, y) -> S(y, w)",
        "S(x, y) & R(z, x) -> T(z)",
    )

    @pytest.mark.parametrize(
        "policy",
        [
            ChasePolicy(max_depth=0),
            ChasePolicy(max_depth=3),
            ChasePolicy(blocking=BlockingPolicy(enabled=True)),
            ChasePolicy(max_work=7),
            ChasePolicy(max_work=40),
        ],
        ids=["depth0", "depth3", "blocking", "work7", "work40"],
    )
    def test_existential_rules_under_each_valve(self, monkeypatch, policy):
        rules = tgds(*self.EXISTENTIAL)
        outcome = assert_same_run(
            monkeypatch, rules, [fact("R", A, B)], policy
        )
        if policy.max_depth is None and policy.blocking is None:
            # These rules never terminate: only the budget stops them.
            assert not outcome.reached_fixpoint

    def test_resuming_from_a_generation(self, monkeypatch):
        rules = tgds(
            "R(x, y) -> S(y)", "S(x) & R(x, y) -> T(y)", "T(x) -> S(x)"
        )
        outcome = assert_same_run(
            monkeypatch,
            rules,
            [fact("R", A, B)],
            ChasePolicy(),
            grow=[fact("R", B, C), fact("R", C, D)],
        )
        assert outcome.firings > 0


# ------------------------------------------------------- suppression by slot
class TestSuppressionIsPerRule:
    """Two unnamed TGDs over the same relations default to one name
    (``R=>S``); a suppressed trigger of one must not hide the other's."""

    PAIR = ("R(x, y) -> S(x)", "R(x, y) -> S(y)")

    @pytest.mark.parametrize("named", [False, True])
    def test_depth_cap_counts_both_rules(self, named):
        rules = [
            parse_tgd(text, name=f"r{i}" if named else "")
            for i, text in enumerate(self.PAIR)
        ]
        assert named or rules[0].name == rules[1].name == "R=>S"
        config = ChaseConfiguration([fact("R", A, B)])
        result = chase_to_fixpoint(
            config, rules, NullFactory("n"), ChasePolicy(max_depth=0)
        )
        assert result.depth_truncated == 2
        assert len(config) == 1

    @pytest.mark.parametrize("named", [False, True])
    def test_a_blocked_trigger_does_not_suppress_its_namesake(self, named):
        # Every existential firing is refused, none of a full rule is: the
        # full rule shares the existential one's name and body image.
        class RefuseAll(BlockingPolicy):
            def allows(self, tree, trigger_facts, candidate):
                return False

        rules = [
            parse_tgd(text, name=f"r{i}" if named else "")
            for i, text in enumerate(("R(x, y) -> S(y, z)", "R(x, y) -> S(x, y)"))
        ]
        assert named or rules[0].name == rules[1].name
        config = ChaseConfiguration([fact("R", A, B)])
        result = chase_to_fixpoint(
            config,
            rules,
            NullFactory("n"),
            ChasePolicy(blocking=RefuseAll(enabled=True)),
        )
        assert result.blocked == 1
        assert fact("S", A, B) in config


# ----------------------------------------------------------------- generated
RELATIONS = ("P", "Q", "R")
VARIABLES = tuple(Variable(name) for name in "xyz")
FRESH = Variable("w")


@st.composite
def rule_sets(draw):
    """Up to five distinct rules over three binary relations: one- or
    two-atom bodies (the second atom may repeat the first's relation),
    a head over body variables and, sometimes, one existential."""
    count = draw(st.integers(1, 5))
    rules = []
    for index in range(count):
        body = tuple(
            Atom(
                draw(st.sampled_from(RELATIONS)),
                (
                    draw(st.sampled_from(VARIABLES)),
                    draw(st.sampled_from(VARIABLES)),
                ),
            )
            for _ in range(draw(st.integers(1, 2)))
        )
        bound = sorted(
            {v for atom in body for v in atom.variables()},
            key=lambda v: v.name,
        )
        pool = bound + ([FRESH] if draw(st.booleans()) else [])
        head = Atom(
            draw(st.sampled_from(RELATIONS)),
            (draw(st.sampled_from(pool)), draw(st.sampled_from(pool))),
        )
        rules.append(TGD(body, (head,), name=f"g{index}"))
    return rules


ground_facts = st.lists(
    st.builds(
        lambda relation, left, right: Atom(relation, (left, right)),
        st.sampled_from(RELATIONS),
        st.sampled_from((A, B, C)),
        st.sampled_from((A, B, C)),
    ),
    min_size=1,
    max_size=5,
    unique=True,
)

policies = st.builds(
    ChasePolicy,
    # Always finite: generated existential rules need not terminate.
    max_work=st.integers(1, 80),
    max_depth=st.none() | st.integers(0, 3),
    blocking=st.none() | st.just(BlockingPolicy(enabled=True)),
)


class TestGenerated:
    @settings(max_examples=150, deadline=None)
    @given(rule_sets(), ground_facts, policies)
    def test_same_attempts_result_and_counters(self, rules, facts, policy):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_same_run(monkeypatch, rules, facts, policy)

    @settings(max_examples=60, deadline=None)
    @given(rule_sets(), ground_facts, ground_facts, policies)
    def test_resumed_runs_agree(self, rules, facts, more, policy):
        with pytest.MonkeyPatch.context() as monkeypatch:
            assert_same_run(monkeypatch, rules, facts, policy, grow=more)

    @settings(max_examples=60, deadline=None)
    @given(rule_sets(), ground_facts)
    def test_naive_reaches_the_same_facts(self, rules, facts):
        full = [rule for rule in rules if rule.is_full]
        # Full TGDs have one fixpoint, whatever the order of firing.
        closures = []
        for strategy in ("semi-naive", "naive"):
            config = ChaseConfiguration(facts)
            result = chase_to_fixpoint(
                config, full, NullFactory("n"), ChasePolicy(strategy=strategy)
            )
            assert result.is_complete
            closures.append(set(config))
        assert closures[0] == closures[1]


# ------------------------------------------------------- extend_homomorphism
TERMS = VARIABLES + (A, B, Null("n1"), Null("n2"))
IMAGES = (A, B, C, Null("n1"), Null("n3"))


class TestExtendHomomorphism:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(TERMS), min_size=1, max_size=4),
        st.data(),
        st.dictionaries(st.sampled_from(TERMS[:3] + TERMS[5:]),
                        st.sampled_from(IMAGES), max_size=3),
        st.booleans(),
    )
    def test_input_untouched_and_reused_when_nothing_is_bound(
        self, terms, data, bound, map_nulls
    ):
        images = data.draw(
            st.lists(
                st.sampled_from(IMAGES),
                min_size=len(terms),
                max_size=len(terms),
            )
        )
        binding = Substitution(bound)
        before = binding.as_dict()
        result = extend_homomorphism(
            Atom("R", tuple(terms)), Atom("R", tuple(images)), binding,
            map_nulls,
        )
        assert binding.as_dict() == before

        def mappable(term):
            return isinstance(term, Variable) or (
                map_nulls and isinstance(term, Null)
            )

        # The specification, term by term over a scratch dict.
        expected = dict(before)
        for term, image in zip(terms, images):
            if mappable(term):
                if expected.setdefault(term, image) != image:
                    expected = None
                    break
            elif term != image:
                expected = None
                break
        if expected is None:
            assert result is None
        else:
            assert result.as_dict() == expected
            assert (result is binding) == (expected == before)

    def test_different_relation_or_arity_is_no_match(self):
        binding = Substitution()
        x = VARIABLES[0]
        assert extend_homomorphism(fact("R", x), fact("S", A), binding) is None
        assert (
            extend_homomorphism(fact("R", x), fact("R", A, B), binding) is None
        )
