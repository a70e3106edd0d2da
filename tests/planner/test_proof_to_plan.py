"""Unit tests for chase-proof replay and plan generation (Theorem 5)."""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.atoms import Atom
from repro.logic.queries import cq
from repro.logic.terms import Constant, Null
from repro.planner.plan_state import PlanningError
from repro.chase.engine import ChasePolicy, saturate
from repro.logic.terms import NullFactory
from repro.planner.plan_state import PlanState
from repro.planner.proof_to_plan import (
    ChaseProof,
    Exposure,
    expose_access,
    fire_access,
    initial_configuration,
    plan_from_proof,
    replay_proof,
    saturate_exposed,
)
from repro.schema.accessible import AccessibleSchema, Variant
from repro.schema.core import SchemaBuilder


@pytest.fixture
def acc(uni_schema):
    return AccessibleSchema(uni_schema, Variant.FORWARD)


def q_boolean():
    return cq([], [("Profinfo", ["?e", "?o", "?l"])], name="Q")


def example1_proof():
    query = q_boolean()
    return ChaseProof(
        query,
        (
            Exposure(
                Atom("Udirect", (Null("Q_e"), Null("Q_l"))), "mt_udir"
            ),
            Exposure(
                Atom(
                    "Profinfo",
                    (Null("Q_e"), Null("Q_o"), Null("Q_l")),
                ),
                "mt_prof",
            ),
        ),
    )


class TestReplay:
    def test_example1_proof_replays(self, acc):
        result = replay_proof(acc, example1_proof())
        assert result.plan.access_commands
        assert result.match is not None

    def test_plan_structure_mirrors_proof(self, acc):
        plan = plan_from_proof(acc, example1_proof())
        assert plan.methods_used() == ("mt_udir", "mt_prof")

    def test_incomplete_proof_rejected(self, acc):
        query = q_boolean()
        partial = ChaseProof(
            query,
            (
                Exposure(
                    Atom("Udirect", (Null("Q_e"), Null("Q_l"))),
                    "mt_udir",
                ),
            ),
        )
        with pytest.raises(PlanningError):
            plan_from_proof(acc, partial)

    def test_out_of_order_proof_rejected(self, acc):
        query = q_boolean()
        reordered = ChaseProof(
            query,
            tuple(reversed(example1_proof().exposures)),
        )
        # Profinfo first: its input e is not accessible yet.
        with pytest.raises(PlanningError):
            plan_from_proof(acc, reordered)

    def test_unknown_fact_rejected(self, acc):
        query = q_boolean()
        bogus = ChaseProof(
            query,
            (
                Exposure(
                    Atom("Udirect", (Null("nope"), Null("nah"))),
                    "mt_udir",
                ),
            ),
        )
        # The exposure itself fires (the access command is generic), but
        # the proof cannot witness InferredAccQ.
        with pytest.raises(PlanningError):
            plan_from_proof(acc, bogus)


class TestExposeThenSaturate:
    """``fire_access`` is ``expose_access`` then ``saturate_exposed``."""

    UDIRECT = Atom("Udirect", (Null("Q_e"), Null("Q_l")))

    def start(self, uni_schema, variant):
        acc = AccessibleSchema(uni_schema, variant)
        config, _ = initial_configuration(acc, q_boolean(), NullFactory("t"))
        return acc, config, uni_schema.method("mt_udir")

    @pytest.mark.parametrize("variant", list(Variant))
    def test_exposure_applies_the_accessed_body_rules(
        self, uni_schema, variant
    ):
        acc, config, method = self.start(uni_schema, variant)
        exposed = expose_access(config, PlanState(), self.UDIRECT, method, acc)
        assert exposed.facts == (self.UDIRECT,)
        assert exposed.depth_truncated == 0
        assert exposed.state.access_command_count == 1
        accessed = self.UDIRECT.rename_relation("Accessed_Udirect")
        infacc = self.UDIRECT.rename_relation("InfAcc_Udirect")
        assert config.facts_since(exposed.since_generation) == (
            accessed,
            Atom("_accessible", (Null("Q_e"),)),
            Atom("_accessible", (Null("Q_l"),)),
            infacc,
        )
        assert config.provenance(infacc).rule == "acc2inf[Udirect]"
        assert config.provenance(infacc).trigger_facts == (accessed,)
        assert config.depth(infacc) == config.depth(accessed) + 1
        # No free rule outside the exposure rules reads an Accessed_ fact.
        for rule in acc.saturation_rules:
            assert not any(
                atom.relation.startswith("Accessed_")
                for atom in rule.tgd.body + rule.tgd.head
            )
        assert set(acc.saturation_rules) | {
            rule
            for relation in uni_schema.relations
            for rule in acc.exposure_rules("Accessed_" + relation.name)
        } == set(acc.free_rules)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_halves_compose_to_a_full_saturation(self, uni_schema, variant):
        acc, config, method = self.start(uni_schema, variant)
        fired = config.copy()
        state, facts = fire_access(
            fired, PlanState(), self.UDIRECT, method, acc, NullFactory("f")
        )
        exposed = expose_access(config, PlanState(), self.UDIRECT, method, acc)
        result = saturate_exposed(config, exposed, acc, NullFactory("f"))
        assert result.is_complete
        assert (state.commands, facts) == (exposed.state.commands, exposed.facts)
        assert set(config) == set(fired)
        # ... and that is a fixpoint of *all* the free rules.
        again = saturate(config, acc.free_rules, NullFactory("g"))
        assert again.firings == 0

    def test_depth_cap_withholds_exposure_heads_and_is_reported(
        self, uni_schema, monkeypatch
    ):
        acc, config, method = self.start(uni_schema, Variant.FORWARD)
        # Accessed_ is depth 1, heads 2; the schema's own policy has no
        # cap, so this instance's is shadowed.
        policy = ChasePolicy(max_depth=1)
        monkeypatch.setattr(uni_schema, "chase_policy", lambda: policy)
        exposed = expose_access(config, PlanState(), self.UDIRECT, method, acc)
        assert exposed.depth_truncated == 2  # def[Udirect], acc2inf[Udirect]
        assert not config.is_accessible(Null("Q_e"))
        result = saturate_exposed(config, exposed, acc, NullFactory("f"))
        assert not result.is_complete


class TestGeneratedPlanSemantics:
    def test_plan_answers_query_positive(self, acc, uni_schema):
        plan = plan_from_proof(acc, example1_proof())
        instance = Instance(
            {
                "Profinfo": [("e1", "o1", "smith")],
                "Udirect": [("e1", "smith")],
            }
        )
        out = plan.run(InMemorySource(uni_schema, instance))
        assert not out.is_empty

    def test_plan_answers_query_negative(self, acc, uni_schema):
        plan = plan_from_proof(acc, example1_proof())
        instance = Instance({"Udirect": [("e9", "doe")]})
        out = plan.run(InMemorySource(uni_schema, instance))
        assert out.is_empty

    def test_non_boolean_projection(self, uni_schema):
        query = cq(
            ["?e", "?o"],
            [("Profinfo", ["?e", "?o", "?l"])],
            name="Q",
        )
        acc = AccessibleSchema(uni_schema, Variant.FORWARD)
        proof = ChaseProof(
            query,
            (
                Exposure(
                    Atom("Udirect", (Null("Q_e"), Null("Q_l"))),
                    "mt_udir",
                ),
                Exposure(
                    Atom(
                        "Profinfo",
                        (Null("Q_e"), Null("Q_o"), Null("Q_l")),
                    ),
                    "mt_prof",
                ),
            ),
        )
        plan = plan_from_proof(acc, proof)
        instance = Instance(
            {
                "Profinfo": [
                    ("e1", "o1", "smith"),
                    ("e2", "o2", "jones"),
                ],
                "Udirect": [("e1", "smith"), ("e2", "jones")],
            }
        )
        out = plan.run(InMemorySource(uni_schema, instance))
        assert out.rows == {
            (Constant("e1"), Constant("o1")),
            (Constant("e2"), Constant("o2")),
        }

    def test_induced_facts_share_one_access(self):
        """Two facts behind the same access input: one access command."""
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .relation("A", 1)
            .free_access("A")
            .access("mt_r", "R", inputs=[0])
            .tgd("A(x) -> R(x, y)")
            .tgd("A(x) -> R(x, z)")
            .build()
        )
        query = cq([], [("A", ["?x"]), ("R", ["?x", "?y"])], name="Q")
        from repro.planner import find_any_plan

        result = find_any_plan(schema, query, max_accesses=4)
        assert result.found
        # Both chase R-facts over the same x use the same raw access.
        assert len(result.best_plan.access_commands) <= 2
