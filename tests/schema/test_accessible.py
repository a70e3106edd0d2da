"""Unit tests for the AcSch / AcSch<-> / AcSch-neg constructions."""

import gc
import sys
import threading
import weakref

import pytest

from repro.logic.atoms import Atom
from repro.logic.queries import cq
from repro.logic.terms import Constant, Variable
from repro.schema.accessible import (
    ACCESSIBLE,
    AccessibleSchema,
    AxiomKind,
    Variant,
    accessed_name,
    accessible_schema,
    infacc_name,
    inferred_accessible_query,
    is_accessed_name,
    is_infacc_name,
    original_name,
)
from repro.planner.search import find_best_plan
from repro.schema import accessible as accessible_module
from repro.schema.core import SchemaBuilder, SchemaError


def build_schema():
    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .relation("S", 1)
        .access("mt_r", "R", inputs=[0])
        .free_access("S")
        .tgd("R(x, y) -> S(y)")
        .constant("c0")
        .build()
    )


@pytest.fixture
def schema():
    return build_schema()


class TestNaming:
    def test_roundtrip(self):
        assert original_name(accessed_name("R")) == "R"
        assert original_name(infacc_name("R")) == "R"
        assert original_name("R") == "R"

    def test_predicates(self):
        assert is_accessed_name(accessed_name("R"))
        assert is_infacc_name(infacc_name("R"))
        assert not is_accessed_name("R")


class TestForwardVariant:
    def test_rule_census(self, schema):
        acc = accessible_schema(schema)
        kinds = {}
        for rule in acc.rules:
            kinds[rule.kind] = kinds.get(rule.kind, 0) + 1
        assert kinds[AxiomKind.ORIGINAL] == 1
        assert kinds[AxiomKind.INFACC_COPY] == 1
        assert kinds[AxiomKind.DEFINING] == 2  # one per relation
        assert kinds[AxiomKind.ACCESSED_TO_INFACC] == 2
        assert kinds[AxiomKind.ACCESSIBILITY] == 2  # one per method
        assert AxiomKind.REVERSE_INCLUSION not in kinds
        assert AxiomKind.NEGATIVE_ACCESSIBILITY not in kinds

    def test_accessibility_axiom_shape(self, schema):
        acc = accessible_schema(schema)
        rule = acc.access_rule_for("mt_r")
        tgd = rule.tgd
        # Body: accessible(x0) & R(x0, x1); head: Accessed_R(x0, x1).
        assert tgd.body[0] == Atom(ACCESSIBLE, (Variable("x0"),))
        assert tgd.body[1].relation == "R"
        assert tgd.head[0].relation == accessed_name("R")

    def test_free_method_axiom_has_no_guards(self, schema):
        acc = accessible_schema(schema)
        rule = acc.access_rule_for("mt_S")
        assert len(rule.tgd.body) == 1  # just S(x0)

    def test_infacc_copy_renames_both_sides(self, schema):
        acc = accessible_schema(schema)
        copies = [
            r for r in acc.rules if r.kind is AxiomKind.INFACC_COPY
        ]
        tgd = copies[0].tgd
        assert tgd.body[0].relation == infacc_name("R")
        assert tgd.head[0].relation == infacc_name("S")

    def test_free_vs_access_rule_partition(self, schema):
        acc = accessible_schema(schema)
        assert set(acc.rules) == set(acc.free_rules) | set(acc.access_rules)
        assert all(r.is_access for r in acc.access_rules)
        assert not any(r.is_access for r in acc.free_rules)

    def test_initial_accessible_facts_from_constants(self, schema):
        acc = accessible_schema(schema)
        assert acc.initial_accessible_facts() == (
            Atom(ACCESSIBLE, (Constant("c0"),)),
        )

    def test_unknown_method_lookup_raises(self, schema):
        acc = accessible_schema(schema)
        with pytest.raises(SchemaError):
            acc.access_rule_for("nope")


class TestBidirectionalVariant:
    def test_adds_reverse_and_negative_rules(self, schema):
        acc = accessible_schema(schema, Variant.BIDIRECTIONAL)
        kinds = {rule.kind for rule in acc.rules}
        assert AxiomKind.REVERSE_INCLUSION in kinds
        assert AxiomKind.NEGATIVE_ACCESSIBILITY in kinds

    def test_negative_axiom_guards_only_method_inputs(self, schema):
        acc = accessible_schema(schema, Variant.BIDIRECTIONAL)
        rule = acc.access_rule_for("mt_r", negative=True)
        guards = [
            a for a in rule.tgd.body if a.relation == ACCESSIBLE
        ]
        assert len(guards) == 1  # only input position 0

    def test_negative_axiom_body_uses_infacc(self, schema):
        acc = accessible_schema(schema, Variant.BIDIRECTIONAL)
        rule = acc.access_rule_for("mt_r", negative=True)
        non_guards = [
            a for a in rule.tgd.body if a.relation != ACCESSIBLE
        ]
        assert non_guards[0].relation == infacc_name("R")


class TestNegativeVariant:
    def test_negative_axiom_guards_all_positions(self, schema):
        acc = accessible_schema(schema, Variant.NEGATIVE)
        rule = acc.access_rule_for("mt_r", negative=True)
        guards = [
            a for a in rule.tgd.body if a.relation == ACCESSIBLE
        ]
        assert len(guards) == 2  # arity of R


class TestInferredAccessibleQuery:
    def test_relations_renamed_and_head_guarded(self):
        query = cq(["?x"], [("R", ["?x", "?y"])], name="Q")
        infacc = inferred_accessible_query(query)
        assert infacc.atoms[0].relation == infacc_name("R")
        assert Atom(ACCESSIBLE, (Variable("x"),)) in infacc.atoms

    def test_boolean_query_gets_no_accessible_atoms(self):
        infacc = inferred_accessible_query(cq([], [("R", ["?x"])]))
        assert all(a.relation != ACCESSIBLE for a in infacc.atoms)

    def test_constants_untouched(self):
        query = cq([], [("R", ["?x", "smith"])])
        infacc = inferred_accessible_query(query)
        assert infacc.atoms[0].terms[1] == Constant("smith")


class TestRuleMemo:
    """The chase rules are derived once per schema object and variant."""

    QUERY = cq(["?y"], [("R", ["c0", "?y"])])

    @pytest.fixture
    def builds(self, monkeypatch):
        """The variants ``_build_rules`` is called for, in order."""
        calls = []
        build = accessible_module._build_rules

        def spy(schema, variant):
            calls.append(variant)
            return build(schema, variant)

        monkeypatch.setattr(accessible_module, "_build_rules", spy)
        return calls

    def test_two_searches_build_the_rules_once(self, schema, builds):
        first = find_best_plan(schema, self.QUERY)
        second = find_best_plan(schema, self.QUERY)
        assert first.found and second.found
        assert first.best_plan == second.best_plan
        assert builds == [Variant.FORWARD]

    def test_schemas_share_rules_per_variant(self, schema, builds):
        forward = AccessibleSchema(schema)
        assert AccessibleSchema(schema).rules is forward.rules
        assert AccessibleSchema(schema).free_rules is forward.free_rules
        both = AccessibleSchema(schema, Variant.BIDIRECTIONAL)
        assert both.rules is not forward.rules
        assert builds == [Variant.FORWARD, Variant.BIDIRECTIONAL]

    def test_assigning_constraints_gives_fresh_rules(self, schema, builds):
        before = AccessibleSchema(schema).rules
        schema.constraints = ()
        after = AccessibleSchema(schema).rules
        assert after is not before
        assert AxiomKind.ORIGINAL not in {rule.kind for rule in after}
        assert len(builds) == 2

    def test_assigning_constants_gives_fresh_rules(self, schema, builds):
        before = AccessibleSchema(schema).rules
        schema.constants = (Constant("c1"),)
        acc = AccessibleSchema(schema)
        assert acc.rules is not before
        assert acc.initial_accessible_facts() == (
            Atom(ACCESSIBLE, (Constant("c1"),)),
        )
        assert len(builds) == 2

    def test_without_methods_gives_fresh_rules(self, schema, builds):
        AccessibleSchema(schema).access_rule_for("mt_r")
        dropped = AccessibleSchema(schema.without_methods(["mt_r"]))
        with pytest.raises(SchemaError):
            dropped.access_rule_for("mt_r")
        assert len(builds) == 2

    def test_concurrent_searches_of_one_schema_agree(self):
        # The memo and its lazily filled exposure templates are shared
        # by every search of the schema object, on any thread.
        schema = build_schema()
        expected = find_best_plan(build_schema(), self.QUERY).best_plan
        plans, errors = [], []

        def search():
            try:
                for _ in range(5):
                    plans.append(find_best_plan(schema, self.QUERY).best_plan)
            except Exception as error:  # reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=search, daemon=True) for _ in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert plans == [expected] * 40

    def test_a_searched_schema_dies_at_del(self):
        # No reference cycle: with the collector off, dropping the last
        # reference frees the schema and the rules it memoises.
        schema = build_schema()
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert find_best_plan(schema, self.QUERY).found
            AccessibleSchema(schema, Variant.NEGATIVE)
            alive = weakref.ref(schema)
            del schema
            assert alive() is None
        finally:
            if enabled:
                gc.enable()
