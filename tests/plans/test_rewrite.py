"""The σ/π-over-⋈ rewrite: a plan's executable form.

Where each condition lands and what the fused join holds; that the form
is computed once per plan object and carried through a bound request;
that it is never serialized; and that FO-built plans, whose constant
equalities are now decided at compile time, lower to IR.
"""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec import ExecutionContext, run_request, substitute_constants
from repro.fo.executable import executable_to_plan
from repro.fo.formulas import And, Eq, Exists, FOAtom, Not
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.plans import plan as plan_module
from repro.plans.commands import AccessCommand, MiddlewareCommand, identity_output_map
from repro.plans.expressions import (
    EqAttr,
    EqConst,
    EvaluationError,
    Join,
    Literal,
    NamedTable,
    NeqAttr,
    NeqConst,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
)
from repro.plans.ir import PlanIR, PlanIRError, expr_to_ir, ir_to_plan, plan_to_ir
from repro.plans.plan import Plan
from repro.plans.rewrite import rewrite_expression
from repro.schema.core import SchemaBuilder

A, B = Constant("a"), Constant("b")
SCHEMA = {"L": ("p", "k"), "R": ("k", "s")}
JOIN = Join(Scan("L"), Scan("R"))


def rewritten(expr):
    return rewrite_expression(expr, SCHEMA)


class TestWhereConditionsGo:
    def test_one_sided_conditions_go_below_their_input(self):
        expr = Select(JOIN, (EqConst("p", A), NeqConst("s", B)))
        assert rewritten(expr) == Join(
            Select(Scan("L"), (EqConst("p", A),)),
            Select(Scan("R"), (NeqConst("s", B),)),
        )

    def test_shared_attribute_goes_left(self):
        assert rewritten(Select(JOIN, (EqConst("k", A),))) == Join(
            Select(Scan("L"), (EqConst("k", A),)), Scan("R")
        )

    def test_residual_and_projection_fold_into_the_join(self):
        expr = Project(
            Select(JOIN, (NeqAttr("p", "s"), EqConst("p", A))), ("p", "s")
        )
        assert rewritten(expr) == Join(
            Select(Scan("L"), (EqConst("p", A),)),
            Scan("R"),
            (NeqAttr("p", "s"),),
            ("p", "s"),
        )

    def test_selection_above_a_projected_join_still_goes_down(self):
        expr = Select(Project(JOIN, ("p", "s")), (EqConst("s", B),))
        assert rewritten(expr) == Join(
            Scan("L"), Select(Scan("R"), (EqConst("s", B),)), (), ("p", "s")
        )

    def test_pushdown_reaches_nested_joins(self):
        schema = dict(SCHEMA, T=("s", "t"))
        expr = Select(
            Join(JOIN, Scan("T")), (EqConst("p", A), EqAttr("p", "t"))
        )
        assert rewrite_expression(expr, schema) == Join(
            Join(Select(Scan("L"), (EqConst("p", A),)), Scan("R")),
            Scan("T"),
            (EqAttr("p", "t"),),
        )

    def test_identities_disappear(self):
        assert rewritten(Select(Scan("L"), ())) == Scan("L")
        assert rewritten(Project(Scan("L"), ("p", "k"))) == Scan("L")
        assert rewritten(Project(Project(Scan("L"), ("k", "p")), ("k",))) == (
            Project(Scan("L"), ("k",))
        )

    def test_other_operators_are_rebuilt_unchanged(self):
        expr = Rename(Select(Scan("L"), (EqConst("p", A),)), (("p", "q"),))
        assert rewritten(expr) == expr

    def test_idempotent(self):
        expr = Project(
            Select(JOIN, (NeqAttr("p", "s"), EqConst("s", A))), ("p",)
        )
        once = rewritten(expr)
        assert rewritten(once) == once

    def test_rewrite_keeps_every_attribute_order(self):
        expr = Project(Select(JOIN, (EqConst("s", A),)), ("s", "p"))
        assert rewritten(expr).attributes(SCHEMA) == ("s", "p")


class TestNamesResolvedStatically:
    @pytest.mark.parametrize(
        "expr",
        [
            Select(JOIN, (EqConst("zz", A),)),
            Project(JOIN, ("p", "zz")),
            Select(Scan("L"), (NeqAttr("p", "zz"),)),
            Project(Rename(Scan("L"), (("p", "q"),)), ("p",)),
        ],
        ids=["select-over-join", "project-over-join", "select", "renamed-away"],
    )
    def test_unknown_name_raises(self, expr):
        with pytest.raises(EvaluationError, match="no attribute"):
            rewritten(expr)

    def test_only_the_four_conditions(self):
        class Weird:
            pass

        with pytest.raises(TypeError, match="not a condition"):
            rewritten(Select(JOIN, (Weird(),)))

    def test_access_binding_checked_before_any_access(self):
        schema = (
            SchemaBuilder("s")
            .relation("R", 2)
            .access("mt_R", "R", inputs=[], cost=1.0)
            .access("mt_key", "R", inputs=[0], cost=1.0)
            .build()
        )
        plan = Plan(
            (
                AccessCommand(
                    "T", "mt_R", Singleton(), (), identity_output_map(("x", "y"))
                ),
                AccessCommand(
                    "OUT", "mt_key", Scan("T"), ("zz",),
                    identity_output_map(("x", "y")),
                ),
            ),
            "OUT",
        )
        source = InMemorySource(schema, Instance({"R": [("a", "1")]}))
        with pytest.raises(EvaluationError, match="lacks attributes"):
            plan.execute(source)
        assert source.total_invocations == 0


def keyed_plan():
    """Probe R on a constant key, then a fused select/project/join."""
    return Plan(
        (
            AccessCommand(
                "TR", "mt_key", Singleton(), (Constant("a"),),
                identity_output_map(("k", "v")),
            ),
            AccessCommand(
                "TS", "mt_all", Singleton(), (), identity_output_map(("k", "w"))
            ),
            MiddlewareCommand(
                "OUT",
                Project(
                    Select(
                        Join(Scan("TR"), Scan("TS")),
                        (EqConst("k", Constant("a")), NeqAttr("v", "w")),
                    ),
                    ("k", "w"),
                ),
            ),
        ),
        "OUT",
    )


@pytest.fixture
def keyed_source():
    schema = (
        SchemaBuilder("s")
        .relation("R", 2)
        .access("mt_key", "R", inputs=[0], cost=2.0)
        .access("mt_all", "R", inputs=[], cost=1.0)
        .build()
    )
    instance = Instance({"R": [("a", "1"), ("a", "2"), ("b", "3"), ("b", "4")]})
    return InMemorySource(schema, instance)


class TestMemoisedPerPlan:
    def test_computed_once(self, monkeypatch):
        calls = []
        real = plan_module.rewrite
        monkeypatch.setattr(
            plan_module, "rewrite", lambda plan: calls.append(plan) or real(plan)
        )
        plan = keyed_plan()
        assert plan.executable() is plan.executable()
        assert len(calls) == 1

    def test_every_engine_runs_the_one_form(self, keyed_source, monkeypatch):
        calls = []
        real = plan_module.rewrite
        monkeypatch.setattr(
            plan_module, "rewrite", lambda plan: calls.append(plan) or real(plan)
        )
        plan = keyed_plan()
        answers = {
            plan.run(keyed_source).rows,
            plan.execute(keyed_source).rows,
            plan.execute(keyed_source, executor="columnar").rows,
            plan.execute(keyed_source, executor="differential").rows,
        }
        assert answers == {frozenset({(A, Constant("2")), (A, Constant("1"))})}
        assert len(calls) == 1

    def test_a_bound_request_reuses_the_memoised_rewrite(
        self, keyed_source, monkeypatch
    ):
        calls = []
        real = plan_module.rewrite
        monkeypatch.setattr(
            plan_module, "rewrite", lambda plan: calls.append(plan) or real(plan)
        )
        plan = keyed_plan()
        context = ExecutionContext()
        answers = [
            run_request(keyed_source, plan, bindings, context)
            for bindings in ({"a": "b"}, {"a": "a"}, {"a": "b"})
        ]
        assert calls == [plan]
        b = Constant("b")
        assert answers[0].rows == frozenset({(b, Constant("3")), (b, Constant("4"))})
        assert answers[1].rows != answers[0].rows
        assert answers[2].rows == answers[0].rows

    def test_substitution_reaches_the_fused_join(self):
        plan = Plan(
            (
                MiddlewareCommand("L", Literal(NamedTable.from_rows(("p", "k"), []))),
                MiddlewareCommand("R", Literal(NamedTable.from_rows(("k", "s"), []))),
                MiddlewareCommand(
                    "OUT",
                    Select(JOIN, (NeqConst("p", A), NeqAttr("p", "s"))),
                ),
            ),
            "OUT",
        )
        bound = substitute_constants(plan, {"a": "b"})
        out = bound.executable().commands[-1].expr
        assert out == Join(
            Select(Scan("L"), (NeqConst("p", B),)),
            Scan("R"),
            (NeqAttr("p", "s"),),
        )
        fused = Join(Scan("L"), Scan("R"), (NeqConst("p", A),), ("p",))
        rebound = substitute_constants(
            Plan(plan.commands[:2] + (MiddlewareCommand("OUT", fused),), "OUT"),
            {"a": "b"},
        )
        assert rebound.commands[-1].expr.conditions == (NeqConst("p", B),)


class TestNeverSerialized:
    def test_ir_is_the_plan_as_built(self):
        plan = keyed_plan()
        before = PlanIR.from_plan(plan)
        plan.executable()
        after = PlanIR.from_plan(plan)
        assert after.to_json() == before.to_json()
        assert after.fingerprint() == before.fingerprint()
        assert ir_to_plan(plan_to_ir(plan)) == plan

    def test_a_fused_join_is_refused(self):
        fused = rewritten(Project(Select(JOIN, (NeqAttr("p", "s"),)), ("p",)))
        with pytest.raises(PlanIRError, match="fused join"):
            expr_to_ir(fused)
        assert expr_to_ir(JOIN)["op"] == "join"


X = Variable("x")


class TestFOPlansLowerToIR:
    @pytest.fixture
    def schema(self):
        return SchemaBuilder("s").relation("K", 1).free_access("K").build()

    @pytest.mark.parametrize("negated", [False, True], ids=["eq", "neq"])
    @pytest.mark.parametrize("right", ["a", "b"], ids=["same", "other"])
    def test_constant_equality_runs_everywhere(self, schema, right, negated):
        equality = Eq(Constant("a"), Constant(right))
        formula = And(
            Exists((X,), FOAtom(Atom("K", (X,)))),
            Not(equality) if negated else equality,
        )
        plan = executable_to_plan(formula, schema)
        holds = (right == "a") != negated
        restored = ir_to_plan(plan_to_ir(plan))
        assert restored == plan
        source = InMemorySource(schema, Instance({"K": [("k",)]}))
        for candidate in (plan, restored):
            for executor in ("interpreter", "columnar", "differential"):
                answer = candidate.execute(source, executor=executor)
                assert answer.is_empty != holds, executor
