"""Each operator's layout is fixed when the executable form is built.

The rewrite gives every operator of a plan's executable form what its
run needs that its inputs' attributes fix -- a join's key attributes,
pair columns, stages and pickers; a projection's picker; a selection's
stages; a rename's new attributes -- on nodes the form owns.  A run
reads only the stages' bound values, the build side and the ready
answers.  Checked here:

* a bound run builds no layout and no picker (a spy);
* every operator of the scenario plans' forms keeps a layout whose
  attributes are the static ones and those of the table it produces;
* a name that does not check fails when the form is built, before any
  access;
* the form owns its nodes: the plan as built carries no layout;
* a join run through another join's layout is caught.
"""

import pickle

import pytest

import repro.plans.commands as commands_module
import repro.plans.expressions as expressions_module
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec import ExecutionContext, run_request
from repro.logic.terms import Constant
from repro.plans.commands import AccessCommand, MiddlewareCommand, identity_output_map
from repro.plans.expressions import (
    Difference,
    EqAttr,
    EqConst,
    EvaluationError,
    Join,
    Literal,
    NamedTable,
    Project,
    Rename,
    Scan,
    Select,
    Union,
)
from repro.plans.plan import Plan
from repro.scenarios import example5
from tests.exec.test_runtime_binding import PLANNED, case, keyed_case

A, B, C = Constant("a"), Constant("b"), Constant("c")

#: The layout kinds and the picker builders a run must not call.
LAYOUT_KINDS = ("_Projection", "_Selection", "_Renaming", "_JoinLayout", "_Filter")


def operators_plan():
    """Literal tables through every operator kind the form lays out."""
    rows = [(A, B), (B, C), (C, A), (A, A)]
    return Plan(
        (
            MiddlewareCommand("L", Literal(NamedTable.from_rows(("x", "y"), rows))),
            MiddlewareCommand("R", Literal(NamedTable.from_rows(("y", "z"), rows))),
            MiddlewareCommand(
                "J",
                Project(
                    Select(Join(Scan("L"), Scan("R")), (EqAttr("x", "z"),)),
                    ("y", "x"),
                ),
            ),
            MiddlewareCommand(
                "U",
                Union(
                    Scan("J"),
                    Rename(
                        Select(Scan("L"), (EqConst("x", A),)), (("x", "y"), ("y", "x"))
                    ),
                ),
            ),
            MiddlewareCommand("OUT", Difference(Scan("U"), Scan("J"))),
        ),
        "OUT",
    )


def example5_case():
    from repro.planner.search import find_best_plan

    scenario = example5()
    plan = find_best_plan(scenario.schema, scenario.query).best_plan
    return scenario.schema, scenario.instance(0), plan


def all_cases():
    cases = [case(name) for name in PLANNED]
    cases += [keyed_case("input_cell"), keyed_case("literal"), example5_case()]
    cases.append((keyed_case("literal")[0], Instance({}), operators_plan()))
    return cases


def nodes(expr):
    yield expr
    for child in expr.children():
        yield from nodes(child)


def form_nodes(plan):
    """Every expression node of the plan's form, by command."""
    for command in plan.executable().commands:
        root = command.input_expr if isinstance(command, AccessCommand) else command.expr
        yield command, list(nodes(root))


def fresh(plan):
    """The same commands as a new plan object: a form of its own."""
    return Plan(plan.commands, plan.output_table)


# ------------------------------------------------------------ the spy
class TestNothingLaidOutPerRun:
    def test_a_bound_run_builds_no_layout(self, monkeypatch):
        schema, instance, plan = case("venue_template")
        source = InMemorySource(schema, instance)
        run_request(source, plan, {"venue0": "venue1"}, ExecutionContext())
        calls = []

        def spied(name, function):
            def spy(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return spy

        for kind in LAYOUT_KINDS:
            cls = getattr(expressions_module, kind)
            monkeypatch.setattr(cls, "__init__", spied(kind, cls.__init__))
        for module in (expressions_module, commands_module):
            monkeypatch.setattr(
                module, "row_picker", spied("row_picker", module.row_picker)
            )
        monkeypatch.setattr(
            expressions_module,
            "_key_picker",
            spied("_key_picker", expressions_module._key_picker),
        )
        context = ExecutionContext()
        for venue in ("venue2", "venue0", "venue3", "venue2"):
            run_request(source, plan, {"venue0": venue}, context)
        run_request(source, plan, None, context)
        assert calls == []
        # The spies are live: a new form lays out every operator.
        fresh(plan).executable()
        assert {"_JoinLayout", "_Filter", "_Projection", "row_picker"} <= set(calls)


# ------------------------------------------------ layouts match the run
class TestLayoutsMatchTheRun:
    @pytest.mark.parametrize("index", range(8))
    def test_every_operator_laid_out_as_its_table_comes(self, index, monkeypatch):
        schema, instance, plan = all_cases()[index]
        produced = {}
        for cls in (Project, Select, Join, Rename, Union, Difference):
            real = cls.evaluate

            def evaluate(self, env, bindings=expressions_module.NO_BINDINGS, real=real):
                table = real(self, env, bindings)
                produced.setdefault(id(self), set()).add(table.attributes)
                return table

            monkeypatch.setattr(cls, "evaluate", evaluate)
        plan.execute(InMemorySource(schema, instance))
        static = {}
        laid_out = 0
        for command, tree in form_nodes(plan):
            for node in tree:
                if not node.children():
                    assert node._layout is None
                    continue
                laid_out += 1
                attributes = node._layout.attributes
                assert node.attributes(static) == attributes, node
                assert produced.get(id(node), {attributes}) == {attributes}, node
            if isinstance(command, AccessCommand):
                assert command._layout.attributes == command.input_attrs
                static[command.target] = command.output_attrs
            else:
                static[command.target] = command.expr.attributes(static)
        assert laid_out and set(produced) <= {
            id(node) for _, tree in form_nodes(plan) for node in tree
        }

    @pytest.mark.parametrize("index", range(8))
    def test_the_plan_as_built_keeps_no_layout(self, index):
        plan = fresh(all_cases()[index][2])
        plan.executable()
        built = {
            id(node) for _, tree in form_nodes(plan) for node in tree if node.children()
        }
        for command in plan.commands:
            root = getattr(command, "expr", None)
            if isinstance(command, AccessCommand):
                assert command._layout is None
                root = command.input_expr
            for node in nodes(root):
                assert node._layout is None
                assert id(node) not in built


def test_a_plan_that_has_run_still_pickles():
    schema, instance, plan = keyed_case("input_cell")
    plan = fresh(plan)
    answer = plan.execute(InMemorySource(schema, instance))
    restored = pickle.loads(pickle.dumps(plan))
    assert restored == plan and "_executable" not in restored.__dict__
    assert restored.execute(InMemorySource(schema, instance)) == answer


# --------------------------------------------- names fail at form build
SCHEMA_CASE = keyed_case("literal")


@pytest.mark.parametrize(
    "expr",
    [
        Project(Scan("T"), ("k", "zz")),
        Select(Scan("T"), (EqConst("zz", A),)),
        Join(Scan("T"), Scan("T"), (EqAttr("k", "zz"),)),
        Project(Scan("T"), ("k", "k")),
        Join(Scan("T"), Rename(Scan("T"), (("v", "w"),)), (), ("w", "w")),
        Rename(Scan("T"), (("k", "v"),)),
        Union(Scan("T"), Project(Scan("T"), ("k",))),
    ],
    ids=[
        "project-unknown",
        "select-unknown",
        "join-unknown",
        "project-twice",
        "join-project-twice",
        "rename-onto-another",
        "union-mismatch",
    ],
)
def test_a_name_that_does_not_check_fails_at_form_build(expr):
    schema, instance, _ = SCHEMA_CASE
    plan = Plan(
        (
            MiddlewareCommand("K", Literal(NamedTable.from_rows(("k",), [(A,)]))),
            AccessCommand("T", "mt_key", Scan("K"), ("k",), identity_output_map("kv")),
            MiddlewareCommand("OUT", expr),
        ),
        "OUT",
    )
    source = InMemorySource(schema, instance)
    with pytest.raises(EvaluationError):
        plan.executable()
    with pytest.raises(EvaluationError):
        plan.execute(source)
    assert source.total_invocations == 0


# ------------------------------------------------------------ the mutant
def outcome(schema, instance, plan):
    try:
        table = plan.execute(InMemorySource(schema, instance))
    except Exception as error:  # a wrong layout may index past a row
        return type(error).__name__
    return table.attributes, table.rows


def test_a_join_run_through_another_joins_layout_is_caught(monkeypatch):
    cases = all_cases()
    expected = [outcome(schema, instance, fresh(plan))
                for schema, instance, plan in cases]
    first = []
    real = Join.layout

    def reused(self, left, right):
        if not first:
            first.append(real(self, left, right))
        return first[0]

    monkeypatch.setattr(Join, "layout", reused)
    mutated = [outcome(schema, instance, fresh(plan))
               for schema, instance, plan in cases]
    assert first, "no join was laid out"
    assert mutated != expected
