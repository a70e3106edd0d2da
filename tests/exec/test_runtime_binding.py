"""A bound request runs the cached plan as it stands.

``run_request(source, plan, b, ctx)`` reads the bindings ``b`` where the
run reads a constant: a constant condition's stage, an access command's
constant input cell, a literal table's rows.  It must be
indistinguishable from running the rewritten plan
``substitute_constants(plan, b)`` -- the same rows, the same accesses in
the same order, the same per-command dispatch counts -- and it must
build nothing per request.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.exec.batch as batch_module
import repro.plans.expressions as expressions_module
import repro.plans.plan as plan_module
import repro.plans.rewrite as rewrite_module
from repro import cq
from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec import ExecStats, ExecutionContext, run_request, substitute_constants
from repro.logic.terms import Constant
from repro.planner.search import SearchOptions, find_best_plan
from repro.plans.commands import AccessCommand, MiddlewareCommand, identity_output_map
from repro.plans.expressions import (
    NO_BINDINGS,
    EqConst,
    Join,
    Literal,
    NamedTable,
    NeqAttr,
    NeqConst,
    Scan,
    Select,
    Singleton,
)
from repro.plans.plan import Plan
from repro.scenarios import example1, webservices
from repro.scenarios.pathviews import path_views
from repro.schema.core import SchemaBuilder

A, B, C = Constant("a"), Constant("b"), Constant("c")


def venue_query(venue):
    """The ``serve_mix`` template: a venue's titles and authors."""
    return cq(
        ["?t", "?a"],
        [("Articles", ["?d", "?t", venue]), ("AuthorOf", ["?d", "?a"])],
        name="Qvenue",
    )


@lru_cache(maxsize=None)
def scenario_case(name):
    """``(schema, instance, plan)`` of one planned scenario."""
    if name == "example1":
        scenario, query, accesses = example1(), None, 3
    elif name == "venue_template":
        scenario, query, accesses = webservices(12, 4, 2), venue_query("venue0"), 8
    elif name == "path_views":
        scenario, query, accesses = path_views(), None, 6
    else:
        scenario, query, accesses = webservices(6, 3, 2), None, 8
    query = query if query is not None else scenario.query
    result = find_best_plan(
        scenario.schema, query, SearchOptions(max_accesses=accesses)
    )
    assert result.found, name
    return scenario.schema, scenario.instance(0), result.best_plan


def keyed_schema():
    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .relation("S", 3)
        .access("mt_key", "R", inputs=[0], cost=2.0)
        .access("mt_pair", "S", inputs=[0, 1], cost=2.0)
        .build()
    )


def keyed_instance():
    return Instance(
        {
            "R": [("a", "1"), ("a", "2"), ("b", "3"), ("c", "4"), ("d", "5")],
            "S": [("1", "a", "x"), ("2", "b", "y"), ("3", "a", "z"), ("4", "c", "w")],
        }
    )


KV = identity_output_map(("k", "v"))


def literal_plan():
    """A literal table of constants feeds the probes, then a filter."""
    keys = NamedTable.from_rows(("k",), [(A,), (C,)])
    return Plan(
        (
            MiddlewareCommand("K", Literal(keys)),
            AccessCommand("TR", "mt_key", Scan("K"), ("k",), KV),
            MiddlewareCommand("OUT", Select(Scan("TR"), (NeqConst("k", C),))),
        ),
        "OUT",
    )


def input_cell_plan():
    """Probe R on a constant key; probe S on an attribute and a constant."""
    return Plan(
        (
            AccessCommand("TR", "mt_key", Singleton(), (A,), KV),
            AccessCommand(
                "TS", "mt_pair", Scan("TR"), ("v", B), identity_output_map("vwz")
            ),
            MiddlewareCommand("OUT", Join(Scan("TR"), Scan("TS"))),
        ),
        "OUT",
    )


def keyed_case(name):
    plan = literal_plan() if name == "literal" else input_cell_plan()
    return keyed_schema(), keyed_instance(), plan


PLANNED = ["example1", "venue_template", "path_views", "webservices"]
CASES = PLANNED + ["literal", "input_cell"]


def case(name):
    if name in ("literal", "input_cell"):
        return keyed_case(name)
    return scenario_case(name)


def plan_constants(plan):
    """Every constant the plan's run reads, in a stable order."""
    found = {}

    def expr(node):
        if isinstance(node, Literal):
            for row in sorted(node.table.rows):
                found.update(dict.fromkeys(row))
        for condition in getattr(node, "conditions", ()):
            if isinstance(condition, (EqConst, NeqConst)):
                found[condition.value] = None
        for child in node.children():
            expr(child)

    for command in plan.commands:
        if isinstance(command, AccessCommand):
            expr(command.input_expr)
            cells = command.input_binding
            found.update(dict.fromkeys(c for c in cells if isinstance(c, Constant)))
        else:
            expr(command.expr)
    return list(found)


def active_domain(instance):
    cells = {
        cell
        for relation in instance.relations()
        for row in instance.tuples(relation)
        for cell in row
    }
    return sorted(cells, key=repr)


def observe(run, schema, instance):
    """The rows, the ordered access log and the per-command dispatch
    counts of one run over a fresh source."""
    source = InMemorySource(schema, instance)
    stats = ExecStats()
    table = run(source, ExecutionContext(stats=stats))
    log = [(record.method, record.inputs) for record in source.log]
    books = [(c.method, c.dispatched, c.rows_fetched) for c in stats.commands]
    return table.attributes, table.rows, log, books


def agree(schema, instance, plan, bindings):
    """``run_request`` under ``bindings`` against the rewritten plan."""
    rebuilt = substitute_constants(plan, bindings)
    bound = observe(
        lambda source, ctx: run_request(source, plan, bindings, ctx), schema, instance
    )
    return bound == observe(rebuilt.execute, schema, instance)


@st.composite
def bindings_for(draw, constants, domain):
    """A mapping onto the active domain, onto fresh values, a swap or a chain."""
    fresh = [Constant("fresh_0"), Constant("fresh_1")]
    kind = draw(st.sampled_from(["domain", "fresh", "swap", "chain"]))
    old = draw(st.sampled_from(constants or domain))
    new = draw(st.sampled_from(fresh if kind == "fresh" else domain))
    if kind == "swap":
        return {old: new, new: old}
    if kind == "chain":
        return {old: new, new: draw(st.sampled_from(domain + fresh))}
    return {old: new}


class TestDifferential:
    @pytest.mark.parametrize("name", CASES)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bound_run_equals_the_rewritten_plan(self, name, data):
        schema, instance, plan = case(name)
        domain = active_domain(instance)
        bindings = data.draw(bindings_for(plan_constants(plan), domain))
        assert agree(schema, instance, plan, bindings)

    @pytest.mark.parametrize(
        "name", ["example1", "venue_template", "literal", "input_cell"]
    )
    def test_the_plan_reads_a_constant(self, name):
        # The cases whose mapping must reach a read site (path_views and
        # the bibliography query mention none: a mapping renames nothing).
        assert plan_constants(case(name)[2])

    def test_raw_values_are_coerced(self):
        schema, instance, plan = keyed_case("input_cell")
        assert agree(schema, instance, plan, {"a": "c", "b": "a"})

    def test_a_swap_is_applied_once(self):
        schema, instance, plan = keyed_case("literal")
        out = run_request(
            InMemorySource(schema, instance), plan, {A: C, C: A}, ExecutionContext()
        )
        # Keys {a, c} swapped are {c, a}; the filter now drops a.
        assert {row[0] for row in out.rows} == {C}


class TestFusedJoin:
    """The rewrite pushes a constant condition below the join, so only a
    fused join evaluated as it stands reads its constant at the join."""

    ENV = {
        "L": NamedTable.from_rows(("p", "k"), [(A, C), (B, C), (C, A)]),
        "R": NamedTable.from_rows(("k", "s"), [(C, A), (C, B), (A, C)]),
    }

    @pytest.mark.parametrize(
        "bindings", [{A: B}, {A: B, B: A}, {A: Constant("fresh")}, {A: B, B: C}]
    )
    def test_neq_const_in_a_fused_join(self, bindings):
        conditions = (NeqConst("p", A), NeqAttr("p", "s"))
        fused = Join(Scan("L"), Scan("R"), conditions, ("p", "s"))
        tables = tuple(
            MiddlewareCommand(name, Literal(table)) for name, table in self.ENV.items()
        )
        plan = Plan(tables + (MiddlewareCommand("OUT", fused),), "OUT")
        rebuilt = substitute_constants(plan, bindings).commands[-1].expr
        assert fused.evaluate(self.ENV, bindings) == rebuilt.evaluate(self.ENV)
        assert fused.evaluate(self.ENV, bindings) != fused.evaluate(self.ENV)


def mutant_conditions(monkeypatch):
    real = expressions_module._compile_conditions
    monkeypatch.setattr(
        expressions_module,
        "_compile_conditions",
        lambda conditions, colmap, bindings=NO_BINDINGS: real(conditions, colmap),
    )


def mutant_input_cells(monkeypatch):
    monkeypatch.setattr(
        AccessCommand, "_bound_input", lambda self, bindings: self.input_binding
    )


def mutant_literal(monkeypatch):
    monkeypatch.setattr(
        Literal, "evaluate", lambda self, env, bindings=NO_BINDINGS: self.table
    )


class _Twice(dict):
    """A mapping whose every read applies it twice."""

    def get(self, key, default=None):
        once = dict.get(self, key, default)
        return dict.get(self, once, once)


def mutant_twice(monkeypatch):
    real = batch_module.run_commands

    def run_commands(*args, bindings=NO_BINDINGS):
        return real(*args, bindings=_Twice(bindings))

    monkeypatch.setattr(batch_module, "run_commands", run_commands)


class TestMutantsDie:
    """Each read site left out, and the mapping applied twice, is caught
    by the differential on a fixed set of plans and swaps."""

    PROBES = [
        ("example1", {"smith": "jones"}),
        ("venue_template", {"venue0": "venue3"}),
        ("literal", {A: C, C: A}),
        ("literal", {A: B, B: C}),
        ("input_cell", {A: B, B: A}),
        ("input_cell", {A: C, B: C}),
    ]

    def probe(self):
        results = []
        for name, bindings in self.PROBES:
            schema, instance, plan = case(name)
            results.append(agree(schema, instance, plan, bindings))
        return results

    def test_the_probes_pass_unmutated(self):
        assert all(self.probe())

    @pytest.mark.parametrize(
        "mutate",
        [mutant_conditions, mutant_input_cells, mutant_literal, mutant_twice],
        ids=["no-condition-site", "no-input-cell-site", "no-literal-site", "twice"],
    )
    def test_mutant_dies(self, monkeypatch, mutate):
        mutate(monkeypatch)
        assert not all(self.probe())

    def test_the_join_site_mutant_dies(self, monkeypatch):
        mutant_conditions(monkeypatch)
        fused = Join(Scan("L"), Scan("R"), (NeqConst("p", A),), ("p",))
        env = TestFusedJoin.ENV
        assert fused.evaluate(env, {A: B}) == fused.evaluate(env)


class TestNothingBuiltPerRequest:
    def test_a_bound_run_builds_no_plan_form_or_schedule(self, monkeypatch):
        schema, instance, plan = case("venue_template")
        source = InMemorySource(schema, instance)
        run_request(source, plan, {"venue0": "venue1"}, ExecutionContext())
        calls = []

        def spy(name, function):
            def spied(*args, **kwargs):
                calls.append(name)
                return function(*args, **kwargs)

            return spied

        monkeypatch.setattr(Plan, "__init__", spy("init", Plan.__init__))
        monkeypatch.setattr(Plan, "validate", spy("validate", Plan.validate))
        monkeypatch.setattr(plan_module, "rewrite", spy("rewrite", plan_module.rewrite))
        schedule = rewrite_module.free_schedule
        monkeypatch.setattr(
            rewrite_module, "free_schedule", spy("free_schedule", schedule)
        )
        context = ExecutionContext()
        for venue in ("venue2", "venue0", "venue3", "venue2"):
            run_request(source, plan, {"venue0": venue}, context)
        run_request(source, plan, None, context)
        assert calls == []
        # The spies are live: a plan built from scratch trips all four.
        Plan(plan.commands, plan.output_table).executable()
        assert sorted(set(calls)) == ["free_schedule", "init", "rewrite", "validate"]

    def test_key_attributes_are_read_once_per_schema(self, monkeypatch):
        schema, instance, plan = keyed_case("input_cell")
        source = InMemorySource(schema, instance)
        run_request(source, plan, None, ExecutionContext())
        lookups = []
        real = type(schema).method
        monkeypatch.setattr(
            type(schema),
            "method",
            lambda self, name: lookups.append(name) or real(self, name),
        )
        run_request(source, plan, {A: B}, ExecutionContext())
        assert [m for m in lookups if m in ("mt_key", "mt_pair")] == []
        # The spy is live: a new plan's commands look their keys up.
        run_request(source, input_cell_plan(), {A: B}, ExecutionContext())
        assert "mt_key" in lookups


@pytest.mark.timeout(120)
def test_a_bound_request_through_the_process_tier():
    from repro.service import QueryService
    from repro.service.workers import ProcessWorkerPool

    schema, instance, plan = case("venue_template")
    bindings = {"venue0": "venue2"}
    reference = run_request(
        InMemorySource(schema, instance), plan, bindings, ExecutionContext()
    )
    unbound = run_request(
        InMemorySource(schema, instance), plan, None, ExecutionContext()
    )
    assert reference.rows and reference.rows != unbound.rows
    source = InMemorySource(schema, instance)
    pool = ProcessWorkerPool(source, workers=1)
    with QueryService(source, workers=1, worker_pool=pool) as service:
        response = service.serve(plan, timeout=60, bindings=bindings)
    assert response.complete, response.describe()
    assert response.table.attributes == reference.attributes
    assert response.table.rows == reference.rows
