"""Tests for batch execution and constant-rebinding of plans."""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.errors import ReproError
from repro.exec import (
    AccessCache,
    ExecStats,
    ExecutionContext,
    run_request,
    substitute_constants,
)
from repro.logic.terms import Constant
from repro.plans.commands import AccessCommand, MiddlewareCommand, identity_output_map
from repro.plans.expressions import EqConst, Literal, NamedTable, Scan, Select, Singleton
from repro.plans.plan import Plan
from repro.schema.core import SchemaBuilder


@pytest.fixture
def schema():
    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_key", "R", inputs=[0], cost=2.0)
        .build()
    )


@pytest.fixture
def instance():
    return Instance(
        {"R": [("a", "1"), ("a", "2"), ("b", "3"), ("c", "4")]}
    )


def keyed_plan(key="a"):
    """Probe R on a constant key, then filter on a constant value."""
    return Plan(
        (
            AccessCommand(
                "TR",
                "mt_key",
                Singleton(),
                (Constant(key),),
                identity_output_map(("k", "v")),
            ),
            MiddlewareCommand(
                "OUT",
                Select(Scan("TR"), (EqConst("k", Constant(key)),)),
            ),
        ),
        "OUT",
    )


class TestSubstituteConstants:
    def test_rebinds_access_and_condition(self, schema, instance):
        plan = keyed_plan("a")
        rebound = substitute_constants(plan, {"a": "b"})
        source = InMemorySource(schema, instance)
        out = rebound.run(source)
        assert out.rows == frozenset({(Constant("b"), Constant("3"))})
        assert source.log[0].inputs == (Constant("b"),)

    def test_accepts_constant_keys(self, schema, instance):
        plan = keyed_plan("a")
        rebound = substitute_constants(
            plan, {Constant("a"): Constant("c")}
        )
        out = rebound.run(InMemorySource(schema, instance))
        assert out.rows == frozenset({(Constant("c"), Constant("4"))})

    def test_empty_mapping_is_identity(self):
        plan = keyed_plan("a")
        assert substitute_constants(plan, {}) is plan

    def test_rebinds_literal_tables(self, schema, instance):
        plan = Plan(
            (
                MiddlewareCommand(
                    "OUT",
                    Literal(
                        NamedTable.from_rows(("k",), [(Constant("a"),)])
                    ),
                ),
            ),
            "OUT",
        )
        rebound = substitute_constants(plan, {"a": "b"})
        out = rebound.run(InMemorySource(schema, instance))
        assert out.rows == frozenset({(Constant("b"),)})


class TestRunRequest:
    def test_bindings_sweep_shares_cache(self, schema, instance):
        source = InMemorySource(schema, instance)
        cache, stats = AccessCache(), ExecStats()
        context = ExecutionContext(cache=cache, stats=stats)
        outputs = [
            run_request(source, keyed_plan("a"), bindings, context)
            for bindings in ({}, {"a": "b"}, {}, {"a": "b"})
        ]
        assert outputs[0].rows == outputs[2].rows
        assert outputs[1].rows == outputs[3].rows
        # Two distinct probes total; the repeats were cache hits.
        assert source.total_invocations == 2
        assert cache.hits == 2
        assert stats.runs == 4


def run_sequentially(source, plans):
    """The plans one after another through ``run_request``, errors kept."""
    stats = ExecStats()
    context = ExecutionContext(stats=stats)
    outcomes = []
    for plan in plans:
        try:
            outcomes.append(run_request(source, plan, None, context))
        except ReproError as error:
            outcomes.append(error)
    return stats, outcomes


def serve_concurrently(source, plans, workers, cache=None):
    """The plans through a ``QueryService`` pool: the concurrent batch."""
    from repro.service import QueryService

    with QueryService(
        source, workers=workers, max_queue=len(plans), cache=cache
    ) as service:
        tickets = [service.submit(plan) for plan in plans]
        responses = [ticket.result() for ticket in tickets]
    return service, responses


class TestConcurrentRunPlans:
    """The service is the concurrent batch path: it must be
    indistinguishable from a sequential ``run_request`` loop."""

    def broken_plan(self):
        # Wrong arity: dies with an AccessViolation at runtime.
        return Plan(
            (
                AccessCommand(
                    "TR",
                    "mt_key",
                    Singleton(),
                    (),
                    identity_output_map(("k", "v")),
                ),
            ),
            "TR",
        )

    def test_workers_match_sequential_results(self, schema, instance):
        plans = [keyed_plan(k) for k in ("a", "b", "c", "a", "b")]
        _, sequential = run_sequentially(
            InMemorySource(schema, instance), plans
        )
        _, concurrent = serve_concurrently(
            InMemorySource(schema, instance), plans, 4, cache=AccessCache()
        )
        assert len(sequential) == len(concurrent) == len(plans)
        for seq, par in zip(sequential, concurrent):
            assert par.ok
            assert par.table.rows == seq.rows

    def test_workers_preserve_failure_isolation(self, schema, instance):
        plans = [keyed_plan("a"), self.broken_plan(), keyed_plan("b")]
        _, outcomes = run_sequentially(
            InMemorySource(schema, instance), plans
        )
        service, responses = serve_concurrently(
            InMemorySource(schema, instance), plans, 3
        )
        assert [r.ok for r in responses] == [True, False, True]
        # One failing plan poisons neither loop's neighbours.
        for seq, par in zip(outcomes, responses):
            if par.ok:
                assert par.table.rows == seq.rows
            else:
                assert "needs 1 inputs" in str(par.error)
                assert "needs 1 inputs" in str(seq)
        assert len(responses[0].table.rows) == 2
        assert len(responses[2].table.rows) == 1
        assert service.health().failed == 1

    def test_workers_merge_stats_into_the_batch_aggregate(
        self, schema, instance
    ):
        plans = [keyed_plan("a"), keyed_plan("b")]
        sequential_stats, _ = run_sequentially(
            InMemorySource(schema, instance), plans
        )
        service, _ = serve_concurrently(
            InMemorySource(schema, instance), plans, 2
        )
        for stats in (sequential_stats, service.stats):
            assert stats.runs == 2
            assert stats.accesses_dispatched == 2

    def test_scenario_library_equality(self):
        from repro.planner.search import SearchOptions, find_best_plan
        from repro.scenarios import example1, example2, example5

        for factory, budget in (
            (example1, 3), (example2, 4), (example5, 4),
        ):
            scenario = factory()
            result = find_best_plan(
                scenario.schema,
                scenario.query,
                SearchOptions(max_accesses=budget),
            )
            assert result.found, scenario.name
            plans = [result.best_plan] * 4
            source = InMemorySource(scenario.schema, scenario.instance(0))
            _, sequential = run_sequentially(source, plans)
            _, concurrent = serve_concurrently(
                source, plans, 4, cache=AccessCache()
            )
            for seq, par in zip(sequential, concurrent):
                assert par.ok, scenario.name
                assert par.table.rows == seq.rows, scenario.name
