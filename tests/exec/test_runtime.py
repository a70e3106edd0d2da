"""Tests for the tuned execution runtime: dedup, freeing, stats."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.exec import AccessCache, ExecStats, ExecutionContext
from repro.plans.commands import AccessCommand, MiddlewareCommand, identity_output_map
from repro.plans.expressions import (
    Join,
    NamedTable,
    Project,
    Scan,
    Select,
    EqConst,
    Singleton,
)
from repro.plans.plan import Plan, run_commands
from repro.plans.rewrite import free_schedule
from repro.logic.terms import Constant
from repro.schema.core import SchemaBuilder


@pytest.fixture
def schema():
    return (
        SchemaBuilder("s")
        .relation("R", 2)
        .relation("S", 2)
        .access("mt_R", "R", inputs=[], cost=1.0)
        .access("mt_S", "S", inputs=[0], cost=2.0)
        .build()
    )


@pytest.fixture
def instance():
    return Instance(
        {
            "R": [("a", "1"), ("a", "2"), ("b", "3")],
            "S": [("a", "x"), ("b", "y"), ("c", "z")],
        }
    )


def chained_plan():
    """Scan R, probe S once per distinct first column of R."""
    return Plan(
        (
            AccessCommand(
                "TR", "mt_R", Singleton(), (), identity_output_map(("k", "v"))
            ),
            MiddlewareCommand("TK", Project(Scan("TR"), ("k",))),
            AccessCommand(
                "TS",
                "mt_S",
                Scan("TK"),
                ("k",),
                identity_output_map(("k", "w")),
            ),
            MiddlewareCommand("OUT", Join(Scan("TR"), Scan("TS"))),
        ),
        "OUT",
    )


class TestExecuteEquivalence:
    def test_execute_matches_run(self, schema, instance):
        plan = chained_plan()
        reference = plan.run(InMemorySource(schema, instance, indexed=False))
        tuned = plan.execute(
            InMemorySource(schema, instance),
            ExecutionContext(cache=AccessCache()),
        )
        assert tuned.attributes == reference.attributes
        assert tuned.rows == reference.rows

    def test_no_free_temps_still_matches(self, schema, instance):
        # run_with_env frees nothing: the keep-everything reference.
        plan = chained_plan()
        reference, env = plan.run_with_env(InMemorySource(schema, instance))
        assert set(env) == {"TR", "TK", "TS", "OUT"}
        tuned = plan.execute(InMemorySource(schema, instance))
        assert tuned.rows == reference.rows


class TestDedupDispatch:
    def test_duplicate_bindings_dispatch_once(self, schema, instance):
        # TR has rows (a,1), (a,2), (b,3); probing S on the first column
        # directly (without an explicit projection) must still dispatch
        # only the two distinct keys.
        plan = Plan(
            (
                AccessCommand(
                    "TR",
                    "mt_R",
                    Singleton(),
                    (),
                    identity_output_map(("k", "v")),
                ),
                AccessCommand(
                    "TS",
                    "mt_S",
                    Scan("TR"),
                    ("k",),
                    identity_output_map(("k", "w")),
                ),
            ),
            "TS",
        )
        source = InMemorySource(schema, instance)
        stats = ExecStats()
        plan.execute(source, ExecutionContext(stats=stats))
        probe = stats.commands[1]
        assert probe.rows_in == 3
        assert probe.dispatched == 2
        assert probe.deduped == 1
        assert source.invocations_of("mt_S") == 2

    def test_constant_binding_dispatches_once(self, schema, instance):
        plan = Plan(
            (
                AccessCommand(
                    "TR",
                    "mt_R",
                    Singleton(),
                    (),
                    identity_output_map(("k", "v")),
                ),
                AccessCommand(
                    "TS",
                    "mt_S",
                    Scan("TR"),
                    (Constant("a"),),
                    identity_output_map(("k", "w")),
                ),
            ),
            "TS",
        )
        source = InMemorySource(schema, instance)
        stats = ExecStats()
        plan.execute(source, ExecutionContext(stats=stats))
        # Three input rows all bind the same constant tuple.
        assert stats.commands[1].dispatched == 1
        assert stats.commands[1].deduped == 2
        assert source.invocations_of("mt_S") == 1


class TestCacheIntegration:
    def test_shared_cache_across_runs(self, schema, instance):
        plan = chained_plan()
        source = InMemorySource(schema, instance)
        cache = AccessCache()
        first = plan.execute(source, ExecutionContext(cache=cache))
        invocations_after_first = source.total_invocations
        second = plan.execute(source, ExecutionContext(cache=cache))
        assert first.rows == second.rows
        # Every access of the second run was served from the cache.
        assert source.total_invocations == invocations_after_first
        assert cache.hits > 0

    def test_charge_hits_keeps_invocation_series(self, schema, instance):
        plan = chained_plan()
        uncached = InMemorySource(schema, instance)
        plan.execute(uncached)
        plan.execute(uncached)
        charged = InMemorySource(schema, instance)
        plan.execute(
            charged,
            ExecutionContext(cache=AccessCache(charge_hits=True)),
        )
        plan.execute(
            charged,
            ExecutionContext(cache=AccessCache(charge_hits=True)),
        )
        # Per-run caches with charged hits reproduce the uncached books.
        assert charged.total_invocations == uncached.total_invocations
        assert charged.charged_cost() == pytest.approx(
            uncached.charged_cost()
        )


class TestTempFreeing:
    def test_intermediates_freed_after_last_reader(self, schema, instance):
        plan = chained_plan()
        stats = ExecStats()
        plan.execute(
            InMemorySource(schema, instance),
            ExecutionContext(stats=stats),
        )
        # TK's last reader is the TS access (index 2); TR and TS feed the
        # final join.  Everything except OUT is freed by the end.
        assert sum(c.freed_tables for c in stats.commands) == 3
        assert stats.peak_resident_rows > 0

    def test_dead_target_freed_immediately(self, schema, instance):
        plan = Plan(
            (
                AccessCommand(
                    "TR",
                    "mt_R",
                    Singleton(),
                    (),
                    identity_output_map(("k", "v")),
                ),
                MiddlewareCommand("DEAD", Project(Scan("TR"), ("k",))),
                MiddlewareCommand("OUT", Scan("TR")),
            ),
            "OUT",
        )
        stats = ExecStats()
        output = plan.execute(
            InMemorySource(schema, instance),
            ExecutionContext(stats=stats),
        )
        assert len(output.rows) == 3
        # DEAD is never read: released right after it is produced.
        assert stats.commands[1].freed_tables == 1

    def test_peak_resident_lower_with_freeing(self, schema, instance):
        plan = chained_plan()
        # Nothing freed: every table is still resident when the run ends.
        _, env = plan.run_with_env(InMemorySource(schema, instance))
        kept = sum(len(table.rows) for table in env.values())
        freed = ExecStats()
        plan.execute(
            InMemorySource(schema, instance),
            ExecutionContext(stats=freed),
        )
        assert freed.peak_resident_rows <= kept


class _Write:
    """A command that notes the environment it finds, then writes."""

    kind = "middleware"

    def __init__(self, target, seen):
        self.target = target
        self.seen = seen

    def execute(self, env, source, context, bindings):
        self.seen.append(frozenset(env))
        env[self.target] = NamedTable.singleton()


def drop_after_each(targets, last_read, output):
    """The rule by definition: after each command, drop every table
    whose last reader has run, found in the environment, not the
    output.  Returns what each command found and how many it dropped."""
    env, seen, freed = set(), [], []
    for index, target in enumerate(targets):
        seen.append(frozenset(env))
        env.add(target)
        drop = {
            table
            for table, last in last_read.items()
            if last <= index and table in env and table != output
        }
        env -= drop
        freed.append(len(drop))
    return seen, freed


NAMES = ["a", "b", "c", "d"]


class TestFreeSchedule:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from(NAMES), min_size=1, max_size=7),
        st.dictionaries(st.sampled_from(NAMES), st.integers(-1, 7)),
    )
    def test_same_tables_freed_after_the_same_command(self, targets, last_read):
        # Repeated targets, tables never read, tables read before they
        # are written again: the schedule computed once per form frees
        # exactly what the per-command scan freed.
        output = targets[-1]
        seen = []
        stats = ExecStats()
        commands = [_Write(target, seen) for target in targets]
        run_commands(
            commands,
            output,
            free_schedule(commands, output, last_read),
            {},
            None,
            ExecutionContext(stats=stats),
            len,
        )
        expected_seen, expected_freed = drop_after_each(
            targets, last_read, output
        )
        assert seen == expected_seen
        assert [c.freed_tables for c in stats.commands] == expected_freed


class TestStats:
    def test_stats_shape(self, schema, instance):
        plan = chained_plan()
        stats = ExecStats()
        plan.execute(
            InMemorySource(schema, instance),
            ExecutionContext(stats=stats),
        )
        assert stats.runs == 1
        assert len(stats.commands) == len(plan.commands)
        assert stats.wall_time > 0
        assert stats.accesses_dispatched == stats.source_invocations
        data = stats.as_dict()
        assert data["runs"] == 1
        assert len(data["commands"]) == 4
        assert "dispatched" in stats.summary()

    def test_selection_fused_into_join_same_result(self, schema, instance):
        # σ/π over a join evaluate through the fused path; the plan-level
        # result must match composing the unfused operators.
        env = {
            "A": NamedTable.from_rows(
                ("k", "v"),
                [(Constant("a"), Constant("1")), (Constant("b"), Constant("3"))],
            ),
            "B": NamedTable.from_rows(
                ("k", "w"),
                [(Constant("a"), Constant("x")), (Constant("b"), Constant("y"))],
            ),
        }
        fused = Select(
            Join(Scan("A"), Scan("B")), (EqConst("w", Constant("x")),)
        ).evaluate(env)
        unfused_join = Join(Scan("A"), Scan("B")).evaluate(env)
        expected = frozenset(
            row
            for row in unfused_join.rows
            if row[unfused_join.column("w")] == Constant("x")
        )
        assert fused.rows == expected
