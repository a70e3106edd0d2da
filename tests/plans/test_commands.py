"""Unit tests for access and middleware command semantics."""

import pytest

from repro.data.instance import Instance
from repro.data.source import AccessViolation, InMemorySource
from repro.exec.context import ExecutionContext
from repro.exec.stats import CommandStats
from repro.logic.terms import Constant
from repro.plans.commands import (
    AccessCommand,
    MiddlewareCommand,
    identity_output_map,
)
from repro.plans.expressions import (
    NamedTable,
    Project,
    Scan,
    Singleton,
)
from repro.schema.core import SchemaBuilder


A, B = Constant("a"), Constant("b")


@pytest.fixture
def source():
    schema = (
        SchemaBuilder("s")
        .relation("R", 3)
        .access("mt_key", "R", inputs=[0])
        .access("mt_scan", "R", inputs=[])
        .build()
    )
    instance = Instance(
        {
            "R": [
                ("a", "1", "x"),
                ("a", "2", "y"),
                ("b", "3", "x"),
            ]
        }
    )
    return InMemorySource(schema, instance)


class TestAccessCommand:
    def test_free_access_collects_everything(self, source):
        command = AccessCommand(
            "T", "mt_scan", Singleton(), (), identity_output_map(("p0", "p1", "p2"))
        )
        env = {}
        table = command.execute(env, source)
        assert len(table) == 3
        assert env["T"] is table

    def test_keyed_access_per_input_row(self, source):
        env = {"IN": NamedTable.from_rows(["k"], [(A,), (B,)])}
        command = AccessCommand(
            "T",
            "mt_key",
            Scan("IN"),
            ("k",),
            identity_output_map(("p0", "p1", "p2")),
        )
        table = command.execute(env, source)
        assert len(table) == 3
        assert source.total_invocations == 2

    def test_constant_input_binding(self, source):
        command = AccessCommand(
            "T",
            "mt_key",
            Singleton(),
            (Constant("a"),),
            identity_output_map(("p0", "p1", "p2")),
        )
        table = command.execute({}, source)
        assert len(table) == 2

    def test_input_rows_deduplicated_by_projection(self, source):
        env = {
            "IN": NamedTable.from_rows(
                ["k", "junk"], [(A, Constant("j1")), (A, Constant("j2"))]
            )
        }
        command = AccessCommand(
            "T",
            "mt_key",
            Scan("IN"),
            ("k",),
            identity_output_map(("p0", "p1", "p2")),
        )
        command.execute(env, source)
        assert source.total_invocations == 1  # projection deduplicates

    def test_empty_input_no_access(self, source):
        env = {"IN": NamedTable.empty(["k"])}
        command = AccessCommand(
            "T",
            "mt_key",
            Scan("IN"),
            ("k",),
            identity_output_map(("p0", "p1", "p2")),
        )
        table = command.execute(env, source)
        assert table.is_empty
        assert source.total_invocations == 0

    def test_output_duplication(self, source):
        # b_out maps position 0 to two attributes.
        command = AccessCommand(
            "T",
            "mt_scan",
            Singleton(),
            (),
            (("k1", (0,)), ("k2", (0,)), ("v", (2,))),
        )
        table = command.execute({}, source)
        for row in table.rows:
            assert row[0] == row[1]

    def test_output_equality_filter(self, source):
        # One attribute fed by positions 1 and 2: keeps rows where they agree.
        command = AccessCommand(
            "T", "mt_scan", Singleton(), (), (("same", (1, 2)),)
        )
        table = command.execute({}, source)
        assert table.is_empty  # no row has equal 2nd and 3rd columns

    def test_wrong_input_arity_raises(self, source):
        command = AccessCommand(
            "T", "mt_key", Singleton(), (), identity_output_map(("p0", "p1", "p2"))
        )
        with pytest.raises(AccessViolation):
            command.execute({}, source)


def cells(*rows):
    return frozenset(tuple(Constant(v) for v in row) for row in rows)


def run_with_stats(command, env, source):
    context = ExecutionContext()
    stats = context.command_stats = CommandStats(
        index=0, target=command.target, kind="access"
    )
    table = command.execute(env, source, context)
    return table, (
        stats.rows_in,
        stats.dispatched,
        stats.deduped,
        stats.rows_fetched,
        len(table.rows),  # rows_out is the command loop's to record
    )


class TestOutputMapShapes:
    """Every shape of ``b_out``: same answers and stats whichever of the
    set-at-a-time or row-at-a-time collectors serves it."""

    def keyed(self, output_map, binding=("k",)):
        return AccessCommand("T", "mt_key", Scan("IN"), binding, output_map)

    @pytest.fixture
    def env(self):
        return {"IN": NamedTable.from_rows(["k"], [(A,), (B,)])}

    def test_identity_map_unions_the_answers(self, source, env):
        table, stats = run_with_stats(
            self.keyed(identity_output_map(("p0", "p1", "p2"))), env, source
        )
        assert table.attributes == ("p0", "p1", "p2")
        assert table.rows == cells(
            ("a", "1", "x"), ("a", "2", "y"), ("b", "3", "x")
        )
        assert stats == (2, 2, 0, 3, 3)
        # The source's own tuples went in: nothing was re-tupled.
        stored = {id(row) for row in source.instance.tuples("R")}
        assert {id(row) for row in table.rows} <= stored

    def test_prefix_map_still_projects(self, source, env):
        table, stats = run_with_stats(
            self.keyed(identity_output_map(("p0",))), env, source
        )
        assert table.rows == cells(("a",), ("b",))
        assert stats == (2, 2, 0, 3, 2)
        table, stats = run_with_stats(
            self.keyed(identity_output_map(("p0", "p1"))), env, source
        )
        assert table.rows == cells(("a", "1"), ("a", "2"), ("b", "3"))
        assert stats == (2, 2, 0, 3, 3)

    def test_permuted_map(self, source, env):
        table, stats = run_with_stats(
            self.keyed((("v", (2,)), ("k", (0,)))), env, source
        )
        assert table.rows == cells(("x", "a"), ("y", "a"), ("x", "b"))
        assert stats == (2, 2, 0, 3, 3)

    def test_duplicated_position_map(self, source, env):
        table, stats = run_with_stats(
            self.keyed((("k1", (0,)), ("k2", (0,)), ("v", (2,)))), env, source
        )
        assert table.rows == cells(
            ("a", "a", "x"), ("a", "a", "y"), ("b", "b", "x")
        )
        assert stats == (2, 2, 0, 3, 3)

    def test_equality_filter_map(self):
        schema = (
            SchemaBuilder("s").relation("R", 3).access("mt_key", "R", inputs=[0])
        ).build()
        instance = Instance(
            {"R": [("a", "1", "1"), ("a", "2", "y"), ("b", "3", "3")]}
        )
        source = InMemorySource(schema, instance)
        env = {"IN": NamedTable.from_rows(["k"], [(A,), (B,)])}
        table, stats = run_with_stats(
            self.keyed((("k", (0,)), ("same", (1, 2)))), env, source
        )
        assert table.rows == cells(("a", "1"), ("b", "3"))
        assert stats == (2, 2, 0, 3, 2)

    def test_empty_answers(self, source):
        env = {"IN": NamedTable.from_rows(["k"], [(Constant("nobody"),)])}
        table, stats = run_with_stats(
            self.keyed(identity_output_map(("p0", "p1", "p2"))), env, source
        )
        assert table.is_empty
        assert stats == (1, 1, 0, 0, 0)


class TestInputBindingShapes:
    @pytest.fixture
    def wide(self):
        schema = (
            SchemaBuilder("s")
            .relation("W", 3)
            .access("mt_two", "W", inputs=[0, 1])
            .build()
        )
        instance = Instance(
            {"W": [("a", "a", "1"), ("a", "b", "2"), ("b", "b", "3")]}
        )
        return InMemorySource(schema, instance)

    def command(self, binding):
        return AccessCommand(
            "T",
            "mt_two",
            Scan("IN"),
            binding,
            identity_output_map(("p0", "p1", "p2")),
        )

    def test_binding_equal_to_the_projected_attributes(self, wide):
        env = {
            "IN": NamedTable.from_rows(
                ["k", "junk", "l"],
                [(A, Constant("j1"), B), (A, Constant("j2"), B), (B, A, B)],
            )
        }
        table, stats = run_with_stats(self.command(("k", "l")), env, wide)
        assert table.rows == cells(("a", "b", "2"), ("b", "b", "3"))
        assert stats == (3, 2, 1, 2, 2)
        assert wide.distinct_accesses() == {
            ("mt_two", (A, B)),
            ("mt_two", (B, B)),
        }

    def test_binding_repeats_an_attribute(self, wide):
        env = {"IN": NamedTable.from_rows(["k"], [(A,), (B,)])}
        table, stats = run_with_stats(self.command(("k", "k")), env, wide)
        assert table.rows == cells(("a", "a", "1"), ("b", "b", "3"))
        assert stats == (2, 2, 0, 2, 2)
        assert wide.distinct_accesses() == {
            ("mt_two", (A, A)),
            ("mt_two", (B, B)),
        }

    def test_binding_mixes_in_a_constant(self, wide):
        env = {"IN": NamedTable.from_rows(["k"], [(A,), (B,)])}
        table, stats = run_with_stats(
            self.command(("k", Constant("b"))), env, wide
        )
        assert table.rows == cells(("a", "b", "2"), ("b", "b", "3"))
        assert stats == (2, 2, 0, 2, 2)

    def test_constants_only_binding_collapses_every_input_row(self, wide):
        env = {"IN": NamedTable.from_rows(["k"], [(A,), (B,)])}
        table, stats = run_with_stats(
            self.command((Constant("a"), Constant("a"))), env, wide
        )
        assert table.rows == cells(("a", "a", "1"))
        assert stats == (2, 1, 1, 1, 1)


class TestMiddlewareCommand:
    def test_assigns_expression_result(self, source):
        env = {"IN": NamedTable.from_rows(["k"], [(A,), (B,)])}
        command = MiddlewareCommand("OUT", Project(Scan("IN"), ("k",)))
        table = command.execute(env, source)
        assert env["OUT"] is table
        assert len(table) == 2

    def test_no_access_cost(self, source):
        env = {"IN": NamedTable.from_rows(["k"], [(A,)])}
        MiddlewareCommand("OUT", Scan("IN")).execute(env, source)
        assert source.total_invocations == 0
