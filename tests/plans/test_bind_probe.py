"""The bind probe: a join reads an access table back through its keys.

An access command under the identity output map keeps its answers by
key on the table it produces; a join uses them as its hash table only
when the key is non-empty and equal to the shared attributes.  A spy on
``_ready_answers`` says which joins took the probe, so the guard is
asserted on what the join did, not on how long it took.
"""

import pytest

from repro.data.instance import Instance
from repro.data.source import InMemorySource
from repro.logic.terms import Constant
from repro.plans import expressions
from repro.plans.commands import AccessCommand, MiddlewareCommand, identity_output_map
from repro.plans.expressions import (
    EqConst,
    Join,
    Literal,
    NamedTable,
    Project,
    Rename,
    Scan,
    Select,
    Singleton,
)
from repro.plans.plan import Plan
from repro.schema.core import SchemaBuilder

A, B, C = Constant("a"), Constant("b"), Constant("c")

SCHEMA = (
    SchemaBuilder("probe")
    .relation("R", 2)
    .relation("S", 3)
    .access("mt_R", "R", inputs=[], cost=1.0)
    .access("mt_R0", "R", inputs=[0], cost=1.0)
    .access("mt_S0", "S", inputs=[0], cost=1.0)
    .build()
)
INSTANCE = Instance(
    {
        "R": [("a", "b"), ("a", "c"), ("b", "c"), ("c", "a")],
        "S": [("a", "b", "c"), ("a", "c", "a"), ("b", "b", "b"), ("b", "a", "c")],
    }
)


def source():
    return InMemorySource(SCHEMA, INSTANCE)


def literal(name, attrs, rows):
    return MiddlewareCommand(name, Literal(NamedTable.from_rows(attrs, rows)))


@pytest.fixture
def probes(monkeypatch):
    """``(key attributes, probe taken)`` for each join input with answers."""
    seen = []
    real = expressions._ready_answers

    def spy(table, shared):
        ready = real(table, shared)
        keyed = table.answers_by_key()
        if keyed is not None:
            seen.append((keyed[0], ready is not None))
        return ready

    monkeypatch.setattr(expressions, "_ready_answers", spy)
    return seen


def run_all(plan):
    """The output under every way to run a plan; they must agree."""
    outputs = {
        (out.attributes, out.rows)
        for out in (
            plan.run(source()),
            plan.execute(source()),
            plan.execute(source(), executor="columnar"),
        )
    }
    assert len(outputs) == 1
    return outputs.pop()


class TestTheGuard:
    def test_key_equal_to_the_shared_attributes_takes_the_probe(self, probes):
        plan = Plan(
            (
                literal("T", ("x",), [(A,), (B,)]),
                AccessCommand(
                    "F", "mt_R0", Scan("T"), ("x",), identity_output_map(("f0", "f1"))
                ),
                MiddlewareCommand(
                    "OUT", Join(Scan("T"), Rename(Scan("F"), (("f0", "x"),)))
                ),
            ),
            "OUT",
        )
        attrs, rows = run_all(plan)
        assert attrs == ("x", "f1")
        assert rows == {(A, B), (A, C), (B, C)}
        assert probes and all(taken for _, taken in probes)
        assert {key for key, _ in probes} == {("x",)}

    def test_an_input_free_access_never_probes(self, probes):
        plan = Plan(
            (
                AccessCommand(
                    "F", "mt_R", Singleton(), (), identity_output_map(("k", "v"))
                ),
                AccessCommand(
                    "G", "mt_R", Singleton(), (), identity_output_map(("w", "k"))
                ),
                literal("L", ("z",), [(A,), (B,)]),
                # No shared attribute: the empty key equals the shared
                # set, and still the join builds its own (one) bucket.
                MiddlewareCommand("CROSS", Join(Scan("F"), Scan("L"))),
                MiddlewareCommand("OUT", Join(Scan("F"), Scan("G"))),
            ),
            "OUT",
        )
        attrs, rows = run_all(plan)
        assert attrs == ("k", "v", "w")
        assert rows == {(A, B, C), (A, C, C), (B, C, A), (C, A, A), (C, A, B)}
        assert probes and not any(taken for _, taken in probes)
        assert {key for key, _ in probes} == {()}

    def test_a_key_strictly_inside_the_shared_attributes_never_probes(self, probes):
        plan = Plan(
            (
                literal("T", ("x", "y"), [(A, B), (A, A), (B, B)]),
                AccessCommand(
                    "F",
                    "mt_S0",
                    Project(Scan("T"), ("x",)),
                    ("x",),
                    identity_output_map(("f0", "f1", "f2")),
                ),
                MiddlewareCommand(
                    "OUT",
                    Join(Scan("T"), Rename(Scan("F"), (("f0", "x"), ("f1", "y")))),
                ),
            ),
            "OUT",
        )
        attrs, rows = run_all(plan)
        assert attrs == ("x", "y", "f2")
        # The answers to key a are (a, b, c) and (a, c, a); only the first
        # agrees with a row of T on y.
        assert rows == {(A, B, C), (B, B, B)}
        assert probes and not any(taken for _, taken in probes)

    @pytest.mark.parametrize(
        "output_map",
        [
            (("f1", (1,)), ("f0", (0,))),
            (("f0", (0,)),),
            (("f0", (0, 1)),),
        ],
        ids=["permuted", "prefix", "filter"],
    )
    def test_only_the_identity_output_map_keeps_answers(self, output_map):
        command = AccessCommand("F", "mt_R0", Singleton(), (A,), output_map)
        assert command.execute({}, source()).answers_by_key() is None
        identity = AccessCommand(
            "F", "mt_R0", Singleton(), (A,), identity_output_map(("f0", "f1"))
        )
        kept = identity.execute({}, source()).answers_by_key()
        assert kept[0] == ("f0",)
        assert {key: set(rows) for key, rows in kept[1].items()} == {
            (A,): {(A, B), (A, C)}
        }


class TestWhoCarriesTheAnswers:
    def table(self):
        command = AccessCommand(
            "F", "mt_R0", Singleton(), (A,), identity_output_map(("f0", "f1"))
        )
        return command.execute({}, source())

    def test_rename_carries_them_under_the_new_names(self):
        table = self.table()
        key_attrs, answers = table.rename({"f0": "x"}).answers_by_key()
        assert key_attrs == ("x",)
        assert answers is table.answers_by_key()[1]

    def test_every_other_operator_drops_them(self):
        table = self.table()
        env = {"F": table}
        assert table.project(("f1", "f0")).answers_by_key() is None
        assert Select(Scan("F"), (EqConst("f1", B),)).evaluate(env).answers_by_key() is None
        assert Join(Scan("F"), Scan("F")).evaluate(env).answers_by_key() is None

    def test_equality_and_hashing_ignore_them(self):
        table = self.table()
        plain = NamedTable(table.attributes, table.rows)
        assert plain.answers_by_key() is None
        assert table == plain and hash(table) == hash(plain)


class TestRunWithEnv:
    def test_output_access_and_unread_tables_keep_their_attributes(self):
        plan = Plan(
            (
                literal("T", ("x", "y", "z"), [(A, B, C), (B, C, A), (B, A, A)]),
                literal("UNREAD", ("u", "v"), [(A, B)]),
                AccessCommand(
                    "F",
                    "mt_R0",
                    Project(Scan("T"), ("x",)),
                    ("x",),
                    identity_output_map(("f0", "f1")),
                ),
                MiddlewareCommand(
                    "J", Join(Scan("T"), Rename(Scan("F"), (("f0", "x"),)))
                ),
                MiddlewareCommand("OUT", Project(Scan("J"), ("y", "f1"))),
            ),
            "OUT",
        )
        _out, env = plan.run_with_env(source())
        assert env["OUT"].attributes == ("y", "f1")
        assert env["UNREAD"].attributes == ("u", "v")
        assert env["F"].attributes == ("f0", "f1")
        # Read intermediates keep what later commands read: T its key
        # and y, J what the output takes.
        assert env["T"].attributes == ("x", "y")
        assert env["J"].attributes == ("y", "f1")
        assert env["OUT"].rows == {(B, B), (B, C), (C, C), (A, C)}
