"""The per-key access path against the forms it replaced.

``checked_inputs`` decides its common case -- an exact tuple of
``Constant`` objects of the method's input arity -- in its own frame,
and ``InMemorySource.access`` finds the method with one probe of a
table it builds at construction.  Every check still runs per key.
These properties hold each backend's ``access`` (and ``access_batch``
where there is one) to a reference running the previous code, kept
here: the same answers, the same typed error with the same message,
the same log records, and the caller's own tuple logged when it was
already an exact tuple of constants.  ``AccessCommand._collect`` is
held to its previous form the same way, iteration order included: the
produced table's order is the next command's dispatch order.
"""

from contextlib import contextmanager
from itertools import chain
from typing import List, Set
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sources.http
import repro.sources.sqlite
from repro.data.instance import Instance
from repro.data.source import _NO_ROWS, InMemorySource
from repro.errors import AccessViolation
from repro.logic.terms import Constant, Null, _to_constant
from repro.plans.commands import AccessCommand
from repro.plans.expressions import Literal, NamedTable, row_picker
from repro.schema.core import SchemaBuilder, SchemaError
from repro.source_contract import checked_inputs
from repro.sources import HTTPSource, SQLiteSource, StubTransport


# ------------------------------------------------------- the references
def reference_constant_inputs(inputs):
    """The coercion as it was, kept here so the reference shares none
    of the code under test."""
    if type(inputs) is tuple:
        for value in inputs:
            if type(value) is not Constant:
                break
        else:
            return inputs
    return tuple(map(_to_constant, inputs))


def reference_checked_inputs(method, inputs):
    """The input check as it was: coerce every input, then count."""
    values = reference_constant_inputs(inputs)
    if len(values) != len(method.input_positions):
        raise AccessViolation(
            f"method {method.name} needs {len(method.input_positions)} "
            f"inputs, got {len(values)}",
            method=method.name,
            relation=method.relation,
            inputs=values,
        )
    return values


class ReferenceInMemorySource(InMemorySource):
    """``access`` as it was: ``Schema.method`` and the previous check."""

    def access(self, method_name, inputs=()):
        method = self.schema.method(method_name)
        values = reference_checked_inputs(method, inputs)
        with self._lock:
            index = self._indexes.get(method_name)
            if (
                index is None
                or self.instance.version != self._indexed_version
            ):
                matching = self._lookup(method, values)
            else:
                matching = index.get(values, _NO_ROWS)
            self.log.record(
                (method_name, method.relation, values, len(matching))
            )
        return matching


@contextmanager
def reference_check():
    """The SQLite and HTTP backends running the previous input check."""
    with mock.patch.object(
        repro.sources.sqlite, "checked_inputs", reference_checked_inputs
    ), mock.patch.object(
        repro.sources.http, "checked_inputs", reference_checked_inputs
    ):
        yield


def reference_collect(command: AccessCommand, answers) -> frozenset:
    """``AccessCommand._collect`` as it was: one set, then one copy."""
    rows: Set = set()
    picks = command._picks
    if picks is None:
        for accessed in chain.from_iterable(answers):
            out_row = command._map_output(accessed)
            if out_row is not None:
                rows.add(out_row)
    elif command._is_identity(answers):
        rows.update(*answers)
    else:
        rows.update(map(row_picker(picks), chain.from_iterable(answers)))
    return frozenset(rows)


# ------------------------------------------------------------ the world
RAW = (1, 1.0, True, "1", "a", 2)


def mixed_schema():
    """One 3-column relation under methods of input arity 0, 1 and 2."""
    return (
        SchemaBuilder("perkey")
        .relation("T", 3)
        .access("t0", "T", inputs=[], cost=1.0)
        .access("t1", "T", inputs=[0], cost=2.0)
        .access("t2", "T", inputs=[2, 0], cost=3.0)
        .build()
    )


def mixed_instance():
    """Cells ``1``, ``1.0``, ``True`` and ``'1'`` in both keyed positions."""
    rows = []
    for i, first in enumerate(RAW):
        for j, last in enumerate(RAW):
            rows.append((first, f"r{i}{j}", last))
    return Instance({"T": rows})


SCHEMA = mixed_schema()
ARITY = {m.name: len(m.input_positions) for m in SCHEMA.methods}
METHOD_NAMES = sorted(ARITY) + ["nope"]

raw_values = st.sampled_from(RAW)
constants = raw_values.map(Constant)
cells = st.one_of(raw_values, constants)


class TupleSubclass(tuple):
    """A tuple that is not exactly a ``tuple``: coerced, never passed through."""


def inputs_for(arity: int):
    """Inputs of every kind an access can be handed, for one method."""
    exact = st.tuples(*[constants] * arity)
    wrong_size = st.lists(constants, max_size=3).filter(
        lambda values: len(values) != arity
    )
    return st.one_of(
        exact,
        exact,
        st.lists(cells, min_size=arity, max_size=arity),
        st.lists(cells, min_size=arity, max_size=arity).map(tuple),
        st.lists(cells, min_size=arity, max_size=arity).map(TupleSubclass),
        wrong_size.map(tuple),
        wrong_size,
        st.lists(cells, max_size=3).map(tuple),
        st.lists(
            st.one_of(cells, st.just(None), st.just(Null("n"))),
            min_size=1,
            max_size=3,
        ).map(tuple),
    )


calls = st.sampled_from(METHOD_NAMES).flatmap(
    lambda name: st.tuples(st.just(name), inputs_for(ARITY.get(name, 1)))
)


def typed(value):
    """A value by its type and printed form, tuples cell by cell: tells
    ``1`` from ``1.0`` from ``True``, and a raw ``'1'`` from a constant."""
    if type(value) is tuple:
        return tuple(map(typed, value))
    return type(value).__name__, repr(value)


def spelled(answer):
    """An answer (or a batch of them) as sorted :func:`typed` rows."""
    if isinstance(answer, dict):
        return sorted((typed(key), spelled(rows)) for key, rows in answer.items())
    return sorted(map(typed, answer))


def outcome(call):
    """What one call did: its answer, or its error's type and message."""
    try:
        return ("answered", spelled(call()))
    except Exception as error:  # every error is part of the contract
        return (
            "raised",
            type(error),
            str(error),
            typed(getattr(error, "inputs", None)),
        )


def log_of(source) -> List:
    """The access log field by field, :func:`typed`."""
    return list(map(typed, source.log.fields()))


def is_exact(inputs) -> bool:
    """An exact tuple of constants: what an access command dispatches."""
    return type(inputs) is tuple and all(
        type(value) is Constant for value in inputs
    )


def logged_inputs(source) -> List:
    """The ``inputs`` field of every record, as the log holds it."""
    return list(source.log.fields()[2::4])


# ------------------------------------------------------------- sources
def memory_pair():
    return (
        InMemorySource(SCHEMA, mixed_instance()),
        ReferenceInMemorySource(SCHEMA, mixed_instance()),
    )


def sqlite_pair():
    return (
        SQLiteSource(SCHEMA, mixed_instance()),
        SQLiteSource(SCHEMA, mixed_instance()),
    )


def http_pair():
    return (
        HTTPSource(StubTransport(SCHEMA, mixed_instance())),
        HTTPSource(StubTransport(SCHEMA, mixed_instance())),
    )


PAIRS = {"memory": memory_pair, "sqlite": sqlite_pair, "http": http_pair}


def closed(made):
    for source in made:
        closer = getattr(source, "close", None)
        if callable(closer):
            closer()


@pytest.fixture(scope="module", params=sorted(PAIRS))
def pair(request):
    made = PAIRS[request.param]()
    yield made
    closed(made)


@pytest.fixture(scope="module", params=["http", "sqlite"])
def batch_pair(request):
    """The backends with a batch call (``InMemorySource`` has none)."""
    made = PAIRS[request.param]()
    yield made
    closed(made)


def reset(*sources):
    for source in sources:
        source.log.clear()


@settings(max_examples=60, deadline=None)
@given(sequence=st.lists(calls, min_size=1, max_size=8))
def test_per_key_access_equals_the_reference(pair, sequence):
    source, reference = pair
    reset(source, reference)
    for name, inputs in sequence:
        made = outcome(lambda: source.access(name, inputs))
        with reference_check():
            expected = outcome(lambda: reference.access(name, inputs))
        assert made == expected, (name, inputs)
        if made[0] == "answered" and is_exact(inputs):
            assert logged_inputs(source)[-1] is inputs
    assert log_of(source) == log_of(reference)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(METHOD_NAMES), data=st.data())
def test_batch_access_equals_the_reference(batch_pair, name, data):
    source, reference = batch_pair
    batch = data.draw(
        st.lists(inputs_for(ARITY.get(name, 1)), max_size=5), label="batch"
    )
    reset(source, reference)
    made = outcome(lambda: source.access_batch(name, batch))
    with reference_check():
        expected = outcome(lambda: reference.access_batch(name, batch))
    assert made == expected
    assert log_of(source) == log_of(reference)
    if made[0] == "answered":
        for inputs, logged in zip(batch, logged_inputs(source)):
            if is_exact(inputs):
                assert logged is inputs


# ------------------------------------------------------- named cases
class TestTheCommonCase:
    METHOD = SCHEMA.method("t2")

    def test_an_exact_constant_tuple_comes_back_as_itself(self):
        key = (Constant("a"), Constant(1))
        assert checked_inputs(self.METHOD, key) is key

    def test_an_exact_tuple_of_the_wrong_arity_is_refused(self):
        key = (Constant("a"),)
        with pytest.raises(AccessViolation, match="needs 2 inputs, got 1"):
            checked_inputs(self.METHOD, key)
        with pytest.raises(AccessViolation, match="needs 0 inputs, got 1"):
            checked_inputs(SCHEMA.method("t0"), key)

    def test_a_raw_value_is_coerced_not_passed_through(self):
        for raw in RAW:
            values = checked_inputs(self.METHOD, (raw, raw))
            assert values == (Constant(raw), Constant(raw))
            assert all(type(value) is Constant for value in values)
            assert [value.value for value in values] == [raw, raw]
            assert [type(value.value) for value in values] == [type(raw)] * 2

    def test_a_raw_str_reaches_the_log_as_a_constant(self):
        source, _reference = memory_pair()
        source.access("t1", ("1",))
        source.access("t1", ["1"])
        assert logged_inputs(source) == [(Constant("1"),)] * 2
        assert all(
            type(value) is Constant
            for inputs in logged_inputs(source)
            for value in inputs
        )

    def test_a_tuple_subclass_is_copied_into_a_plain_tuple(self):
        key = TupleSubclass((Constant("a"), Constant(1)))
        values = checked_inputs(self.METHOD, key)
        assert type(values) is tuple and values == key

    def test_an_unknown_method_raises_the_schema_error(self):
        source, reference = memory_pair()
        for backend in (source, reference):
            with pytest.raises(SchemaError, match="unknown method nope"):
                backend.access("nope", ())
        assert len(source.log) == 0


# ---------------------------------------------------------- _collect
WIDTH = 3
collect_cells = st.integers(min_value=0, max_value=3).map(Constant)
accessed_rows = st.tuples(*[collect_cells] * WIDTH)
answer_lists = st.lists(st.frozensets(accessed_rows, max_size=6), max_size=6)
OUTPUT_MAPS = {
    "identity": (("a", (0,)), ("b", (1,)), ("c", (2,))),
    "prefix": (("a", (0,)), ("b", (1,))),
    "permutation": (("a", (2,)), ("b", (0,)), ("c", (1,))),
    "equality": (("a", (0, 1)), ("b", (2,))),
}


def command_with(output_map) -> AccessCommand:
    return AccessCommand(
        "T", "t1", Literal(NamedTable.singleton()), (), output_map
    )


@pytest.mark.parametrize("kind", sorted(OUTPUT_MAPS))
@settings(max_examples=80, deadline=None)
@given(answers=answer_lists)
def test_collect_equals_the_reference(kind, answers):
    command = command_with(OUTPUT_MAPS[kind])
    collected = command._collect(answers)
    expected = reference_collect(command, answers)
    assert type(collected) is frozenset
    assert collected == expected
    assert list(collected) == list(expected)


def test_collect_unions_every_answer_not_the_first():
    command = command_with(OUTPUT_MAPS["identity"])
    first = frozenset({(Constant(1), Constant(2), Constant(3))})
    second = frozenset({(Constant(4), Constant(5), Constant(6))})
    assert command._collect([first, second]) == first | second
    assert command._collect([first, frozenset(), second]) == first | second


@pytest.mark.parametrize("size", [0, 1, 4, 5, 8, 100, 5000])
def test_a_single_answer_is_laid_out_as_before(size):
    # Built row by row, as a backend that maps its cursor builds an
    # answer: a fuller table than a copy of it would get.
    answer = frozenset(
        iter([(Constant(i), Constant("k"), Constant(i % 7)) for i in range(size)])
    )
    command = command_with(OUTPUT_MAPS["identity"])
    collected = command._collect([answer])
    assert list(collected) == list(reference_collect(command, [answer]))
    assert {id(row) for row in collected} == {id(row) for row in answer}
