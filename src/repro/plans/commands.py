"""Plan commands: access commands and middleware query commands.

An access command ``T <- mt <- E`` (Section 2): evaluate ``E`` over the
temporary tables, feed every result tuple into access method ``mt``, and
collect each matching relation tuple into ``T`` through the output
mapping ``b_out``.  The output mapping may duplicate a relation position
into several ``T`` attributes and may map two relation positions to one
attribute (which acts as an equality filter) -- both cases from the
paper's plan semantics are implemented.

A middleware command ``T := E`` runs relational algebra locally, at no
access cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.exec.context import ExecutionContext
from repro.plans.expressions import (
    Expression,
    NamedTable,
    Row,
    row_picker,
)
from repro.logic.terms import Constant, Term

# One entry per method input position: either the name of an attribute of
# the input expression's result, or a fixed schema constant.
InputBinding = Tuple[Union[str, Constant], ...]


@dataclass(frozen=True)
class AccessCommand:
    """``target <- method <- input_expr``.

    ``input_binding``
        one entry per input position of the method, in the method's
        declared order (the paper's ``b_in``): an attribute name of the
        input expression's result, or a schema :class:`Constant`.
    ``output_map``
        the paper's ``b_out``: ``(attribute, (position, ...))`` pairs.
        Relation positions may feed several attributes (duplication); if
        an attribute is fed by several positions the accessed tuple is
        kept only when they agree (equality filter).
    """

    target: str
    method: str
    input_expr: Expression
    input_binding: InputBinding
    output_map: Tuple[Tuple[str, Tuple[int, ...]], ...]

    kind = "access"

    @property
    def output_attrs(self) -> Tuple[str, ...]:
        """The attribute names of the produced table, in order."""
        return tuple(attr for attr, _ in self.output_map)

    @property
    def input_attrs(self) -> Tuple[str, ...]:
        """Distinct attribute names read from the input expression.

        An attribute feeding several input positions (a repeated variable
        in a guard) is listed once; the binding re-reads it per position.
        """
        seen: Dict[str, None] = {}
        for entry in self.input_binding:
            if isinstance(entry, str) and entry not in seen:
                seen[entry] = None
        return tuple(seen)

    def tables_read(self) -> FrozenSet[str]:
        """Names of the temporary tables the input expression scans."""
        return self.input_expr.tables_read()

    def execute(
        self,
        env: Dict[str, NamedTable],
        source,
        context: Optional[ExecutionContext] = None,
    ) -> NamedTable:
        """Run the command against a source; returns the produced table.

        Dispatch is *deduplicated*: the distinct input-value tuples are
        collected before any access is made, so an input expression that
        yields the same binding several times (or binds only constants)
        costs one invocation per distinct tuple.  How they reach the
        source -- through the context's cache and dispatcher, in one
        batch or key by key -- is :func:`access_keys`; the answers come
        back as one list, in key order, and :meth:`_collect` turns them
        into the produced rows.
        """
        inputs = self.input_expr.evaluate(env)
        projected = inputs.project(self.input_attrs)
        distinct: Iterable[Row]
        if self.input_binding == projected.attributes:
            # Every position reads its own attribute: the projected rows
            # already are the distinct binding set.
            distinct = projected.rows
        else:
            columns = projected.column_map()
            distinct = dict.fromkeys(
                tuple(
                    entry
                    if isinstance(entry, Constant)
                    else input_row[columns[entry]]
                    for entry in self.input_binding
                )
                for input_row in projected.rows
            )
        answers = access_keys(
            source, self.method, distinct, context, len(inputs.rows)
        )
        table = NamedTable(self.output_attrs, self._collect(answers))
        env[self.target] = table
        return table

    def _collect(self, answers: Sequence[Iterable[Row]]) -> FrozenSet[Row]:
        """``b_out`` over every answer of the command: the produced rows.

        The answers are taken at once, in dispatch order, so each kind
        of output map is one C-level pass over them.  The map is the
        identity when it covers the whole accessed tuple, in order: the
        source's tuples are then unioned in unchanged, nothing re-tupled
        or re-hashed (one sampled row decides for the command -- one
        relation, one arity).  A prefix or a permutation is one ``map``
        of the row picker over the chained answers.  Only an attribute
        fed by several positions (the equality filter) goes row by row
        through :meth:`_map_output`.
        """
        rows: Set[Row] = set()
        if any(len(positions) != 1 for _attr, positions in self.output_map):
            map_output = self._map_output
            for accessed in chain.from_iterable(answers):
                out_row = map_output(accessed)
                if out_row is not None:
                    rows.add(out_row)
        else:
            picks = [positions[0] for _attr, positions in self.output_map]
            sample = next(chain.from_iterable(answers), ())
            if picks == list(range(len(sample))):
                rows.update(*answers)
            else:
                rows.update(
                    map(row_picker(picks), chain.from_iterable(answers))
                )
        return frozenset(rows)

    def _map_output(self, accessed: Row) -> Optional[Row]:
        """``b_out`` on one accessed tuple (None: equality filter failed)."""
        out: List[Term] = []
        for _attr, positions in self.output_map:
            values = {accessed[p] for p in positions}
            if len(values) != 1:
                return None  # equality filter failed
            out.append(next(iter(values)))
        return tuple(out)

    def __repr__(self) -> str:
        return (
            f"{self.target} <- {self.method} <- "
            f"{self.input_expr!r}"
        )


@dataclass(frozen=True)
class MiddlewareCommand:
    """``target := expr`` -- local relational algebra, no access cost."""

    target: str
    expr: Expression

    kind = "middleware"

    def tables_read(self) -> FrozenSet[str]:
        """Names of the temporary tables the expression scans."""
        return self.expr.tables_read()

    def execute(
        self,
        env: Dict[str, NamedTable],
        source,
        context: Optional[ExecutionContext] = None,
    ) -> NamedTable:
        """Run the command, writing its target table into the env.

        A middleware command never touches the source and reads nothing
        of the context; it takes both so the command loop calls every
        command alike.
        """
        table = self.expr.evaluate(env)
        env[self.target] = table
        return table

    def __repr__(self) -> str:
        return f"{self.target} := {self.expr!r}"


Command = Union[AccessCommand, MiddlewareCommand]

#: The dispatcher's counters an access command books as its own deltas.
_TALLIES = ("retries", "faults", "breaker_trips")


def access_keys(
    source,
    method: str,
    keys,
    context: Optional[ExecutionContext],
    rows_in: int,
) -> List[Iterable[Row]]:
    """The answers to the distinct ``keys`` of one access command, in order.

    The access step both engines share.  A source that offers
    ``access_batch`` is asked for several keys in one guarded call (one
    round trip; the backend still meters one access per key) -- but only
    without an :class:`~repro.exec.cache.AccessCache`, whose
    single-flight memo is per key.  Otherwise the path from a key to its
    rows is bound once (:func:`bound_access`) and mapped over the keys:
    one access per key, in the order given, exactly the accesses the
    cost function charges.  The dispatch counts (``rows_in``: the raw
    tuples the keys were distilled from) and what the cache and the
    dispatcher counted meanwhile go into ``context.command_stats`` --
    also when an access raises, so a failed request keeps what it did
    (the record is then marked ``raised``).
    """
    if context is None:
        context = ExecutionContext()
    cache, resilience = context.cache, context.resilience
    stats = context.command_stats
    if stats is not None:
        hits_before = getattr(cache, "hits", 0)
        tallies = [getattr(resilience, name, 0) for name in _TALLIES]
    batch = getattr(source, "access_batch", None) if cache is None else None
    answers: Optional[List[Iterable[Row]]] = None
    try:
        if callable(batch) and len(keys) > 1:
            keyed = list(keys)
            if resilience is not None:
                by_key = resilience.call(
                    lambda: batch(method, keyed), method, inputs=keyed[0]
                )
            else:
                by_key = batch(method, keyed)
            answers = list(map(by_key.__getitem__, keyed))
        else:
            access = bound_access(source, method, cache, resilience)
            answers = list(map(access, keys))
    finally:
        if stats is not None:
            stats.rows_in = rows_in
            stats.dispatched = len(keys)
            stats.deduped = rows_in - len(keys)
            if answers is None:
                stats.raised = 1
            else:
                stats.rows_fetched = sum(map(len, answers))
            stats.cache_hits = getattr(cache, "hits", 0) - hits_before
            for name, before in zip(_TALLIES, tallies):
                setattr(stats, name, getattr(resilience, name, 0) - before)
    return answers


def bound_access(
    source, method: str, cache=None, resilience=None
) -> Callable[[Row], Iterable[Row]]:
    """The path from one key of ``method`` to its rows, bound once.

    The one composition of ``resilience x cache x source``, shared by
    both executors: the source's ``access`` (or, with an
    :class:`~repro.exec.cache.AccessCache`, its memo over it), inside
    the :class:`~repro.exec.resilience.ResilientDispatcher`'s guard
    when there is one.  Each layer's ``bind`` settles here what is the
    same for every key of an access command -- the method's breaker,
    how the source's epoch is read -- and the callable returned decides
    the rest per key.
    """
    if cache is not None:
        fetch = cache.bind(source, method)
    else:
        fetch = partial(source.access, method)
    if resilience is not None:
        return resilience.bind(fetch, method)
    return fetch


def identity_output_map(
    attrs: Sequence[str],
) -> Tuple[Tuple[str, Tuple[int, ...]], ...]:
    """b_out mapping position i to the i-th attribute, one-to-one."""
    return tuple((attr, (i,)) for i, attr in enumerate(attrs))
