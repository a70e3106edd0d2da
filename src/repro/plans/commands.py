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

from dataclasses import dataclass, field
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

from repro.plans.expressions import (
    EvaluationError,
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

    def execute(
        self,
        env: Dict[str, NamedTable],
        source,
        cache=None,
        stats=None,
        resilience=None,
    ) -> NamedTable:
        """Run the command against a source; returns the produced table.

        Dispatch is *deduplicated*: the distinct input-value tuples are
        collected before any access is made, so an input expression that
        yields the same binding several times (or binds only constants)
        costs one invocation per distinct tuple.  With an
        :class:`~repro.exec.cache.AccessCache` supplied, each distinct
        tuple is further memoized across commands and plans.  ``stats``
        (a :class:`~repro.exec.stats.CommandStats`) receives the
        dispatch breakdown when given.  ``resilience`` (a
        :class:`~repro.exec.resilience.ResilientDispatcher`) wraps each
        dispatch in retry/backoff, circuit-breaker and deadline checks;
        without it a failing access propagates immediately.

        The distinct tuples reach the source one of two ways.  A source
        that offers ``access_batch`` (and no cache in the way) is asked
        for all of them in one guarded call.  Otherwise the path from a
        key to its rows is bound once (:func:`bound_access`) and
        mapped over the keys: one access per key, in the order of the
        distinct set, exactly the accesses the cost function charges.
        Either way the answers come back as one list, in key order, and
        :meth:`_collect` turns them into the produced rows.
        """
        inputs = self.input_expr.evaluate(env)
        try:
            projected = inputs.project(self.input_attrs)
        except EvaluationError as exc:
            raise EvaluationError(
                f"access {self.method}: input expression lacks "
                f"attributes {self.input_attrs}: {exc}"
            ) from exc
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
        cache_hits_before = cache.hits if cache is not None else 0
        retries_before = resilience.retries if resilience is not None else 0
        faults_before = resilience.faults if resilience is not None else 0
        batch = getattr(source, "access_batch", None) if cache is None else None
        answers: List[Iterable[Row]]
        if callable(batch) and len(distinct) > 1:
            # Batch at the access boundary: several distinct input
            # tuples become one backend round trip (the backend still
            # meters one logical access per tuple).  Only without an
            # AccessCache -- the cache's single-flight memoization is
            # per key, and splitting a batch across hit/miss keys would
            # re-derive exactly the per-key branch below.
            keyed = list(distinct)
            if resilience is not None:
                by_key = resilience.call(
                    lambda: batch(self.method, keyed),
                    self.method,
                    inputs=keyed[0],
                )
            else:
                by_key = batch(self.method, keyed)
            answers = list(map(by_key.__getitem__, keyed))
        else:
            access = bound_access(source, self.method, cache, resilience)
            answers = list(map(access, distinct))
        rows = self._collect(answers)
        if stats is not None:
            # rows_in counts the raw tuples the input expression fed the
            # access; the projection onto the bound attributes is what
            # collapses them into the distinct dispatch set.
            stats.rows_in = len(inputs.rows)
            stats.dispatched = len(distinct)
            stats.deduped = len(inputs.rows) - len(distinct)
            stats.rows_fetched = sum(map(len, answers))
            if cache is not None:
                stats.cache_hits = cache.hits - cache_hits_before
            if resilience is not None:
                stats.retries = resilience.retries - retries_before
                stats.faults = resilience.faults - faults_before
        table = NamedTable(self.output_attrs, rows)
        if stats is not None:
            stats.rows_out = len(table.rows)
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

    def execute(
        self,
        env: Dict[str, NamedTable],
        source,
        cache=None,
        stats=None,
        resilience=None,
    ) -> NamedTable:
        """Run the command, writing its target table into the env.

        ``cache`` and ``resilience`` are accepted for signature parity
        with :meth:`AccessCommand.execute` and ignored -- middleware
        commands never touch the source.
        """
        table = self.expr.evaluate(env)
        if stats is not None:
            stats.rows_out = len(table.rows)
        env[self.target] = table
        return table

    def __repr__(self) -> str:
        return f"{self.target} := {self.expr!r}"


Command = Union[AccessCommand, MiddlewareCommand]


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
