"""The SQLite-backed source adapter: relations as tables, typed cells.

:class:`SQLiteSource` is the first *real* backend behind the access
protocol: every relation becomes a table, every access method a
parameterized ``SELECT`` over the method's input positions, metered
exactly like :class:`~repro.data.source.InMemorySource` (one
:class:`~repro.source_contract.AccessRecord` per invocation, identical
charged cost) -- so every existing benchmark, cache, breaker and
worker-tier component runs over it unchanged.

Cells are stored as text, one text per Python-equality class
(:func:`_cell_text`), not as native SQLite types: ``Constant`` values
span str/int/float/bool, and SQLite's affinity rules would compare
``1`` and ``"1"`` alike.  A stored cell is only ever matched, never
decoded -- the answered rows come from the snapshot by ``rowid`` -- so
its text need only tell apart the values the in-memory oracle tells
apart: ``1``, ``1.0`` and ``True`` are one text, as they are one key.

The batch contract (:meth:`SQLiteSource.access_batch`) is
set-at-a-time, as the paper's access command ``T <= mt <= E`` is
defined over the *set* of tuples ``E`` produces:

* A method of **any input arity >= 1** is answered by a keyed join: the
  batch's distinct keys, one text per cell, are bound as a ``VALUES``
  relation, one row per key, and joined to the table on the method's
  input columns.  A free method has no key and is one plain ``SELECT``.
* Keys are bound a **fixed** ``_CHUNK_PARAMS`` parameters per
  statement, so no batch size can reach a build's
  ``SQLITE_LIMIT_VARIABLE_NUMBER``; each chunk is a single statement,
  so a reconnect between or inside chunks cannot lose keys.
* **Metering is per logical access**: one ``AccessRecord`` per input
  tuple with that tuple's own result count, logged by one append per
  batch -- statements are round trips, never the books.
* **Indexes are derived from the schema**: one composite index per
  distinct ``(relation, input_positions)`` among the access methods,
  rebuilt with the tables on every (re)load.
* **Rows come back as row ids into the snapshot the tables were
  loaded from.**  ``_load_tables`` keeps each relation's rows as a
  list, the *snapshot*, and stores row *i* under ``rowid`` *i*; a
  statement fetches ``rowid`` only (and a keyed join the ordinal of
  the keys row it matched), so SQLite builds no cell text and a
  fetched id becomes the instance's own row by one list index.  The
  ``(relation, input_positions)`` index answers a keyed join alone (a
  covering index: ``rowid`` is in every index).  Ids are mapped under
  the same lock hold as the statement that returned them, so a reload
  can never map them onto another snapshot; the snapshot is replaced
  with the tables (reconnect or mutation).
* **A NaN key matches by identity**, as in the in-memory index: every
  NaN has the text ``NaN``, so the rows a NaN key's statement matched
  are kept only where the cell ``==`` the key ``Constant`` (two NaN
  objects are two constants).

Connection lifecycle is defensive by construction:

* A lost connection (``sqlite3.OperationalError``, or a closed
  connection's ``ProgrammingError``) triggers **reconnect with capped
  exponential backoff**: the connection is rebuilt, tables are reloaded
  from the retained ground-truth
  :class:`~repro.data.instance.Instance`, and the statement is retried.
  After ``max_reconnects`` consecutive failures the access raises typed
  :class:`~repro.errors.SourceUnavailable` -- retryable upstream.
* A **statement SQLite rejects** (too many variables, syntax, no such
  table/column) would fail identically on a fresh connection: it raises
  non-retryable :class:`~repro.errors.AccessError` at once, without
  reconnecting.
* **Read-snapshot epochs**: :meth:`epoch` is ``instance.version``; a
  backend mutation bumps it and the next access reloads every table.
  Its ``relation_epoch`` is ``instance.version_of(relation)``, so what
  the :class:`~repro.exec.cache.AccessCache` derived from older answers
  is invalidated only for the relation the mutation grew: the reload
  puts the other relations' rows back as they were.  A *reconnect
  without mutation* keeps the epoch -- the reloaded tables are provably
  the same snapshot, which is what makes answers byte-identical across
  mid-plan connection loss.

Chaos hooks: :meth:`sever_connection` kills the live connection (the
next statement walks the reconnect path) and ``drop_every=N`` severs
it automatically before every N-th statement -- a deterministic
flaky-server simulation the chaos matrix drives.
"""

from __future__ import annotations

import itertools
import json
import sqlite3
import threading
import time
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.instance import Instance
from repro.errors import AccessError, SourceUnavailable
from repro.logic.terms import Constant
from repro.schema.core import AccessMethod, Schema
from repro.source_contract import AccessLog, MeteredSourceMixin, checked_inputs

#: Errors that *may* mean "the connection is gone" (the reconnect loop's
#: catch) -- unless the message is one of ``_STATEMENT_ERRORS``.
_CONNECTION_ERRORS = (sqlite3.OperationalError, sqlite3.ProgrammingError)

#: SQLite's messages for "the query is wrong": the same statement fails
#: the same way on a fresh connection, so these propagate at once as a
#: non-retryable :class:`~repro.errors.AccessError`.  Matched on text
#: because ``sqlite3.Error.sqlite_errorcode`` needs Python >= 3.11.
_STATEMENT_ERRORS = (
    "too many SQL variables",
    "syntax error",
    "no such table",
    "no such column",
    "Incorrect number of bindings",
)

#: Bound parameters per keyed-join statement.  Fixed, and well below
#: the smallest ``SQLITE_LIMIT_VARIABLE_NUMBER`` any build ships (999
#: before SQLite 3.32), so a batch of any size runs on every build.
#: Small on purpose: a prepared ``VALUES`` statement keeps ~330 bytes
#: per keys row in the connection's statement cache and parsing it
#: peaks at four times that, while a statement costs only ~10 us.
_CHUNK_PARAMS = 250


#: The answer of every key no row matched.
_NO_ROWS: FrozenSet[Tuple[Constant, ...]] = frozenset()

#: The text every NaN has: such a key matches by identity
#: (:func:`_same_cells`).
_NAN_TEXT = "NaN"

# The JSON text of one str, without a JSONEncoder frame (keys are
# mostly strings, and every key cell is spelled once per batch).
_json_str = json.encoder.encode_basestring_ascii

# Fetched (ordinal, rowid) pairs and (rowid,) rows, taken apart in C,
# and a Constant's payload.
_first, _second = itemgetter(0), itemgetter(1)
_value = attrgetter("value")


def _cell_text(value) -> str:
    """The text of ``value``'s Python-equality class: a cell, or a key's.

    The oracle compares :class:`~repro.logic.terms.Constant` values by
    Python equality, under which ``1 == 1.0 == True`` and
    ``0 == -0.0 == False``, and no str equals a number.  So:

    * a str is its JSON text (``"1"``, quotes included);
    * a bool, an int or an integral float is the decimal text of the
      int it equals (``1``, ``0``, ``9007199254740992``);
    * any other float is its JSON text (``0.5``, ``Infinity``,
      ``NaN``), which for a finite one is its ``repr``.

    Two non-NaN values get one text exactly when they are equal: a str
    text starts with a quote and no number's does; an int text is
    digits, and a non-integral finite float's has a point or an
    exponent; ``repr`` round-trips.  Every NaN gets ``NaN``, though two
    NaN objects are two constants -- :func:`_same_cells` tells them
    apart.
    """
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, float) and not value.is_integer():
        return json.dumps(value)
    return str(int(value))


def _texts(cells: Iterable[Constant]) -> List[str]:
    """The :func:`_cell_text` of each constant, in order.

    When every payload is a str, the texts are built in one C pass;
    the JSON encoder refuses any other payload, and then each cell
    takes :func:`_cell_text`.
    """
    values = list(map(_value, cells))
    try:
        return list(map(_json_str, values))
    except TypeError:
        return list(map(_cell_text, values))


def _same_cells(
    rows: FrozenSet[Tuple[Constant, ...]],
    positions: Tuple[int, ...],
    values: Tuple[Constant, ...],
) -> FrozenSet[Tuple[Constant, ...]]:
    """The rows whose input cells ``==`` the key's constants.

    Applied where a key has a NaN cell: its text matched every stored
    NaN, and ``==`` keeps the one the key is (a NaN ``Constant`` equals
    only a constant over the same payload object).  On any other key
    it keeps every row its texts matched.
    """
    return frozenset(
        row for row in rows
        if all(row[p] == value for p, value in zip(positions, values))
    )


@lru_cache(maxsize=256)
def _select_sql(relation: str, positions: Tuple[int, ...]) -> str:
    """One access: the row ids whose input cells are the key's texts."""
    sql = f'SELECT rowid FROM "{relation}"'
    if positions:
        sql += " WHERE " + " AND ".join(f"c{p} = ?" for p in positions)
    return sql


@lru_cache(maxsize=256)
def _keyed_join_sql(
    relation: str, positions: Tuple[int, ...], key_rows: int
) -> str:
    """The keyed join of ``key_rows`` bound keys rows to ``relation``.

    ``CROSS JOIN`` pins the keys as the outer loop, so every keys row
    is one probe of the ``(relation, positions)`` index.  Each keys row
    carries its ordinal ``n`` as a literal and the join returns
    ``(n, rowid)`` pairs: ``rowid`` is in every index, so the table
    itself is never read.
    """
    names = ", ".join(f"k{i}" for i in range(len(positions)))
    marks = ", ".join("?" * len(positions))
    rows = ", ".join(f"({n}, {marks})" for n in range(key_rows))
    joined = " AND ".join(f"t.c{p} = k.k{i}" for i, p in enumerate(positions))
    return (
        f"WITH k(n, {names}) AS (VALUES {rows}) "
        f'SELECT k.n, t.rowid FROM k CROSS JOIN "{relation}" AS t ON {joined}'
    )


class SQLiteSource(MeteredSourceMixin):
    """An instance served through SQLite, behind the access protocol.

    A spec carries the lifecycle knobs, never ``path``: each worker
    loads its *own* ``":memory:"`` database from the instance dump.
    """

    spec_kind = "sqlite"
    spec_fields = ("max_reconnects", "backoff", "max_backoff", "drop_every")

    def __init__(
        self,
        schema: Schema,
        instance: Instance,
        path: str = ":memory:",
        max_reconnects: int = 4,
        backoff: float = 0.01,
        max_backoff: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
        drop_every: Optional[int] = None,
    ) -> None:
        if max_reconnects < 0:
            raise ValueError("max_reconnects must be non-negative")
        if drop_every is not None and drop_every < 1:
            raise ValueError("drop_every must be at least 1")
        self.schema = schema
        self.instance = instance
        self.path = path
        self.max_reconnects = max_reconnects
        self.backoff = backoff
        self.max_backoff = max_backoff
        self.drop_every = drop_every
        self._sleep = sleep
        self.log = AccessLog()
        #: Reconnects performed over the source's lifetime (surfaced by
        #: the adapter benchmark's resilience accounting).
        self.reconnects = 0
        #: Batched round trips answered via :meth:`access_batch`.
        self.batched_calls = 0
        self._statements = 0
        self._conn: Optional[sqlite3.Connection] = None
        self._loaded_version: Optional[int] = None
        #: Relation name -> its rows; row ``i`` is stored as rowid ``i``.
        self._snapshot: Dict[str, List[Tuple[Constant, ...]]] = {}
        # One lock for connection + log: sqlite3 connections are not
        # concurrency-safe, and the source sits under a multi-threaded
        # QueryService -- statements serialize, waits overlap upstream.
        self._lock = threading.RLock()
        self._connect()

    # -------------------------------------------------- connection lifecycle
    def _connect(self) -> None:
        """(Re)open the connection and load the current snapshot."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except Exception:  # pragma: no cover -- already dead
                    pass
            # check_same_thread=False: the source serializes statements
            # under its own lock, so cross-thread use is safe.
            self._conn = sqlite3.connect(
                self.path, check_same_thread=False
            )
            self._load_tables()

    def _load_tables(self) -> None:
        """Materialize every relation into its table; caller holds lock.

        Each distinct ``(relation, input_positions)`` among the
        schema's access methods gets one composite index -- the keyed
        lookups are exactly the binding patterns the schema declares.
        The snapshot is replaced with the tables: row ``i`` of a
        relation's snapshot list is stored as rowid ``i``, each cell as
        its :func:`_cell_text`.  The version is read first, so a
        mutation that lands while the rows are read makes the next
        access reload again.
        """
        conn = self._conn
        version = self.instance.version
        snapshot = {}
        for relation in self.schema.relations:
            name, arity = relation.name, relation.arity
            typed = ", ".join(f"c{i} TEXT" for i in range(arity))
            columns = ", ".join(f"c{i}" for i in range(arity))
            conn.execute(f'DROP TABLE IF EXISTS "{name}"')
            conn.execute(f'CREATE TABLE "{name}" ({typed})')
            rows = snapshot[name] = list(self.instance.tuples(name))
            if rows:
                marks = ", ".join("?" * (arity + 1))
                texts = _texts(itertools.chain.from_iterable(rows))
                by_column = [texts[c::arity] for c in range(arity)]
                conn.executemany(
                    f'INSERT INTO "{name}" (rowid, {columns}) '
                    f"VALUES ({marks})",
                    zip(range(len(rows)), *by_column),
                )
        indexed = {
            (method.relation, method.input_positions)
            for method in self.schema.methods
            if method.input_positions
        }
        for number, (relation_name, positions) in enumerate(sorted(indexed)):
            columns = ", ".join(f"c{p}" for p in positions)
            conn.execute(
                f'CREATE INDEX ix{number} ON "{relation_name}" ({columns})'
            )
        conn.commit()
        self._snapshot = snapshot
        self._loaded_version = version

    def sever_connection(self) -> None:
        """Chaos hook: kill the live connection (next statement reconnects)."""
        with self._lock:
            if self._conn is not None:
                self._conn.close()

    def _execute(self, sql: str, params: Sequence[str]) -> List[Tuple]:
        """Run one statement with reconnect-on-error backoff.

        The caller holds the source lock across this call and maps the
        fetched row ids onto ``self._snapshot`` before letting it go: a
        reconnect in here reloads the tables *and* the snapshot, so the
        ids and the snapshot always come from one load.  A
        connection-level failure reconnects (reloading the retained
        instance) with capped exponential backoff; after
        ``max_reconnects`` consecutive failures the access surfaces as
        typed :class:`SourceUnavailable`.  A statement SQLite rejects
        (``_STATEMENT_ERRORS``) is not a lost connection: it raises
        :class:`AccessError` at once, with no reconnect and nothing for
        the retry layer to retry.
        """
        with self._lock:
            self._statements += 1
            if (
                self.drop_every is not None
                and self._statements % self.drop_every == 0
            ):
                self.sever_connection()
            last_error: Optional[Exception] = None
            for attempt in range(self.max_reconnects + 1):
                try:
                    cursor = self._conn.execute(sql, tuple(params))
                    return cursor.fetchall()
                except _CONNECTION_ERRORS as error:
                    if any(text in str(error) for text in _STATEMENT_ERRORS):
                        raise AccessError(
                            f"sqlite rejected the statement: {error}"
                        ) from error
                    last_error = error
                    if attempt >= self.max_reconnects:
                        break
                    self._sleep(
                        min(self.max_backoff, self.backoff * 2**attempt)
                    )
                    self.reconnects += 1
                    self._connect()
            raise SourceUnavailable(
                f"sqlite backend unreachable after "
                f"{self.max_reconnects} reconnect attempts: {last_error}",
            )

    def _reload_if_mutated(self) -> None:
        """Reload after a backend mutation; caller holds the lock.

        Checked once per logical call, not per statement, so the chunks
        of one batch answer from one snapshot (only a reconnect inside
        the batch reloads the instance as it then stands).
        """
        if self.instance.version != self._loaded_version:
            self._connect()

    def close(self) -> None:
        """Release the connection (the source can reconnect on demand)."""
        self.sever_connection()

    # ------------------------------------------------------------- access
    def _select(
        self, method: AccessMethod, values: Tuple[Constant, ...]
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """One access's rows; caller holds the lock."""
        params = _texts(values)
        fetched = self._execute(
            _select_sql(method.relation, method.input_positions), params
        )
        snapshot = self._snapshot[method.relation]
        rows = frozenset(map(snapshot.__getitem__, map(_first, fetched)))
        if _NAN_TEXT in params:
            rows = _same_cells(rows, method.input_positions, values)
        return rows

    def access(
        self, method_name: str, inputs: Sequence[object] = ()
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Invoke a method: a parameterized SELECT over its relation."""
        method = self.schema.method(method_name)
        values = checked_inputs(method, inputs)
        with self._lock:
            self._reload_if_mutated()
            matching = self._select(method, values)
            self.log.record(
                (method_name, method.relation, values, len(matching))
            )
        return matching

    def access_batch(
        self, method_name: str, inputs_list: Sequence[Sequence[object]]
    ) -> Dict[Tuple[Constant, ...], FrozenSet[Tuple[Constant, ...]]]:
        """Answer several input tuples set-at-a-time, from one snapshot.

        A method of any input arity >= 1 is answered by one keyed join
        per chunk of the batch (:meth:`_select_keyed`), which returns
        row ids; a free method has nothing to key on and keeps
        :meth:`_select`.  Metering is per *logical access* either way --
        one record per input tuple, identical to the per-key loop,
        logged by one append -- so batching changes round trips, never
        the books.
        """
        method = self.schema.method(method_name)
        keyed = [checked_inputs(method, v) for v in inputs_list]
        with self._lock:
            self._reload_if_mutated()
            self.batched_calls += 1
            if method.input_positions:
                results = self._select_keyed(method, keyed)
            else:
                results = {
                    values: self._select(method, values)
                    for values in dict.fromkeys(keyed)
                }
            self.log.record_batch(
                method_name,
                method.relation,
                keyed,
                map(len, map(results.__getitem__, keyed)),
            )
        return results

    def _select_keyed(
        self, method: AccessMethod, keyed: Sequence[Tuple[Constant, ...]]
    ) -> Dict[Tuple[Constant, ...], FrozenSet[Tuple[Constant, ...]]]:
        """Join the batch's keys to the relation; caller holds the lock.

        The keys relation is a ``VALUES`` CTE with one row per distinct
        key, each cell its :func:`_cell_text`, bound ``_CHUNK_PARAMS``
        parameters at a time; Python-equal keys of different types
        (``1``/``1.0``/``True``) are one key, as they are one
        ``results`` entry.  Keys row ``n`` of the chunk starting at key
        ``start`` is key ``start + n``, so a run of fetched
        ``(n, rowid)`` pairs becomes that key's rows by list indexes
        into the snapshot (the join returns a keys row's matches in one
        run; a key's runs are unioned all the same).  Every key no row
        matched shares one empty answer.
        """
        positions = method.input_positions
        width = len(positions)
        results = dict.fromkeys(keyed, _NO_ROWS)
        distinct = list(results)
        params = _texts(itertools.chain.from_iterable(distinct))
        per_statement = _CHUNK_PARAMS // width
        for start in range(0, len(distinct), per_statement):
            count = min(per_statement, len(distinct) - start)
            fetched = self._execute(
                _keyed_join_sql(method.relation, positions, count),
                params[start * width : (start + count) * width],
            )
            row = self._snapshot[method.relation].__getitem__
            for n, pairs in itertools.groupby(fetched, _first):
                key = distinct[start + n]
                rows = map(row, map(_second, pairs))
                results[key] = results[key].union(rows)
        if _NAN_TEXT in params:
            for key, rows in results.items():
                if rows:
                    results[key] = _same_cells(rows, positions, key)
        return results

    def __repr__(self) -> str:
        return (
            f"SQLiteSource({self.schema.name}, {self.path!r}, "
            f"{len(self.log)} accesses, {self.reconnects} reconnects)"
        )
