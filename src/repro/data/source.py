"""Access-enforced data sources with per-access metering.

:class:`InMemorySource` is the simulation of the paper's remote
datasources: the *only* way to read data is to invoke a declared access
method with values for all of its input positions.  Every invocation is
logged, so tests and benchmarks can check both the "fewer accesses"
runtime order of Theorem 8 (the set of (method, input-tuple) pairs
touched) and the money/latency cost a cost function assigns.

By default the source answers accesses through a lazily built
*per-method hash index*: the first invocation of a method buckets the
relation's tuples by their values at the method's input positions, and
every later invocation is a dictionary lookup instead of a full
relation scan.  The index is invalidated automatically when the
underlying :class:`~repro.data.instance.Instance` mutates (tracked via
``Instance.version``).  Construct with ``indexed=False`` for the
original scan-per-access behaviour -- the benchmarks' naive reference.
Metering is identical either way: the index changes how an access is
*answered*, never whether it is logged or charged.

``access`` is the inner loop of plan execution (an access command calls
it once per key, bound once per command by
:func:`repro.plans.commands.bound_access`), so its common case is kept
short: every check runs on every call -- schema lookup, the input check
(:func:`~repro.source_contract.checked_inputs`), index staleness, one
:class:`AccessRecord` -- but an access answered by an index already
built for the instance's current version takes the source lock once, for
the lookup and the log append together, and inputs that already are a
tuple of constants are logged as the object they arrived as.
"""

from __future__ import annotations

import hashlib
import json
import threading
from concurrent.futures import Executor
from functools import partial
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.data.instance import Instance
from repro.errors import AccessViolation
from repro.logic.terms import Constant
from repro.schema.core import AccessMethod, Schema, SchemaError
from repro.source_contract import MeteredSourceMixin, checked_inputs

# Per-method index: input-position value tuple -> matching relation rows.
_MethodIndex = Dict[Tuple[Constant, ...], FrozenSet[Tuple[Constant, ...]]]


# The answer to a key no tuple matches: one object for every such access.
_NO_ROWS: FrozenSet[Tuple[Constant, ...]] = frozenset()


class AccessRecord(NamedTuple):
    """One logged invocation of an access method.

    A named tuple: one is built per access, and the access is the
    runtime's inner loop.
    """

    method: str
    relation: str
    inputs: Tuple[Constant, ...]
    results: int


# An ``AccessRecord`` from a 4-tuple, without the Python frame of the
# generated ``__new__``.
_record_of = partial(tuple.__new__, AccessRecord)


class InMemorySource(MeteredSourceMixin):
    """An instance exposed only through its schema's access methods."""

    spec_kind = "memory"
    spec_fields = ("indexed",)

    def __init__(
        self, schema: Schema, instance: Instance, indexed: bool = True
    ) -> None:
        self.schema = schema
        self.instance = instance
        self.indexed = indexed
        self.log: List[AccessRecord] = []
        self._indexes: Dict[str, _MethodIndex] = {}
        self._indexed_version = instance.version
        # Guards the lazy index build (check-version/clear/build) and the
        # metering log, so one source can serve many worker threads; the
        # single-threaded path just pays one uncontended acquisition.
        self._lock = threading.RLock()

    # ------------------------------------------------------------ access
    def access(
        self, method_name: str, inputs: Sequence[object] = ()
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Invoke a method: return all relation tuples matching the inputs.

        ``inputs`` must supply exactly one value per input position of the
        method, in the order the method declares them.
        """
        method = self.schema.method(method_name)
        values = checked_inputs(method, inputs)
        # One acquisition covers the lookup and the metering.  An index
        # built for the instance's current version answers right here;
        # anything else (first use, a mutation since, an unindexed or a
        # sharded source) goes through _lookup, re-entering the lock.
        with self._lock:
            index = self._indexes.get(method_name)
            if (
                index is None
                or self.instance.version != self._indexed_version
            ):
                matching = self._lookup(method, values)
            else:
                matching = index.get(values, _NO_ROWS)
            self.log.append(
                _record_of(
                    (method_name, method.relation, values, len(matching))
                )
            )
        return matching

    def _lookup(
        self, method: AccessMethod, values: Tuple[Constant, ...]
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Answer one access *without* logging it.

        The logging/metering in :meth:`access` stays at the outermost
        source, so composite sources (sharding below) can delegate the
        data question to sub-sources while still charging one access.
        :meth:`access` comes here whenever this source holds no current
        index of its own for the method -- always, for a composite.
        """
        if self.indexed:
            return self._method_index(method).get(values, _NO_ROWS)
        return self._scan(method, values)

    def _scan(
        self, method: AccessMethod, values: Tuple[Constant, ...]
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """The original per-access full relation scan."""
        return frozenset(
            row
            for row in self.instance.tuples(method.relation)
            if all(
                row[position] == value
                for position, value in zip(method.input_positions, values)
            )
        )

    def _method_index(self, method: AccessMethod) -> _MethodIndex:
        """The (lazily built, staleness-checked) index of one method.

        The whole check-version / clear / build / install sequence runs
        under the source lock, so concurrent first accesses to a method
        build its index exactly once and never observe a half-cleared
        index map.
        """
        with self._lock:
            if self.instance.version != self._indexed_version:
                self._indexes.clear()
                self._indexed_version = self.instance.version
            index = self._indexes.get(method.name)
            if index is None:
                buckets: Dict[
                    Tuple[Constant, ...], Set[Tuple[Constant, ...]]
                ] = {}
                positions = method.input_positions
                for row in self.instance.tuples(method.relation):
                    buckets.setdefault(
                        tuple(row[p] for p in positions), set()
                    ).add(row)
                index = {
                    key: frozenset(rows) for key, rows in buckets.items()
                }
                self._indexes[method.name] = index
            return index

    def __repr__(self) -> str:
        return (
            f"InMemorySource({self.schema.name}, "
            f"{self.instance.size()} tuples, {len(self.log)} accesses)"
        )


# ------------------------------------------------------------------ sharding
def shard_of(relation: str, row: Sequence[Constant], shards: int) -> int:
    """Deterministic shard index of one tuple.

    Uses BLAKE2b over a canonical JSON encoding of the raw cell values,
    *not* Python's builtin ``hash`` -- the builtin is salted per process,
    and shard assignment must agree between the parent and any worker
    process that rehydrates the same data.
    """
    payload = json.dumps(
        [
            relation,
            [
                cell.value if isinstance(cell, Constant) else cell
                for cell in row
            ],
        ],
        separators=(",", ":"),
        default=str,
    )
    digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % shards


def partition_instance(instance: Instance, shards: int) -> Tuple[Instance, ...]:
    """Hash-partition an instance into ``shards`` disjoint instances.

    Every tuple lands in exactly one partition (keyed by
    :func:`shard_of`), so the union of the partitions equals the
    original instance and any per-partition scan results can be merged
    by plain set union without double counting.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    parts = [Instance() for _ in range(shards)]
    for relation in instance.relations():
        for row in instance.tuples(relation):
            parts[shard_of(relation, row, shards)].add(relation, row)
    return tuple(parts)


class ShardedInMemorySource(InMemorySource):
    """An :class:`InMemorySource` whose data is hash-partitioned.

    Answering an access becomes a *parallel partial scan*: each shard
    answers the access over its own partition (using its own per-method
    index) and the partial results are merged by set union.  This is
    sound because the partitions are disjoint and

    ``access(m, v) over R  ==  U_i access(m, v) over R_i``

    holds for selection-style accesses -- the merge point restores set
    semantics exactly like the columnar dedup boundary.  Note the whole
    *plan* is never run per shard (that would lose cross-shard join
    pairs); only individual accesses fan out.

    Metering is unchanged: one logical access is logged and charged
    once at this source, never per shard.  Pass a
    ``concurrent.futures`` executor as ``pool`` to scan partitions
    concurrently; by default shards are scanned inline.
    """

    spec_kind = "sharded"
    spec_fields = ("shards", "indexed")  # never the pool

    def __init__(
        self,
        schema: Schema,
        instance: Instance,
        shards: int = 4,
        indexed: bool = True,
        pool: Optional["Executor"] = None,
    ) -> None:
        super().__init__(schema, instance, indexed=indexed)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.pool = pool
        self._partitions: Tuple[InMemorySource, ...] = ()
        self._partition_version = -1
        self._repartition()

    def _repartition(self) -> None:
        self._partitions = tuple(
            InMemorySource(self.schema, part, indexed=self.indexed)
            for part in partition_instance(self.instance, self.shards)
        )
        self._partition_version = self.instance.version

    @property
    def partitions(self) -> Tuple[InMemorySource, ...]:
        """The shard sub-sources (rebuilt lazily after mutations)."""
        with self._lock:
            if self.instance.version != self._partition_version:
                self._repartition()
            return self._partitions

    def _lookup(
        self, method: AccessMethod, values: Tuple[Constant, ...]
    ) -> FrozenSet[Tuple[Constant, ...]]:
        partitions = self.partitions
        if len(partitions) == 1:
            return partitions[0]._lookup(method, values)
        if self.pool is not None:
            futures = [
                self.pool.submit(part._lookup, method, values)
                for part in partitions
            ]
            partials = [future.result() for future in futures]
        else:
            partials = [
                part._lookup(method, values) for part in partitions
            ]
        merged: Set[Tuple[Constant, ...]] = set()
        for partial in partials:
            merged |= partial
        return frozenset(merged)

    def __repr__(self) -> str:
        return (
            f"ShardedInMemorySource({self.schema.name}, "
            f"{self.instance.size()} tuples, {self.shards} shards, "
            f"{len(self.log)} accesses)"
        )
