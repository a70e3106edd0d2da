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
short: every check runs on every call -- the method lookup (one probe of
a name -> method table built at construction), the input check
(:func:`~repro.source_contract.checked_inputs`), index staleness, one
record in the :class:`~repro.source_contract.AccessLog` -- but an access
answered by an index already built for the instance's current version
takes the source lock once, for the lookup and the log append together,
and inputs that already are a tuple of constants are logged as the
object they arrived as.  The append is one ``list.extend`` of the
record's four fields: an access builds no record object, and leaves no
new object for the cyclic collector to track.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Sequence, Set, Tuple

from repro.data.instance import Instance
from repro.errors import AccessViolation
from repro.logic.terms import Constant
from repro.schema.core import AccessMethod, Schema, SchemaError
from repro.source_contract import (
    AccessLog,
    AccessRecord,
    MeteredSourceMixin,
    checked_inputs,
)

__all__ = ["AccessLog", "AccessRecord", "AccessViolation", "InMemorySource"]

# Per-method index: input-position value tuple -> matching relation rows.
_MethodIndex = Dict[Tuple[Constant, ...], FrozenSet[Tuple[Constant, ...]]]


# The answer to a key no tuple matches: one object for every such access.
_NO_ROWS: FrozenSet[Tuple[Constant, ...]] = frozenset()


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
        self.log = AccessLog()
        # Name -> method, probed once per access; a name it lacks is
        # left to Schema.method, which raises SchemaError.
        self._methods: Dict[str, AccessMethod] = {
            method.name: method for method in schema.methods
        }
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
        method = self._methods.get(method_name)
        if method is None:
            method = self.schema.method(method_name)
        values = checked_inputs(method, inputs)
        # One acquisition covers the lookup and the metering.  An index
        # built for the instance's current version answers right here;
        # anything else (first use, a mutation since, an unindexed
        # source) goes through _lookup, re-entering the lock.
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

    def _lookup(
        self, method: AccessMethod, values: Tuple[Constant, ...]
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Answer one access *without* logging it.

        The logging/metering stays in :meth:`access`, which comes here
        whenever this source holds no current index for the method.
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
