"""Access-enforced data sources with per-access metering.

:class:`InMemorySource` is the simulation of the paper's remote
datasources: the *only* way to read data is to invoke a declared access
method with values for all of its input positions.  Every invocation is
logged, so tests and benchmarks can check both the "fewer accesses"
runtime order of Theorem 8 (the set of (method, input-tuple) pairs
touched) and the money/latency cost a cost function assigns.

By default the source answers an access from the instance's access
index (:meth:`~repro.data.instance.Instance.access_index`): the
relation's rows bucketed by their cells at the method's input
positions, so an access is a dictionary lookup instead of a full
relation scan.  The instance builds and stamps that index; the source
only keeps a method name -> index memo that is valid at one
``Instance.version`` and cleared whole when the version moves, so
while nothing is written an access reads no relation version, and
after a write the next access of each method asks the instance again,
which rebuilds only the indexes of the relation that grew.
:meth:`~repro.source_contract.MeteredSourceMixin.relation_epoch` is
that relation's version, the token the
:class:`~repro.exec.cache.AccessCache` keeps its entries under.
Construct with ``indexed=False`` for the original scan-per-access
behaviour -- the benchmarks' and tests' naive reference.
Metering is identical either way: the index changes how an access is
*answered*, never whether it is logged or charged.

``access`` is the inner loop of plan execution (an access command calls
it once per key, bound once per command by
:func:`repro.plans.commands.bound_access`), so its common case is kept
short: every check runs on every call -- the method lookup (one probe of
a name -> method table built at construction), the input check
(:func:`~repro.source_contract.checked_inputs`), the memo's version, one
record in the :class:`~repro.source_contract.AccessLog` -- but an access
answered by an index memoised at the instance's current version takes
the source lock once, for the lookup and the log append together,
and inputs that already are a tuple of constants are logged as the
object they arrived as.  The append is one ``list.extend`` of the
record's four fields: an access builds no record object, and leaves no
new object for the cyclic collector to track.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, Sequence, Tuple

from repro.data.instance import AccessIndex, Instance
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
        # Method name -> the instance's access index for it, all found
        # current at ``_indexed_version``.
        self._indexes: Dict[str, AccessIndex] = {}
        self._indexed_version = instance.version
        # Guards the memo and the metering log, so one source can serve
        # many worker threads; the single-threaded path just pays one
        # uncontended acquisition.
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
        # memoised at the instance's current version answers right here;
        # anything else (first use, a write since, an unindexed source)
        # goes through _lookup, re-entering the lock.
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

    def _method_index(self, method: AccessMethod) -> AccessIndex:
        """The instance's access index for ``method``, through the memo.

        The instance's version is read before the index is asked for:
        a write that lands meanwhile moves the version past the memo's,
        and the next access asks the instance again.
        """
        with self._lock:
            version = self.instance.version
            if version != self._indexed_version:
                self._indexes.clear()
                self._indexed_version = version
            index = self._indexes.get(method.name)
            if index is None:
                index = self._indexes[method.name] = self.instance.access_index(
                    method.relation, method.input_positions
                )
            return index

    def __repr__(self) -> str:
        return (
            f"InMemorySource({self.schema.name}, "
            f"{self.instance.size()} tuples, {len(self.log)} accesses)"
        )
