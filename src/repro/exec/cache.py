"""A bounded LRU memo for access results.

The paper (and the result-bounded-interface line of work it cites)
treats every access as an expensive external call, so the runtime may
legitimately remember what a call returned: an
:class:`~repro.data.source.InMemorySource` is *deterministic* -- the
same ``(method, inputs)`` pair always yields the same tuple set until
the relation the method reads changes -- which makes memoization
sound.  Each entry is stamped with its relation's *epoch token*
(:func:`~repro.source_contract.relation_epoch_reader`:
``relation_epoch(relation)`` when the source offers it, the whole-source
``epoch()`` otherwise), read at the miss before the fetch is dispatched,
and served only while that token holds, so a
stale answer is never served -- including answers from a real backend
(:mod:`repro.sources`) whose snapshot changed behind a reconnect -- and
a write to ``R`` drops ``R``'s entries and nothing else.  The store is
kept current as of one whole-source epoch
(:func:`~repro.source_contract.epoch_reader`), which every key compares
first: relation tokens are read only when it has moved, and then once
per relation the store holds, to drop the stale entries and re-stamp
the store with the new epoch.  A source whose only token is the
whole-source one loses every entry on every move, as before.

Metering policy: by default a cache hit is *free* -- it is not
dispatched to the source, so it is neither logged nor charged.  That is
the accounting a caching mediator would report (you only pay the remote
call you actually make).  Constructing with ``charge_hits=True``
restores the old books: every hit is re-logged as a full-price
invocation on the source, so ``charged_cost`` and ``total_invocations``
behave exactly as if the cache were absent (only wall time improves).
The benchmarks use this to keep their charged-cost series comparable.
Each cached entry carries the method's relation name resolved at miss
time, so neither charging a hit nor re-checking an entry's stamp ever
re-touches schema state -- a hit is pure cache reads plus one log
append.

Concurrency: every structural mutation (the epoch-triggered sweep,
the LRU insert/evict/reorder, the counters) happens under one internal
lock, so the cache may be shared by every worker of a
:class:`~repro.service.QueryService`.  Misses are *single-flight*: the
first thread to miss a key fetches from the source outside the lock
while later threads for the same key wait on its completion, so a
stampede of identical requests costs one source invocation -- the same
"identical accesses are paid once" contract the sequential runtime
gives.  Single-threaded callers see identical semantics to the PR 3
cache; the only addition is one uncontended lock acquisition per fetch.

Binding: an access command asks for many keys of one method, so
:meth:`AccessCache.bind` resolves once what they share -- how the
source's epoch and its relations' epochs are read, the source's
``access``, the method's relation (at the first miss) -- and returns
the per-key fetch.  The epoch is still read under the lock for *every*
key: only how to read it is hoisted, never the value.
:meth:`AccessCache.fetch` is a bind for one key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, FrozenSet, Optional, Tuple

from repro.logic.terms import Constant
from repro.source_contract import (
    AccessRecord,
    epoch_reader,
    relation_epoch_reader,
)

_Inputs = Tuple[Constant, ...]
_Key = Tuple[str, _Inputs]
_Rows = FrozenSet[Tuple[Constant, ...]]
# Cached value: the relation name hoisted at miss time (so neither
# charge_hits nor the stamp check re-reads schema state), the rows, and
# the relation's epoch they were read at.
_Entry = Tuple[str, _Rows, Any]


class _InFlight:
    """One in-progress fetch other threads can wait on.

    The leader holds ``lock`` from creation until its fetch ends; a
    waiter acquires and releases it.  A raw lock, not an ``Event``: a
    miss allocates one C object, not a condition variable.
    """

    __slots__ = ("lock", "failed")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.lock.acquire()
        self.failed = False


class AccessCache:
    """Bounded LRU cache over ``(method, inputs) -> result tuples``."""

    def __init__(self, maxsize: int = 4096, charge_hits: bool = False) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be positive")
        self.maxsize = maxsize
        self.charge_hits = charge_hits
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stampedes_collapsed = 0
        self._store: "OrderedDict[_Key, _Entry]" = OrderedDict()
        self._inflight: Dict[_Key, _InFlight] = {}
        # The source epoch at which every entry was last found current.
        self._epoch: Any = None
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._store)

    def bind(self, source, method: str) -> Callable[[_Inputs], _Rows]:
        """The memoized per-key fetch of one method: ``inputs -> rows``.

        Resolved here, once for all the keys of an access command: how
        the source's epoch and its relations' epochs are read
        (:func:`~repro.source_contract.epoch_reader`,
        :func:`~repro.source_contract.relation_epoch_reader`) and its
        ``access`` entry point; the method's relation is looked up at
        the first miss.  The epoch itself is *read* under the lock for
        every key -- a mutation between two keys of one command must
        still drop the entries it made stale before the second is
        answered.

        On a hit the source is not touched (unless ``charge_hits``, in
        which case an equivalent :class:`AccessRecord` is appended to
        the source's log so the accounting matches uncached execution).
        Concurrent misses of the same key collapse into one source
        invocation; the waiters count as hits (they never reached the
        source), except that a waiter whose fetcher failed retries the
        fetch itself so errors are seen by everyone who asked.
        """
        read_epoch = epoch_reader(source)
        read_relation_epoch = relation_epoch_reader(source)
        access = source.access
        lock = self._lock
        store = self._store
        inflight = self._inflight
        relation: Optional[str] = None

        def fetch(inputs: _Inputs) -> _Rows:
            """One key: a hit from the store, or the source's answer."""
            nonlocal relation
            key = (method, inputs)
            waited = False
            while True:
                with lock:
                    version = read_epoch()
                    if version != self._epoch:
                        self._sweep(version, read_relation_epoch)
                    entry = store.get(key)
                    if entry is not None:
                        self.hits += 1
                        if waited:
                            self.stampedes_collapsed += 1
                        store.move_to_end(key)
                        charge = self.charge_hits
                    else:
                        flight = inflight.get(key)
                        if flight is None:
                            if relation is None:
                                relation = source.schema.method(
                                    method
                                ).relation
                            # Read before the fetch is dispatched: the
                            # rows it reads are then at least this new,
                            # and a write it misses moves the relation
                            # past this stamp, so a sweep drops them.
                            stamp = read_relation_epoch(relation)
                            flight = inflight[key] = _InFlight()
                            self.misses += 1
                            break  # this thread is the fetcher
                if entry is not None:
                    hit_relation, rows, _ = entry
                    if charge:
                        source.log.append(
                            AccessRecord(
                                method, hit_relation, inputs, len(rows)
                            )
                        )
                    return rows
                # Another thread is fetching this key: wait, then re-check.
                with flight.lock:
                    pass
                waited = not flight.failed
            try:
                result = access(method, inputs)
            except BaseException:
                with lock:
                    flight.failed = True
                    inflight.pop(key, None)
                flight.lock.release()
                raise
            with lock:
                # Only install if the epoch has not moved since the miss
                # (an instance mutation or a backend snapshot move may
                # have made this fetch stale in flight, even one another
                # key has already swept for).  A write still landing
                # now is caught by the stamp read at the miss.
                if read_epoch() == version:
                    store[key] = (relation, result, stamp)
                    if len(store) > self.maxsize:
                        store.popitem(last=False)
                        self.evictions += 1
                inflight.pop(key, None)
            flight.lock.release()
            return result

        return fetch

    def _sweep(
        self, version: Any, read_relation_epoch: Callable[[str], Any]
    ) -> None:
        """Drop the entries whose relation moved; caller holds the lock.

        Each relation the store holds has its epoch read once.  The
        store is then current as of ``version``, read before any of
        them: a write landing meanwhile moves the epoch again, and the
        next key sweeps again.
        """
        store = self._store
        epochs: Dict[str, Any] = {}
        stale = []
        for key, (relation, _, stamp) in store.items():
            if relation not in epochs:
                epochs[relation] = read_relation_epoch(relation)
            if epochs[relation] != stamp:
                stale.append(key)
        for key in stale:
            del store[key]
        self._epoch = version

    def fetch(self, source, method: str, inputs: _Inputs) -> _Rows:
        """The result of ``source.access(method, inputs)``, memoized.

        :meth:`bind` for a single key.
        """
        return self.bind(source, method)(inputs)

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._store.clear()
            self.hits = self.misses = self.evictions = 0
            self.stampedes_collapsed = 0
            self._epoch = None

    def summary(self) -> str:
        """A one-line human-readable digest."""
        total = self.hits + self.misses
        rate = self.hits / total if total else 0.0
        return (
            f"{len(self._store)}/{self.maxsize} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"({rate:.0%} hit rate), {self.evictions} evictions"
            + (", hits charged" if self.charge_hits else "")
        )

    def as_dict(self) -> Dict:
        """A JSON-able representation (used by the benchmarks)."""
        return {
            "maxsize": self.maxsize,
            "entries": len(self._store),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stampedes_collapsed": self.stampedes_collapsed,
            "charge_hits": self.charge_hits,
        }

    def __repr__(self) -> str:
        return f"AccessCache({self.summary()})"
