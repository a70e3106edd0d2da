"""An HTTP-style web-service source over a pluggable stub transport.

The paper's mediator setting is plans over *web services*: slow,
paginated, rate-limited interfaces that answer one bound lookup per
request.  :class:`HTTPSource` models exactly that behind the standard
access protocol, speaking a small request/response vocabulary to a
pluggable transport.  :class:`StubTransport` is the in-process
reference transport -- a deterministic simulation of a web service:

* ``GET /access/{method}`` -- one lookup; paginated (``page`` /
  ``next_page``), every response stamped with an ``X-Source-Epoch``
  header (the backend's snapshot token); a lookup's matches are one
  bucket of the instance's access index
  (:meth:`~repro.data.instance.Instance.access_index`), sorted once
  per bucket and sliced for each page while the instance hands back
  the same bucket;
* ``POST /batch/{method}`` -- several distinct lookups in one round
  trip (what the access-boundary batching dispatches into), answered
  from that index after the fault schedule is drawn per key;
* a server-side token bucket: an over-budget request is answered
  ``429`` with a ``Retry-After`` header (and counted -- the adapter
  benchmark's rate-limit-compliance metric is "the server saw zero of
  these" when the client paces itself);
* a seeded :class:`~repro.faults.policy.FaultPolicy` drives ``500``
  responses and simulated timeouts with the same burst semantics the
  fault wrapper has, so retries deterministically reach the answer;
* per-request latency charged on an injectable sleep.

:class:`HTTPSource` is the defensive client: it honours ``Retry-After``
(bounded patience, then typed :class:`~repro.errors.RateLimited`),
maps ``5xx``/timeouts to the existing typed transient errors (so the
retry/breaker stack upstream needs no changes), follows pagination --
and **restarts the page sequence from scratch when the epoch header
changes mid-sequence** (counted in ``snapshot_restarts``): rows from
two different backend snapshots are never mixed into one answer,
which is the source-level half of the epoch consistency model
(docs/theory.md, "Adapter consistency").
"""

from __future__ import annotations

import threading
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.data.instance import Instance, _to_constant
from repro.errors import (
    AccessTimeout,
    AccessViolation,
    RateLimited,
    SourceUnavailable,
)
from repro.faults.policy import (
    KIND_RATE_LIMIT,
    KIND_TIMEOUT,
    KIND_UNAVAILABLE,
    FaultPolicy,
)
from repro.logic.terms import Constant
from repro.schema.core import Schema
from repro.source_contract import (
    AccessLog,
    MeteredSourceMixin,
    SourceSpecError,
    checked_inputs,
)
from repro.sources.base import TokenBucket

#: The epoch header every stub response carries.
EPOCH_HEADER = "X-Source-Epoch"

#: Paged lookups whose sorted matches a stub keeps between pages.
_PAGED_KEPT = 64


class TransportTimeout(Exception):
    """The transport-level timeout (mapped to typed AccessTimeout)."""


class StubResponse:
    """One transport response: status, headers, JSON payload."""

    __slots__ = ("status", "headers", "payload")

    def __init__(
        self,
        status: int,
        payload: Optional[Mapping[str, Any]] = None,
        headers: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.status = status
        self.payload = dict(payload or {})
        self.headers = dict(headers or {})


def _row_order(row: Tuple[Any, ...]) -> Tuple[Tuple[str, Any], ...]:
    """A total sort key for a row of raw cells of any mix of types."""
    return tuple((type(value).__name__, value) for value in row)


def _sorted_rows(bucket: FrozenSet[Tuple[Constant, ...]]) -> List[List[Any]]:
    """A bucket's rows as raw JSON values, in one deterministic order.

    The order is a total one over mixed cell types: each cell sorts by
    its type's name first, then by its value, so ``1`` and ``"1"`` in
    one column never meet under ``<``.
    """
    rows = sorted(
        (tuple(cell.value for cell in row) for row in bucket), key=_row_order
    )
    return [list(row) for row in rows]


class StubTransport:
    """A deterministic in-process web service over an instance.

    Everything a real service would do to you -- latency, pagination,
    rate policing, 5xx bursts, timeouts -- driven by plain constructor
    config, so the whole transport is spec-able and a worker process
    can rehydrate an identical one (:meth:`spec_config`).
    """

    def __init__(
        self,
        schema: Schema,
        instance: Instance,
        latency: float = 0.0,
        page_size: Optional[int] = None,
        rate_limit: Optional[float] = None,
        burst: Optional[float] = None,
        fault_policy: Optional[FaultPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if page_size is not None and page_size < 1:
            raise ValueError("page_size must be at least 1")
        self.schema = schema
        self.instance = instance
        self.latency = latency
        self.page_size = page_size
        self.rate_limit = rate_limit
        self.burst = burst
        self.fault_policy = fault_policy
        self._sleep = sleep
        self._bucket = (
            TokenBucket(
                rate_limit,
                burst if burst is not None else max(1.0, rate_limit),
                clock=clock,
            )
            if rate_limit is not None
            else None
        )
        self._lock = threading.Lock()
        self._attempts: Dict[Tuple[str, Tuple], int] = {}
        # (method, key) -> (the index bucket, its sorted matches) for
        # each paged lookup whose last page is not yet served.
        self._paged: Dict[Tuple[str, Tuple], Tuple[FrozenSet, List[List[Any]]]] = {}
        self.requests = 0
        #: Requests that arrived while the server bucket was dry (the
        #: 429s).  A well-paced client keeps this at zero.
        self.over_budget = 0
        self.faults_injected = 0
        self.timeouts_injected = 0

    def spec_config(self) -> Dict[str, Any]:
        """The plain config a worker needs to rebuild this transport."""
        policy = self.fault_policy
        return {
            "latency": self.latency,
            "page_size": self.page_size,
            "rate_limit": self.rate_limit,
            "burst": self.burst,
            "fault_policy": None if policy is None else policy.to_dict(),
        }

    def epoch(self) -> int:
        """The backend snapshot token stamped into every response."""
        return self.instance.version

    def counters(self) -> Dict[str, int]:
        """A JSON-able server-side accounting snapshot."""
        with self._lock:
            return {
                "requests": self.requests,
                "over_budget": self.over_budget,
                "faults_injected": self.faults_injected,
                "timeouts_injected": self.timeouts_injected,
            }

    # ---------------------------------------------------------- the server
    def request(
        self, verb: str, path: str, params: Mapping[str, Any]
    ) -> StubResponse:
        """Serve one request; may raise :class:`TransportTimeout`."""
        with self._lock:
            self.requests += 1
        if self._bucket is not None:
            wait = self._bucket.acquire()
            if wait > 0.0:
                with self._lock:
                    self.over_budget += 1
                return StubResponse(
                    429,
                    {"error": "rate limit exceeded"},
                    {
                        "Retry-After": f"{wait:.4f}",
                        EPOCH_HEADER: str(self.epoch()),
                    },
                )
        if self.latency:
            self._sleep(self.latency)
        parts = path.strip("/").split("/")
        if len(parts) != 2 or parts[0] not in ("access", "batch"):
            return StubResponse(404, {"error": f"no such endpoint {path}"})
        endpoint, method_name = parts
        try:
            method = self.schema.method(method_name)
        except Exception:
            return StubResponse(404, {"error": f"no such method {method_name}"})
        if endpoint == "batch":
            return self._serve_batch(method, params)
        return self._serve_access(method, params)

    def _maybe_fault(self, method_name: str, values: Tuple) -> Optional[StubResponse]:
        """Consult the fault schedule; burst semantics per access key."""
        policy = self.fault_policy
        if policy is None:
            return None
        key = (method_name, values)
        with self._lock:
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        kind = policy.kind_for(method_name, values)
        if kind is None or attempt >= policy.burst:
            return None
        if kind == KIND_TIMEOUT:
            with self._lock:
                self.timeouts_injected += 1
            raise TransportTimeout(
                f"simulated timeout for {method_name}{values!r} "
                f"(attempt {attempt})"
            )
        if kind in (KIND_UNAVAILABLE, KIND_RATE_LIMIT):
            with self._lock:
                self.faults_injected += 1
            if kind == KIND_RATE_LIMIT:
                return StubResponse(
                    429,
                    {"error": "scheduled throttle"},
                    {"Retry-After": "0.001", EPOCH_HEADER: str(self.epoch())},
                )
            return StubResponse(
                500,
                {"error": f"injected 5xx (attempt {attempt})"},
                {EPOCH_HEADER: str(self.epoch())},
            )
        return None  # truncation is not modelled at the transport

    def _matches(
        self, method, values: Tuple[Constant, ...]
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """The rows matching one lookup: a bucket of the instance's index."""
        index = self.instance.access_index(method.relation, method.input_positions)
        return index.get(values, frozenset())

    def _rows_for(
        self, method, values: Tuple[Constant, ...]
    ) -> List[List[Any]]:
        """Matching rows as raw JSON values, deterministically sorted."""
        return _sorted_rows(self._matches(method, values))

    def _serve_access(self, method, params: Mapping[str, Any]) -> StubResponse:
        raw_inputs = tuple(params.get("inputs", ()))
        values = tuple(_to_constant(v) for v in raw_inputs)
        fault = self._maybe_fault(method.name, values)
        if fault is not None:
            return fault
        epoch = self.epoch()
        page = int(params.get("page", 0))
        next_page: Optional[int] = None
        if self.page_size is None:
            rows = self._rows_for(method, values)
        else:
            rows = self._paged_rows(method, values)
            start = page * self.page_size
            if start + self.page_size < len(rows):
                next_page = page + 1
            else:
                with self._lock:
                    self._paged.pop((method.name, values), None)
            rows = rows[start : start + self.page_size]
        return StubResponse(
            200,
            {"rows": rows, "next_page": next_page},
            {EPOCH_HEADER: str(epoch)},
        )

    def _paged_rows(
        self, method, values: Tuple[Constant, ...]
    ) -> List[List[Any]]:
        """The sorted matches one page of a lookup is sliced from.

        Sorted at the first page, then kept with the index bucket they
        were sorted from until the last page is served, so a lookup of
        ``n`` pages sorts once, not ``n`` times.  They are reused only
        while the instance hands back that same bucket object (the held
        reference keeps its id from being reused): a write to the
        relation meanwhile rebuilds the index, and the next page sorts
        the new bucket.  At most ``_PAGED_KEPT`` sequences are kept,
        the oldest dropped first.
        """
        key = (method.name, values)
        bucket = self._matches(method, values)
        with self._lock:
            held = self._paged.get(key)
        if held is not None and held[0] is bucket:
            return held[1]
        rows = _sorted_rows(bucket)
        with self._lock:
            self._paged[key] = (bucket, rows)
            if len(self._paged) > _PAGED_KEPT:
                del self._paged[next(iter(self._paged))]
        return rows

    def _serve_batch(self, method, params: Mapping[str, Any]) -> StubResponse:
        """Several lookups, one round trip, no pagination (bounded).

        The fault schedule is drawn per key, in key order, before any
        row is read; then every key is answered from the instance's
        index, each key's rows sorted as :meth:`_rows_for` sorts them.
        """
        epoch = self.epoch()
        keyed = []
        for raw_inputs in params.get("inputs_list", ()):
            values = tuple(_to_constant(v) for v in raw_inputs)
            fault = self._maybe_fault(method.name, values)
            if fault is not None:
                # One faulty key fails the whole batch -- that is what
                # a real bulk endpoint does, and the client falls back
                # to per-key requests where the burst drains per key.
                return fault
            keyed.append((raw_inputs, values))
        results = [
            {"inputs": list(raw_inputs), "rows": self._rows_for(method, values)}
            for raw_inputs, values in keyed
        ]
        return StubResponse(
            200, {"results": results}, {EPOCH_HEADER: str(epoch)}
        )


class HTTPSource(MeteredSourceMixin):
    """The defensive web-service client behind the access protocol."""

    spec_kind = "http"
    spec_fields = ("max_retry_after_waits", "max_snapshot_restarts")

    def __init__(
        self,
        transport,
        max_retry_after_waits: int = 8,
        max_snapshot_restarts: int = 8,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_retry_after_waits < 0:
            raise ValueError("max_retry_after_waits must be non-negative")
        self.transport = transport
        self.max_retry_after_waits = max_retry_after_waits
        self.max_snapshot_restarts = max_snapshot_restarts
        self._sleep = sleep
        self.log = AccessLog()
        self._lock = threading.RLock()
        #: Retry-After waits honoured (client-side politeness).
        self.retry_after_waits = 0
        #: Pagination sequences restarted because the backend epoch
        #: changed mid-sequence -- the never-mix-snapshots counter.
        self.snapshot_restarts = 0
        self.batched_calls = 0
        self._last_epoch: Optional[int] = None

    # --------------------------------------------------------------- spec
    def spec_config(self) -> Dict[str, Any]:
        """The transport's ``spec_config()``, then the client's patience.

        A transport without one (a live socket) is a typed error.
        """
        spec_config = getattr(self.transport, "spec_config", None)
        if not callable(spec_config):
            raise SourceSpecError(
                f"HTTPSource transport {type(self.transport).__name__} "
                "is not spec-able: it exposes no spec_config()"
            )
        return {"transport": spec_config(), **super().spec_config()}

    @classmethod
    def from_spec(cls, spec: Mapping[str, Any], schema, instance):
        """Rebuild the client over a rehydrated :class:`StubTransport`."""
        config = dict(spec["transport"])
        policy = config.pop("fault_policy", None)
        if policy is not None:
            config["fault_policy"] = FaultPolicy.from_dict(policy)
        return super().from_spec(spec, StubTransport(schema, instance, **config))

    @property
    def schema(self):
        """The served schema (the transport's)."""
        return self.transport.schema

    @property
    def instance(self):
        """The backend's ground-truth instance (degraded serving reads it)."""
        return self.transport.instance

    def epoch(self) -> int:
        """The last epoch token observed from the backend."""
        with self._lock:
            if self._last_epoch is not None:
                return self._last_epoch
        return int(self.transport.epoch())

    def relation_epoch(self, relation: str) -> int:
        """The whole-backend :meth:`epoch`: the header names no relation."""
        return self.epoch()

    def _note_epoch(self, response: StubResponse) -> Optional[int]:
        header = response.headers.get(EPOCH_HEADER)
        if header is None:
            return None
        epoch = int(header)
        with self._lock:
            self._last_epoch = epoch
        return epoch

    # ------------------------------------------------------- one round trip
    def _request(
        self,
        verb: str,
        path: str,
        params: Mapping[str, Any],
        method_name: str,
        values: Tuple[Constant, ...],
    ) -> StubResponse:
        """One transport request with Retry-After honoured, errors typed."""
        waits = 0
        while True:
            try:
                response = self.transport.request(verb, path, params)
            except TransportTimeout as error:
                raise AccessTimeout(
                    f"web service timed out: {error}",
                    method=method_name,
                    inputs=values,
                ) from error
            self._note_epoch(response)
            if response.status == 429:
                retry_after = float(response.headers.get("Retry-After", 0.05))
                if waits >= self.max_retry_after_waits:
                    raise RateLimited(
                        f"rate limited and out of patience after {waits} "
                        f"Retry-After waits",
                        method=method_name,
                        inputs=values,
                    )
                waits += 1
                with self._lock:
                    self.retry_after_waits += 1
                self._sleep(retry_after)
                continue
            if response.status >= 500:
                raise SourceUnavailable(
                    f"web service answered {response.status}: "
                    f"{response.payload.get('error', '')}",
                    method=method_name,
                    inputs=values,
                )
            if response.status != 200:
                raise AccessViolation(
                    f"web service answered {response.status}: "
                    f"{response.payload.get('error', '')}",
                    method=method_name,
                    inputs=values,
                )
            return response

    def _paginate(
        self, method_name: str, values: Tuple[Constant, ...]
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Follow the page chain; restart if the epoch moves mid-sequence.

        An answer assembled from pages of two different backend
        snapshots could contain row combinations no snapshot ever
        held; the restart (bounded by ``max_snapshot_restarts``, then
        typed :class:`SourceUnavailable`) guarantees every returned
        answer is a pure single-epoch read.
        """
        raw_inputs = [v.value for v in values]
        restarts = 0
        while True:
            rows: List[Tuple[Constant, ...]] = []
            page: Optional[int] = 0
            sequence_epoch: Optional[int] = None
            restarted = False
            while page is not None:
                response = self._request(
                    "GET",
                    f"/access/{method_name}",
                    {"inputs": raw_inputs, "page": page},
                    method_name,
                    values,
                )
                epoch = self._note_epoch(response)
                if sequence_epoch is None:
                    sequence_epoch = epoch
                elif epoch is not None and epoch != sequence_epoch:
                    with self._lock:
                        self.snapshot_restarts += 1
                    restarts += 1
                    restarted = True
                    break
                rows.extend(
                    tuple(_to_constant(cell) for cell in row)
                    for row in response.payload.get("rows", ())
                )
                page = response.payload.get("next_page")
            if not restarted:
                return frozenset(rows)
            if restarts > self.max_snapshot_restarts:
                raise SourceUnavailable(
                    f"backend snapshot kept moving: {restarts} pagination "
                    "restarts without a stable epoch",
                    method=method_name,
                    inputs=values,
                )

    # ------------------------------------------------------------- access
    def access(
        self, method_name: str, inputs: Sequence[object] = ()
    ) -> FrozenSet[Tuple[Constant, ...]]:
        """Invoke a method as a (paginated) web-service lookup."""
        method = self.schema.method(method_name)
        values = checked_inputs(method, inputs)
        matching = self._paginate(method_name, values)
        with self._lock:
            self.log.record(
                (method_name, method.relation, values, len(matching))
            )
        return matching

    def access_batch(
        self, method_name: str, inputs_list: Sequence[Sequence[object]]
    ) -> Dict[Tuple[Constant, ...], FrozenSet[Tuple[Constant, ...]]]:
        """Several lookups through the bulk endpoint, one round trip.

        A batch the server faults on falls back to per-key accesses
        (where bursts drain per key); metering is one record per
        logical access either way.
        """
        method = self.schema.method(method_name)
        keyed = [checked_inputs(method, inputs) for inputs in inputs_list]
        with self._lock:
            self.batched_calls += 1
        try:
            response = self._request(
                "POST",
                f"/batch/{method_name}",
                {"inputs_list": [[v.value for v in k] for k in keyed]},
                method_name,
                keyed[0] if keyed else (),
            )
        except (SourceUnavailable, AccessTimeout, RateLimited):
            return {
                values: self.access(method_name, values) for values in keyed
            }
        by_key = {
            tuple(_to_constant(v) for v in entry["inputs"]): entry["rows"]
            for entry in response.payload.get("results", ())
        }
        results: Dict[Tuple[Constant, ...], FrozenSet] = {
            values: frozenset(
                tuple(_to_constant(cell) for cell in row)
                for row in by_key.get(values, ())
            )
            for values in dict.fromkeys(keyed)
        }
        with self._lock:
            self.log.record_batch(
                method_name,
                method.relation,
                keyed,
                map(len, map(results.__getitem__, keyed)),
            )
        return results

    def __repr__(self) -> str:
        return (
            f"HTTPSource({self.schema.name}, {len(self.log)} accesses, "
            f"{self.retry_after_waits} retry-after waits, "
            f"{self.snapshot_restarts} snapshot restarts)"
        )
