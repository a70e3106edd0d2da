"""Real-backend source adapters behind the standard access protocol.

The in-memory sources in :mod:`repro.data` are the oracle; this package
holds the adapters that serve the same schema/access contract from
backends that can actually disconnect, throttle and paginate --
:class:`SQLiteSource` (relations as tables) and :class:`HTTPSource` (a
web-service client over a pluggable transport) -- plus the client-side
pacer (:class:`PacedSource` over a :class:`TokenBucket`).  The
contract they speak is :mod:`repro.source_contract`'s, re-exported
here: :class:`SourceAdapter`, :class:`MeteredSourceMixin`, and the epoch
token (:func:`source_epoch`) that keeps caches and answers
snapshot-consistent across reconnects and backend mutations.
"""

from repro.source_contract import (
    MeteredSourceMixin,
    SourceAdapter,
    source_epoch,
)
from repro.sources.base import PacedSource, TokenBucket
from repro.sources.http import (
    EPOCH_HEADER,
    HTTPSource,
    StubResponse,
    StubTransport,
    TransportTimeout,
)
from repro.sources.sqlite import SQLiteSource

__all__ = [
    "EPOCH_HEADER",
    "HTTPSource",
    "MeteredSourceMixin",
    "PacedSource",
    "SQLiteSource",
    "SourceAdapter",
    "StubResponse",
    "StubTransport",
    "TokenBucket",
    "TransportTimeout",
    "source_epoch",
]
