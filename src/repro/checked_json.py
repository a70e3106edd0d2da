"""One checksummed JSON file: the disk protocol of the plan cache.

Each plan-cache entry is one JSON document on disk, and needs three
guarantees: a reader never trusts a torn or bit-flipped file, a writer
never leaves a half-written one in place, and neither ever raises into
serving.  The protocol:

* the document carries ``format`` and ``version`` markers and a
  ``checksum``: BLAKE2b (16 bytes) over the canonical JSON of every
  other field (:func:`checksum`);
* :func:`write` renders it to a temp file unique to the process and
  thread, then ``os.replace``s it over the target, so a reader sees the
  old document or the new one, never a mix;
* :func:`read` tells three outcomes apart: a verified document; ``None``
  for no file or an *alien* one (another format, version or key -- a
  miss, not corruption); and :class:`CorruptFile` for a file that does
  not parse or fails its checksum;
* :func:`quarantine` moves a corrupt file aside to ``*.quarantined``
  for inspection.

The caller counts quarantines and failed writes (``persist_errors``)
in its own counters.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Dict, Mapping, Optional

# The canonical rendering the checksum is taken over; one encoder, so a
# digest costs no encoder construction.
_canonical_json = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=str
).encode


class CorruptFile(ValueError):
    """A file that does not parse as JSON or fails its checksum."""


def checksum(document: Mapping[str, Any]) -> str:
    """The BLAKE2b digest of every field of ``document`` but ``checksum``."""
    payload = _canonical_json(
        {k: v for k, v in document.items() if k != "checksum"}
    )
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def write(path: str, document: Mapping[str, Any]) -> None:
    """Checksum ``document`` and replace ``path`` with it atomically.

    Creates the parent directory if needed.  Raises ``OSError`` when the
    disk refuses; the caller counts it and carries on.
    """
    document = dict(document, checksum=checksum(document))
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=1)
    os.replace(tmp, path)


def read(
    path: str, kind: str, version: int, **expected: Any
) -> Optional[Dict[str, Any]]:
    """The verified document at ``path``, or ``None`` (missing or alien).

    A document is alien when its ``format``, ``version`` or any field
    named in ``expected`` differs.  Raises :class:`CorruptFile` when the
    file does not parse or its checksum does not match.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    if (
        not isinstance(document, dict)
        or document.get("format") != kind
        or document.get("version") != version
        or any(document.get(k) != v for k, v in expected.items())
    ):
        return None
    digest = document.get("checksum")
    if not isinstance(digest, str) or digest != checksum(document):
        raise CorruptFile(f"{path}: checksum mismatch")
    return document


def quarantine(path: str) -> None:
    """Move a corrupt file aside to ``<path>.quarantined`` (never raises)."""
    try:
        os.replace(path, f"{path}.quarantined")
    except OSError:  # pragma: no cover -- racing cleanup is fine
        pass
