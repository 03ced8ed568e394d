"""The flight recorder's original encoder: build every row as a dict,
encode the whole record, and on overflow halve the oldest non-empty
row list and encode it all again.

:func:`repro.core.flightrec.encode_snapshot` encodes each row once and
sheds by size arithmetic instead; it must produce the same bytes as
this loop on every superblock flip.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.core.flightrec import FLIGHTREC_BYTES, build_snapshot
from repro.errors import StoreError


def encode_snapshot(store: Any, pending: Optional[Dict[str, Any]] = None,
                    generation: int = 0) -> bytes:
    """Encode a snapshot at exactly :data:`FLIGHTREC_BYTES`.

    Over-budget content is shed oldest-first (events, then spans, then
    SLO rows, then counters); the remainder is zero-padded.  The serde
    layer's fixed 8-byte length prefixes make the padding exact.
    """
    from repro.objstore import records

    body = build_snapshot(store, pending=pending, generation=generation)
    while True:
        body["pad"] = b""
        blob = records.encode(records.REC_FLIGHTREC, body)
        delta = FLIGHTREC_BYTES - len(blob)
        if delta >= 0:
            break
        for key in ("events", "spans", "slo", "counters"):
            rows = body[key]
            if rows:
                body[key] = rows[len(rows) // 2 + 1:]
                break
        else:
            raise StoreError(
                f"flight recorder snapshot cannot fit {FLIGHTREC_BYTES} "
                f"bytes even when empty ({len(blob)} bytes)")
    body["pad"] = b"\x00" * delta
    payload = records.encode(records.REC_FLIGHTREC, body)
    assert len(payload) == FLIGHTREC_BYTES
    return payload

