"""The crash-persistent flight recorder.

Aurora's thesis is that *all* state belongs in the single level store
— including the observability state that explains a crash.  The flight
recorder snapshots the volatile telemetry surfaces — the structured
event ring, recent span summaries, retry/degraded-mode counters and
per-tenant SLO samples — into one bounded, fixed-size record that the
object store places next to every catalog write and anchors from the
superblock it flips.  Durability therefore rides the commit protocol
itself: a snapshot is meaningful exactly when its superblock is, and a
crash at any instant leaves the black box of the *previous* durable
commit intact.

Two invariants keep instrumented runs timing-identical and crash
schedules stable:

* **Zero simulated cost** — the snapshot lands via the device's
  ``place_extent`` path: no clock advance, no bandwidth, no fault-plan
  IO index, no span.  Crash schedules enumerate exactly the same
  points with or without the recorder.
* **Fixed size** — the encoded record is always exactly
  :data:`FLIGHTREC_BYTES` (content is shed oldest-first, then padded),
  so allocator cursors and superblock record lengths — and with them
  every downstream IO cost — are identical whether telemetry is
  enabled or disabled.

A snapshot costs what changed since the last one.  Each event and span
row is encoded once, the first time a snapshot includes it, and the
bytes are memoized on the ring object itself (``encoded_row``) while
it stays in the snapshot window.  Only the SLO and counter rows,
which read live state, are encoded on every flip.  Shedding runs on
the cached row sizes — serde's list headers and length prefixes are
fixed-width, so the record's size is a plain sum — and the record is
then encoded once, the rows spliced in as :class:`repro.serde.Encoded`
values, plus one small encode to size the fixed fields.  The bytes are
identical to re-encoding the whole record after every shed step.

Observability never fails a durable commit: if the snapshot cannot be
built (a row builder raises, or ``pending`` alone overflows the
budget), :func:`encode_snapshot` returns a *degraded* record instead —
version, generation, time and the reason, no rows — still exactly
:data:`FLIGHTREC_BYTES`, counted in ``sls.flightrec.degraded`` and
announced by one ``flightrec.degraded`` event.

Reconstruction (:func:`blackbox`, surfaced as ``sls blackbox``) reads
the raw superblock slots of an unmounted or crashed store, follows the
newest valid anchor, and rebuilds the timeline leading up to the
crash.  The snapshot is taken *before* its own superblock flip, so the
flip's success is itself evidence: a recovered snapshot's pending
commit is synthesized into the timeline as the last durable commit.
An optional still-live event ring (it survives a simulated power
failure in-process) is merged in as the post-snapshot tail — the
events, fault injections included, that never reached durability.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import serde
from ..errors import CorruptRecord, ReproError, StoreError
from . import events as events_mod
from . import telemetry

#: Exact on-media size of every flight-recorder record.
FLIGHTREC_BYTES = 64 * 1024
#: Content caps (shed further, oldest first, if the encode overflows).
MAX_EVENTS = 256
MAX_SPANS = 128
MAX_SLO_TAIL = 32
FORMAT_VERSION = 1
#: Row lists in shedding order: the oldest rows of the first non-empty
#: list go first.
SHED_ORDER = ("events", "spans", "slo", "counters")
#: Bound on a degraded snapshot's reason text (characters).
MAX_REASON = 256

#: Synthetic kind closing a recovered timeline: the commit the
#: snapshot rode to disk, proven durable by its anchoring superblock.
COMMIT_DURABLE = "flightrec.commit_durable"


def _clean(value: Any) -> Any:
    """Coerce a value into the strict serde vocabulary (floats and
    exotic objects become their string form)."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, (list, tuple)):
        return [_clean(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _clean(item) for key, item in value.items()}
    return str(value)


def _event_row(event: Any) -> Dict[str, Any]:
    return {
        "time_ns": event.time_ns,
        "kind": event.kind,
        "trace_id": event.trace_id,
        "fields": _clean(event.fields),
    }


def _span_row(span: Any) -> Dict[str, Any]:
    return {
        "name": span.name,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "labels": _clean(span.labels),
    }


def _slo_rows(tracker: Any) -> List[Dict[str, Any]]:
    """Per-tenant SLO state: commits, sample summaries, the recent
    RPO-lag tail, and degraded/burn state."""
    if tracker is None:
        return []
    rows: List[Dict[str, Any]] = []
    names = getattr(tracker, "tenant_names", {})
    for gid in sorted(tracker.groups):
        state = tracker.groups[gid]
        rows.append({
            "group": gid,
            "tenant": names.get(gid),
            "commits": state.commits,
            "rpo_lag": _clean(state.rpo_lag.summary()),
            "rpo_tail": list(state.rpo_lag.values[-MAX_SLO_TAIL:]),
            "stop": _clean(state.stop.summary()),
            "quorum_lag": _clean(state.quorum_lag.summary()),
            "degraded_total_ns": state.degraded_total_ns,
            "degraded_open": state.degraded_since is not None,
            "rpo_burn_milli": tracker.burn_rate_milli(gid, "rpo"),
            "quorum_burn_milli": tracker.burn_rate_milli(gid, "quorum"),
        })
    return rows


def _counter_rows(registry: Any) -> List[Dict[str, Any]]:
    """The retry / degraded-mode / SLO-violation history counters."""
    rows: List[Dict[str, Any]] = []
    for prefix in ("sls.resilience", "sls.slo", "sls.events.degraded",
                   "sls.events.fault"):
        for counter in registry.counters_matching(prefix):
            rows.append({"name": counter.name,
                         "labels": _clean(counter.labels),
                         "value": counter.value})
    return rows


def _fixed_fields(store: Any, pending: Optional[Dict[str, Any]],
                  generation: int) -> Dict[str, Any]:
    """Every snapshot field except the row lists (never shed)."""
    registry = telemetry.registry()
    return {
        "version": FORMAT_VERSION,
        "generation": generation,
        "time_ns": store.clock.now(),
        "pending": _clean(pending) if pending else None,
        "telemetry_enabled": bool(registry.enabled),
        "events_retained": len(events_mod.log()),
        "events_dropped": registry.value("sls.telemetry.events_dropped"),
        "traces_dropped": registry.value("sls.telemetry.traces_dropped"),
    }


def build_snapshot(store: Any, pending: Optional[Dict[str, Any]] = None,
                   generation: int = 0) -> Dict[str, Any]:
    """The snapshot body (unpadded) as of the store's clock now."""
    registry = telemetry.registry()
    body = _fixed_fields(store, pending, generation)
    body["events"] = [_event_row(e)
                      for e in list(events_mod.log())[-MAX_EVENTS:]]
    body["spans"] = [_span_row(s) for s in list(registry.spans)[-MAX_SPANS:]]
    body["counters"] = _counter_rows(registry)
    body["slo"] = _slo_rows(getattr(store, "_slo_tracker", None))
    return body


def _memo_rows(ring: Any, count: int,
               build: Callable[[Any], Dict[str, Any]]) -> List[serde.Encoded]:
    """The encoded rows of a ring's newest ``count`` entries, oldest
    first, encoding only entries new to this window.

    An entry that has slid out of the window never returns (rings only
    append), so the entries just behind it drop their bytes here
    instead of holding them until the ring evicts them.
    """
    newest = reversed(ring)
    window = list(islice(newest, count))
    for item in newest:
        if item.encoded_row is None:
            break
        item.encoded_row = None
    rows: List[serde.Encoded] = []
    for item in reversed(window):
        row = item.encoded_row
        if row is None:
            row = item.encoded_row = serde.Encoded(build(item))
        rows.append(row)
    return rows


def _room(body: Dict[str, Any]) -> int:
    """Bytes left under :data:`FLIGHTREC_BYTES` for rows and padding
    once ``body`` is encoded with an empty pad."""
    from ..objstore import records

    body["pad"] = b""
    return FLIGHTREC_BYTES - len(records.encode(records.REC_FLIGHTREC, body))


def _padded(body: Dict[str, Any], room: int) -> bytes:
    from ..objstore import records

    body["pad"] = b"\x00" * room
    payload = records.encode(records.REC_FLIGHTREC, body)
    assert len(payload) == FLIGHTREC_BYTES
    return payload


def _encode_rows(store: Any, pending: Optional[Dict[str, Any]],
                 generation: int) -> bytes:
    registry = telemetry.registry()
    rows = {
        "events": _memo_rows(events_mod.log().events, MAX_EVENTS,
                             _event_row),
        "spans": _memo_rows(registry.spans, MAX_SPANS, _span_row),
        "slo": [serde.Encoded(row) for row in
                _slo_rows(getattr(store, "_slo_tracker", None))],
        "counters": [serde.Encoded(row) for row in _counter_rows(registry)],
    }
    body = _fixed_fields(store, pending, generation)
    body.update({key: [] for key in SHED_ORDER})
    # A list costs its fixed 9-byte header (already in the empty
    # encoding) plus its rows' bytes, so the shed rule runs on sums.
    room = _room(body) - sum(len(row.data) for key in SHED_ORDER
                             for row in rows[key])
    while room < 0:
        for key in SHED_ORDER:
            kept = rows[key]
            if kept:
                cut = len(kept) // 2 + 1
                room += sum(len(row.data) for row in kept[:cut])
                rows[key] = kept[cut:]
                break
        else:
            raise StoreError(
                f"flight recorder snapshot cannot fit {FLIGHTREC_BYTES} "
                f"bytes even when empty ({FLIGHTREC_BYTES - room} bytes)")
    body.update(rows)
    return _padded(body, room)


def _encode_degraded(store: Any, generation: int, exc: Exception) -> bytes:
    """The row-less stand-in recorded when a snapshot cannot be built."""
    reason = f"{type(exc).__name__}: {exc}"[:MAX_REASON]
    now = store.clock.now()
    telemetry.registry().counter("sls.flightrec.degraded").add(1)
    events_mod.emit(now, events_mod.FLIGHTREC_DEGRADED,
                    generation=generation, reason=reason)
    body: Dict[str, Any] = {"version": FORMAT_VERSION,
                            "generation": generation, "time_ns": now,
                            "degraded": reason}
    return _padded(body, _room(body))


def encode_snapshot(store: Any, pending: Optional[Dict[str, Any]] = None,
                    generation: int = 0) -> bytes:
    """Encode a snapshot at exactly :data:`FLIGHTREC_BYTES`.

    Over-budget content is shed oldest-first: the first non-empty list
    of events, spans, SLO rows and counters loses its oldest
    ``len // 2 + 1`` rows until the record fits; the remainder is
    zero-padded.  A snapshot that cannot be built degrades to a
    row-less record of the same size rather than raising, so the
    superblock flip it rides always lands.
    """
    try:
        return _encode_rows(store, pending, generation)
    except Exception as exc:  # observability must not fail a commit
        return _encode_degraded(store, generation, exc)


def decode_snapshot(payload: bytes) -> Dict[str, Any]:
    """The snapshot body back out of one on-media record."""
    from ..objstore import records

    body = records.decode(payload, records.REC_FLIGHTREC)
    if not isinstance(body, dict) or body.get("version") != FORMAT_VERSION:
        raise CorruptRecord("flight recorder record has no valid body")
    body.pop("pad", None)
    return body


# -- reconstruction ---------------------------------------------------------------------


class BlackBox:
    """One recovered flight recorder: the persisted timeline (which
    ends at the last durable commit) plus, when a surviving in-process
    event ring is merged in, the volatile post-snapshot tail."""

    def __init__(self, snapshot: Dict[str, Any], generation: int):
        self.snapshot = snapshot
        self.generation = generation
        self.events: List[Dict[str, Any]] = list(snapshot.get("events") or [])
        pending = snapshot.get("pending")
        if isinstance(pending, dict):
            marker = {"time_ns": snapshot.get("time_ns", 0),
                      "kind": COMMIT_DURABLE, "trace_id": None,
                      "fields": dict(pending), "synthetic": True}
            self.events.append(marker)
        self.volatile: List[Dict[str, Any]] = []

    @property
    def last_durable(self) -> Optional[Dict[str, Any]]:
        """The commit the persisted timeline ends at: the synthesized
        pending-commit marker, else the newest persisted commit event."""
        for row in reversed(self.events):
            if row["kind"] in (COMMIT_DURABLE, events_mod.CKPT_COMMIT):
                return row
        return None

    def attach_volatile(self, log: Any) -> None:
        """Merge the surviving in-process event ring: everything newer
        than the snapshot instant is the post-crash tail (the events —
        injected faults included — that never reached durability)."""
        snap_ns = self.snapshot.get("time_ns", 0)
        seen = {(row["time_ns"], row["kind"], str(row.get("fields")))
                for row in self.events}
        for event in log:
            if event.time_ns < snap_ns:
                continue
            row = _event_row(event)
            key = (row["time_ns"], row["kind"], str(row["fields"]))
            if row["time_ns"] == snap_ns and key in seen:
                continue
            row["post_snapshot"] = True
            self.volatile.append(row)

    def timeline(self) -> List[Dict[str, Any]]:
        """Persisted events (ending at the last durable commit)
        followed by the volatile tail."""
        return self.events + self.volatile

    def __repr__(self) -> str:
        return (f"BlackBox(gen={self.generation}, "
                f"{len(self.events)} persisted, "
                f"{len(self.volatile)} volatile)")


def recover_snapshot(store: Any) -> Optional[Tuple[Dict[str, Any], int]]:
    """Read the newest recoverable snapshot from a store's raw
    superblock slots (no mount required).  Falls back across
    generations when the newest anchor is unreadable."""
    from ..objstore import recovery as recovery_mod
    from ..objstore.store import SUPERBLOCK_SLOTS

    candidates = []
    for slot in SUPERBLOCK_SLOTS:
        superblock = recovery_mod._read_superblock(store, slot)
        if superblock is not None:
            candidates.append(superblock)
    candidates.sort(key=lambda sb: -sb.get("generation", 0))
    for superblock in candidates:
        anchor = superblock.get("flightrec")
        if not anchor:
            continue
        try:
            payload = store.device.read(anchor[0])
            if not isinstance(payload, (bytes, bytearray)):
                continue
            snapshot = decode_snapshot(bytes(payload))
        except (CorruptRecord, StoreError, ReproError):
            continue
        return snapshot, superblock.get("generation", 0)
    return None


def blackbox(store: Any, volatile: Any = None) -> Optional[BlackBox]:
    """Reconstruct the black box of a (possibly crashed, possibly
    unmountable) store; ``volatile`` optionally merges a surviving
    event ring as the post-snapshot tail."""
    found = recover_snapshot(store)
    if found is None:
        return None
    snapshot, generation = found
    box = BlackBox(snapshot, generation)
    if volatile is not None:
        box.attach_volatile(volatile)
    return box
