"""The flight recorder's incremental encoder.

:func:`repro.core.flightrec.encode_snapshot` encodes each event and
span row once and sheds by size arithmetic.  Three contracts are
tested here:

* **Byte identity** — on every superblock flip, in every shedding
  regime, the record equals the original re-encode loop's
  (:mod:`tests.oracles.flightrec_reencode`).
* **Exact work** — a flip encodes only the event and span rows new to
  its window, plus the live SLO and counter rows, in at most two
  ``serde.dumps`` calls.  Counted, so it holds on any hardware.
* **Degrade, never fail** — a snapshot that cannot be built is
  replaced by a row-less record of the same size; the commit it rides
  still lands and restores.
"""

import pytest

from repro import Machine, load_aurora, serde
from repro.core import events, flightrec, telemetry
from repro.core.cluster import SLSCluster
from repro.objstore.store import ObjectStore
from repro.units import MSEC, PAGE_SIZE
from tests.oracles import flightrec_reencode as oracle


@pytest.fixture(autouse=True)
def fresh_telemetry():
    telemetry.reset()
    yield
    telemetry.reset()


@pytest.fixture
def flips(monkeypatch):
    """Check every flip's snapshot against the oracle; collects, per
    flip, the set of row lists that shedding cut."""
    real = flightrec.encode_snapshot
    shed = []

    def checked(store, pending=None, generation=0):
        offered = flightrec.build_snapshot(store, pending, generation)
        expected = oracle.encode_snapshot(store, pending=pending,
                                          generation=generation)
        payload = real(store, pending=pending, generation=generation)
        assert payload == expected, f"generation {generation} differs"
        kept = flightrec.decode_snapshot(payload)
        shed.append({key for key in flightrec.SHED_ORDER
                     if len(kept[key]) < len(offered[key])})
        return payload

    monkeypatch.setattr(flightrec, "encode_snapshot", checked)
    return shed


def _app(pages=16):
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(pages * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name="app", periodic=False)
    return machine, sls, proc, addr, group


def _checkpoints(machine, sls, proc, addr, group, count, between=None):
    for i in range(count):
        proc.vmspace.fill(addr, 4, seed=i)
        machine.run_for(10 * MSEC)
        if between is not None:
            between(i)
        sls.checkpoint(group, name=f"v{i}", sync=True)


def _noise_events(machine, count, size):
    for i in range(count):
        events.emit(machine.clock.now(), "test.noise", n=i, blob="e" * size)


def _noise_spans(machine, count, size):
    registry = telemetry.registry()
    now = machine.clock.now()
    for i in range(count):
        registry.record_span("test.span", now, now + i, n=i,
                             blob="s" * size)


def _slo_tenants(sls, count, size):
    for gid in range(1000, 1000 + count):
        sls.slo._group(gid)
        sls.slo.tenant_names[gid] = f"tenant{gid}" + "t" * size


def _resilience_counters(count, size):
    registry = telemetry.registry()
    for i in range(count):
        registry.counter("sls.resilience.test", n=i, blob="c" * size).add(i)


# -- byte identity against the re-encode oracle ----------------------------------------


def test_nothing_shed(flips):
    _checkpoints(*_app(), count=4)
    assert len(flips) >= 4
    assert not any(flips)


def test_events_shed(flips):
    machine, *rest = app = _app()
    _checkpoints(*app, count=3,
                 between=lambda i: _noise_events(machine, 300, 400))
    assert {"events"} in flips


def test_spans_shed(flips):
    machine, *rest = app = _app()
    _checkpoints(*app, count=3,
                 between=lambda i: _noise_spans(machine, 150, 700))
    assert any("spans" in cut and "slo" not in cut for cut in flips)


def test_slo_rows_shed(flips):
    machine, sls, *rest = app = _app()
    _slo_tenants(sls, 90, 900)
    _checkpoints(*app, count=2)
    assert any("slo" in cut and "counters" not in cut for cut in flips)


def test_counters_shed(flips):
    machine, sls, *rest = app = _app()
    _slo_tenants(sls, 10, 900)
    _resilience_counters(90, 900)
    _checkpoints(*app, count=2)
    assert any("counters" in cut for cut in flips)


def test_rings_wrap_and_evict(flips):
    """Memoized rows survive their neighbours' eviction: the event
    ring wraps past its capacity and the span deque drops its oldest
    spans between flips."""
    machine, *rest = app = _app()
    per_round = events.EventLog.CAPACITY // 3

    def churn(_i):
        _noise_events(machine, per_round, 8)
        _noise_spans(machine, telemetry.TelemetryRegistry.SPAN_CAPACITY // 3,
                     8)

    _checkpoints(*app, count=5, between=churn)
    registry = telemetry.registry()
    assert registry.value("sls.telemetry.events_dropped") > 0
    assert registry.value("sls.telemetry.spans_dropped") > 0
    assert len(flips) >= 5


def test_reset_between_flips(flips):
    app = _app()
    _checkpoints(*app, count=2)
    telemetry.reset()
    _checkpoints(*app, count=2)
    assert len(flips) >= 4


def test_three_node_cluster(flips):
    machine, sls, proc, addr, group = _app()
    cluster = SLSCluster(sls, group, nodes=3, azs=3)
    for step in range(3):
        proc.vmspace.write(addr, b"step-%d" % step)
        sls.checkpoint(group, sync=True)
        cluster.pump()
    cluster.node_down(1)
    proc.vmspace.write(addr, b"missed")
    sls.checkpoint(group, sync=True)
    cluster.pump()
    cluster.node_up(1)
    cluster.repair()
    # The primary's flips plus at least one per replica commit.
    assert len(flips) > 3 * 4


# -- exact, hardware-independent work --------------------------------------------------


def test_a_flip_encodes_only_new_rows(monkeypatch):
    encoded = []
    dumps = []

    class CountingEncoded(serde.Encoded):
        __slots__ = ()

        def __init__(self, value):
            encoded.append(value)
            super().__init__(value)

    real_dumps = serde.dumps

    def counting_dumps(value):
        dumps.append(value)
        return real_dumps(value)

    monkeypatch.setattr(serde, "Encoded", CountingEncoded)
    monkeypatch.setattr(serde, "dumps", counting_dumps)

    real = flightrec.encode_snapshot
    seen = {"events": [], "spans": []}
    checked = []
    released = []

    def spied(store, pending=None, generation=0):
        registry = telemetry.registry()
        window = {
            "events": list(events.log())[-flightrec.MAX_EVENTS:],
            "spans": list(registry.spans)[-flightrec.MAX_SPANS:],
        }
        offered = flightrec.build_snapshot(store, pending, generation)
        encoded.clear()
        dumps.clear()
        payload = real(store, pending=pending, generation=generation)
        if seen["events"]:
            # ``seen`` holds the previous window alive, so ids are unique.
            new = 0
            for key, items in window.items():
                old = {id(item) for item in seen[key]}
                new += sum(1 for item in items if id(item) not in old)
            assert new > 0
            assert len(encoded) == (new + len(offered["slo"])
                                    + len(offered["counters"]))
            assert len(dumps) <= 2
            checked.append(generation)
        seen.update(window)
        # Entries that slid out of the window dropped their bytes.
        behind = (list(events.log())[:-flightrec.MAX_EVENTS]
                  + list(registry.spans)[:-flightrec.MAX_SPANS])
        assert all(item.encoded_row is None for item in behind)
        released.extend(behind)
        return payload

    monkeypatch.setattr(flightrec, "encode_snapshot", spied)
    _checkpoints(*_app(), count=12)
    assert len(checked) >= 11
    assert released


# -- degrade, never fail a durable commit ----------------------------------------------


def _crash_and_restore(machine, group, addr):
    machine.crash()
    machine.boot()
    box = flightrec.blackbox(ObjectStore(machine))
    sls = load_aurora(machine)
    result = sls.restore(group.group_id)
    return box, result.root.vmspace.read(addr, 16)


def _degraded_counts():
    kinds = [event.kind for event in events.log()]
    return (telemetry.registry().value("sls.flightrec.degraded"),
            kinds.count(events.FLIGHTREC_DEGRADED))


def test_oversized_pending_degrades_and_the_commit_lands():
    machine, sls, proc, addr, group = _app()
    _checkpoints(machine, sls, proc, addr, group, count=2)
    proc.vmspace.write(addr, b"durable-state-42")
    result = sls.checkpoint(group, name="n" * flightrec.FLIGHTREC_BYTES,
                            sync=True)
    assert _degraded_counts() == (1, 1)
    generation = sls.store._generation
    assert sls.store.checkpoints[result.info.ckpt_id].complete
    box, restored = _crash_and_restore(machine, group, addr)
    assert restored == b"durable-state-42"
    assert box.generation == generation
    assert box.snapshot["degraded"].startswith("StoreError: ")
    assert box.events == [] and box.last_durable is None


def test_raising_row_builder_degrades_at_identical_timing(monkeypatch):
    def run(fail):
        telemetry.reset()
        machine, sls, proc, addr, group = _app()
        _checkpoints(machine, sls, proc, addr, group, count=2)
        proc.vmspace.write(addr, b"durable-state-77")
        if fail:
            def boom(_registry):
                raise RuntimeError("row builder failed")
            monkeypatch.setattr(flightrec, "_counter_rows", boom)
        sls.checkpoint(group, name="last", sync=True)
        monkeypatch.undo()
        observed = (machine.clock.now(), sls.store.alloc.cursor,
                    sls.store._generation, sls.store._flightrec_extent)
        return observed, machine, group, addr

    healthy, *_ = run(fail=False)
    degraded, machine, group, addr = run(fail=True)
    assert degraded == healthy
    assert _degraded_counts() == (1, 1)
    box, restored = _crash_and_restore(machine, group, addr)
    assert restored == b"durable-state-77"
    assert box.generation == degraded[2]
    assert box.snapshot["degraded"] == "RuntimeError: row builder failed"
    assert box.snapshot["time_ns"] <= degraded[0]
    assert "pending" not in box.snapshot
