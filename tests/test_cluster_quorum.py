"""Property-based tests of the quorum cluster's durability math.

Three invariants, each verified over randomized states and membership
(deep variants — ≥200 examples each — run under ``-m slow``):

* **Read-quorum sufficiency** — after full replication, *any* subset
  of at least read-quorum nodes reconstructs byte-identical
  application state (W + R > N: every read quorum intersects every
  write quorum).
* **Write-quorum necessity** — a partition with fewer than
  write-quorum reachable nodes never advances the durability
  watermark: the new checkpoint is not acknowledged, and recovery
  yields exactly the prior durable state, never a partial V2.
* **Repair convergence** — after losing up to two complete copies
  (node media wipes, within the f=2 tolerance of a 3/5 quorum),
  segment repair reconverges to full replication with every segment
  checksum intact.

The per-node bookkeeping the ``sls cluster`` table and event log
report (status lag, per-leg link events) is pinned at the end.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Machine, load_aurora
from repro.core import events, telemetry
from repro.core.cluster import SLSCluster
from repro.core.faults import FaultPlan
from repro.units import MSEC, PAGE_SIZE

NODES = 5
AZS = 3
WRITE_QUORUM = NODES // 2 + 1      # 3
READ_QUORUM = NODES - WRITE_QUORUM + 1  # 3
SEGMENT_BYTES = 512

payloads = st.binary(min_size=1, max_size=96)

subsets = st.sets(st.integers(0, NODES - 1),
                  min_size=READ_QUORUM, max_size=NODES)

survivor_sets = st.sets(st.integers(0, NODES - 1),
                        min_size=0, max_size=WRITE_QUORUM - 1)

wipe_sets = st.sets(st.integers(0, NODES - 1), min_size=1, max_size=2)


class Fixture:
    """One primary with an attached service and its 5-node cluster."""

    def __init__(self):
        self.machine = Machine()
        self.sls = load_aurora(self.machine)
        self.proc = self.machine.kernel.spawn("svc")
        self.addr = self.proc.vmspace.mmap(16 * PAGE_SIZE, name="heap")
        self.group = self.sls.attach(self.proc, name="svc",
                                     periodic=False)
        self.cluster = SLSCluster(self.sls, self.group, nodes=NODES,
                                  azs=AZS, segment_bytes=SEGMENT_BYTES)

    def commit(self, payload: bytes, name: str) -> int:
        """Write ``payload`` (stamped so V1 != V2 always) and take a
        sync checkpoint; returns the primary checkpoint id."""
        self.proc.vmspace.write(self.addr, payload)
        self.proc.vmspace.write(self.addr + 3 * PAGE_SIZE,
                                name.encode() + b":" + payload)
        result = self.sls.checkpoint(self.group, name=name, sync=True)
        return int(result.info.ckpt_id)

    def read(self, root, length: int) -> bytes:
        return (root.vmspace.read(self.addr, length)
                + b"|" + root.vmspace.read(self.addr + 3 * PAGE_SIZE,
                                           length + 4))


def _check_read_quorum_sufficiency(subset, v1, v2):
    fx = Fixture()
    fx.commit(v1, name="v1")
    newest = fx.commit(v2, name="v2")
    assert fx.cluster.pump() == newest
    expected = fx.read(fx.proc, len(v2))
    fx.machine.crash()
    recovery = fx.cluster.recover(node_ids=sorted(subset))
    assert recovery.durable == newest
    assert fx.read(recovery.result.root, len(v2)) == expected


@settings(max_examples=20, deadline=None)
@given(subset=subsets, v1=payloads, v2=payloads)
def test_read_quorum_subsets_reconstruct_identical_state(subset, v1, v2):
    """(a) Any ≥R-node subset recovers byte-identical state."""
    _check_read_quorum_sufficiency(subset, v1, v2)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(subset=subsets, v1=payloads, v2=payloads)
def test_read_quorum_subsets_reconstruct_identical_state_deep(
        subset, v1, v2):
    _check_read_quorum_sufficiency(subset, v1, v2)


def _check_write_quorum_necessity(survivors, v1, v2):
    fx = Fixture()
    acked = fx.commit(v1, name="v1")
    assert fx.cluster.pump() == acked
    durable_state = fx.read(fx.proc, len(v1))
    # Partition: fewer than write-quorum nodes stay reachable.
    for node_id in range(NODES):
        if node_id not in survivors:
            fx.cluster.node_down(node_id, reason="partition")
    fx.commit(v2, name="v2")
    assert fx.cluster.pump() == acked, \
        "durability advanced without a write quorum"
    # The primary dies; the partition heals (every node reboots).
    fx.machine.crash()
    recovery = fx.cluster.recover()
    assert recovery.durable == acked
    assert fx.read(recovery.result.root, len(v1)) == durable_state
    # The unacknowledged checkpoint is gone everywhere, not lingering
    # on the minority that briefly held it.
    for node in fx.cluster.nodes:
        assert node.applied_max == acked


@settings(max_examples=20, deadline=None)
@given(survivors=survivor_sets, v1=payloads, v2=payloads)
def test_sub_write_quorum_partition_never_advances_durability(
        survivors, v1, v2):
    """(b) A <W partition acknowledges nothing; recovery yields the
    prior durable state exactly."""
    _check_write_quorum_necessity(survivors, v1, v2)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(survivors=survivor_sets, v1=payloads, v2=payloads)
def test_sub_write_quorum_partition_never_advances_durability_deep(
        survivors, v1, v2):
    _check_write_quorum_necessity(survivors, v1, v2)


def _check_repair_convergence(wiped, v1, v2):
    fx = Fixture()
    fx.commit(v1, name="v1")
    newest = fx.commit(v2, name="v2")
    assert fx.cluster.pump() == newest
    expected = fx.read(fx.proc, len(v2))
    # Lose k<=2 complete copies: replacement nodes come up blank.
    for node_id in wiped:
        fx.cluster.nodes[node_id].wipe()
        for acks in fx.cluster.acks.values():
            acks.discard(node_id)
    report = fx.cluster.repair()
    assert report["checkpoints"] == 2 * len(wiped)
    assert report["segments"] > 0
    # Converged: every node holds every checkpoint, and every cached
    # segment reassembles with its checksum intact (verify() raises
    # SegmentCorrupt otherwise).
    audit = fx.cluster.verify()
    assert audit["fully_replicated"], audit
    assert audit["segments_verified"] > 0
    # The rebuilt copies are real: recovery restricted to the wiped
    # nodes alone reconstructs the durable state (k<=2 wipes leave
    # >=1 of them... only when enough survive; use them plus one).
    fx.machine.crash()
    donors = sorted(wiped) + [n for n in range(NODES)
                              if n not in wiped][:READ_QUORUM - len(wiped)]
    recovery = fx.cluster.recover(node_ids=sorted(set(donors)))
    assert recovery.durable == newest
    assert fx.read(recovery.result.root, len(v2)) == expected


@settings(max_examples=20, deadline=None)
@given(wiped=wipe_sets, v1=payloads, v2=payloads)
def test_repair_converges_after_copy_losses(wiped, v1, v2):
    """(c) Repair after k<=2 media losses reconverges to full
    replication with checksums intact."""
    _check_repair_convergence(wiped, v1, v2)


@pytest.mark.slow
@settings(max_examples=200, deadline=None)
@given(wiped=wipe_sets, v1=payloads, v2=payloads)
def test_repair_converges_after_copy_losses_deep(wiped, v1, v2):
    _check_repair_convergence(wiped, v1, v2)


# -- per-node status and leg events -------------------------------------------


def test_status_lag_counts_what_an_empty_node_lacks():
    """A node holding nothing lags by every acknowledged checkpoint up
    to the watermark, not by zero."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("svc")
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name="svc", periodic=False)
    cluster = SLSCluster(sls, group, nodes=3, azs=3)
    for step in range(3):
        proc.vmspace.write(addr, b"step-%d" % step)
        sls.checkpoint(group, sync=True)
        cluster.pump()
    assert cluster.durable == 3
    cluster.nodes[2].wipe()
    rows = cluster.status()["nodes"]
    assert rows[2]["applied"] is None
    assert rows[2]["lag"] == 3
    assert [row["lag"] for row in rows[:2]] == [0, 0]


def test_healed_legs_each_report_their_own_link_up():
    """A flap that exhausts three legs' retries opens three outages;
    when the link heals, each leg closes its own with one ``link_up``
    naming its node, and the outage counter is per node too."""
    telemetry.reset()
    fx = Fixture()
    # Five attempts per ship: fifteen flaps exhaust nodes 0, 1 and 2.
    fx.machine.set_fault_plan(FaultPlan(name="flap").flaky_link(times=15))
    fx.commit(b"v1", name="v1")
    fx.cluster.pump()
    downs = events.log().matching(events.LINK_DOWN)
    assert [event.fields["node"] for event in downs] == [0, 1, 2]
    fx.commit(b"v2", name="v2")
    fx.cluster.pump()
    ups = events.log().matching(events.LINK_UP)
    assert [event.fields["node"] for event in ups] == [0, 1, 2]
    registry = telemetry.registry()
    for node_id in range(NODES):
        assert registry.value("sls.replication.outages",
                              group=fx.group.group_id,
                              node=node_id) == (node_id < 3)
    telemetry.reset()


def test_installed_cluster_pumps_periodic_commits_on_its_cadence():
    """``install()`` alone replicates a periodic group: async commits
    never fire the commit hook, so the cadence timer must pump every
    one of them to a write quorum; ``stop()`` cancels that timer."""
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("svc")
    addr = proc.vmspace.mmap(4 * PAGE_SIZE, name="heap")
    period = 10 * MSEC
    group = sls.attach(proc, name="svc", period_ns=period)
    cluster = SLSCluster(sls, group, nodes=6, azs=3)
    cluster.install()
    # Checkpoints fire at 1..5 periods, pumps at 1.5..5.5 periods.
    for step in range(5):
        proc.vmspace.write(addr, b"step-%d" % step)
        machine.run_for(period)
    machine.run_for(3 * period // 4)
    chain = sls.store.checkpoints_for(group.group_id)
    assert len(chain) == 5
    assert cluster.stats["pumps"] == 5
    for info in chain:
        assert len(cluster.acks[info.ckpt_id]) >= cluster.write_quorum
    assert cluster.durable == chain[-1].ckpt_id
    cluster.stop()
    # Neither the commit hook nor the timer pumps any more ...
    proc.vmspace.write(addr, b"after")
    sls.checkpoint(group, sync=True)
    assert cluster.stats["pumps"] == 5
    assert cluster.durable == chain[-1].ckpt_id
    # ... and with the group detached nothing is left on the loop: the
    # pump timer was cancelled, not left to fire and lapse.
    sls.detach(group)
    assert machine.loop.next_deadline() is None
