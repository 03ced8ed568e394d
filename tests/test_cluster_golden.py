"""Golden pins of the quorum cluster's simulated outputs.

Simulated time is a deterministic output of the model, so the
cluster's reports are pinned to exact values: a refactor of
:mod:`repro.core.cluster` must leave every one of them unchanged, and
a change that moves one on purpose must update the pin in the same
commit and say why.  Pinned here:

* the :meth:`~repro.core.cluster.SLSCluster.repair` report and the
  inter-AZ byte count after a node rejoins — once with warm segment
  caches, once after every holder rebooted (repair re-serializes from
  a holder's store);
* ``failover_ns`` from the ``PROMOTE`` event;
* the :meth:`~repro.core.cluster.SLSCluster.reconcile` report after a
  fenced failover, and after one node's copy diverged in place (the
  local segment stash path);
* :meth:`~repro.core.cluster.SLSCluster.recover`'s watermark and
  truncated tail;
* the replication-boundary schedules the crash-schedule explorers
  probe.
"""

from __future__ import annotations

from repro.core import events, telemetry
from repro.core.faults import PRIMARY
from repro.core.nemesis import NemesisFixture
from repro.core.segments import shard_stream
from tests.crashsched import ClusterScheduleExplorer, \
    FencedScheduleExplorer

REPAIR_KEYS = ("checkpoints", "segments", "skipped", "wall_ns",
               "mttr_p50_ns", "mttr_max_ns")
RECONCILE_KEYS = ("fenced", "divergent", "wire_segments",
                  "local_segments", "reconcile_bytes", "reconcile_ns")


def _pick(report, keys):
    return {key: report[key] for key in keys}


def _commit_and_pump(fx, tags):
    for tag in tags:
        fx.commit(tag)
        fx.cluster.pump()


def _promote_ns():
    return events.log().matching(events.PROMOTE)[-1].fields["failover_ns"]


def rejoin_repair():
    """Node 1 misses three checkpoints, rejoins, and is repaired from
    the warm segment caches; then the primary dies and fails over."""
    telemetry.reset()
    fx = NemesisFixture(seed=11)
    _commit_and_pump(fx, ["a0", "a1", "a2"])
    fx.cluster.node_down(1)
    _commit_and_pump(fx, ["b0", "b1", "b2"])
    fx.cluster.node_up(1)
    report = fx.cluster.repair()
    inter_az = fx.cluster.inter_az_bytes
    fx.machine.crash()
    fx.cluster.failover()
    return _pick(report, REPAIR_KEYS), inter_az, _promote_ns()


def cold_repair():
    """Every holder reboots (its segment cache dies with its power)
    before node 5 rejoins: repair re-serializes from a holder's
    store."""
    telemetry.reset()
    fx = NemesisFixture(seed=12)
    _commit_and_pump(fx, ["a0", "a1"])
    fx.cluster.node_down(5)
    _commit_and_pump(fx, ["b0", "b1"])
    for node_id in range(5):
        fx.cluster.node_down(node_id)
        fx.cluster.node_up(node_id)
    fx.cluster.node_up(5)
    report = fx.cluster.repair()
    return _pick(report, REPAIR_KEYS), fx.cluster.inter_az_bytes


def fenced_reconcile():
    """A partitioned primary commits a doomed tail, a node is
    promoted under a bumped epoch, the heal fences the ex-primary and
    reconciliation drains the tail; recovery then settles."""
    telemetry.reset()
    fx = NemesisFixture(seed=2)
    fx.commit("v1")
    fx.cluster.pump()
    fx.plan.asym_partition(list(range(6)), [PRIMARY])
    fx.commit("v2")
    fx.cluster.pump()
    fx.machine.clock.advance(2 * fx.cluster.lease_ns)
    fx.cluster.pump()
    fx.cluster.failover()
    promote_ns = _promote_ns()
    fx.cluster.pump()
    fx.plan.heal()
    report = fx.cluster.reconcile()
    fx.machine.crash()
    recovery = fx.cluster.recover()
    return (_pick(report, RECONCILE_KEYS), promote_ns,
            (recovery.durable, recovery.truncated))


def divergent_reconcile():
    """Node 2's copy of the first checkpoint differs in one segment:
    reconciliation rebuilds it and everything above it, taking every
    digest-matched segment from the node's own stash."""
    telemetry.reset()
    fx = NemesisFixture(seed=13)
    _commit_and_pump(fx, ["v1", "v2", "v3"])
    node = fx.cluster.nodes[2]
    first = min(node.applied)
    manifest, payloads = node.shards[first]
    stream = bytearray(b"".join(payloads))
    stream[manifest.segments[1].offset] ^= 0xFF
    node.shards[first] = shard_stream(fx.group.group_id, first,
                                      bytes(stream), manifest.segment_bytes)
    report = fx.cluster.reconcile()
    return _pick(report, RECONCILE_KEYS), fx.cluster.inter_az_bytes


def sub_quorum_recover():
    """Four of six nodes are down while the newest checkpoint ships:
    it reaches only two nodes, and recovery truncates it there."""
    telemetry.reset()
    fx = NemesisFixture(seed=14)
    _commit_and_pump(fx, ["v1"])
    for node_id in range(2, 6):
        fx.cluster.node_down(node_id)
    _commit_and_pump(fx, ["v2", "v3"])
    fx.machine.crash()
    recovery = fx.cluster.recover()
    return recovery.durable, recovery.truncated


def _schedule(explorer):
    """The probed ``repl_log`` as ``boundary@node`` tokens, with a run
    of one repeated token written ``token*count``."""
    runs = []
    for node, boundary in explorer.probe().repl_log:
        token = f"{boundary}@{node}"
        if runs and runs[-1][0] == token:
            runs[-1][1] += 1
        else:
            runs.append([token, 1])
    return " ".join(token if count == 1 else f"{token}*{count}"
                    for token, count in runs)


# -- the pins (measured on the unrefactored cluster) ---------------------


def test_rejoin_repair_report_and_failover_time():
    report, inter_az, failover_ns = rejoin_repair()
    assert report == {"checkpoints": 3, "segments": 63, "skipped": 0,
                      "wall_ns": 3172929, "mttr_p50_ns": 2097151,
                      "mttr_max_ns": 4194303}
    assert inter_az == 240528
    assert failover_ns == 77450


def test_cold_cache_repair_report():
    report, inter_az = cold_repair()
    assert report == {"checkpoints": 2, "segments": 42, "skipped": 0,
                      "wall_ns": 2115277, "mttr_p50_ns": 2097151,
                      "mttr_max_ns": 4194303}
    assert inter_az == 160384


def test_fenced_failover_reconcile_report():
    report, failover_ns, (durable, truncated) = fenced_reconcile()
    assert report == {"fenced": 6, "divergent": 0, "wire_segments": 0,
                      "local_segments": 0, "reconcile_bytes": 0,
                      "reconcile_ns": 32443}
    assert failover_ns == 109915
    assert (durable, truncated) == (1, [])


def test_divergent_copy_reconcile_report():
    report, inter_az = divergent_reconcile()
    assert report == {"fenced": 0, "divergent": 3, "wire_segments": 1,
                      "local_segments": 62, "reconcile_bytes": 512,
                      "reconcile_ns": 3150381}
    assert inter_az == 123920


def test_sub_quorum_recover_truncates_the_tail():
    durable, truncated = sub_quorum_recover()
    assert durable == 1
    assert truncated == [(0, 3), (0, 2), (1, 3), (1, 2)]


def test_cluster_explorer_schedule():
    assert _schedule(ClusterScheduleExplorer()) == (
        "ship@0 deliver@0 apply@0 ack@0 ship@1 deliver@1 apply@1 ack@1 "
        "ship@2 deliver@2 apply@2 ack@2 ship@3 deliver@3 apply@3 ack@3 "
        "ship@4 deliver@4 apply@4 ack@4 repair@5*158")


def test_fenced_explorer_schedule():
    assert _schedule(FencedScheduleExplorer()) == (
        "ship@0*5 ship@1*5 ship@2*5 ship@3*5 ship@4*5 ship@5*5 lease@-1 "
        "ship@0*5 ship@1*5 ship@2*5 ship@3*5 ship@4*5 ship@5*5 "
        "epoch@0 epoch@1 epoch@2 epoch@3 epoch@4 epoch@5 "
        "reconcile@0 reconcile@1 reconcile@2 reconcile@3 reconcile@4 "
        "reconcile@5")
