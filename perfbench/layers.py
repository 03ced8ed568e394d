"""Which layer functions the traced run wraps, and the per-layer
metrics derived from their spans.

Each entry wraps the attribute the caller resolves at call time:
module functions that callers reach as ``module.func`` (``serde.dumps``
via ``records``, ``flightrec.encode_snapshot`` via the store), and
methods on the class of the instance the caller holds.  Per-page hot
paths (``Pmap.mark_dirty``, ``is_writable``) are deliberately not
wrapped: their span cost would swamp what they measure.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from tracer import SpanRecorder, Span, self_times

OBJSTORE_METHODS = ("commit", "begin_checkpoint", "retain_last", "mount",
                    "merged_view", "read_object_records", "fetch_page")
PMAP_RANGE_METHODS = ("enter_range", "remove_range", "write_protect_range",
                      "collect_dirty", "dirty_pages", "resident_pages",
                      "clear")
SHADOW_METHODS = ("shadow_group", "collapse_completed", "mark_flushed")
CLUSTER_METHODS = ("pump", "repair", "failover")
STAGES = ("quiesce", "collapse", "shadow", "serialize", "seal", "resume",
          "flush", "commit")


def _checkpoint_value(_args: tuple, result: Any) -> Dict[str, int]:
    """Simulated stage durations and record counts of one checkpoint."""
    value = {stage: result.stage_ns(stage) for stage in STAGES}
    value["records_written"] = result.records_written
    value["records_skipped"] = result.records_skipped
    return value


def _restore_value(_args: tuple, result: Any) -> Dict[str, int]:
    return {"pages_restored": result.pages_restored,
            "pages_lazy": result.pages_lazy,
            "io_ns": result.io_ns, "insert_ns": result.insert_ns}


def install(recorder: SpanRecorder) -> None:
    """Wrap every instrumented layer function (undo with
    ``recorder.uninstall()``)."""
    from repro import machine, serde
    from repro.core import flightrec
    from repro.core.cluster import SLSCluster
    from repro.core.events import EventLog
    from repro.core.orchestrator import Orchestrator
    from repro.core.restore import GroupRestorer
    from repro.core.serialize import CheckpointSerializer
    from repro.core.shadowing import ShadowEngine
    from repro.core.slo import SLOTracker
    from repro.core.telemetry import TelemetryRegistry
    from repro.kernel.vm.pmap import Pmap
    from repro.kernel.vm.vmspace import VMSpace
    from repro.objstore.store import ObjectStore

    recorder.wrap(flightrec, "encode_snapshot", "flightrec.encode",
                  "core.flightrec")
    recorder.wrap(serde, "dumps", "serde.dumps", "serde",
                  value=lambda args, result: len(result))
    recorder.wrap(serde, "loads", "serde.loads", "serde",
                  value=lambda args, result: len(args[0]))
    for method in OBJSTORE_METHODS:
        recorder.wrap(ObjectStore, method, f"objstore.{method}", "objstore")
    for method in PMAP_RANGE_METHODS:
        recorder.wrap(Pmap, method, f"kernel.vm.pmap.{method}", "kernel.vm")
    recorder.wrap(VMSpace, "touch", "kernel.vm.touch", "kernel.vm")
    for method in SHADOW_METHODS:
        recorder.wrap(ShadowEngine, method, f"shadow.{method}",
                      "core.shadowing")
    recorder.wrap(CheckpointSerializer, "serialize_all",
                  "serialize.serialize_all", "core.serialize")
    recorder.wrap(Orchestrator, "checkpoint", "pipeline.checkpoint",
                  "core.pipeline", value=_checkpoint_value)
    for method in CLUSTER_METHODS:
        recorder.wrap(SLSCluster, method, f"cluster.{method}", "core.cluster")
    recorder.wrap(SLSCluster, "shards_for", "cluster.shards_for",
                  "core.cluster",
                  value=lambda args, result: len(result[0].segments))
    recorder.wrap(machine.Machine, "run_for", "fleet.run_for", "core.fleet")
    recorder.wrap(GroupRestorer, "restore", "restore.restore", "core.restore",
                  value=_restore_value)
    recorder.wrap(SLOTracker, "on_commit", "slo.on_commit", "observability")
    recorder.count(TelemetryRegistry, "record_span", "obs.spans_recorded")
    recorder.count(EventLog, "emit", "obs.events_emitted")


def span_metrics(spans: List[Span],
                 counts: Dict[str, int]) -> Dict[str, float]:
    """The span-derived per-layer metrics over ``spans``."""
    self_ns = self_times(spans)
    calls: Dict[str, int] = defaultdict(int)
    busy: Dict[str, int] = defaultdict(int)
    values: Dict[str, List[Any]] = defaultdict(list)
    name_of = {}
    for _trace, span_id, _parent, name, _start, _end, value in spans:
        calls[name] += 1
        busy[name] += self_ns[span_id]
        name_of[span_id] = name
        if value is not None:
            values[name].append(value)

    def ms(name: str) -> float:
        return busy[name] / 1e6

    out: Dict[str, float] = {}

    # Flight recorder: serde encodes issued directly by each snapshot
    # encode (ideal 1) and the size of the first, unshed encoding.
    encodes = calls["flightrec.encode"]
    first_dump: Dict[int, int] = {}
    dumps_under_encode = 0
    for _trace, _span_id, parent, name, _start, _end, value in spans:
        if name == "serde.dumps" and name_of.get(parent) == "flightrec.encode":
            dumps_under_encode += 1
            first_dump.setdefault(parent, value)
    out["flightrec.encode.calls"] = encodes
    out["flightrec.encode.self_ms"] = ms("flightrec.encode")
    out["flightrec.encode.dumps_per_snapshot"] = (
        dumps_under_encode / encodes if encodes else 0.0)
    out["flightrec.encode.offered_bytes"] = (
        sum(first_dump.values()) / encodes if encodes else 0.0)

    for codec in ("dumps", "loads"):
        name = f"serde.{codec}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = ms(name)
        out[f"{name}.bytes"] = sum(values[name])

    for method in OBJSTORE_METHODS:
        name = f"objstore.{method}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = ms(name)

    out["kernel.vm.pmap.self_ms"] = sum(ms(f"kernel.vm.pmap.{m}")
                                        for m in PMAP_RANGE_METHODS)
    out["kernel.vm.touch.self_ms"] = ms("kernel.vm.touch")

    for method in SHADOW_METHODS:
        out[f"shadow.{method}.self_ms"] = ms(f"shadow.{method}")

    checkpoints = values["pipeline.checkpoint"]
    written = sum(v["records_written"] for v in checkpoints)
    skipped = sum(v["records_skipped"] for v in checkpoints)
    out["serialize.serialize_all.self_ms"] = ms("serialize.serialize_all")
    out["serialize.records_written"] = written
    out["serialize.records_skipped"] = skipped
    out["serialize.skip_ratio"] = (
        skipped / (written + skipped) if written + skipped else 0.0)

    for stage in STAGES:
        out[f"sim.stage.{stage}_us"] = (
            sum(v[stage] for v in checkpoints) / len(checkpoints) / 1e3
            if checkpoints else 0.0)
    out["pipeline.checkpoint.self_ms"] = ms("pipeline.checkpoint")

    for method in CLUSTER_METHODS:
        name = f"cluster.{method}"
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = ms(name)
    out["cluster.segments_shipped"] = sum(values["cluster.shards_for"])

    out["fleet.run_for.self_ms"] = ms("fleet.run_for")

    restores = values["restore.restore"]
    out["restore.restore.calls"] = calls["restore.restore"]
    out["restore.restore.self_ms"] = ms("restore.restore")
    for key, metric in (("pages_restored", "restore.pages_restored"),
                        ("pages_lazy", "restore.pages_lazy"),
                        ("io_ns", "restore.sim_io_ns"),
                        ("insert_ns", "restore.sim_insert_ns")):
        out[metric] = sum(v[key] for v in restores)

    out["obs.spans_recorded"] = counts.get("obs.spans_recorded", 0)
    out["obs.events_emitted"] = counts.get("obs.events_emitted", 0)
    out["slo.on_commit.self_ms"] = ms("slo.on_commit")
    return out
