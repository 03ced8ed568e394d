"""The benchmark's metric catalog and its percentile rule.

``END_TO_END`` metrics are measured with tracing off and apply to
every workload; their times are host-calibrated (see run.py).
``PER_LAYER`` metrics come from the traced run: the span-derived
layer costs, the model's own counters, and the
simulated-clock results that only some workloads produce (stop time,
RPO lag, restore time, media and inter-AZ bytes).  Every per-layer
count and time is a total over the run's first round, which is a
fixed amount of work for a given seed.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from layers import CLUSTER_METHODS, OBJSTORE_METHODS, SHADOW_METHODS, STAGES

#: Samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10

#: Host-calibrated times (see run.py) and peak memory.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}

#: Every host-clock value in a run's report: the end-to-end metrics,
#: their raw wall-clock counterparts and the calibration reference.
HOST_CLOCK = set(END_TO_END) | {"setup_wall_s", "ops_per_wall_s",
                                "op_wall_ms_p50", "op_wall_ms_p90",
                                "host.ref_ms"}

#: Simulated-clock results, computed the same way with tracing on or
#: off (the traced and untraced runs must agree on them exactly).
SIMULATED: Dict[str, str] = {
    "sim_stop_us_p50": "sim_us",
    "sim_stop_us_p90": "sim_us",
    "sim_rpo_lag_us_p90": "sim_us",
    "sim_restore_us_p50": "sim_us",
    "media_bytes_per_dirty_byte": "ratio",
    "inter_az_bytes_per_ckpt": "B",
}


def _per_layer() -> Dict[str, str]:
    units: Dict[str, str] = {
        "flightrec.encode.calls": "count",
        "flightrec.encode.self_ms": "ms",
        "flightrec.encode.dumps_per_snapshot": "ratio",
        "flightrec.encode.offered_bytes": "B",
    }
    for codec in ("dumps", "loads"):
        units.update({f"serde.{codec}.calls": "count",
                      f"serde.{codec}.self_ms": "ms",
                      f"serde.{codec}.bytes": "B"})
    for method in OBJSTORE_METHODS:
        units.update({f"objstore.{method}.calls": "count",
                      f"objstore.{method}.self_ms": "ms"})
    units.update({"kernel.vm.pmap.self_ms": "ms",
                  "kernel.vm.touch.self_ms": "ms"})
    for method in SHADOW_METHODS:
        units[f"shadow.{method}.self_ms"] = "ms"
    units.update({"shadow.pages_moved": "count",
                  "shadow.dirty_runs": "count",
                  "serialize.serialize_all.self_ms": "ms",
                  "serialize.records_written": "count",
                  "serialize.records_skipped": "count",
                  "serialize.skip_ratio": "ratio"})
    for stage in STAGES:
        units[f"sim.stage.{stage}_us"] = "sim_us"
    units["pipeline.checkpoint.self_ms"] = "ms"
    for method in CLUSTER_METHODS:
        units.update({f"cluster.{method}.calls": "count",
                      f"cluster.{method}.self_ms": "ms"})
    units.update({
        "cluster.segments_shipped": "count",
        "cluster.retries": "count",
        "fleet.run_for.self_ms": "ms",
        "fleet.dispatches": "count",
        "fleet.flush_skips": "count",
        "fleet.backpressure_widens": "count",
        "restore.restore.calls": "count",
        "restore.restore.self_ms": "ms",
        "restore.pages_restored": "count",
        "restore.pages_lazy": "count",
        "restore.sim_io_ns": "sim_ns",
        "restore.sim_insert_ns": "sim_ns",
        "nvme.write_bytes": "B",
        "nvme.write_ios": "count",
        "nvme.read_bytes": "B",
        "nvme.read_ios": "count",
        "obs.spans_recorded": "count",
        "obs.events_emitted": "count",
        "slo.on_commit.self_ms": "ms",
        "fail_ratio": "ratio",
    })
    units.update(SIMULATED)
    return units


PER_LAYER: Dict[str, str] = _per_layer()


def percentile(values: Sequence[float], p: int) -> Optional[float]:
    """Nearest-rank ``p``-th percentile, or None unless at least
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    n = len(values)
    rank = -(-p * n // 100)
    if n == 0 or n - rank < TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]
