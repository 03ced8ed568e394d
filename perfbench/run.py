#!/usr/bin/env python3
"""The repository benchmark: four seeded workloads, two clocks.

    python3 perfbench/run.py --workload steady-1g --seed 1 --seconds 10 \\
        --trace 0

Runs one workload (see ``workloads.py``) in this single process and
prints two JSON lines.  The first, ``{"report": ...}``, holds every
metric computed, with its unit and, for each percentile, its sample
count.  The last is the result:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics``
holds the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) listed in ``metrics.py``.

A run first builds the workload a few times just to time set-up
(see ``SETUP_REPEATS``), then runs rounds (set-up, a fixed number of
ops, an output check) until ``--seconds`` have passed, at least one
round.  Host-clock metrics use every op of every round;
simulated-clock and per-layer metrics use the first round, whose work
is fixed by the seed.

Host calibration: a shared 2-vCPU host drifts in speed by tens of
percent over minutes, which buries real changes in raw wall times.
So the run times a fixed pure-Python reference kernel
(``_reference``) between every two timed intervals (set-ups and ops),
and the end-to-end times are *host-calibrated*: each raw
``perf_counter`` interval is scaled by ``REF_MS`` / (the mean of the
two reference samples bracketing it), i.e. reported in time of a host
on which the reference takes ``REF_MS``.  The reference is benchmark
code, so a faster simulator still shows in full.  The raw wall-clock
values stay in the report (``op_wall_ms_*``, ``ops_per_wall_s``,
``setup_wall_s``) next to the reference's median time
(``host.ref_ms``).

``--trace 1`` wraps the layer functions listed in ``layers.py``,
records a span around each call during the first round, and writes
them as a Chrome trace to ``perfbench/out/``.

Exit status: 0 when every op and output check passed, 1 when one
failed (the result line still prints), 2 when the simulator source is
missing or the arguments are bad (nothing prints).
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional

import layers
from metrics import END_TO_END, PER_LAYER, percentile
from tracer import SpanRecorder

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
#: Set-up is timed at least SETUP_REPEATS times and, for workloads
#: whose set-up is quick, until SETUP_SECONDS of set-ups have been
#: timed (at most SETUP_MAX builds); setup_s is their median.
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX = 25
#: The reference kernel's time on the nominal host that calibrated
#: times are expressed in.  Fixed for good: changing it rescales every
#: calibrated metric.
REF_MS = 2.0


def _reference() -> int:
    """The fixed calibration kernel: dict, tuple, list, str and bytes
    work of the kind the simulator does, about 2 ms."""
    table = {}
    for i in range(3000):
        table[i] = (str(i), [i] * 3, b"%d" % i)
    return sum(len(key) + len(blob) for key, _items, blob in table.values())


def _time_reference() -> float:
    """Seconds one run of the reference kernel takes right now."""
    start = time.perf_counter()
    _reference()
    return time.perf_counter() - start


def _observe(rnd) -> Dict[str, Any]:
    """The model counters a round's metrics are deltas of."""
    from repro.core import telemetry

    devices = [device for machine in rnd.machines
               for device in machine.storage.devices]
    registry = telemetry.registry()
    slo = {}
    for index, sls in enumerate(rnd.orchestrators):
        for group_id, state in sls.slo.groups.items():
            slo[index, group_id] = (len(state.stop.values),
                                    len(state.rpo_lag.values))
    return {
        "nvme.write_bytes": sum(d.bytes_written for d in devices),
        "nvme.write_ios": sum(d.write_commands for d in devices),
        "nvme.read_bytes": sum(d.bytes_read for d in devices),
        "nvme.read_ios": sum(d.read_commands for d in devices),
        "shadow.dirty_runs": sum(sls.shadow.stats["dirty_runs"]
                                 for sls in rnd.orchestrators),
        "shadow.pages_moved": sum(sls.shadow.stats["collapse_pages_moved"]
                                  for sls in rnd.orchestrators),
        "fleet.dispatches": registry.value("sls.fleet.dispatches"),
        "fleet.flush_skips": registry.value("sls.fleet.flush_skips"),
        "fleet.backpressure_widens":
            registry.value("sls.fleet.backpressure_widens"),
        "cluster.retries": registry.value("sls.resilience.retries"),
        "slo": slo,
    }


def _slo_samples(rnd, since: Dict[str, Any]) -> Dict[str, List[int]]:
    """Stop-time and RPO-lag samples recorded after ``since``."""
    stop: List[int] = []
    lag: List[int] = []
    for index, sls in enumerate(rnd.orchestrators):
        for group_id, state in sls.slo.groups.items():
            n_stop, n_lag = since["slo"].get((index, group_id), (0, 0))
            stop.extend(state.stop.values[n_stop:])
            lag.extend(state.rpo_lag.values[n_lag:])
    return {"stop": stop, "lag": lag}


class _Clock:
    """Times intervals on the host clock, raw and calibrated against
    reference samples taken between them."""

    def __init__(self) -> None:
        #: Every reference sample taken, in order.
        self.refs: List[float] = []

    def mark(self) -> None:
        """Sample the reference: call right before a timed interval."""
        self.refs.append(_time_reference())

    def close(self, wall: float) -> float:
        """Sample the reference after an interval of ``wall`` seconds
        and return it calibrated to the nominal host."""
        self.mark()
        return wall * REF_MS / 1e3 / ((self.refs[-2] + self.refs[-1]) / 2)


def _build(factory, inputs, size, clock: _Clock):
    """Build one round after clearing the process-wide telemetry, so
    every round starts from the same state; returns (wall seconds,
    calibrated seconds, round)."""
    from repro.core import telemetry

    telemetry.reset()
    gc.collect()
    clock.mark()
    start = time.perf_counter()
    rnd = factory(inputs, size)
    wall = time.perf_counter() - start
    return wall, clock.close(wall), rnd


def _put_percentile(report: Dict[str, Any], name: str, unit: str,
                    values: List[float], p: int, scale: float) -> None:
    """Report the ``p``-th percentile of ``values`` with its sample
    count, or leave the metric out when the sample is too small (a
    workload that never produces such samples)."""
    value = percentile(values, p)
    if value is not None:
        report[name] = {"value": value * scale, "unit": unit,
                        "samples": len(values)}


def _window_report(rnd, before: Dict[str, Any], after_ops: Dict[str, Any],
                   after: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated-clock and model-counter metrics of one round:
    ``before`` its first op, ``after_ops`` its last, ``after`` its
    output check."""
    report: Dict[str, Any] = {}
    samples = _slo_samples(rnd, before)
    _put_percentile(report, "sim_stop_us_p50", "sim_us", samples["stop"],
                    50, 1e-3)
    _put_percentile(report, "sim_stop_us_p90", "sim_us", samples["stop"],
                    90, 1e-3)
    _put_percentile(report, "sim_rpo_lag_us_p90", "sim_us", samples["lag"],
                    90, 1e-3)
    _put_percentile(report, "sim_restore_us_p50", "sim_us", rnd.restore_ns,
                    50, 1e-3)
    if rnd.dirtied_bytes:
        written = after_ops["nvme.write_bytes"] - before["nvme.write_bytes"]
        report["media_bytes_per_dirty_byte"] = {
            "value": written / rnd.dirtied_bytes, "unit": "ratio"}
    if rnd.inter_az_bytes is not None:
        report["inter_az_bytes_per_ckpt"] = {
            "value": rnd.inter_az_bytes / rnd.ops, "unit": "B"}
    for name in before:
        if name != "slo":
            report[name] = {"value": after[name] - before[name],
                            "unit": PER_LAYER[name]}
    return report


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> Dict[str, Any]:
    """Run one workload; returns the report and the result line."""
    import workloads

    sizes = workloads.SIZES[workload][size]
    inputs = workloads.INPUTS[workload](seed, sizes)
    factory = workloads.ROUNDS[workload]
    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        layers.install(recorder)
    try:
        clock = _Clock()
        #: Raw and calibrated set-up and op times.
        setups: List[float] = []
        setups_cal: List[float] = []
        walls: List[float] = []
        calibrated: List[float] = []
        while len(setups) < SETUP_REPEATS - 1 or (
                sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX):
            wall, cal = _build(factory, inputs, sizes, clock)[:2]
            setups.append(wall)
            setups_cal.append(cal)
        attempted = failed = 0
        #: The first round's report: simulated and per-layer metrics.
        window: Dict[str, Any] = {}
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            wall, cal, rnd = _build(factory, inputs, sizes, clock)
            setups.append(wall)
            setups_cal.append(cal)
            tracing = recorder is not None and not window
            before = _observe(rnd)
            op_failures = 0
            for index in range(rnd.ops):
                if tracing:
                    recorder.begin(index + 1)
                start = time.perf_counter()
                try:
                    ok = rnd.op(index)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                wall = time.perf_counter() - start
                if tracing:
                    recorder.end()
                walls.append(wall)
                calibrated.append(clock.close(wall))
                op_failures += not ok
            after_ops = _observe(rnd)
            if tracing:
                recorder.begin(rnd.ops + 1)
            try:
                check_failures = rnd.check()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                check_failures = 1
            if tracing:
                recorder.end()
            base = rnd.attempts()
            round_attempts = base if base is not None else rnd.ops + 1
            round_failures = op_failures + check_failures + rnd.failures()
            attempted += round_attempts
            failed += round_failures
            if not window:
                window = _window_report(rnd, before, after_ops, _observe(rnd))
                window["fail_ratio"] = {
                    "value": round_failures / round_attempts, "unit": "ratio"}
                # Memory through the first round: later rounds reuse a
                # fragmented heap, so their count must not move it.
                window["peak_rss_mib"] = {
                    "value": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MiB"}
            # Free the round before the next one is built, so two
            # rounds never hold memory at once.
            del rnd
    finally:
        if recorder is not None:
            recorder.uninstall()

    report: Dict[str, Any] = {
        "setup_s": {"value": statistics.median(setups_cal), "unit": "s",
                    "samples": len(setups)},
        "setup_wall_s": {"value": statistics.median(setups), "unit": "s",
                         "samples": len(setups)},
        "ops_per_s": {"value": len(walls) / sum(calibrated),
                      "unit": "op/s"},
        "ops_per_wall_s": {"value": len(walls) / sum(walls),
                           "unit": "op/s"},
        "host.ref_ms": {"value": statistics.median(clock.refs) * 1e3,
                        "unit": "ms", "samples": len(clock.refs)},
    }
    _put_percentile(report, "op_ms_p50", "ms", calibrated, 50, 1e3)
    _put_percentile(report, "op_ms_p90", "ms", calibrated, 90, 1e3)
    _put_percentile(report, "op_wall_ms_p50", "ms", walls, 50, 1e3)
    _put_percentile(report, "op_wall_ms_p90", "ms", walls, 90, 1e3)
    report.update(window)
    if recorder is not None:
        for name, value in layers.span_metrics(recorder.spans,
                                               recorder.counts).items():
            report[name] = {"value": value, "unit": PER_LAYER[name]}
        OUT_DIR.mkdir(exist_ok=True)
        recorder.write_chrome_trace(OUT_DIR / f"trace-{workload}.json")

    chosen = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in chosen.items():
        # A per-layer or simulated metric that does not apply to this
        # workload reads 0 in the result line (the report omits it).
        entry = report.get(name, {"value": 0, "unit": unit})
        metrics[name] = {"value": entry["value"], "unit": unit}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return {"report": report, "result": result}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator source not found at {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"report": outcome["report"]}))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
