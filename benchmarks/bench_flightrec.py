#!/usr/bin/env python
"""Flight recorder benchmark: observability cost and recovery fidelity.

Two claims from the ISSUE get numbers here:

* **Zero simulated cost** — a run with the recorder (telemetry
  enabled) and an identical run without it finish at the *same*
  simulated instant with the same allocator cursor: the snapshot
  rides every superblock flip for free.  The wall-clock cost of
  encoding the fixed-size record is reported per checkpoint.
* **Recovery fidelity** — after a simulated power failure, ``sls
  blackbox`` reconstruction yields a timeline whose tail is the last
  durable commit, with the snapshot's payload utilization reported
  (how much of the 64 KiB budget a busy run actually fills).

``--smoke`` also gates the wall-clock price of the recorder: at the
50-checkpoint point, where first-time row encodes dominate, the run
with telemetry on may take at most ``SMOKE_WALL_RATIO_MAX`` times the
run with it off.

Emits ``BENCH_flightrec.json`` at the repo root::

    python benchmarks/bench_flightrec.py           # full sweep
    python benchmarks/bench_flightrec.py --smoke   # CI-sized point
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro import Machine, load_aurora
from repro.core import events, flightrec, telemetry
from repro.objstore.store import ObjectStore
from repro.units import MSEC, PAGE_SIZE

SWEEP = [10, 50, 200]
SMOKE_SWEEP = [10, 50]
#: The smoke run's wall-clock gate: telemetry-on over telemetry-off
#: wall time at ``WALL_GATE_CHECKPOINTS``.
WALL_GATE_CHECKPOINTS = 50
SMOKE_WALL_RATIO_MAX = 2.0
JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / \
    "BENCH_flightrec.json"


def _drive(checkpoints: int, enabled: bool):
    """One seeded workload run; returns (machine, sls, group)."""
    telemetry.reset()
    telemetry.set_enabled(enabled)
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    addr = proc.vmspace.mmap(32 * PAGE_SIZE, name="heap")
    group = sls.attach(proc, name="app", periodic=False)
    for i in range(checkpoints):
        proc.vmspace.fill(addr, 8, seed=i)
        machine.run_for(10 * MSEC)
        sls.checkpoint(group, name=f"v{i}", sync=True)
    return machine, sls, group


def run_config(checkpoints: int) -> dict:
    wall_on = time.perf_counter()
    machine_on, sls_on, group = _drive(checkpoints, enabled=True)
    wall_on = time.perf_counter() - wall_on
    clock_on = machine_on.clock.now()
    cursor_on = sls_on.store.alloc.cursor

    # Snapshot utilization before the registry is torn down: what the
    # encoder actually kept (post-shed) vs what the run offered it.
    from repro.objstore import records
    offered_body = flightrec.build_snapshot(
        sls_on.store, generation=sls_on.store._generation)
    offered_body["pad"] = b""
    offered = len(records.encode(records.REC_FLIGHTREC, offered_body))
    kept_body = flightrec.decode_snapshot(flightrec.encode_snapshot(
        sls_on.store, generation=sls_on.store._generation))
    kept_body["pad"] = b""
    used = len(records.encode(records.REC_FLIGHTREC, kept_body))

    # Crash, then cold blackbox reconstruction (no mount).
    machine_on.crash()
    machine_on.boot()
    recover_t0 = time.perf_counter()
    box = flightrec.blackbox(ObjectStore(machine_on))
    recover_wall = time.perf_counter() - recover_t0
    assert box is not None
    last = box.last_durable
    assert last is not None and \
        last["fields"]["name"] == f"v{checkpoints - 1}"

    wall_off = time.perf_counter()
    machine_off, sls_off, _ = _drive(checkpoints, enabled=False)
    wall_off = time.perf_counter() - wall_off

    return {
        "checkpoints": checkpoints,
        "sim_clock_on_ns": clock_on,
        "sim_clock_off_ns": machine_off.clock.now(),
        "sim_overhead_ns": clock_on - machine_off.clock.now(),
        "alloc_cursor_identical":
            cursor_on == sls_off.store.alloc.cursor,
        "snapshot_bytes": flightrec.FLIGHTREC_BYTES,
        "snapshot_used_bytes": used,
        "snapshot_offered_bytes": offered,
        "snapshot_utilization": used / flightrec.FLIGHTREC_BYTES,
        "recovered_events": len(box.events),
        "recovered_generation": box.generation,
        "recover_wall_ms": recover_wall * 1e3,
        "wall_on_s": wall_on,
        "wall_off_s": wall_off,
        "wall_ratio": wall_on / wall_off,
        "wall_overhead_per_ckpt_us":
            max(0.0, (wall_on - wall_off)) * 1e6 / checkpoints,
    }


def run_sweep(sweep) -> dict:
    rows = []
    for checkpoints in sweep:
        print(f"[flightrec] {checkpoints} checkpoint(s) ...", flush=True)
        row = run_config(checkpoints)
        print(f"[flightrec]   sim overhead {row['sim_overhead_ns']} ns, "
              f"snapshot {row['snapshot_used_bytes']}/"
              f"{row['snapshot_bytes']} B "
              f"({row['snapshot_utilization']:.0%}, "
              f"{row['snapshot_offered_bytes']} B offered), "
              f"{row['recovered_events']} event(s) recovered, "
              f"wall +{row['wall_overhead_per_ckpt_us']:.0f} us/ckpt",
              flush=True)
        rows.append(row)
    return {
        "benchmark": "flightrec",
        "description": "flight recorder: simulated-cost identity, "
                       "snapshot utilization and cold blackbox "
                       "recovery",
        "results": rows,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized points with hard assertions: "
                             "zero simulated overhead, full recovery, "
                             "bounded wall-clock overhead")
    parser.add_argument("--output", type=pathlib.Path, default=JSON_PATH)
    args = parser.parse_args()

    sweep = SMOKE_SWEEP if args.smoke else SWEEP
    results = run_sweep(sweep)
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"[flightrec] wrote {args.output}")

    failures = []
    for row in results["results"]:
        if row["sim_overhead_ns"] != 0:
            failures.append(f"{row['checkpoints']} ckpts: recorder "
                            f"cost {row['sim_overhead_ns']} ns of "
                            f"simulated time")
        if not row["alloc_cursor_identical"]:
            failures.append(f"{row['checkpoints']} ckpts: allocator "
                            f"state diverged")
        if row["recovered_events"] == 0:
            failures.append(f"{row['checkpoints']} ckpts: empty "
                            f"black box")
        if row["snapshot_used_bytes"] > row["snapshot_bytes"]:
            failures.append(f"{row['checkpoints']} ckpts: shed "
                            f"snapshot still over budget "
                            f"({row['snapshot_used_bytes']} B)")
        if args.smoke and row["checkpoints"] == WALL_GATE_CHECKPOINTS \
                and row["wall_ratio"] > SMOKE_WALL_RATIO_MAX:
            failures.append(f"{row['checkpoints']} ckpts: telemetry on "
                            f"costs {row['wall_ratio']:.2f}x the wall "
                            f"time of off "
                            f"(gate {SMOKE_WALL_RATIO_MAX}x)")
    if failures:
        print("[flightrec] FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("[flightrec] all acceptance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
