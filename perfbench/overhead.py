#!/usr/bin/env python3
"""Tracing overhead, and proof that the span wrappers sit outside the
model.

    python3 perfbench/overhead.py --workload cluster-6x3 --seed 1

Runs ``run.py`` twice on the same workload and seed, untraced then
traced, each in its own process with a different ``PYTHONHASHSEED``.
Every simulated and model-counted metric the two reports share
(``sim_*``, media and inter-AZ bytes, device and model counters) must
be identical; the wall-clock difference between the runs is printed
as the tracing overhead.  Exits 1 when a shared metric differs.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import HOST_CLOCK  # noqa: E402


def report(workload: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(1 + trace))
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        env=env, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"run.py --trace {trace} exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[0])["report"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    plain = report(args.workload, args.seed, args.seconds, 0)
    traced = report(args.workload, args.seed, args.seconds, 1)
    shared = sorted(set(plain) & set(traced) - HOST_CLOCK)
    differ = [name for name in shared
              if plain[name]["value"] != traced[name]["value"]]
    for name in differ:
        print(f"DIFFERS {name}: untraced {plain[name]['value']} "
              f"traced {traced[name]['value']}")
    print(f"{args.workload} seed {args.seed}: {len(shared) - len(differ)}/"
          f"{len(shared)} simulated and model metrics identical")
    for name in ("ops_per_s", "op_ms_p50", "op_ms_p90", "ops_per_wall_s",
                 "op_wall_ms_p50", "op_wall_ms_p90"):
        a, b = plain[name]["value"], traced[name]["value"]
        print(f"  {name}: untraced {a:.4g} traced {b:.4g} "
              f"({(b / a - 1) * 100:+.1f}%)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
