"""Figure 5: Memcached latency with throughput pegged at 120 k ops/s
(~15% of peak) over varying checkpoint periods.

This is the worst case for transparent persistence: at low utilization
there is no queueing to hide behind, so every checkpoint stop and the
post-checkpoint COW fault storm land directly on request latency.
Paper: baseline average 157 us; with persistence at a 100 ms period the
average rises to 607 us — the *larger* periods hurt more because each
checkpoint's accumulated dirty set produces a longer service
interruption.
"""

from bench_utils import run_once

from repro import Machine, load_aurora
from repro.apps.memcached import MemcachedServer
from repro.units import MSEC, USEC, fmt_time

PERIODS_MS = [10, 20, 40, 60, 80, 100]
RATE = 120_000
DURATION = 600 * MSEC


def _run(period_ms):
    machine = Machine()
    sls = load_aurora(machine)
    server = MemcachedServer(machine.kernel)
    if period_ms is not None:
        sls.attach(server.proc, period_ns=period_ms * MSEC)
    return server.run_open_loop(machine, RATE, DURATION)


def run_experiment():
    baseline = _run(None)
    sweep = {period: _run(period) for period in PERIODS_MS}
    return baseline, sweep


def test_fig5_memcached_pegged_latency(benchmark, report):
    baseline, sweep = run_once(benchmark, run_experiment)
    lines = ["Figure 5 - Memcached latency at 120 k ops/s "
             "vs checkpoint period",
             f"{'period':>8} {'avg lat':>10} {'p95 lat':>10}",
             f"{'base':>8} {fmt_time(baseline.latency_avg_ns):>10} "
             f"{fmt_time(baseline.latency_p95_ns):>10}"]
    for period in PERIODS_MS:
        stats = sweep[period]
        lines.append(f"{period:>6}ms {fmt_time(stats.latency_avg_ns):>10} "
                     f"{fmt_time(stats.latency_p95_ns):>10}")
    report("fig5_memcached_pegged", "\n".join(lines))

    # Baseline average in the paper's ~157 us regime.
    assert baseline.latency_avg_ns <= 350 * USEC
    # Persistence visibly raises the average at every period.
    for period in PERIODS_MS:
        assert sweep[period].latency_avg_ns \
            > 1.3 * baseline.latency_avg_ns
    # The worst-case claim: large periods hurt the average more than
    # small ones at this low utilization (bigger dirty sets, longer
    # interruptions), and the tails are far above the baseline.
    assert sweep[100].latency_avg_ns > sweep[10].latency_avg_ns
    assert sweep[100].latency_p95_ns > 3 * baseline.latency_p95_ns
    # Offered rate was actually sustained (within 10%).
    for period in PERIODS_MS:
        assert abs(sweep[period].throughput - RATE) / RATE < 0.1
