"""Figure 4: Memcached at max throughput over varying checkpoint
periods (closed-loop Mutilate, 576 connections).

Paper shapes: baseline ~1.1 M ops/s; with Aurora, throughput rises
monotonically with the checkpoint period (overheads "9%-82% depending
on the persistence granularity"); between the 10 ms and 20 ms points
the frequency halves and throughput rises sharply while latency drops
by more than ~2x; latency impact shrinks as network queues saturate.
"""

from bench_utils import run_once

from repro import Machine, load_aurora
from repro.apps.memcached import MemcachedServer
from repro.units import MSEC, SEC, fmt_time

PERIODS_MS = [10, 20, 40, 60, 80, 100]
#: Mutilate's load: 4 machines x 12 threads x 12 connections (§9.5).
CONNECTIONS = 576
DURATION = 600 * MSEC


def _run(period_ms):
    machine = Machine()
    sls = load_aurora(machine)
    server = MemcachedServer(machine.kernel)
    if period_ms is not None:
        sls.attach(server.proc, period_ns=period_ms * MSEC)
    return server.run_closed_loop(machine, CONNECTIONS, DURATION)


def run_experiment():
    baseline = _run(None)
    sweep = {period: _run(period) for period in PERIODS_MS}
    return baseline, sweep


def test_fig4_memcached_max_throughput(benchmark, report):
    baseline, sweep = run_once(benchmark, run_experiment)
    lines = ["Figure 4 - Memcached max throughput vs checkpoint period",
             f"{'period':>8} {'ops/s':>10} {'of base':>8} "
             f"{'avg lat':>10} {'p95 lat':>10}",
             f"{'base':>8} {baseline.throughput / 1e6:>9.2f}M "
             f"{'100%':>8} {fmt_time(baseline.latency_avg_ns):>10} "
             f"{fmt_time(baseline.latency_p95_ns):>10}"]
    for period in PERIODS_MS:
        stats = sweep[period]
        ratio = stats.throughput / baseline.throughput
        lines.append(f"{period:>6}ms {stats.throughput / 1e6:>9.2f}M "
                     f"{ratio * 100:>7.0f}% "
                     f"{fmt_time(stats.latency_avg_ns):>10} "
                     f"{fmt_time(stats.latency_p95_ns):>10}")
    report("fig4_memcached_max", "\n".join(lines))

    # Baseline near the paper's ~1.1 M ops/s.
    assert 0.9e6 <= baseline.throughput <= 1.4e6
    # Throughput rises monotonically with the period.
    ordered = [sweep[p].throughput for p in PERIODS_MS]
    assert all(b >= a * 0.98 for a, b in zip(ordered, ordered[1:]))
    # Overhead spans the paper's "9%-82%" band: heavy at 10 ms...
    overhead_10 = baseline.throughput / sweep[10].throughput - 1
    assert 0.5 <= overhead_10 <= 1.6
    # ...modest at 100 ms.
    overhead_100 = baseline.throughput / sweep[100].throughput - 1
    assert overhead_100 <= 0.25
    # Lowering the frequency buys substantial throughput back and
    # cuts the tail latency.
    assert sweep[20].throughput > 1.02 * sweep[10].throughput
    assert sweep[40].throughput > 1.3 * sweep[10].throughput
    assert sweep[10].latency_p95_ns > 1.5 * sweep[100].latency_p95_ns
    # Latency always above the no-persistence baseline.
    assert all(sweep[p].latency_avg_ns > baseline.latency_avg_ns
               for p in PERIODS_MS)
