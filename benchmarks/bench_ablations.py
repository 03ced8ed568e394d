"""Ablation benchmarks for the design choices DESIGN.md calls out.

These go beyond the paper's tables: each isolates one Aurora mechanism
and measures the system with it turned off or reversed.

* Collapse direction (§6): Aurora reverses the collapse so its cost
  tracks the dirty set, not the resident set.
* Chain bounding (§6): without eager collapse, shadow chains grow and
  every COW fault pays per-hop walk costs.
* External synchrony (§3): buffering until commit costs latency
  proportional to the checkpoint period.
* Lazy restore (§6): restore time vs post-restore fault storm, swept
  over the fraction of the working set the application touches.
"""

from bench_utils import run_once

from repro import Machine, load_aurora
from repro.core.shadowing import FORWARD, NONE, REVERSE
from repro.units import KiB, MiB, MSEC, PAGE_SIZE, USEC, fmt_time

RESIDENT_PAGES = 16384  # 64 MiB
DIRTY_PAGES = 64


# -- collapse direction -----------------------------------------------------------


def _collapse_cost(direction):
    machine = Machine()
    sls = load_aurora(machine)
    sls.shadow.collapse_direction = direction
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    addr = proc.vmspace.mmap(RESIDENT_PAGES * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, RESIDENT_PAGES, seed=0)
    sls.checkpoint(group, sync=True)
    total_stop = 0
    rounds = 5
    for round_no in range(rounds):
        proc.vmspace.touch(addr, DIRTY_PAGES, seed=round_no + 1)
        total_stop += sls.checkpoint(group, sync=True).stop_ns
    return total_stop // rounds


def run_collapse_ablation():
    return {"reverse": _collapse_cost(REVERSE),
            "forward": _collapse_cost(FORWARD)}


def test_ablation_collapse_direction(benchmark, report):
    results = run_once(benchmark, run_collapse_ablation)
    lines = ["Ablation - collapse direction "
             f"(64 MiB resident, {DIRTY_PAGES}-page dirty set)",
             f"reverse (Aurora): {fmt_time(results['reverse'])} "
             f"mean stop",
             f"forward (classic): {fmt_time(results['forward'])} "
             f"mean stop"]
    report("ablation_collapse", "\n".join(lines))
    # The classic direction drags the whole resident set (16384 pages)
    # through every collapse; the reversed direction only moves the
    # dirty set (64 pages).  The stop-time delta is the resident-set
    # move cost.
    from repro.core import costs
    resident_move = RESIDENT_PAGES * costs.COLLAPSE_PAGE_MOVE
    assert results["forward"] > results["reverse"] + resident_move // 2
    assert results["forward"] > 1.5 * results["reverse"]


# -- chain bounding ---------------------------------------------------------------------


def _chain_run(direction):
    """20 checkpoint rounds, each dirtying a *different* region; then
    fault pages last written in round 0 — without eager collapse their
    newest copies sit ~20 shadows deep."""
    machine = Machine()
    sls = load_aurora(machine)
    sls.shadow.collapse_direction = direction
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    addr = proc.vmspace.mmap(1024 * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, 1024, seed=0)
    sls.checkpoint(group, sync=True)
    for round_no in range(20):
        proc.vmspace.touch(addr + round_no * 32 * PAGE_SIZE, 32,
                           seed=round_no + 1)
        sls.checkpoint(group, sync=True)
    top = proc.vmspace.entry_at(addr).vmobject
    chain_len = top.chain_length()
    t0 = machine.clock.now()
    proc.vmspace.touch(addr, 32, seed=99)  # round-0 pages: deep lookup
    deep_fault_ns = machine.clock.now() - t0
    return deep_fault_ns, chain_len


def run_chain_ablation():
    bounded_time, bounded_len = _chain_run(REVERSE)
    unbounded_time, unbounded_len = _chain_run(NONE)
    return {"bounded": (bounded_time, bounded_len),
            "unbounded": (unbounded_time, unbounded_len)}


def test_ablation_chain_bounding(benchmark, report):
    results = run_once(benchmark, run_chain_ablation)
    (b_time, b_len) = results["bounded"]
    (u_time, u_len) = results["unbounded"]
    lines = ["Ablation - shadow chain bounding (20 checkpoint rounds, "
             "then faulting round-0 pages)",
             f"eager collapse: chain length {b_len}, "
             f"deep-fault time {fmt_time(b_time)}",
             f"no collapse:    chain length {u_len}, "
             f"deep-fault time {fmt_time(u_time)}"]
    report("ablation_chain", "\n".join(lines))
    assert b_len <= 3
    assert u_len > 10
    # Every fault walks the whole chain: per-hop costs accumulate.
    assert u_time > 1.3 * b_time


# -- external synchrony -----------------------------------------------------------------------


def _extsync_delay(period_ms):
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("server")
    group = sls.attach(proc, period_ns=period_ms * MSEC,
                       external_synchrony=True)
    addr = proc.vmspace.mmap(64 * PAGE_SIZE, name="heap")
    releases = []
    sends = 0
    deadline = machine.clock.now() + 500 * MSEC
    while machine.clock.now() < deadline:
        proc.vmspace.touch(addr, 4, seed=sends)
        sent_at = machine.clock.now()
        sls.extsync.buffer_send(
            group, 100, lambda t, s=sent_at: releases.append(t - s))
        sends += 1
        machine.run_for(1 * MSEC)
    # Stop the periodic timer, let the last flush land, seal leftovers.
    sls.fleet.evict(group)
    machine.loop.drain()
    if sls.extsync.pending_for(group):
        sls.checkpoint(group, sync=True)
    return sum(releases) // max(len(releases), 1)


def run_extsync_ablation():
    return {period: _extsync_delay(period) for period in (10, 50, 100)}


def test_ablation_external_synchrony(benchmark, report):
    results = run_once(benchmark, run_extsync_ablation)
    lines = ["Ablation - external synchrony mean release delay "
             "vs checkpoint period"]
    for period, delay in results.items():
        lines.append(f"  period {period:>3} ms: {fmt_time(delay)}")
    report("ablation_extsync", "\n".join(lines))
    # Delay tracks the checkpoint period (~period/2 + flush time).
    assert results[10] < results[50] < results[100]
    assert results[100] > 30 * MSEC
    assert results[10] < 25 * MSEC


# -- lazy restore -------------------------------------------------------------------------------


def _lazy_sweep():
    machine = Machine()
    sls = load_aurora(machine)
    proc = machine.kernel.spawn("app")
    group = sls.attach(proc, periodic=False)
    npages = 8192  # 32 MiB
    addr = proc.vmspace.mmap(npages * PAGE_SIZE, name="heap")
    proc.vmspace.fill(addr, npages, seed=0)
    gid = group.group_id
    sls.checkpoint(group, sync=True)
    machine.crash()
    machine.boot()
    sls2 = load_aurora(machine)

    full = sls2.restore(gid, periodic=False)
    full_ns = full.elapsed_ns
    results = {"full": (full_ns, 0)}
    for fraction in (0.01, 0.25, 1.0):
        for proc_old in list(full.group.processes):
            full.group.remove_process(proc_old)
            proc_old.exit(0)
        sls2.groups.pop(gid, None)
        lazy = sls2.restore(gid, lazy=True, periodic=False)
        touch_pages = int(npages * fraction)
        t0 = machine.clock.now()
        lazy.root.vmspace.read(addr, touch_pages * PAGE_SIZE)
        storm_ns = machine.clock.now() - t0
        results[f"lazy-{int(fraction * 100)}%"] = (lazy.elapsed_ns,
                                                   storm_ns)
        full = lazy
    return results


def test_ablation_lazy_restore(benchmark, report):
    results = run_once(benchmark, _lazy_sweep)
    lines = ["Ablation - lazy restore vs working-set fraction "
             "(32 MiB image)",
             f"{'mode':<12}{'restore':>12}{'fault storm':>14}"]
    for mode, (restore_ns, storm_ns) in results.items():
        lines.append(f"{mode:<12}{fmt_time(restore_ns):>12}"
                     f"{fmt_time(storm_ns):>14}")
    report("ablation_lazy_restore", "\n".join(lines))
    full_ns = results["full"][0]
    lazy_ns, small_storm = results["lazy-1%"]
    # Lazy restore is much faster up front...
    assert lazy_ns < full_ns / 3
    # ...and cheap overall when the working set is small...
    assert lazy_ns + small_storm < full_ns
    # ...but touching everything pays the deferred cost.
    _lazy_full_ns, full_storm = results["lazy-100%"]
    assert full_storm > 10 * small_storm
