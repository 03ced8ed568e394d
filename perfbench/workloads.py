"""The benchmark's four workloads.

Each workload turns a seed into plain inputs (its ``INPUTS``
function), then builds *rounds* from them (its ``ROUNDS`` class).
Building a round is the timed set-up; a round then runs a fixed number
of operations ("ops") in a closed loop with one client and ends with
an output check.  Every
round of a run replays the same inputs, so the first round is a fixed
amount of work whose simulated results depend only on the seed.

Sizes: ``full`` is what the benchmark measures; ``tiny`` keeps every
workload's shape (at least 100 ops, so the p90 rule holds) at a
fraction of the cost, for the self-tests.
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List, Optional

from repro import Machine, load_aurora
from repro.core.cluster import SLSCluster
from repro.errors import AdmissionRejected
from repro.hw.memory import synthetic_bytes
from repro.kernel.fs import O_CREAT, O_RDWR
from repro.units import MSEC, PAGE_SIZE

SIZES: Dict[str, Dict[str, Dict[str, int]]] = {
    "steady-1g": {
        "full": {"pages": 262144, "files": 256, "ops": 200, "burst": 4096,
                 "checked_pages": 512},
        "tiny": {"pages": 4096, "files": 16, "ops": 100, "burst": 256,
                 "checked_pages": 64},
    },
    "cluster-6x3": {
        "full": {"pages": 64, "nodes": 6, "azs": 3, "ops": 120, "dirty": 8},
        "tiny": {"pages": 16, "nodes": 3, "azs": 3, "ops": 100, "dirty": 2},
    },
    "fleet-16": {
        "full": {"tenants": 16, "ops": 200},
        "tiny": {"tenants": 8, "ops": 150},
    },
    "crash-restore": {
        "full": {"pages": 16384, "files": 500, "pipes": 8, "sockets": 8,
                 "chain": 20, "ops": 100, "working_set": 256},
        "tiny": {"pages": 256, "files": 8, "pipes": 2, "sockets": 2,
                 "chain": 4, "ops": 100, "working_set": 16},
    },
}

WORKLOADS = tuple(SIZES)

#: steady-1g: every dirty run is 16 pages, the number of runs per
#: tick cycles through RUNS_PER_TICK, and one tick in each block of
#: BURST_EVERY also dirties a burst.  The seed picks where runs, bursts
#: and file writes land and what they write, never how much is written,
#: so every seed runs the same shape of work.
RUN_PAGES = 16
RUNS_PER_TICK = (2, 3, 4, 5, 6)
BURST_EVERY = 20
#: fleet-16: the bench_fleet tenant profiles (name, period ms, dirty
#: pages per checkpoint) and the 5 ms step each op advances.
PROFILES = (("memcached", 25, 8), ("redis", 50, 16), ("rocksdb", 100, 24))
STEP_MS = 5
HISTORY_LIMIT = 4


class Round:
    """State shared by every workload's round."""

    #: Machines whose striped arrays count toward media bytes.
    machines: List[Machine]
    #: Orchestrators whose SLO series hold the round's samples.
    orchestrators: List[Any]
    #: Operations in one round.
    ops: int

    def __init__(self) -> None:
        self.dirtied_bytes = 0
        self.restore_ns: List[int] = []
        #: Bytes replicated across availability zones by the ops
        #: (clusters only; every op takes one checkpoint).
        self.inter_az_bytes: Optional[int] = None

    def op(self, index: int) -> bool:
        """Run op ``index``; False when its output check failed."""
        raise NotImplementedError

    def check(self) -> int:
        """The round's closing output check: failures found."""
        return 0

    def failures(self) -> int:
        """Failures the model itself counted (beyond op checks)."""
        return 0

    def attempts(self) -> Optional[int]:
        """The fail-ratio base when it is not ops + checks."""
        return None


def _page_prefix(seed: int) -> bytes:
    return synthetic_bytes(seed, 16)


# -- steady-1g -----------------------------------------------------------------


def steady_inputs(seed: int, size: Dict[str, int]) -> Dict[str, Any]:
    rng = random.Random(seed)
    npages, nfiles, ops = size["pages"], size["files"], size["ops"]
    fd_writes = max(1, nfiles // 100)
    plan = []
    for tick in range(ops):
        base = (tick + 1) * 10_000_000
        runs = [(rng.randrange(npages - RUN_PAGES), RUN_PAGES,
                 base + run * 100_000)
                for run in range(RUNS_PER_TICK[tick % len(RUNS_PER_TICK)])]
        if tick % BURST_EVERY == BURST_EVERY // 2:
            runs.append((rng.randrange(npages - size["burst"]),
                         size["burst"], base + 9_000_000))
        files = [(index, b"t%05d:%010d;" % (tick, rng.randrange(10**10)))
                 for index in rng.sample(range(nfiles), fd_writes)]
        plan.append({"runs": runs, "files": files})
    return {"plan": plan, "fill_seed": 1 + rng.randrange(1 << 20),
            "check_rng_seed": rng.randrange(1 << 30)}


class SteadyRound(Round):
    """One tenant: a 1 GiB modelled address space and 256 open files;
    each op dirties a seeded set and takes a sync checkpoint."""

    def __init__(self, inputs: Dict[str, Any], size: Dict[str, int]) -> None:
        super().__init__()
        self.inputs, self.size = inputs, size
        self.ops = size["ops"]
        self.machine = machine = Machine()
        self.sls = load_aurora(machine)
        kernel = machine.kernel
        self.proc = proc = kernel.spawn("steady")
        self.addr = proc.vmspace.mmap(size["pages"] * PAGE_SIZE, name="heap")
        proc.vmspace.fill(self.addr, size["pages"], seed=inputs["fill_seed"])
        kernel.vfs.mkdir("/steady")
        self.fds = [kernel.open(proc, f"/steady/f{i}", O_RDWR | O_CREAT)
                    for i in range(size["files"])]
        self.initial = [b"seed:%d;" % i for i in range(size["files"])]
        for fd, data in zip(self.fds, self.initial):
            kernel.write(proc, fd, data)
        self.group = self.sls.attach(proc, name="steady", periodic=False)
        self.sls.checkpoint(self.group, sync=True)
        self.machines = [machine]
        self.orchestrators = [self.sls]

    def op(self, index: int) -> bool:
        tick = self.inputs["plan"][index]
        kernel, space = self.machine.kernel, self.proc.vmspace
        for start, npages, seed in tick["runs"]:
            space.touch(self.addr + start * PAGE_SIZE, npages, seed=seed)
            self.dirtied_bytes += npages * PAGE_SIZE
        for file_index, data in tick["files"]:
            kernel.write(self.proc, self.fds[file_index], data)
            self.dirtied_bytes += len(data)
        return self.sls.checkpoint(self.group, sync=True).info.complete

    def check(self) -> int:
        """Crash, recover and restore: the restored application must
        equal the last acknowledged (sync-committed) state."""
        machine = self.machine
        machine.crash()
        machine.boot()
        sls = load_aurora(machine)
        root = sls.restore(self.group.group_id, lazy=True,
                           periodic=False).root
        kernel = machine.kernel
        # The acknowledged state: every op's writes, replayed in order.
        page_seed: Dict[int, int] = {}
        contents = list(self.initial)
        for tick in self.inputs["plan"]:
            for start, npages, seed in tick["runs"]:
                for i in range(npages):
                    page_seed[start + i] = seed + i
            for file_index, data in tick["files"]:
                contents[file_index] += data
        rng = random.Random(self.inputs["check_rng_seed"])
        last = [start + i
                for start, npages, _ in self.inputs["plan"][-1]["runs"]
                for i in range(npages)]
        written = sorted(page_seed)
        pages = set(last)
        pages.update(rng.sample(written, min(len(written),
                                             self.size["checked_pages"])))
        pages.update(rng.sample(range(self.size["pages"]), 16))
        bad = 0
        for page in sorted(pages):
            seed = page_seed.get(page, self.inputs["fill_seed"] + page)
            if root.vmspace.read(self.addr + page * PAGE_SIZE, 16) \
                    != _page_prefix(seed):
                bad += 1
        for fd, data in zip(self.fds, contents):
            kernel.lseek(root, fd, 0)
            if kernel.read(root, fd, len(data) + 1) != data:
                bad += 1
        return 1 if bad else 0


# -- cluster-6x3 ---------------------------------------------------------------


def cluster_inputs(seed: int, size: Dict[str, int]) -> Dict[str, Any]:
    rng = random.Random(seed)
    plan = [[(page, b"op%05d:p%05d:%010d" % (op, page, rng.randrange(10**10)))
             for page in rng.sample(range(size["pages"]), size["dirty"])]
            for op in range(size["ops"])]
    return {"plan": plan, "fill_seed": 1 + rng.randrange(1 << 20)}


class ClusterRound(Round):
    """A small app on a quorum cluster; one node is out for the middle
    third of the round, and the round ends with a primary crash and a
    failover."""

    def __init__(self, inputs: Dict[str, Any], size: Dict[str, int]) -> None:
        super().__init__()
        self.inputs, self.size = inputs, size
        self.ops = size["ops"]
        self.machine = machine = Machine()
        self.sls = load_aurora(machine)
        self.proc = proc = machine.kernel.spawn("app")
        self.addr = proc.vmspace.mmap(size["pages"] * PAGE_SIZE, name="heap")
        proc.vmspace.fill(self.addr, size["pages"], seed=inputs["fill_seed"])
        self.group = self.sls.attach(proc, name="app", periodic=False)
        self.cluster = SLSCluster(self.sls, self.group, nodes=size["nodes"],
                                  azs=size["azs"])
        info = self.sls.checkpoint(self.group, sync=True).info
        self.cluster.pump()
        #: Checkpoint id -> ops whose writes it holds.
        self.ops_in: Dict[int, int] = {info.ckpt_id: 0}
        self.machines = [machine] + [node.machine
                                     for node in self.cluster.nodes]
        self.orchestrators = [self.sls]
        self._inter_az0 = self.cluster.inter_az_bytes

    def op(self, index: int) -> bool:
        cluster = self.cluster
        if index == self.ops // 3:
            cluster.node_down(1, reason="bench")
        if index == 2 * self.ops // 3:
            cluster.node_up(1)
            cluster.repair()
        for page, data in self.inputs["plan"][index]:
            self.proc.vmspace.write(self.addr + page * PAGE_SIZE, data)
            self.dirtied_bytes += PAGE_SIZE
        info = self.sls.checkpoint(self.group, sync=True).info
        self.ops_in[info.ckpt_id] = index + 1
        cluster.pump()
        self.inter_az_bytes = cluster.inter_az_bytes - self._inter_az0
        return cluster.durable == info.ckpt_id

    def check(self) -> int:
        """Crash the primary and fail over: the promoted node must hold
        exactly the newest quorum-acknowledged state."""
        expected: Dict[int, bytes] = {}
        for writes in self.inputs["plan"][:self.ops_in[self.cluster.durable]]:
            expected.update(writes)
        self.machine.crash()
        root = self.cluster.failover().root
        for page in range(self.size["pages"]):
            data = expected.get(page)
            want = data if data is not None else \
                _page_prefix(self.inputs["fill_seed"] + page)
            if root.vmspace.read(self.addr + page * PAGE_SIZE,
                                 len(want)) != want:
                return 1
        return 0


# -- fleet-16 ------------------------------------------------------------------


def fleet_inputs(seed: int, size: Dict[str, int]) -> Dict[str, Any]:
    """A quarter of the tenants arrive through the first half of the
    round and an eighth depart through the second, at fixed steps; the
    seed picks which tenant of a fixed profile departs and what every
    tenant writes, so every seed schedules the same checkpoints."""
    rng = random.Random(seed)
    tenants, steps = size["tenants"], size["ops"]
    late, gone = tenants // 4, tenants // 8
    half = steps // 2
    return {"upfront": tenants - late,
            "late": [(i + 1) * half // (late + 1) for i in range(late)],
            # (step, profile, pick): departures alternate over the
            # redis and rocksdb profiles.
            "departures": [(half + (i + 1) * half // (gone + 1),
                            PROFILES[1 + i % 2][0].encode(),
                            rng.randrange(1 << 30)) for i in range(gone)],
            "fill_seed": rng.randrange(1 << 20),
            "salt": rng.randrange(10**10)}


class Tenant:
    """One synthetic application with a bench_fleet profile."""

    def __init__(self, sls, kernel, index: int, fill_seed: int) -> None:
        name, period_ms, pages = PROFILES[index % len(PROFILES)]
        self.profile = name.encode()
        self.pages = pages
        self.per_step = max(1, pages * STEP_MS // period_ms)
        self.proc = kernel.spawn(f"{name}{index}")
        arena = pages + 8
        self.addr = self.proc.vmspace.mmap(arena * PAGE_SIZE, name="heap")
        self.proc.vmspace.fill(self.addr, arena, seed=fill_seed + index * 64)
        self.cursor = 0
        period_ns = period_ms * MSEC
        self.group = sls.attach(
            self.proc, name=f"{name}{index}", period_ns=period_ns,
            rpo_budget_ns=4 * period_ns, history_limit=HISTORY_LIMIT,
            demand_bytes_per_sec=pages * PAGE_SIZE * 1000 // period_ms)

    def step(self, step_no: int, salt: int) -> int:
        """Dirty this step's share of pages; returns pages written."""
        for _ in range(self.per_step):
            page = self.cursor % self.pages
            self.cursor += 1
            self.proc.vmspace.write(self.addr + page * PAGE_SIZE,
                                    b"%s:%05d:%03d:%010d" % (
                                        self.profile, step_no, page, salt))
        return self.per_step


class FleetRound(Round):
    """Sixteen tenants under EDF fleet scheduling; one op is one 5 ms
    step (every tenant mutates, then simulated time runs)."""

    def __init__(self, inputs: Dict[str, Any], size: Dict[str, int]) -> None:
        super().__init__()
        self.inputs, self.size = inputs, size
        self.ops = size["ops"]
        self.machine = machine = Machine()
        self.sls = load_aurora(machine)
        self.refused = 0
        self._index = itertools.count()
        self.live: List[Tenant] = []
        for _ in range(inputs["upfront"]):
            self._arrive()
        self.late = list(inputs["late"])
        self.departures = list(inputs["departures"])
        self.machines = [machine]
        self.orchestrators = [self.sls]
        registry_value = self.sls.telemetry.value
        self._dispatches0 = registry_value("sls.fleet.dispatches")
        self._misses0 = registry_value("sls.fleet.deadline_misses")

    def _arrive(self) -> None:
        try:
            self.live.append(Tenant(self.sls, self.machine.kernel,
                                    next(self._index),
                                    self.inputs["fill_seed"]))
        except AdmissionRejected:
            self.refused += 1

    def op(self, index: int) -> bool:
        while self.late and self.late[0] <= index:
            self.late.pop(0)
            self._arrive()
        while self.departures and self.departures[0][0] <= index:
            _, profile, pick = self.departures.pop(0)
            same = [t for t in self.live if t.profile == profile]
            victim = same[pick % len(same)]
            self.live.remove(victim)
            self.sls.detach(victim.group)
        for tenant in self.live:
            self.dirtied_bytes += PAGE_SIZE * tenant.step(
                index, self.inputs["salt"])
        self.machine.run_for(STEP_MS * MSEC)
        return True

    def _count(self, name: str, base: int) -> int:
        return self.sls.telemetry.value(name) - base

    def attempts(self) -> int:
        """Checkpoint dispatches are the fail-ratio base."""
        return self._count("sls.fleet.dispatches", self._dispatches0)

    def failures(self) -> int:
        """Deadline misses and refused admissions, at a feasible load."""
        return self._count("sls.fleet.deadline_misses",
                           self._misses0) + self.refused


# -- crash-restore -------------------------------------------------------------


def restore_inputs(seed: int, size: Dict[str, int]) -> Dict[str, Any]:
    rng = random.Random(seed)
    npages, nfiles = size["pages"], size["files"]
    chain = []
    for step in range(size["chain"]):
        runs = [rng.randrange(npages - RUN_PAGES) for _ in range(4)]
        files = rng.sample(range(nfiles), max(1, nfiles // 50))
        chain.append({"runs": runs, "files": files,
                      "tag": rng.randrange(10**10)})
    # A skewed working set: page rank r is read with weight 1/(r+1)
    # over a seeded permutation, so a few pages are hot and most cold.
    order = list(range(npages))
    rng.shuffle(order)
    weights = list(itertools.accumulate(1.0 / (rank + 1)
                                        for rank in range(npages)))
    working = []
    for _ in range(size["ops"]):
        pages: set = set()
        while len(pages) < size["working_set"]:
            pages.update(rng.choices(order, cum_weights=weights,
                                     k=size["working_set"] - len(pages)))
        working.append(sorted(pages))
    return {"chain": chain, "working": working,
            "fill_seed": 1 + rng.randrange(1 << 20),
            "salt": rng.randrange(10**10)}


class RestoreRound(Round):
    """An app with memory, files, pipes and sockets and a chain of
    incremental checkpoints; each op crashes the machine, recovers the
    store and lazily restores the app, then reads it back."""

    def __init__(self, inputs: Dict[str, Any], size: Dict[str, int]) -> None:
        super().__init__()
        self.inputs, self.size = inputs, size
        self.ops = size["ops"]
        self.machine = machine = Machine()
        sls = load_aurora(machine)
        kernel = machine.kernel
        proc = kernel.spawn("app")
        salt = inputs["salt"]
        self.addr = proc.vmspace.mmap(size["pages"] * PAGE_SIZE, name="heap")
        proc.vmspace.fill(self.addr, size["pages"], seed=inputs["fill_seed"])
        kernel.vfs.mkdir("/app")
        self.files = {}
        for i in range(size["files"]):
            fd = kernel.open(proc, f"/app/f{i}", O_RDWR | O_CREAT)
            self.files[fd] = b"file%05d:%010d;" % (i, salt)
            kernel.write(proc, fd, self.files[fd])
        self.pipes = []
        for i in range(size["pipes"]):
            rfd, wfd = kernel.pipe(proc)
            data = b"pipe%02d:%010d" % (i, salt)
            kernel.write(proc, wfd, data)
            self.pipes.append((rfd, data))
        self.sockets = []
        for i in range(size["sockets"]):
            left, right = kernel.socketpair(proc)
            data = b"sock%02d:%010d" % (i, salt)
            kernel.sock_of(proc, left).send(data)
            self.sockets.append((right, data))
        group = sls.attach(proc, name="app", periodic=False)
        sls.checkpoint(group, sync=True, full=True)
        #: Page -> 16-byte prefix written by the chain.
        self.written: Dict[int, bytes] = {}
        fds = sorted(self.files)
        for step, plan in enumerate(inputs["chain"]):
            for start in plan["runs"]:
                for page in range(start, start + RUN_PAGES):
                    data = b"c%02d:%011d" % (step, (plan["tag"] + page)
                                             % 10**11)
                    proc.vmspace.write(self.addr + page * PAGE_SIZE, data)
                    self.written[page] = data
            for index in plan["files"]:
                data = b"s%02d:%010d;" % (step, plan["tag"])
                kernel.write(proc, fds[index], data)
                self.files[fds[index]] += data
            sls.checkpoint(group, sync=True)
        self.group_id = group.group_id
        self.machines = [machine]
        self.orchestrators = []

    def expected_page(self, page: int) -> bytes:
        data = self.written.get(page)
        return data if data is not None else \
            _page_prefix(self.inputs["fill_seed"] + page)

    def op(self, index: int) -> bool:
        machine = self.machine
        machine.crash()
        machine.boot()
        sls = load_aurora(machine)
        result = sls.restore(self.group_id, lazy=True, periodic=False)
        self.restore_ns.append(result.elapsed_ns)
        root, kernel = result.root, machine.kernel
        ok = True
        for page in self.inputs["working"][index]:
            want = self.expected_page(page)
            ok &= root.vmspace.read(self.addr + page * PAGE_SIZE,
                                    len(want)) == want
        for fd, data in self.files.items():
            kernel.lseek(root, fd, 0)
            ok &= kernel.read(root, fd, len(data) + 1) == data
        for rfd, data in self.pipes:
            ok &= kernel.read(root, rfd, len(data) + 1) == data
        for right, data in self.sockets:
            ok &= kernel.sock_of(root, right).recv() == data
        return ok


INPUTS = {"steady-1g": steady_inputs, "cluster-6x3": cluster_inputs,
          "fleet-16": fleet_inputs, "crash-restore": restore_inputs}
ROUNDS = {"steady-1g": SteadyRound, "cluster-6x3": ClusterRound,
          "fleet-16": FleetRound, "crash-restore": RestoreRound}
