"""Workloads, load drivers and output checks of the live KV benchmark.

Every workload runs a 3-node, 1-shard :class:`~repro.live.LiveKVCluster`
inside the generator's own event loop and goes through the same phases:

1. **set-up**, ``SETUPS`` times: build the cluster, wait for a leader and
   get the first put acknowledged.  ``setup_s`` is the median (over the
   episodes' boots too, where there are episodes); the last cluster is
   kept for the timed window.
2. **timed window**: the workload's traffic, closed loop over
   ``CONNECTIONS`` clients, or open loop on a seeded Poisson schedule.
3. **check**: ``kv-durable`` power-fails every node and restarts the
   cluster; then every key written is read back linearizably (closed
   loop), and the whole history, window and read-back, must pass the
   Wing & Gill checker with no acknowledged write missing.

``kv-failover`` splits its window into episodes, each on a fresh
cluster that loses its leader once.  A diskless node restarts with an
empty log, and the leader walks its ``next_index`` back one entry per
round trip, resending the suffix each time, so one catch-up costs CPU
quadratic in the log length; episodes bound the log a kill meets.  The
killed node restarts after its episode's traffic and read-back, once the
slice is closed: from one episode to the next its catch-up costs 0.4 to
1.2 s of CPU, several times the episode's own.  Only the last episode
waits for the catch-up, and times it (``catchup_cpu_ms``).

Load is generated from ``--seed`` only; the cluster receives nothing
but the generated operations.
"""

from __future__ import annotations

import asyncio
import gc
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.chaos.checker import check_history
from repro.chaos.history import GET, PUT, History, OpRecord
from repro.core.runtime import AsyncioRuntime, Runtime, SimRuntime
from repro.live.client import AsyncKVClient, ClusterUnavailableError
from repro.live.config import ClusterConfig
from repro.live.harness import LiveKVCluster
from repro.live.loadgen import ZipfSampler

#: Concurrent client connections (``nproc`` on the 2-core reference host).
CONNECTIONS = 2
#: Cluster size of every workload, one shard (``repro serve`` defaults).
NODES = 3
#: Keys are ``k0 .. k{KEY_SPACE-1}``.
KEY_SPACE = 1000
#: Every value written is unique and this long, so reads identify writes.
VALUE_BYTES = 32
#: Cluster set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Wall-clock budget of the linearizability checker.
CHECK_BUDGET_S = 60.0
#: How long a power-failed cluster may take to serve a linearizable read.
RECOVER_LIMIT_S = 60.0
#: Link latency of the simulated network, seconds; each cluster draws
#: its own within +-``LINK_JITTER`` of it, so virtual-time latencies are
#: not one constant for every seed.
LINK_LATENCY = 0.0005
LINK_JITTER = 0.05

_OP_ERRORS = (ClusterUnavailableError, ConnectionError, OSError, TimeoutError,
              asyncio.TimeoutError)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one cluster configuration."""

    name: str
    why: str
    #: Extra ``LiveKVCluster`` options on top of the serve defaults.
    server: Dict[str, Any] = field(default_factory=dict)
    #: Share of linearizable gets in the timed window.
    read_ratio: float = 0.0
    #: ``"uniform"`` or ``"zipf"`` (Zipf(1.1) over the key space).
    key_dist: str = "uniform"
    #: Persist each node under a data dir and power-fail it after the window.
    durable: bool = False
    #: Virtual seconds per episode.  Unset: one closed-loop window on
    #: wall-clock time.  Set: open-loop puts at ``open_rate`` per second
    #: on virtual time, in episodes that each kill the leader once.
    episode_s: Optional[float] = None
    open_rate: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "kv-write",
            "diskless write-only closed loop; the CPU path (client, codec, "
            "transport, loop, raft, KV batching) over a log of thousands "
            "of entries",
        ),
        Workload(
            "kv-read-lease",
            "90% lease-tier linearizable gets, 10% puts, Zipf(1.1) keys; "
            "the read path and codec dominate, raft and storage idle",
            server={"read_tier": "lease"},
            read_ratio=0.9,
            key_dist="zipf",
        ),
        Workload(
            "kv-durable",
            "write-only on a pipelined WAL with a 2 ms emulated fsync and "
            "frequent compaction, then power-fail and restart; storage "
            "and recovery dominate",
            server={
                "sync_mode": "pipelined",
                "fsync_delay": 0.002,
                "snapshot_threshold": 100,
            },
            durable=True,
        ),
        Workload(
            "kv-failover",
            "open-loop puts on virtual time over 0.5 ms links while the "
            "leader is killed and restarted; election, failure detection "
            "and client retry paths",
            open_rate=100.0,
            episode_s=2.0,
        ),
    )
}

#: Virtual seconds per ``--seconds`` of an episodic workload.
VIRTUAL_SCALE = 6.0
#: Episode-relative virtual time of the leader kill; the killed node
#: restarts once the episode's traffic is done.
KILL_AT = 0.6


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


class OpSource:
    """The seeded operation stream of one client: ``(kind, key, value)``."""

    def __init__(self, workload: Workload, seed: int, client: int,
                 prefix: str = ""):
        self._rng = random.Random(f"{seed}/{prefix}{client}")
        self._read_ratio = workload.read_ratio
        self._zipf = (
            ZipfSampler(KEY_SPACE, 1.1) if workload.key_dist == "zipf" else None
        )
        self._prefix = prefix
        self._tag = f"{seed}.{prefix}{client}."
        self._count = 0

    def key(self) -> str:
        if self._zipf is not None:
            rank = self._zipf.sample(self._rng)
        else:
            rank = self._rng.randrange(KEY_SPACE)
        return f"{self._prefix}k{rank}"

    def next(self) -> Tuple[str, str, Optional[str]]:
        key = self.key()
        if self._read_ratio and self._rng.random() < self._read_ratio:
            return GET, key, None
        self._count += 1
        return PUT, key, (self._tag + str(self._count)).ljust(VALUE_BYTES, "-")


def poisson_schedule(rng: random.Random, rate: float, duration: float) -> List[float]:
    """Due offsets of a Poisson process of ``rate`` over ``[0, duration)``."""
    due, out = 0.0, []
    while True:
        due += rng.expovariate(rate)
        if due >= duration:
            return out
        out.append(due)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


@dataclass
class Sample:
    """One acknowledged operation: its record and latency (seconds)."""

    op: OpRecord
    latency: float
    phase: str  # "window", "recover" or "readback"


class Recorder:
    """Runs client operations and records each one in a shared History.

    The History record's ``op_id`` is also the ``op_id`` handed to the
    client, so a traced run's spans join up with the checked history.
    """

    def __init__(self, rt: Runtime):
        self.rt = rt
        self.history = History(runtime=rt)
        self.samples: List[Sample] = []
        self.failed = 0
        self.window_acked = 0

    def _done(self, op: OpRecord, started: float, phase: str) -> None:
        self.samples.append(Sample(op, self.rt.now() - started, phase))
        if phase == "window":
            self.window_acked += 1

    async def put(self, client: AsyncKVClient, cid: int, key: str, value: str,
                  *, due: Optional[float] = None, phase: str = "window") -> bool:
        op = self.history.begin(cid, PUT, key, value)
        started = self.rt.now() if due is None else due
        try:
            index = await client.put(key, value, op_id=op.op_id)
        except _OP_ERRORS:
            self.history.ambiguous(op)
            self.failed += 1
            return False
        self.history.complete_put(op, index)
        self._done(op, started, phase)
        return True

    async def get(self, client: AsyncKVClient, cid: int, key: str,
                  *, tier: Optional[str] = None, due: Optional[float] = None,
                  phase: str = "window") -> bool:
        op = self.history.begin(cid, GET, key)
        started = self.rt.now() if due is None else due
        try:
            response = await client.get(
                key, linearizable=True, tier=tier, op_id=op.op_id
            )
        except _OP_ERRORS:
            self.history.fail(op)
            self.failed += 1
            return False
        self.history.complete_get(
            op, bool(response.get("found")), response.get("value"),
            response.get("applied"),
        )
        self._done(op, started, phase)
        return True

    async def run(self, client: AsyncKVClient, cid: int,
                  op: Tuple[str, str, Optional[str]], **kwargs: Any) -> bool:
        kind, key, value = op
        if kind == PUT:
            return await self.put(client, cid, key, value, **kwargs)
        return await self.get(client, cid, key, **kwargs)

    def acked(self, phase: str) -> List[Sample]:
        return [s for s in self.samples if s.phase == phase]


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """Wall clock, runtime clock, process CPU and acked ops at one instant."""

    wall: float
    clock: float
    cpu: float
    ops: int


def point(rt: Runtime, recorder: Recorder) -> Point:
    return Point(time.perf_counter(), rt.now(), time.process_time(),
                 recorder.window_acked)


@dataclass(frozen=True)
class Slice:
    """One measured interval of the timed window."""

    start: Point
    end: Point

    @property
    def cpu(self) -> float:
        return self.end.cpu - self.start.cpu

    @property
    def ops(self) -> int:
        return self.end.ops - self.start.ops

    @property
    def cpu_per_op(self) -> float:
        return self.cpu / max(1, self.ops)


# ----------------------------------------------------------------------
# Load drivers
# ----------------------------------------------------------------------


async def closed_loop(rt: Runtime, recorder: Recorder,
                      clients: List[AsyncKVClient], sources: List[OpSource],
                      until: float) -> None:
    """Each client sends its next op as soon as the previous one returns."""

    async def worker(cid: int) -> None:
        while rt.now() < until:
            await recorder.run(clients[cid], cid, sources[cid].next())

    await asyncio.gather(*(worker(cid) for cid in range(len(clients))))


async def open_loop(rt: Runtime, recorder: Recorder,
                    clients: List[AsyncKVClient],
                    schedule: List[Tuple[float, Tuple[str, str, Optional[str]]]],
                    start: float) -> List[float]:
    """Send each op at ``start + offset`` on the runtime clock.

    Only the runtime seam's ``now``/``sleep`` keep time, so the driver
    runs on wall or virtual time alike.  An op that finds every
    connection busy waits for one, and that wait counts in its latency,
    which runs from the op's due instant.  Returns how late the
    generator itself woke for each op (seconds).
    """
    free: asyncio.Queue = asyncio.Queue()
    for cid in range(len(clients)):
        free.put_nowait(cid)
    late: List[float] = []
    tasks: List[asyncio.Task] = []

    async def one(due: float, op: Tuple[str, str, Optional[str]]) -> None:
        cid = await free.get()
        try:
            await recorder.run(clients[cid], cid, op, due=due)
        finally:
            free.put_nowait(cid)

    for offset, op in schedule:
        due = start + offset
        delay = due - rt.now()
        if delay > 0:
            await rt.sleep(delay)
        late.append(rt.now() - due)
        tasks.append(rt.spawn(one(due, op)))
    await asyncio.gather(*tasks)
    return late


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------


def lost_writes(history: History, readbacks: List[OpRecord]) -> List[OpRecord]:
    """Read-backs that do not return a write that may still be current.

    A put can be the key's final value unless an acknowledged put on the
    same key was invoked after it returned.  A read-back issued after all
    writes must see one of those; anything else means an acknowledged
    write was lost.
    """
    puts: Dict[str, List[OpRecord]] = {}
    for op in history.ops:
        if op.kind == PUT and op.ok is not False:
            puts.setdefault(op.key, []).append(op)
    lost = []
    for read in readbacks:
        if not read.ok:
            continue
        writes = puts.get(read.key, [])
        acked = [p for p in writes if p.ok]
        if not acked:
            continue
        last_inv = max(p.inv for p in acked)
        current = {
            p.value for p in writes if p.ret is None or p.ret >= last_inv
        }
        if not read.found or read.value not in current:
            lost.append(read)
    return lost


@dataclass
class CheckResult:
    """The verdicts of both output checks."""

    linearizable: Optional[bool]
    lost: List[OpRecord]
    summary: str
    #: Whether a power-failed cluster served reads again in time.
    recovered: bool = True

    @property
    def ok(self) -> bool:
        """A checker verdict of ``None`` (budget spent) fails too."""
        return self.linearizable is True and not self.lost and self.recovered


def check_outputs(history: History, readbacks: List[OpRecord]) -> CheckResult:
    """Linearizability of the whole history plus the lost-write read-back."""
    report = check_history(history, time_budget=CHECK_BUDGET_S)
    lost = lost_writes(history, readbacks)
    summary = (
        f"linearizable={report.ok} ({len(history)} ops over "
        f"{len(report.results)} keys, checked in {report.elapsed:.2f} s); "
        f"read back {len(readbacks)} keys, {len(lost)} acknowledged "
        f"writes lost"
    )
    return CheckResult(report.ok, lost, summary)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


@dataclass
class RunResult:
    """What one run of one workload measured (times in seconds)."""

    workload: str
    setup_s: List[float] = field(default_factory=list)
    #: Runtime-clock length of the window that throughput divides by.
    window_s: float = 0.0
    slices: List[Slice] = field(default_factory=list)
    put_latency: List[float] = field(default_factory=list)
    get_latency: List[float] = field(default_factory=list)
    #: Where the gets were measured: ``"window"`` or ``"readback"``.
    get_phase: str = "window"
    acked: int = 0
    attempted: int = 0
    failed: int = 0
    check: Optional[CheckResult] = None
    late: List[float] = field(default_factory=list)
    #: ``(runtime clock, pid, term)`` of each leader kill; pid -1 marks
    #: the power failure of every node.
    kills: List[Tuple[float, int, int]] = field(default_factory=list)
    unavail: List[float] = field(default_factory=list)
    #: Process CPU seconds of each killed node's restart and catch-up.
    catchup_cpu: List[float] = field(default_factory=list)
    recover_s: Optional[float] = None
    disk_bytes: Optional[int] = None
    user_bytes: int = 0
    #: Every op of the timed cluster(s), and the read-back gets among them.
    history: Optional[History] = None
    readbacks: List[OpRecord] = field(default_factory=list)

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu for s in self.slices)

    @property
    def cpu_ops(self) -> int:
        return sum(s.ops for s in self.slices)

    @property
    def cpu_growth(self) -> float:
        """CPU per op in the last slice over CPU per op in the first.

        Both ends are read off the least-squares line through every
        slice's CPU per op, so one slice's noise (a garbage collection
        landing in it) does not swing the ratio.
        """
        ys = [s.cpu_per_op for s in self.slices]
        n = len(ys)
        mean_x, mean_y = (n - 1) / 2, sum(ys) / n
        slope = sum((x - mean_x) * (y - mean_y) for x, y in enumerate(ys)) / sum(
            (x - mean_x) ** 2 for x in range(n)
        )
        first = mean_y - slope * mean_x
        return (first + slope * (n - 1)) / first


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(root, name))
    return total


class Run:
    """One run of one workload: set-ups, timed window, checks.

    ``observer``, the traced run's tracer, is shown every server the run
    starts and the edges of every measured interval.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 workdir: str, observer: Any = None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.observer = observer
        self.result = RunResult(workload.name)
        self._seen: set = set()
        self._readbacks: List[OpRecord] = []

    # -- cluster lifecycle ----------------------------------------------

    def _build(self, rt: Runtime, attempt: int) -> LiveKVCluster:
        options = dict(self.w.server)
        if self.w.durable:
            options["data_dir"] = os.path.join(self.workdir, f"cluster-{attempt}")
        cluster = None
        if isinstance(rt, SimRuntime):
            jitter = random.Random(f"{self.seed}/link/{attempt}").uniform(-1, 1)
            rt.network.latency = LINK_LATENCY * (1 + LINK_JITTER * jitter)
            cluster = ClusterConfig.simulated(NODES, base_port=20000 + 10 * attempt)
        return LiveKVCluster(
            NODES, seed=self.seed * 1009 + attempt, cluster=cluster,
            runtime=rt, **options,
        )

    def _watch(self, cluster: LiveKVCluster) -> None:
        for server in cluster.servers:
            if server is not None and id(server) not in self._seen:
                self._seen.add(id(server))
                if self.observer is not None:
                    self.observer.watch_server(server)

    async def _boot(self, rt: Runtime, attempt: int
                    ) -> Tuple[LiveKVCluster, List[AsyncKVClient], float]:
        """Build and start a cluster; seconds until the first acked put."""
        started = time.perf_counter()
        cluster = self._build(rt, attempt)
        await cluster.start()
        self._watch(cluster)
        await cluster.wait_for_leader(timeout=60.0)
        clients = [
            AsyncKVClient(cluster.cluster, runtime=rt,
                          op_id_prefix=f"b{attempt}c{cid}")
            for cid in range(CONNECTIONS)
        ]
        # Not recorded: the History covers the timed cluster's keys only.
        await clients[0].put("boot", "0", op_id=f"boot{attempt}")
        return cluster, clients, time.perf_counter() - started

    @staticmethod
    async def _stop(cluster: LiveKVCluster, clients: List[AsyncKVClient]) -> None:
        for client in clients:
            await client.close()
        await cluster.stop()
        # Collect the dead cluster now, outside any measured interval,
        # rather than in whichever later slice the collector picks.
        gc.collect()

    def _edge(self, opening: bool) -> None:
        if self.observer is not None:
            self.observer.window_edge(opening)

    # -- the run --------------------------------------------------------

    async def main(self, rt: Runtime) -> RunResult:
        self.recorder = Recorder(rt)
        booted = None
        for attempt in range(SETUPS):
            if booted is not None:
                await self._stop(*booted)
            cluster, clients, took = await self._boot(rt, attempt)
            booted = (cluster, clients)
            self.result.setup_s.append(took)
        if self.w.episode_s is not None:
            await self._episodes(rt, *booted)
        else:
            try:
                await self._single(rt, *booted)
            finally:
                await self._stop(*booted)
        return self._finish()

    def _finish(self) -> RunResult:
        result, recorder = self.result, self.recorder
        window = recorder.acked("window")
        result.acked = len(window)
        result.put_latency = [s.latency for s in window if s.op.kind == PUT]
        result.get_latency = [s.latency for s in window if s.op.kind == GET]
        if not result.get_latency:
            result.get_phase = "readback"
            result.get_latency = [s.latency for s in recorder.acked("readback")]
        result.user_bytes = sum(
            len(s.op.key) + len(s.op.value) for s in window if s.op.kind == PUT
        )
        result.unavail = self._unavailability(recorder, result.kills)
        result.attempted = len(recorder.history)
        result.failed = recorder.failed
        result.history, result.readbacks = recorder.history, self._readbacks
        result.check = check_outputs(recorder.history, self._readbacks)
        if self.w.durable and result.recover_s is None:
            result.check.recovered = False
            result.check.summary = (
                f"no linearizable read within {RECOVER_LIMIT_S:g} s of the "
                f"restart; {result.check.summary}"
            )
        return result

    async def _single(self, rt: Runtime, cluster: LiveKVCluster,
                      clients: List[AsyncKVClient]) -> None:
        """Closed loop for ``seconds`` on the set-up cluster, in tenths."""
        w, result = self.w, self.result
        sources = [OpSource(w, self.seed, cid) for cid in range(CONNECTIONS)]
        start = rt.now()
        self._edge(True)
        points = [point(rt, self.recorder)]

        async def tenths() -> None:
            for tenth in range(1, 11):
                await rt.sleep(max(0.0, start + self.seconds * tenth / 10 - rt.now()))
                points.append(point(rt, self.recorder))

        sampler = rt.spawn(tenths())
        await closed_loop(rt, self.recorder, clients, sources, start + self.seconds)
        await sampler
        self._edge(False)
        result.slices = [Slice(a, b) for a, b in zip(points, points[1:])]
        window = self.recorder.acked("window")
        end = max([points[-1].clock] + [
            s.op.ret + self.recorder.history.epoch for s in window
        ])
        result.window_s = end - start
        if w.durable and not await self._power_fail(rt, cluster, clients):
            return  # the run fails its check; nothing is left to read back
        await self._read_back(clients, "")

    async def _episodes(self, rt: Runtime, cluster: LiveKVCluster,
                        clients: List[AsyncKVClient]) -> None:
        """Open-loop episodes, each on a fresh cluster that loses its leader."""
        w, result = self.w, self.result
        length = w.episode_s
        count = max(2, round(self.seconds * VIRTUAL_SCALE / length))
        for episode in range(count):
            if episode:
                cluster, clients, took = await self._boot(rt, SETUPS + episode - 1)
                result.setup_s.append(took)
            try:
                prefix = f"e{episode}/"
                source = OpSource(w, self.seed, 0, prefix)
                rng = random.Random(f"{self.seed}/schedule/{episode}")
                schedule = [
                    (due, source.next())
                    for due in poisson_schedule(rng, w.open_rate, length)
                ]
                start = rt.now()
                self._edge(True)
                first = point(rt, self.recorder)
                killer = rt.spawn(self._kill_leader(rt, cluster, start))
                result.late += await open_loop(
                    rt, self.recorder, clients, schedule, start
                )
                killed = await killer
                result.slices.append(Slice(first, point(rt, self.recorder)))
                self._edge(False)
                result.window_s += length
                await self._read_back(clients, prefix)
                if episode == count - 1:
                    result.catchup_cpu.append(
                        await self._catch_up(rt, cluster, killed)
                    )
                else:
                    await cluster.restart(killed)
                    self._watch(cluster)
            finally:
                await self._stop(cluster, clients)

    async def _kill_leader(self, rt: Runtime, cluster: LiveKVCluster,
                           start: float) -> int:
        await rt.sleep(max(0.0, start + KILL_AT - rt.now()))
        leader = cluster.leader_pid()
        if leader is None:
            raise RuntimeError("no leader to kill")
        term = cluster.servers[leader].node.current_term
        self.result.kills.append((rt.now(), leader, term))
        await cluster.kill(leader)
        return leader

    async def _catch_up(self, rt: Runtime, cluster: LiveKVCluster,
                        pid: int) -> float:
        """Restart ``pid`` (empty log) and wait until it has applied what
        the leader had committed; returns the process CPU seconds spent.

        Kept out of the measured slice, because its cost swings between
        episodes (see the module docstring), and timed on the last
        episode only, because it costs more CPU than the episode itself.
        """
        started = time.process_time()
        deadline = rt.now() + 60.0
        await cluster.restart(pid)
        self._watch(cluster)
        target = cluster.servers[await cluster.wait_for_leader()].node.commit_index
        while cluster.servers[pid].node.last_applied < target:
            if rt.now() > deadline:
                raise RuntimeError(f"restarted node {pid} did not catch up")
            await rt.sleep(0.005)
        return time.process_time() - started

    @staticmethod
    def _unavailability(recorder: Recorder,
                        kills: List[Tuple[float, int, int]]) -> List[float]:
        """Per leader kill: seconds until the first put invoked after it
        returns."""
        epoch = recorder.history.epoch
        out = []
        for killed_at, pid, _term in kills:
            if pid < 0:
                continue  # a power failure of every node, see recover_s
            after = [
                s.op.ret + epoch for s in recorder.acked("window")
                if s.op.kind == PUT and s.op.inv + epoch >= killed_at
            ]
            if after:
                out.append(min(after) - killed_at)
        return out

    async def _power_fail(self, rt: Runtime, cluster: LiveKVCluster,
                          clients: List[AsyncKVClient]) -> bool:
        """Power-fail every node, restart all, time the first lin read.

        Returns whether the restarted cluster served one within
        ``RECOVER_LIMIT_S``.
        """
        term = max(s.node.current_term for s in cluster.servers)
        for pid in range(NODES):
            await cluster.kill(pid)
        restarted = rt.now()
        self.result.kills.append((restarted, -1, term))
        if self.observer is not None:
            self.observer.mark("power_fail")
        for pid in range(NODES):
            await cluster.restart(pid)
        self._watch(cluster)
        key = self.recorder.acked("window")[0].op.key
        while not await self.recorder.get(clients[0], 0, key, tier="readindex",
                                          phase="recover"):
            if rt.now() - restarted > RECOVER_LIMIT_S:
                return False
        self.result.recover_s = rt.now() - restarted
        self.result.disk_bytes = _dir_bytes(cluster.data_dir)
        return True

    async def _read_back(self, clients: List[AsyncKVClient], prefix: str) -> None:
        """Read every key written under ``prefix``, one get at a time.

        ReadIndex-tier gets: one leadership probe round each, no log
        write, whatever the server's default read tier.  One reader, so
        no two reads share or queue for a probe round.
        """
        keys = sorted({
            op.key for op in self.recorder.history.ops
            if op.kind == PUT and op.key.startswith(prefix)
        })
        random.Random(f"{self.seed}/readback/{prefix}").shuffle(keys)
        before = len(self.recorder.history.ops)
        for key in keys:
            await self.recorder.get(clients[0], 0, key, tier="readindex",
                                    phase="readback")
        self._readbacks += self.recorder.history.ops[before:]


def run_workload(
    workload: Workload, seed: int, seconds: float, workdir: str,
    observer: Any = None,
    on_loop: Optional[Callable[[asyncio.AbstractEventLoop, Runtime],
                               Optional[Callable[[], None]]]] = None,
) -> RunResult:
    """Run one workload to completion on its runtime (virtual or real).

    ``on_loop(loop, runtime)`` is called inside the running event loop
    before the run starts; a callable it returns is called after the run.
    ``workdir`` holds the data dirs and is removed afterwards.
    """
    run = Run(workload, seed, seconds, workdir, observer)

    async def main(rt: Runtime) -> RunResult:
        undo = on_loop(asyncio.get_running_loop(), rt) if on_loop else None
        try:
            return await run.main(rt)
        finally:
            if undo is not None:
                undo()

    os.makedirs(workdir, exist_ok=True)
    try:
        if workload.episode_s is not None:
            rt = SimRuntime(latency=LINK_LATENCY)
            try:
                return rt.run(main(rt))
            finally:
                rt.close()
        rt = AsyncioRuntime()
        return rt.run(main(rt))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
