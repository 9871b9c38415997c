"""Spans around the calls into each layer of the live stack.

The traced run patches the public entry points of every layer (plus
the task bodies the event loop resumes, for client, KV frontend and
transport) with thin wrappers that record a span and return the
wrapped call's value unchanged.  :meth:`Tracer.uninstall` puts every
original back, so an untraced run in the same process is unwrapped.

Three kinds of span are kept in memory and written to one file at the
end of the run:

``cpu``
    A synchronous call on the event-loop thread, timed with
    ``time.perf_counter``.  Calls nest, so each span names its parent,
    and a span's *self time* is its duration minus its children's.
``wait``
    An interval on the runtime clock (virtual time under simulation):
    a client operation, or an op or batch waiting between two layers.
``event``
    An instant on the runtime clock (a leader elected).

Spans of one client operation carry its ``op_id``.  Counts that would
be too many to keep as spans (loop callbacks, timer arms) are
counters, snapshotted at the edges of every measured interval.
:func:`layer_table` derives the per-layer metrics from the file alone.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import time
import types
from array import array
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.algorithms.raft.log import RaftLog
from repro.algorithms.raft.node import RaftNode
from repro.algorithms.readpath import ReadLedger
from repro.live import client as client_module
from repro.live import wire
from repro.live.client import AsyncKVClient
from repro.live.kv import KvBatch, KVCommandMachine, KVServer, KVShard
from repro.live.runtime import LiveRuntime
from repro.live.transport import PeerTransport
from repro.sim import trace as tr
from repro.storage.engine import RaftStorage

from harness import percentile

CPU, WAIT, EVENT = "cpu", "wait", "event"

#: First line of a span file.
HEADER = "# perfbench spans v1"

#: Span-name prefixes: the layers whose self times add up, with
#: ``loop.other``, to the run's CPU time.
LAYER_PREFIXES = ("client", "wire", "transport", "engine", "kv", "storage")


class SpanLog:
    """Spans in parallel arrays, plus named counters."""

    def __init__(self) -> None:
        self.names: List[Tuple[str, str]] = []  # (name, kind) by id
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.ops: Dict[int, str] = {}
        self.counters: Counter = Counter()
        self._stack: List[int] = []

    def nid(self, name: str, kind: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append((name, kind))
        return self._ids[name]

    def _open(self, nid: int, start: float, op: Optional[str]) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(start)
        self.end.append(start)
        if op is not None:
            self.ops[index] = op
        return index

    def call(self, nid: int, op: Optional[str], fn: Callable[..., Any],
             *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a ``cpu`` span; return its value unchanged."""
        index = self._open(nid, time.perf_counter(), op)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.end[index] = time.perf_counter()

    def wait(self, nid: int, start: float, end: float,
             op: Optional[str] = None) -> None:
        index = self._open(nid, start, op)
        self.parent[index] = -1
        self.end[index] = end

    def event(self, nid: int, at: float, op: Optional[str] = None) -> None:
        self.wait(nid, at, at, op)

    def write(self, path: str, meta: Dict[str, Any],
              counters: Dict[str, float]) -> None:
        with open(path, "w") as out:
            out.write(HEADER + "\n")
            out.write("# meta " + json.dumps(meta) + "\n")
            out.write("# counters " + json.dumps(counters) + "\n")
            out.write("# names " + json.dumps(self.names) + "\n")
            out.write("id\tparent\tname\tstart\tend\top\n")
            ops = self.ops
            out.writelines(
                f"{i}\t{p}\t{n}\t{s!r}\t{e!r}\t{ops.get(i, '')}\n"
                for i, (p, n, s, e) in enumerate(
                    zip(self.parent, self.name, self.start, self.end)
                )
            )


@types.coroutine
def _steps(log: SpanLog, nid: int, op: Optional[str], coro: Any) -> Any:
    """Drive ``coro`` to completion, one ``cpu`` span per resumption.

    Sends, throws (cancellation) and closes pass through unchanged, so
    the awaiting task sees exactly what awaiting ``coro`` would give.
    """
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        try:
            if error is None:
                yielded = log.call(nid, op, coro.send, value)
            else:
                yielded = log.call(nid, op, coro.throw, error)
        except StopIteration as stop:
            return stop.value
        try:
            value, error = (yield yielded), None
        except BaseException as exc:  # handed to coro, which re-raises
            value, error = None, exc


class _EngineSteps:
    """A node's protocol generator with one ``cpu`` span per step."""

    __slots__ = ("_gen", "_log", "_nid")

    def __init__(self, gen: Any, log: SpanLog, nid: int):
        self._gen = gen
        self._log = log
        self._nid = nid

    def send(self, value: Any) -> Any:
        return self._log.call(self._nid, None, self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        return self._gen.throw(*args)

    def close(self) -> None:
        self._gen.close()

    def __iter__(self) -> "_EngineSteps":
        return self

    def __next__(self) -> Any:
        return self.send(None)


def _op_of(payload: Any) -> Optional[KvBatch]:
    """The KV batch a ``ClientPropose`` carries, if any."""
    command = getattr(payload, "command", None)
    return command if isinstance(command, KvBatch) else None


class Tracer:
    """Installs the layer wrappers and collects what they record.

    Also the run's observer: it follows every server the run starts
    (leader annotations via ``Trace.subscribe``) and snapshots counters
    and layer statistics at the edges of every measured interval.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self.clock: Callable[[], float] = time.monotonic
        self.windows: List[List[float]] = []  # [wall0, wall1, clock0, clock1]
        self.window_counts: Counter = Counter()
        self.marks: Dict[str, float] = {}
        self.servers: List[KVServer] = []
        self._open_counts: Dict[str, float] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._enqueued: Dict[str, float] = {}
        self._injected: Dict[Any, float] = {}
        self._applied: Dict[str, float] = {}

    # -- patching -------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
        original = getattr(owner, attr)
        own = not isinstance(owner, type) or attr in vars(owner)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def install(self) -> None:
        log = self.log
        counters = log.counters

        def cpu(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
            nid = log.nid(name, CPU)
            return lambda fn: lambda *a, **k: log.call(nid, None, fn, *a, **k)

        def stepped(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
            nid = log.nid(name, CPU)

            def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
                async def steps(*args: Any, **kwargs: Any) -> Any:
                    return await _steps(log, nid, None, fn(*args, **kwargs))
                return steps
            return wrap

        def counted(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
            def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
                def call(*args: Any, **kwargs: Any) -> Any:
                    counters[name] += 1
                    return fn(*args, **kwargs)
                return call
            return wrap

        # codec: every network frame body passes one of these
        encode = log.nid("wire.encode", CPU)
        decode = log.nid("wire.decode", CPU)

        def dumps(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(value: Any) -> bytes:
                body = log.call(encode, None, fn, value)
                counters["wire.bytes"] += len(body)
                return body
            return call

        def dumps_into(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(value: Any, out: bytearray) -> int:
                size = log.call(encode, None, fn, value, out)
                counters["wire.bytes"] += size
                return size
            return call

        self._patch(wire.BINARY_CODEC, "dumps", dumps)
        self._patch(wire.BINARY_CODEC, "dumps_into", dumps_into)
        self._patch(wire, "binary_loads",
                    lambda fn: lambda data: log.call(decode, None, fn, data))

        # client: operations as wait spans, their resumptions as cpu spans
        step = log.nid("client.step", CPU)

        def client_op(name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
            nid = log.nid(name, WAIT)

            def wrap(fn: Callable[..., Any]) -> Callable[..., Any]:
                async def op(*args: Any, **kwargs: Any) -> Any:
                    op_id = kwargs.get("op_id")
                    start = self.clock()
                    try:
                        return await _steps(log, step, op_id, fn(*args, **kwargs))
                    finally:
                        log.wait(nid, start, self.clock(), op_id)
                return op
            return wrap

        self._patch(AsyncKVClient, "put", client_op("client.put"))
        self._patch(AsyncKVClient, "get", client_op("client.get"))
        self._patch(client_module, "frame_bytes", counted("client.requests"))

        # transport: the send queue and the per-link tasks
        self._patch(PeerTransport, "send", cpu("transport.send"))
        self._patch(PeerTransport, "_outbound_loop", stepped("transport.step"))
        self._patch(PeerTransport, "_handle_inbound", stepped("transport.step"))

        # runtime: local injections; a KV batch leaving its queue
        batch_wait = log.nid("kv.batch_wait", WAIT)

        def inject(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(runtime: Any, payload: Any, *args: Any, **kwargs: Any) -> Any:
                counters["runtime.inject"] += 1
                batch = _op_of(payload)
                if batch is not None and batch.ops:
                    now = self.clock()
                    counters["kv.batches"] += 1
                    counters["kv.batched_ops"] += len(batch.ops)
                    self._injected[batch.batch_id] = now
                    for item in batch.ops:
                        queued = self._enqueued.pop(item.op_id, None)
                        if queued is not None:
                            log.wait(batch_wait, queued, now, item.op_id)
                return fn(runtime, payload, *args, **kwargs)
            return call

        self._patch(LiveRuntime, "inject", inject)

        # engine: protocol generator steps and the duplicate scan
        engine_step = log.nid("engine.step", CPU)
        self._patch(RaftNode, "run", lambda fn: lambda node, api: _EngineSteps(
            fn(node, api), log, engine_step))
        self._patch(RaftLog, "contains_command", cpu("engine.dedup_scan"))

        # kv: frontend tasks, batching queue, apply, acknowledgement
        self._patch(KVServer, "_handle_client", stepped("kv.step"))
        enqueue = log.nid("kv.enqueue", CPU)

        def kv_enqueue(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(shard: Any, op: Any) -> Any:
                self._enqueued[op.op_id] = self.clock()
                return log.call(enqueue, op.op_id, fn, shard, op)
            return call

        self._patch(KVShard, "enqueue", kv_enqueue)
        apply_nid = log.nid("kv.apply", CPU)
        commit_wait = log.nid("engine.commit_wait", WAIT)

        def kv_apply(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(machine: Any, index: int, command: Any) -> Any:
                if isinstance(command, KvBatch) and command.ops:
                    injected = self._injected.pop(command.batch_id, None)
                    if injected is not None:  # first apply: the leader's
                        now = self.clock()
                        log.wait(commit_wait, injected, now, str(command.batch_id))
                        for item in command.ops:
                            self._applied[item.op_id] = now
                return log.call(apply_nid, None, fn, machine, index, command)
            return call

        self._patch(KVCommandMachine, "apply", kv_apply)
        resolve = log.nid("kv.resolve", CPU)
        ack_wait = log.nid("kv.ack_wait", WAIT)

        def kv_resolve(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(shard: Any, results: Any) -> Any:
                now = self.clock()
                for op_id, _result in results:
                    applied = self._applied.pop(op_id, None)
                    if applied is not None:
                        log.wait(ack_wait, applied, now, op_id)
                return log.call(resolve, None, fn, shard, results)
            return call

        self._patch(KVShard, "_resolve_ops", kv_resolve)

        # read path: lease checks and probe rounds
        def lease_valid(fn: Callable[..., Any]) -> Callable[..., Any]:
            def call(ledger: Any, real: float) -> bool:
                valid = fn(ledger, real)
                counters["reads.lease_checks"] += 1
                counters["reads.lease_hits"] += bool(valid)
                return valid
            return call

        self._patch(ReadLedger, "lease_valid", lease_valid)
        self._patch(ReadLedger, "begin_round", counted("reads.rounds"))

        # storage: journal appends, barriers, compaction, recovery
        for attr in ("record_append", "record_term"):
            self._patch(RaftStorage, attr, cpu("storage.append"))
        for attr in ("sync", "begin_sync", "notify_durable"):
            self._patch(RaftStorage, attr, cpu("storage.sync"))
        self._patch(RaftStorage, "record_compact", cpu("storage.compact"))
        self._patch(RaftStorage, "__init__", cpu("storage.recover"))

    # -- the event loop -------------------------------------------------

    def on_loop(self, loop: Any, runtime: Any) -> Callable[[], None]:
        """Count the loop's ``call_soon``/``call_at`` and read its clock."""
        counters = self.log.counters
        self.clock = runtime.now
        call_soon, call_at = loop.call_soon, loop.call_at

        def counted_soon(*args: Any, **kwargs: Any) -> Any:
            counters["loop.call_soon"] += 1
            return call_soon(*args, **kwargs)

        def counted_at(*args: Any, **kwargs: Any) -> Any:
            counters["loop.call_at"] += 1
            return call_at(*args, **kwargs)

        loop.call_soon, loop.call_at = counted_soon, counted_at

        def undo() -> None:
            del loop.call_soon, loop.call_at

        return undo

    # -- observer protocol ----------------------------------------------

    def watch_server(self, server: KVServer) -> None:
        self.servers.append(server)
        leader = self.log.nid("engine.leader", EVENT)
        cluster = id(server.cluster)

        def listener(event: Any) -> None:
            if event.kind == tr.ANNOTATE and event.detail[0] == "leader":
                term = event.detail[1][0]
                self.log.event(leader, self.clock(), f"{cluster}:{term}")

        for shard in server.shards:
            shard.runtime.trace.subscribe(listener)

    def _snapshot(self) -> Dict[str, float]:
        counts: Dict[str, float] = dict(self.log.counters)
        for server in self.servers:
            stats = server.transport.stats
            counts["transport.frames"] = counts.get("transport.frames", 0) + stats.sent
            counts["transport.writes"] = counts.get("transport.writes", 0) + stats.writes
            for shard in server.shards:
                storage = shard.storage
                if storage is None:
                    continue
                for name, value in (
                    ("storage.fsyncs", storage.stats.syncs),
                    ("storage.wal_bytes", storage.stats.bytes_written),
                    ("storage.compactions", storage.compactions),
                ):
                    counts[name] = counts.get(name, 0) + value
        return counts

    def window_edge(self, opening: bool) -> None:
        if opening:
            self._open_counts = self._snapshot()
            self.windows.append([time.perf_counter(), 0.0, self.clock(), 0.0])
            return
        self.windows[-1][1] = time.perf_counter()
        self.windows[-1][3] = self.clock()
        for name, value in self._snapshot().items():
            self.window_counts[name] += value - self._open_counts.get(name, 0)

    def mark(self, name: str) -> None:
        """Note the wall-clock instant of a run phase (``power_fail``)."""
        self.marks[name] = time.perf_counter()

    def max_terms(self) -> Dict[str, int]:
        """Highest term any server of each cluster reached."""
        terms: Dict[str, int] = {}
        for server in self.servers:
            key = str(id(server.cluster))
            terms[key] = max(terms.get(key, 0), server.node.current_term)
        return terms

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        meta = dict(meta, windows=self.windows, marks=self.marks,
                    max_terms=self.max_terms())
        self.log.write(path, meta, dict(self.window_counts))


# ----------------------------------------------------------------------
# Reading a span file back: the per-layer table
# ----------------------------------------------------------------------


def _p(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _within(t: float, starts: List[float], windows: List[List[float]]) -> bool:
    """Whether ``t`` falls in one of ``windows`` (sorted ``[a, b]`` pairs)."""
    i = bisect.bisect_right(starts, t) - 1
    return i >= 0 and t <= windows[i][1]


def layer_table(path: str) -> Dict[str, float]:
    """The per-layer metrics of one traced run, from its span file only."""
    with open(path) as f:
        if f.readline().rstrip("\n") != HEADER:
            raise ValueError(f"{path} is not a span file")
        meta = json.loads(f.readline()[len("# meta "):])
        counts = Counter(json.loads(f.readline()[len("# counters "):]))
        names = json.loads(f.readline()[len("# names "):])
        f.readline()
        rows = [line.rstrip("\n").split("\t") for line in f]

    walls = [w[:2] for w in meta["windows"]]
    clocks = [w[2:] for w in meta["windows"]]
    wall_starts = [w[0] for w in walls]
    clock_starts = [w[0] for w in clocks]
    ops = meta["ops"]
    n = len(rows)
    parent = [int(r[1]) for r in rows]
    name = [names[int(r[2])][0] for r in rows]
    kind = [names[int(r[2])][1] for r in rows]
    start = [float(r[3]) for r in rows]
    end = [float(r[4]) for r in rows]
    op = [r[5] for r in rows]

    children = [0.0] * n
    for i in range(n):
        if kind[i] == CPU and parent[i] >= 0:
            children[parent[i]] += end[i] - start[i]
    self_s: Counter = Counter()
    calls: Counter = Counter()
    longest: Counter = Counter()
    waits: Dict[str, List[float]] = {}
    leaders: Dict[str, List[Tuple[float, int]]] = {}
    for i in range(n):
        if kind[i] == CPU:
            if name[i] == "storage.recover":
                if start[i] >= meta["marks"].get("power_fail", math.inf):
                    longest[name[i]] = max(longest[name[i]], end[i] - start[i])
                continue
            if not _within(start[i], wall_starts, walls):
                continue
            self_s[name[i]] += end[i] - start[i] - children[i]
            calls[name[i]] += 1
            longest[name[i]] = max(longest[name[i]], end[i] - start[i])
        elif kind[i] == WAIT:
            if _within(start[i], clock_starts, clocks):
                waits.setdefault(name[i], []).append(end[i] - start[i])
        else:
            cluster, term = op[i].split(":")
            leaders.setdefault(cluster, []).append((start[i], int(term)))

    def per_op(total: float, scale: float = 1.0) -> float:
        return total * scale / ops if ops else 0.0

    def layer_self(prefix: str) -> float:
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    # Elections: terms each leader kill took to elect a successor (the
    # first leader of a higher term after the kill; episodes run one
    # cluster at a time), and terms of any cluster that had no leader.
    elected = sorted(e for events in leaders.values() for e in events)
    kill_terms = []
    for killed_at, _pid, term in meta["kills"]:
        successor = next(
            (t for at, t in elected if at > killed_at and t > term), None
        )
        if successor is not None:
            kill_terms.append(successor - term)
    leaderless = sum(
        max_term - len({t for _at, t in leaders.get(c, [])})
        for c, max_term in meta["max_terms"].items()
    )

    cpu_ms = per_op(meta["cpu_s"], 1e3)
    selfs = {layer: per_op(layer_self(layer), 1e3) for layer in LAYER_PREFIXES}
    return {
        "client.requests_per_op": per_op(counts["client.requests"]),
        "client.self_ms_per_op": selfs["client"],
        "wire.encodes_per_op": per_op(calls["wire.encode"]),
        "wire.decodes_per_op": per_op(calls["wire.decode"]),
        "wire.self_ms_per_op": selfs["wire"],
        "wire.bytes_per_op": per_op(counts["wire.bytes"]),
        "transport.msgs_per_op": per_op(calls["transport.send"]),
        "transport.frames_per_write": (
            counts["transport.frames"] / counts["transport.writes"]
            if counts["transport.writes"] else 0.0
        ),
        "transport.self_ms_per_op": selfs["transport"],
        "loop.callbacks_per_op": per_op(counts["loop.call_soon"]),
        "loop.timers_per_op": per_op(counts["loop.call_at"]),
        "runtime.injects_per_op": per_op(counts["runtime.inject"]),
        "loop.other_ms_per_op": cpu_ms - sum(selfs.values()),
        "engine.self_ms_per_op": per_op(self_s["engine.step"], 1e3),
        "engine.dedup_scan_ms_per_op": per_op(self_s["engine.dedup_scan"], 1e3),
        "engine.commit_wait_ms_p50": _p(waits.get("engine.commit_wait", []), 0.5) * 1e3,
        "engine.terms_per_kill": (
            sum(kill_terms) / len(kill_terms) if kill_terms else 0.0
        ),
        "engine.leaderless_terms": float(leaderless),
        "kv.self_ms_per_op": per_op(
            self_s["kv.step"] + self_s["kv.enqueue"] + self_s["kv.resolve"], 1e3
        ),
        "kv.batch_wait_ms_p50": _p(waits.get("kv.batch_wait", []), 0.5) * 1e3,
        "kv.ops_per_batch": (
            counts["kv.batched_ops"] / counts["kv.batches"]
            if counts["kv.batches"] else 0.0
        ),
        "kv.apply_us_per_op": per_op(self_s["kv.apply"], 1e6),
        "kv.ack_wait_ms_p50": _p(waits.get("kv.ack_wait", []), 0.5) * 1e3,
        "reads.lease_hit_ratio": (
            counts["reads.lease_hits"] / counts["reads.lease_checks"]
            if counts["reads.lease_checks"] else 0.0
        ),
        "reads.probe_rounds_per_read": (
            counts["reads.rounds"] / meta["gets"] if meta["gets"] else 0.0
        ),
        "storage.self_ms_per_op": selfs["storage"],
        "storage.fsyncs_per_op": per_op(counts["storage.fsyncs"]),
        "storage.append_us_per_op": per_op(self_s["storage.append"], 1e6),
        "storage.wal_bytes_per_user_byte": (
            counts["storage.wal_bytes"] / meta["user_bytes"]
            if meta["user_bytes"] else 0.0
        ),
        "storage.compactions": float(counts["storage.compactions"]),
        "storage.compact_max_ms": longest["storage.compact"] * 1e3,
        "storage.recover_ms": longest["storage.recover"] * 1e3,
        "gen.late_p99_ms": _p(meta["late"], 0.99) * 1e3,
        "trace.cpu_ms_per_op": cpu_ms,
        "trace.overhead_ratio": (
            cpu_ms / meta["untraced_cpu_ms_per_op"]
            if meta["untraced_cpu_ms_per_op"] else 0.0
        ),
    }
