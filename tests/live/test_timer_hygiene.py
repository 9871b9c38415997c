"""Reconciliator timers on a long-running live node.

Every leader contact re-arms a follower's election (Raft) or campaign-
retry (Multi-Paxos) timer under a fresh epoch name.  The re-arm cancels
the superseded timer, so a follower's timer state stays constant no
matter how long the node runs: no superseded timer ever fires, only the
current one is pending, and no per-name map in the runtime grows.

Runs under :class:`~repro.core.runtime.SimRuntime`: 2,000 sequential
puts and 10 s of idle heartbeats are a few seconds of wall time.
"""

import pytest

from repro.core.runtime import SimRuntime
from repro.live import AsyncKVClient, LiveKVCluster
from repro.sim import trace as tr
from repro.sim.ops import TimerFired

PUTS = 2_000
IDLE_S = 10.0


def map_sizes(runtime):
    """Sizes of the runtime's dict and set attributes (its per-name maps)."""
    return {
        name: len(value)
        for name, value in vars(runtime).items()
        if isinstance(value, (dict, set))
    }


def superseded_fire_counter(node, counts, pid):
    """A trace listener counting fires of a non-current reconciliator
    timer.  It runs as the fire is recorded, before the node consumes it,
    so the node's current epoch is the one the fire must carry."""
    prefix = node.reconciliator_timer.prefix + ":"

    def listener(event):
        if event.kind == tr.TIMER and event.detail.startswith(prefix):
            if not node.reconciliator_timer.is_current(TimerFired(event.detail)):
                counts[pid] += 1

    return listener


@pytest.mark.parametrize("engine", ["raft", "paxos"])
def test_followers_keep_constant_timer_state(engine):
    async def scenario():
        cluster = LiveKVCluster(3, seed=5, engine=engine)
        superseded = {pid: 0 for pid in range(3)}
        for server in cluster.servers:
            shard = server.shards[0]
            shard.runtime.trace.subscribe(
                superseded_fire_counter(shard.node, superseded, server.pid)
            )
        await cluster.start()
        client = AsyncKVClient(cluster.cluster)
        try:
            await cluster.wait_for_leader(timeout=15.0)
            for i in range(PUTS // 10):
                await client.put(f"k{i % 50}", f"v{i}")
            warm = {s.pid: map_sizes(s.shards[0].runtime) for s in cluster.servers}
            for i in range(PUTS // 10, PUTS):
                await client.put(f"k{i % 50}", f"v{i}")
            await cluster.rt.sleep(IDLE_S)
            leader = cluster.leader_pid()
            assert leader is not None
            followers = [s for s in cluster.servers if s.pid != leader]
            for server in followers:
                runtime = server.shards[0].runtime
                assert superseded[server.pid] == 0
                assert len(runtime._timer_handles) <= 2
                for name, size in map_sizes(runtime).items():
                    assert size <= max(warm[server.pid][name], 2), name
        finally:
            await client.close()
            await cluster.stop()

    rt = SimRuntime()
    try:
        rt.run(scenario(), timeout=600.0)
    finally:
        rt.close()
