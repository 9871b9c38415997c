"""Multi-Paxos node: the ballot mixer under a randomized-timeout detector.

In the paper's decomposition this backend pairs the shared
:class:`~repro.algorithms.replica.BallotReplicaNode` mixer with the same
*reconciliator* Raft uses — a randomized retry timer, re-armed on every
sign of a live leader — but runs the classic Multi-Paxos phase structure
over it: leadership is won by prepare/promise with suffix merge rather
than by a vote on log freshness.  Functionally this is the difference
Howard & Mortier highlight between the two protocol families; benchmark
E17 measures it under identical load.
"""

from __future__ import annotations

from typing import Tuple

from repro.algorithms.multi_paxos.messages import (
    PaxChain,
    PaxChainAck,
    PaxPrepare,
    PaxPrepareNack,
    PaxPromise,
    PaxSnapshot,
    PaxSnapshotAck,
)
from repro.algorithms.replica import LEADER, BallotReplicaNode
from repro.sim.messages import Pid
from repro.sim.ops import EpochTimer, SetTimer, TimerFired
from repro.sim.process import ProcessAPI, ProtocolGenerator


class MultiPaxosNode(BallotReplicaNode):
    """Replicated-log Multi-Paxos with randomized campaign timeouts.

    Args:
        election_timeout: ``(low, high)`` range for the randomized
            campaign-retry timer.  A node campaigns when it has heard
            nothing from a leader (or a fresher campaigner) for one
            timeout draw — exactly Raft's trigger, so the two engines
            differ only in how leadership is *won*, not when it is
            *sought*.

    ``reconciliator_timer`` is the :class:`~repro.sim.ops.EpochTimer`
    behind that retry timer, as on the Raft node.
    """

    PREPARE_CLS = PaxPrepare
    PROMISE_CLS = PaxPromise
    PREPARE_NACK_CLS = PaxPrepareNack
    CHAIN_CLS = PaxChain
    CHAIN_ACK_CLS = PaxChainAck
    SNAPSHOT_CLS = PaxSnapshot
    SNAPSHOT_ACK_CLS = PaxSnapshotAck

    def __init__(
        self,
        *,
        election_timeout: Tuple[float, float] = (10.0, 20.0),
        **kwargs,
    ):
        low, high = election_timeout
        if not (0 < low <= high):
            raise ValueError("election_timeout must satisfy 0 < low <= high")
        super().__init__(**kwargs)
        self.election_timeout = election_timeout
        self.reconciliator_timer = EpochTimer("retry")

    # ------------------------------------------------------------------
    # The reconciliator: randomized retry timer
    # ------------------------------------------------------------------

    def _arm_retry_timer(self, api: ProcessAPI) -> ProtocolGenerator:
        timeout = api.rng.uniform(*self.election_timeout)
        yield from self.reconciliator_timer.arm(timeout)

    def _on_boot(self, api: ProcessAPI) -> ProtocolGenerator:
        yield from self._arm_retry_timer(api)

    def _on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        if self.reconciliator_timer.is_current(fired):
            if self.state is not LEADER:
                yield from self._arm_retry_timer(api)
                yield from self._start_campaign(api)
        elif fired.name == "heartbeat" and self.state is LEADER:
            yield from self._heartbeat_chains(api)
            yield SetTimer(self.heartbeat_interval, "heartbeat")

    def _on_leadership(self, api: ProcessAPI) -> ProtocolGenerator:
        yield SetTimer(self.heartbeat_interval, "heartbeat")

    def _on_leader_contact(self, api: ProcessAPI, leader: Pid) -> ProtocolGenerator:
        yield from self._arm_retry_timer(api)

    def _on_campaign_observed(self, api: ProcessAPI, sender: Pid) -> ProtocolGenerator:
        # Granting a promise means a fresher campaign is in flight: defer.
        yield from self._arm_retry_timer(api)

    def _on_campaign_failed(self, api: ProcessAPI) -> ProtocolGenerator:
        yield from self._arm_retry_timer(api)
