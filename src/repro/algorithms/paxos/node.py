"""A symmetric Paxos participant: proposer + acceptor + learner in one.

Every node plays all three roles (the standard collapsed configuration):

* **acceptor** — durable ``promised`` / ``accepted`` state, answering
  Prepare with Promise-or-Nack and Accept with Accepted-or-Nack;
* **proposer** — on a randomized retry timer, opens a fresh ballot
  ``(counter, pid)``, collects a majority of promises, proposes the value
  of the highest reported accepted ballot (else its own input), and pushes
  Accepts;
* **learner** — tallies broadcast Accepted messages per ballot and decides
  once any ballot reaches a majority, then gossips ``Decided`` so laggards
  finish without another ballot.

Safety rests on the two classic acceptor rules (never promise backwards,
never accept below the promise) plus the proposer's value-choice rule —
all three are unit-tested directly, and whole-system agreement is checked
under crashes, partitions and dueling-proposer contention.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Optional, Set, Tuple

from repro.algorithms.paxos.messages import (
    Accept,
    Accepted,
    Ballot,
    Decided,
    Nack,
    Prepare,
    Promise,
)
from repro.core.confidence import ADOPT, COMMIT, VACILLATE
from repro.sim.messages import Pid
from repro.sim.ops import (
    Annotate,
    Broadcast,
    Decide,
    EpochTimer,
    Receive,
    Send,
    TimerFired,
)
from repro.sim.process import Process, ProcessAPI, ProtocolGenerator


class PaxosNode(Process):
    """One Paxos process (proposer + acceptor + learner).

    Args:
        retry_timeout: ``(low, high)`` range of the randomized proposal
            retry timer — the reconciliator.  Must comfortably exceed the
            network round-trip for dueling proposers to separate.
        cluster_size: number of Paxos members (pids ``0 ..
            cluster_size - 1``); defaults to all simulated processes.

    Durable attributes (survive crash/restart): ``promised``,
    ``accepted_ballot``, ``accepted_value``, ``max_counter_seen``.
    """

    def __init__(
        self,
        *,
        retry_timeout: Tuple[float, float] = (8.0, 16.0),
        cluster_size: Optional[int] = None,
    ):
        low, high = retry_timeout
        if not 0 < low <= high:
            raise ValueError("retry_timeout must satisfy 0 < low <= high")
        if cluster_size is not None and cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        self.retry_timeout = retry_timeout
        self.cluster_size = cluster_size
        # Durable acceptor state.
        self.promised: Optional[Ballot] = None
        self.accepted_ballot: Optional[Ballot] = None
        self.accepted_value: Any = None
        self.max_counter_seen = 0
        # Volatile state, reset by run().
        self.decision: Any = None
        self._proposing: Optional[Ballot] = None
        self._promises: Dict[Pid, Promise] = {}
        self._accept_tally: Dict[Ballot, Set[Pid]] = {}
        self.reconciliator_timer = EpochTimer("retry")

    # ------------------------------------------------------------------

    def _members(self, api: ProcessAPI) -> range:
        return range(self.cluster_size if self.cluster_size is not None else api.n)

    def _majority(self, api: ProcessAPI) -> int:
        return len(self._members(api)) // 2 + 1

    def run(self, api: ProcessAPI) -> ProtocolGenerator:
        self.decision = None
        self._proposing = None
        self._promises = {}
        self._accept_tally = defaultdict(set)
        yield from self._arm_retry_timer(api)
        while True:
            envelopes = yield Receive(count=1)
            payload = envelopes[0].payload
            src = envelopes[0].src
            if isinstance(payload, TimerFired):
                yield from self._on_timer(api, payload)
            elif isinstance(payload, Prepare):
                yield from self._on_prepare(api, payload, src)
            elif isinstance(payload, Promise):
                yield from self._on_promise(api, payload)
            elif isinstance(payload, Accept):
                yield from self._on_accept(api, payload, src)
            elif isinstance(payload, Accepted):
                yield from self._on_accepted(api, payload)
            elif isinstance(payload, Nack):
                yield from self._on_nack(api, payload)
            elif isinstance(payload, Decided):
                yield from self._learn(api, payload.value, ballot=None)

    # ------------------------------------------------------------------
    # The reconciliator: randomized proposal retries
    # ------------------------------------------------------------------

    def _arm_retry_timer(self, api: ProcessAPI) -> ProtocolGenerator:
        timeout = api.rng.uniform(*self.retry_timeout)
        yield from self.reconciliator_timer.arm(timeout)

    def _on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        if not self.reconciliator_timer.is_current(fired):
            return
        if self.decision is None:
            yield from self._start_ballot(api)
        yield from self._arm_retry_timer(api)

    def _start_ballot(self, api: ProcessAPI) -> ProtocolGenerator:
        self.max_counter_seen += 1
        ballot: Ballot = (self.max_counter_seen, api.pid)
        self._proposing = ballot
        self._promises = {}
        yield Annotate("vac", (ballot, VACILLATE, api.init_value))
        yield Annotate("reconciled", (ballot, api.init_value))
        for pid in self._members(api):
            yield Send(pid, Prepare(ballot))

    # ------------------------------------------------------------------
    # Acceptor role
    # ------------------------------------------------------------------

    def _observe_ballot(self, ballot: Ballot) -> None:
        self.max_counter_seen = max(self.max_counter_seen, ballot[0])

    def _on_prepare(self, api: ProcessAPI, msg: Prepare, src: Pid) -> ProtocolGenerator:
        self._observe_ballot(msg.ballot)
        if self.promised is None or msg.ballot > self.promised:
            self.promised = msg.ballot
            yield Send(
                src,
                Promise(
                    msg.ballot, self.accepted_ballot, self.accepted_value, api.pid
                ),
            )
        else:
            yield Send(src, Nack(msg.ballot, self.promised))

    def _on_accept(self, api: ProcessAPI, msg: Accept, src: Pid) -> ProtocolGenerator:
        self._observe_ballot(msg.ballot)
        if self.promised is None or msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.accepted_ballot = msg.ballot
            self.accepted_value = msg.value
            yield Annotate("vac", (msg.ballot, ADOPT, msg.value))
            yield Broadcast(Accepted(msg.ballot, msg.value, api.pid))
        else:
            yield Send(src, Nack(msg.ballot, self.promised))

    # ------------------------------------------------------------------
    # Proposer role
    # ------------------------------------------------------------------

    def _on_promise(self, api: ProcessAPI, msg: Promise) -> ProtocolGenerator:
        if msg.ballot != self._proposing:
            return
        self._promises[msg.voter] = msg
        if len(self._promises) != self._majority(api):
            return
        # Quorum reached exactly now: fix the ballot's value.
        best: Optional[Promise] = None
        for promise in self._promises.values():
            if promise.accepted_ballot is None:
                continue
            if best is None or promise.accepted_ballot > best.accepted_ballot:
                best = promise
        value = best.accepted_value if best is not None else api.init_value
        yield Annotate("vac", (msg.ballot, ADOPT, value))
        yield Broadcast(Accept(msg.ballot, value), include_self=False)
        # The proposer accepts its own proposal locally (it is an acceptor).
        yield from self._on_accept(api, Accept(msg.ballot, value), api.pid)

    def _on_nack(self, api: ProcessAPI, msg: Nack) -> ProtocolGenerator:
        self._observe_ballot(msg.promised)
        if msg.ballot == self._proposing:
            # Ballot is dead; retreat and let the timer try again later.
            self._proposing = None
            self._promises = {}
            yield from self._arm_retry_timer(api)

    # ------------------------------------------------------------------
    # Learner role
    # ------------------------------------------------------------------

    def _on_accepted(self, api: ProcessAPI, msg: Accepted) -> ProtocolGenerator:
        self._observe_ballot(msg.ballot)
        tally = self._accept_tally[msg.ballot]
        tally.add(msg.voter)
        if len(tally) >= self._majority(api):
            yield from self._learn(api, msg.value, msg.ballot)

    def _learn(
        self, api: ProcessAPI, value: Any, ballot: Optional[Ballot]
    ) -> ProtocolGenerator:
        if self.decision is not None:
            return
        self.decision = value
        if ballot is not None:
            yield Annotate("vac", (ballot, COMMIT, value))
        yield Decide(value)
        yield Broadcast(Decided(value), include_self=False)
