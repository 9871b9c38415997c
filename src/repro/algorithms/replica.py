"""Ballot-stream replication: the shared mixer under Multi-Paxos and CT.

The source paper's claim is that consensus decomposes into a *detector*
(who may lead?) and a *mixer* (how does a leader drive agreement?).  The
live Raft backend keeps its own fused implementation
(:mod:`repro.algorithms.raft.node`); this module is the decomposition made
structural for the other two engines: :class:`BallotReplicaNode` is one
replicated-log mixer — classic Multi-Paxos phase structure over totally
ordered ballots — and the subclasses supply only the *reconciliator*, the
piece that decides when a node campaigns for leadership:

* :class:`~repro.algorithms.multi_paxos.node.MultiPaxosNode` campaigns on
  a randomized retry timer (leader silence, Raft-style timeouts);
* :class:`~repro.algorithms.chandra_toueg.replicated.CtReplicatedNode`
  campaigns when a live Ω/◇S failure detector
  (:mod:`repro.live.detector`) elects it.

Protocol (per ballot ``b``, totally ordered ints, see :func:`make_ballot`):

1. **Prepare** ``(b, from_index)`` — the campaigner asks everyone to
   promise ``b`` and report their accepted suffix from ``from_index``
   (entries are ballot-tagged; a compacted voter reports its snapshot).
2. **Promise** — granted iff ``b >= promised``; carries the suffix.  On a
   majority the campaigner *merges*: per slot it keeps the value accepted
   under the highest ballot (the Paxos value-choice rule, slot-wise), so
   every possibly-committed slot survives, then re-tags the uncommitted
   suffix under ``b`` and becomes leader.
3. **Chain** ``(b, prev_index, prev_ballot, entries, commit)`` — the
   leader streams its log as deltas with per-follower ``next/sent``
   cursors (the same pipelined-delta scheme as the Raft backend, with ack
   coalescing); acceptors accept iff ``b >= promised``.  A slot commits
   once a majority acks it under ``b``; commit order is log order.
4. Lagging followers whose needed suffix was compacted are repaired with
   a **Snapshot** message.

Safety is the standard Multi-Paxos argument: promises and commits both
need majorities, so a new leader's promise set intersects every commit's
accept set and the per-slot highest-ballot merge re-proposes every
committed value unchanged.  The two engines share every line of this
logic — the measured difference between them (benchmark E17) is therefore
exactly the cost of their detectors, which is the decomposed-overhead
question the paper poses.

Each subclass speaks its own message family (class attributes below), so
wire frames stay self-describing: a Multi-Paxos frame arriving at a CT
node (a misconfigured mixed cluster) is recognizably foreign and the
live engine seam fails loudly instead of half-interoperating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type

from repro.algorithms.raft.log import Entry, RaftLog
from repro.algorithms.raft.messages import ClientPropose
from repro.algorithms.raft.node import FOLLOWER, LEADER
from repro.algorithms.raft.state_machine import (
    DecideAndStop,
    DecideStateMachine,
    StateMachine,
)
from repro.algorithms.readpath import (
    ReadBarrier,
    ReadConfig,
    ReadFresh,
    ReadLedger,
    ReadProbe,
    ReadProbeAck,
)
from repro.core.confidence import ADOPT, COMMIT, VACILLATE
from repro.sim.messages import Pid
from repro.sim.ops import (
    Annotate,
    Decide,
    Receive,
    Send,
    TimerFired,
)
from repro.sim.process import Process, ProcessAPI, ProtocolGenerator

#: Node states.  ``FOLLOWER``/``LEADER`` are the *same objects* as the
#: Raft backend's (imported above), so engine-generic code can compare
#: any node's ``state`` by identity; ``PREPARING`` is the ballot world's
#: candidate phase.
PREPARING = "preparing"

#: Ballot encoding stride: ``ballot = counter * BALLOT_STRIDE + pid``.
#: Encoded ballots are plain ints — totally ordered, WAL-journallable in
#: the existing ``WalTerm``/``WalEntry`` frames, and cheap to compare on
#: the hot path.  Cluster sizes must stay below the stride (enforced by
#: ``MAX_SHARDS``-scale deployments by orders of magnitude).
BALLOT_STRIDE = 4096


def make_ballot(counter: int, pid: Pid) -> int:
    """Encode ``(counter, pid)`` as one totally ordered int."""
    return counter * BALLOT_STRIDE + pid


def ballot_counter(ballot: int) -> int:
    return ballot // BALLOT_STRIDE


def ballot_owner(ballot: int) -> Pid:
    """The pid that opened this ballot."""
    return ballot % BALLOT_STRIDE


@dataclass(frozen=True)
class Noop:
    """A gap-filling no-op command (applies as nothing in KV machines)."""

    reason: str = "gap"


class BallotReplicaNode(Process):
    """Replicated-log consensus over totally ordered ballots.

    Abstract over the *reconciliator*: subclasses implement
    :meth:`_on_boot` (arm their campaign trigger), :meth:`_on_timer`
    (drive it), optionally :meth:`_on_other` (extra message kinds, e.g.
    failure-detector heartbeats), and the hooks noted below.  Everything
    about replication, commit and recovery is shared.

    Args:
        heartbeat_interval: period of the leader's empty Chain broadcasts
            (commit-index propagation and, for Multi-Paxos, the leader
            liveness signal).
        state_machine_factory: builds the node's state machine.
        snapshot_threshold: compact the log once the applied prefix
            beyond the last snapshot reaches this many entries.
        cluster_size: number of members (pids ``0..cluster_size-1``);
            defaults to every process in the run.
        propose_on_leadership: consensus mode — a fresh leader proposes
            ``DecideAndStop(init_value)``, so the cluster decides one
            value and the run terminates (the sim harness); off for
            replicated-log service use.

    Durable attributes (survive crash/restart, interceptable by storage
    bindings): ``promised``, ``log``, ``machine_snapshot``.
    """

    #: Subclasses bind their wire-message family here.
    PREPARE_CLS: Type[Any]
    PROMISE_CLS: Type[Any]
    PREPARE_NACK_CLS: Type[Any]
    CHAIN_CLS: Type[Any]
    CHAIN_ACK_CLS: Type[Any]
    SNAPSHOT_CLS: Type[Any]
    SNAPSHOT_ACK_CLS: Type[Any]

    #: Re-ack at least every this-many suppressed redundant heartbeats
    #: (same bounded ack coalescing as the Raft backend).
    ACK_REACK_EVERY = 3

    def __init__(
        self,
        *,
        heartbeat_interval: float = 2.0,
        state_machine_factory: Callable[[], StateMachine] = DecideStateMachine,
        snapshot_threshold: Optional[int] = None,
        cluster_size: Optional[int] = None,
        propose_on_leadership: bool = False,
        read_config: Optional[ReadConfig] = None,
    ):
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if snapshot_threshold is not None and snapshot_threshold < 1:
            raise ValueError("snapshot_threshold must be >= 1")
        if cluster_size is not None and cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        self.heartbeat_interval = heartbeat_interval
        self.snapshot_threshold = snapshot_threshold
        self.cluster_size = cluster_size
        self.propose_on_leadership = propose_on_leadership
        # Durable state — survives crash/restart (see storage bindings).
        self.promised = 0  # highest ballot promised (0 = none yet)
        self.log = RaftLog()  # entries ballot-tagged via Entry.term
        self.machine_snapshot: Any = None
        # Volatile state — reset by run().
        self.machine = state_machine_factory()
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint: Optional[Pid] = None
        self.ballot = 0  # the ballot I campaign under / lead with
        self.next_index: Dict[Pid, int] = {}
        self.match_index: Dict[Pid, int] = {}
        self.sent_index: Dict[Pid, int] = {}
        self._promises: Dict[Pid, Any] = {}
        self._prepare_from = 1
        self._max_ballot_seen = 0
        self._decided = False
        self._last_ack: Optional[Tuple[int, Pid, int, int]] = None
        self._ack_skips = 0
        #: Fast-read-path state (ReadIndex rounds, lease stickiness,
        #: follower freshness) — the exact same ledger the Raft backend
        #: carries, keyed by ballot instead of term.  Inert unless a
        #: lease duration is configured or a ReadBarrier is injected.
        self.reads = ReadLedger(read_config)

    # ------------------------------------------------------------------
    # Compatibility surface (the live engine seam reads these)
    # ------------------------------------------------------------------

    @property
    def current_term(self) -> int:
        """Ballot engines report their promised ballot as the "term"."""
        return self.promised

    # ------------------------------------------------------------------
    # Subclass hooks (the reconciliator seam)
    # ------------------------------------------------------------------

    def _on_boot(self, api: ProcessAPI) -> ProtocolGenerator:
        """Arm the campaign trigger; runs once when the node starts."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        """Handle a timer; must dispatch ``heartbeat`` to
        :meth:`_on_heartbeat_timer` and drive the campaign trigger."""
        raise NotImplementedError
        yield  # pragma: no cover

    def _on_other(self, api: ProcessAPI, payload: Any, src: Pid) -> ProtocolGenerator:
        """Hook for extra message kinds (failure-detector traffic)."""
        return
        yield  # pragma: no cover

    def _on_leader_contact(self, api: ProcessAPI, leader: Pid) -> ProtocolGenerator:
        """Called when a chain/snapshot from a live leader arrives."""
        return
        yield  # pragma: no cover

    def _on_leadership(self, api: ProcessAPI) -> ProtocolGenerator:
        """Called once on winning a campaign (arm heartbeat timers)."""
        return
        yield  # pragma: no cover

    def _on_campaign_failed(self, api: ProcessAPI) -> ProtocolGenerator:
        """Called when a campaign is nacked (re-arm the trigger)."""
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # Main event loop
    # ------------------------------------------------------------------

    def run(self, api: ProcessAPI) -> ProtocolGenerator:
        self.machine.reset()
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.leader_hint = None
        self.ballot = 0
        self.next_index = {}
        self.match_index = {}
        self.sent_index = {}
        self._promises = {}
        self._max_ballot_seen = self.promised
        self._decided = False
        self._last_ack = None
        self._ack_skips = 0
        self.reads.reset()
        if self.log.snapshot_index > 0:
            self.machine.restore(self.machine_snapshot)
            self.commit_index = self.log.snapshot_index
            self.last_applied = self.log.snapshot_index
            yield from self._report_decision(api)
        yield from self._on_boot(api)
        while True:
            envelopes = yield Receive(count=1)
            payload = envelopes[0].payload
            src = envelopes[0].src
            if isinstance(payload, TimerFired):
                yield from self._on_timer(api, payload)
            elif isinstance(payload, self.CHAIN_CLS):
                yield from self._on_chain(api, payload)
            elif isinstance(payload, self.CHAIN_ACK_CLS):
                yield from self._on_chain_ack(api, payload)
            elif isinstance(payload, self.PREPARE_CLS):
                yield from self._on_prepare(api, payload)
            elif isinstance(payload, self.PROMISE_CLS):
                yield from self._on_promise(api, payload)
            elif isinstance(payload, self.PREPARE_NACK_CLS):
                yield from self._on_prepare_nack(api, payload)
            elif isinstance(payload, self.SNAPSHOT_CLS):
                yield from self._on_snapshot(api, payload)
            elif isinstance(payload, self.SNAPSHOT_ACK_CLS):
                yield from self._on_snapshot_ack(api, payload)
            elif isinstance(payload, ClientPropose):
                yield from self._on_client_propose(api, payload)
            elif isinstance(payload, ReadBarrier):
                yield from self._on_read_barrier(api, payload)
            elif isinstance(payload, ReadProbe):
                yield from self._on_read_probe(api, payload)
            elif isinstance(payload, ReadProbeAck):
                yield from self._on_read_probe_ack(api, payload)
            elif isinstance(payload, ReadFresh):
                yield from self._on_read_fresh(api, payload)
            else:
                yield from self._on_other(api, payload, src)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _members(self, api: ProcessAPI) -> range:
        return range(self.cluster_size if self.cluster_size is not None else api.n)

    def _majority(self, api: ProcessAPI) -> int:
        return len(self._members(api)) // 2 + 1

    def _observe(self, ballot: int) -> None:
        if ballot > self._max_ballot_seen:
            self._max_ballot_seen = ballot

    # ------------------------------------------------------------------
    # Campaigning (phase 1)
    # ------------------------------------------------------------------

    def _start_campaign(self, api: ProcessAPI) -> ProtocolGenerator:
        """Open a fresh ballot above everything seen and solicit promises."""
        counter = ballot_counter(max(self.promised, self._max_ballot_seen)) + 1
        ballot = make_ballot(counter, api.pid)
        self.ballot = ballot
        self.state = PREPARING
        self.promised = ballot  # self-promise, durable before any reply
        self.leader_hint = None
        self._prepare_from = self.commit_index + 1
        self._promises = {api.pid: self._local_promise(api, self._prepare_from)}
        value = self._current_value(api)
        yield Annotate("vac", (ballot, VACILLATE, value))
        yield Annotate("reconciled", (ballot, value))
        if len(self._promises) >= self._majority(api):
            yield from self._become_leader(api)
            return
        for pid in self._members(api):
            if pid != api.pid:
                yield Send(
                    pid, self.PREPARE_CLS(ballot, self._prepare_from, api.pid)
                )

    def _local_promise(self, api: ProcessAPI, from_index: int) -> Any:
        """This node's own suffix report, in the Promise wire shape."""
        return self._make_promise(self.ballot, api.pid, from_index)

    def _make_promise(self, ballot: int, voter: Pid, from_index: int) -> Any:
        snap_index = snap_ballot = 0
        machine_state = None
        if self.log.snapshot_index >= from_index:
            snap_index = self.log.snapshot_index
            snap_ballot = self.log.snapshot_term
            machine_state = self.machine_snapshot
        start = max(from_index, self.log.snapshot_index + 1)
        entries: Tuple[Entry, ...] = ()
        if start <= self.log.last_index:
            entries = self.log.entries_from(start)
        return self.PROMISE_CLS(
            ballot, voter, snap_index, snap_ballot, machine_state, start, entries
        )

    def _on_prepare(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.ballot)
        # Lease stickiness: within ``lease_duration`` of hearing from the
        # current leader, refuse challengers *without promising their
        # ballot* — the nack sends our unchanged ``promised``, so the
        # campaigner backs off exactly as on an ordinary lost campaign.
        # This is the Paxos/CT face of the same follower guarantee the
        # Raft backend enforces in its vote handler, and it is what makes
        # the leader's lease (round start + lease_duration) sound.
        if self.reads.sticky(api.now) and msg.sender != self.leader_hint:
            yield Send(
                msg.sender, self.PREPARE_NACK_CLS(msg.ballot, self.promised, api.pid)
            )
            return
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.reads.drop_rounds()
            if self.state is not FOLLOWER and msg.ballot != self.ballot:
                self.state = FOLLOWER
            self.leader_hint = None  # a campaign is in progress
            yield from self._on_campaign_observed(api, msg.sender)
            yield Send(
                msg.sender, self._make_promise(msg.ballot, api.pid, msg.from_index)
            )
        else:
            yield Send(
                msg.sender, self.PREPARE_NACK_CLS(msg.ballot, self.promised, api.pid)
            )

    def _on_campaign_observed(self, api: ProcessAPI, sender: Pid) -> ProtocolGenerator:
        """Hook: a valid higher-ballot campaign by ``sender`` was granted
        a promise (subclasses reset their own campaign triggers here)."""
        return
        yield  # pragma: no cover

    def _on_promise(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.ballot)
        if self.state is not PREPARING or msg.ballot != self.ballot:
            return
        self._promises[msg.voter] = msg
        if len(self._promises) < self._majority(api):
            return
        yield from self._become_leader(api)

    def _on_prepare_nack(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.promised)
        if self.state is PREPARING and msg.ballot == self.ballot:
            self.state = FOLLOWER
            self._promises = {}
            yield from self._on_campaign_failed(api)

    # ------------------------------------------------------------------
    # Winning: merge promised suffixes, re-tag, start streaming
    # ------------------------------------------------------------------

    def _become_leader(self, api: ProcessAPI) -> ProtocolGenerator:
        self._merge_promises(api)
        self.state = LEADER
        self.leader_hint = api.pid
        self.next_index = {
            pid: self.log.last_index + 1
            for pid in self._members(api)
            if pid != api.pid
        }
        self.match_index = {
            pid: 0 for pid in self._members(api) if pid != api.pid
        }
        self.sent_index = {pid: i - 1 for pid, i in self.next_index.items()}
        value = self._current_value(api)
        if self.propose_on_leadership:
            self.log.append_new(Entry(self.ballot, DecideAndStop(value)))
        yield Annotate("vac", (self.ballot, ADOPT, value))
        yield Annotate("leader", (self.ballot, api.pid))
        yield from self._on_leadership(api)
        yield from self._broadcast_chains(api)
        yield from self._advance_commit(api)  # n == 1: commit immediately

    def _merge_promises(self, api: ProcessAPI) -> None:
        """Adopt the freshest state a majority reported.

        Snapshot rule: if any voter compacted past our commit index, its
        snapshot embeds committed effects our entries below that point
        might miss — install the highest such snapshot first.  Entry
        rule: per slot, keep the value accepted under the highest ballot
        (our own log included), then re-tag everything uncommitted under
        the new ballot so the commit rule can count it directly.
        """
        best_snap = None
        for promise in self._promises.values():
            if promise.snapshot_index > 0 and (
                best_snap is None
                or promise.snapshot_index > best_snap.snapshot_index
            ):
                best_snap = promise
        if best_snap is not None and best_snap.snapshot_index > max(
            self.commit_index, self.log.snapshot_index
        ):
            self.machine_snapshot = best_snap.machine_state
            self.log.install_snapshot(
                best_snap.snapshot_index, best_snap.snapshot_ballot
            )
            self.machine.restore(best_snap.machine_state)
            self.commit_index = max(self.commit_index, best_snap.snapshot_index)
            self.last_applied = max(self.last_applied, best_snap.snapshot_index)
        # Per-slot highest-ballot choice over every reported suffix.
        merged: Dict[int, Entry] = {}
        for promise in self._promises.values():
            for offset, entry in enumerate(promise.entries):
                index = promise.from_index + offset
                if index <= self.log.snapshot_index:
                    continue
                kept = merged.get(index)
                if kept is None or entry.term > kept.term:
                    merged[index] = entry
        floor = self.log.snapshot_index
        for index in sorted(merged):
            if index <= floor:
                continue
            entry = merged[index]
            if index <= self.log.last_index:
                if self.log.term_at(index) >= entry.term:
                    continue  # local acceptance is at least as fresh
            elif index > self.log.last_index + 1:
                # A reported suffix started above our end: the gap can
                # only cover committed-elsewhere slots we missed; fill
                # with no-ops so log order stays dense (they commit and
                # apply as nothing).
                for gap in range(self.log.last_index + 1, index):
                    if gap not in merged:
                        self.log.append_new(Entry(self.ballot, Noop()))
            prev = index - 1
            self.log.try_append(prev, self.log.term_at(prev), (entry,))
        # Re-tag the uncommitted suffix under the winning ballot (the
        # Multi-Paxos re-proposal): committed entries keep their tags.
        start = max(self.commit_index, self.log.snapshot_index) + 1
        for index in range(start, self.log.last_index + 1):
            entry = self.log.entry_at(index)
            if entry.term != self.ballot:
                prev = index - 1
                self.log.try_append(
                    prev,
                    self.log.term_at(prev),
                    tuple(
                        Entry(self.ballot, e.command)
                        for e in self.log.entries_from(index)
                    ),
                )
                break
        self._promises = {}

    # ------------------------------------------------------------------
    # Chain streaming (phase 2) — delta replication with cursors
    # ------------------------------------------------------------------

    def _broadcast_chains(self, api: ProcessAPI) -> ProtocolGenerator:
        for pid in self._members(api):
            if pid != api.pid:
                yield from self._send_chain(api, pid)

    def _heartbeat_chains(self, api: ProcessAPI) -> ProtocolGenerator:
        """The leader's periodic empty chain (commit propagation)."""
        if self.state is LEADER:
            yield from self._broadcast_chains(api)

    def _send_chain(self, api: ProcessAPI, dst: Pid) -> ProtocolGenerator:
        start = self.next_index[dst]
        sent = self.sent_index.get(dst, start - 1)
        if sent + 1 > start:
            start = sent + 1
        prev_index = start - 1
        if prev_index < self.log.snapshot_index:
            yield Send(
                dst,
                self.SNAPSHOT_CLS(
                    self.ballot,
                    api.pid,
                    self.log.snapshot_index,
                    self.log.snapshot_term,
                    self.machine_snapshot,
                ),
            )
            self.sent_index[dst] = self.log.snapshot_index
            return
        yield Send(
            dst,
            self.CHAIN_CLS(
                self.ballot,
                api.pid,
                prev_index,
                self.log.term_at(prev_index),
                self.log.entries_from(start),
                self.commit_index,
            ),
        )
        self.sent_index[dst] = self.log.last_index

    def _on_chain(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.ballot)
        if msg.ballot < self.promised:
            yield Send(
                msg.sender,
                self.CHAIN_ACK_CLS(self.promised, False, api.pid, 0),
            )
            return
        self.promised = msg.ballot
        if self.state is not FOLLOWER:
            self.state = FOLLOWER
        self.leader_hint = msg.sender
        self.reads.note_leader_contact(api.now)
        yield from self._on_leader_contact(api, msg.sender)
        ok = self.log.try_append(msg.prev_index, msg.prev_ballot, msg.entries)
        if not ok:
            yield Send(
                msg.sender,
                self.CHAIN_ACK_CLS(msg.ballot, False, api.pid, 0),
            )
            return
        match = msg.prev_index + len(msg.entries)
        if msg.entries:
            last = msg.entries[-1]
            if isinstance(last.command, DecideAndStop):
                yield Annotate("vac", (msg.ballot, ADOPT, last.command.value))
        if msg.commit_index > self.commit_index:
            self.commit_index = max(
                self.commit_index, min(msg.commit_index, match)
            )
            yield from self._apply_committed(api)
        ack = (self.promised, msg.sender, match, self.commit_index)
        if (
            not msg.entries
            and ack == self._last_ack
            and self._ack_skips < self.ACK_REACK_EVERY
        ):
            self._ack_skips += 1
            return
        self._last_ack = ack
        self._ack_skips = 0
        yield Send(
            msg.sender, self.CHAIN_ACK_CLS(msg.ballot, True, api.pid, match)
        )

    def _on_chain_ack(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.ballot)
        if msg.ballot > self.promised:
            # A follower promised someone newer: stop leading.
            self.promised = msg.ballot
            self.reads.drop_rounds()
            if self.state is not FOLLOWER:
                self.state = FOLLOWER
                yield from self._on_campaign_failed(api)
            return
        if self.state is not LEADER or msg.ballot != self.ballot:
            return
        follower = msg.voter
        if msg.success:
            match = max(self.match_index.get(follower, 0), msg.match_index)
            self.match_index[follower] = match
            self.next_index[follower] = match + 1
            if self.sent_index.get(follower, 0) < match:
                self.sent_index[follower] = match
            yield from self._advance_commit(api)
            if self.sent_index.get(follower, 0) < self.log.last_index:
                yield from self._send_chain(api, follower)
        else:
            self.next_index[follower] = max(1, self.next_index[follower] - 1)
            self.sent_index[follower] = self.next_index[follower] - 1
            yield from self._send_chain(api, follower)

    # ------------------------------------------------------------------
    # Commit & apply
    # ------------------------------------------------------------------

    def _advance_commit(self, api: ProcessAPI) -> ProtocolGenerator:
        advanced = False
        for candidate in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(candidate) != self.ballot:
                break  # older-ballot entries commit only transitively
            replicas = 1 + sum(
                1 for index in self.match_index.values() if index >= candidate
            )
            if replicas >= self._majority(api):
                self.commit_index = candidate
                advanced = True
                break
        if advanced:
            yield from self._apply_committed(api)
            yield from self._broadcast_chains(api)

    def _apply_committed(self, api: ProcessAPI) -> ProtocolGenerator:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            if not isinstance(entry.command, Noop):
                self.machine.apply(self.last_applied, entry.command)
            yield Annotate(
                "applied", (self.last_applied, entry.term, entry.command)
            )
            yield from self._report_decision(api)
        yield from self._maybe_compact(api)

    def _report_decision(self, api: ProcessAPI) -> ProtocolGenerator:
        if (
            isinstance(self.machine, DecideStateMachine)
            and self.machine.decision is not None
            and not self._decided
        ):
            self._decided = True
            yield Annotate("vac", (self.promised, COMMIT, self.machine.decision))
            yield Decide(self.machine.decision)

    # ------------------------------------------------------------------
    # Compaction & snapshot repair
    # ------------------------------------------------------------------

    def _maybe_compact(self, api: ProcessAPI) -> ProtocolGenerator:
        if self.snapshot_threshold is None:
            return
        if self.last_applied - self.log.snapshot_index < self.snapshot_threshold:
            return
        self.machine_snapshot = self.machine.snapshot()
        self.log.compact_to(self.last_applied)
        yield Annotate(
            "compacted", (self.log.snapshot_index, self.log.snapshot_term)
        )

    def _on_snapshot(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.ballot)
        if msg.ballot < self.promised:
            yield Send(
                msg.sender, self.SNAPSHOT_ACK_CLS(self.promised, api.pid, 0)
            )
            return
        self.promised = msg.ballot
        if self.state is not FOLLOWER:
            self.state = FOLLOWER
        self.leader_hint = msg.sender
        self.reads.note_leader_contact(api.now)
        yield from self._on_leader_contact(api, msg.sender)
        if msg.last_included_index > self.log.snapshot_index:
            self.machine_snapshot = msg.machine_state
            self.log.install_snapshot(
                msg.last_included_index, msg.last_included_ballot
            )
            self.machine.restore(msg.machine_state)
            self.commit_index = max(self.commit_index, msg.last_included_index)
            self.last_applied = max(self.last_applied, msg.last_included_index)
            yield Annotate(
                "snapshot_installed",
                (msg.last_included_index, msg.last_included_ballot),
            )
            yield from self._report_decision(api)
        yield Send(
            msg.sender,
            self.SNAPSHOT_ACK_CLS(msg.ballot, api.pid, msg.last_included_index),
        )

    def _on_snapshot_ack(self, api: ProcessAPI, msg: Any) -> ProtocolGenerator:
        self._observe(msg.ballot)
        if msg.ballot > self.promised:
            self.promised = msg.ballot
            self.reads.drop_rounds()
            if self.state is not FOLLOWER:
                self.state = FOLLOWER
                yield from self._on_campaign_failed(api)
            return
        if self.state is not LEADER or msg.ballot != self.ballot:
            return
        follower = msg.voter
        if msg.last_included_index > 0:
            self.match_index[follower] = max(
                self.match_index.get(follower, 0), msg.last_included_index
            )
            self.next_index[follower] = self.match_index[follower] + 1
            if self.sent_index.get(follower, 0) < self.match_index[follower]:
                self.sent_index[follower] = self.match_index[follower]
            if self.sent_index.get(follower, 0) < self.log.last_index:
                yield from self._send_chain(api, follower)

    # ------------------------------------------------------------------
    # Fast read path (ReadIndex rounds, leases, follower freshness)
    # ------------------------------------------------------------------

    def _on_read_barrier(self, api: ProcessAPI, msg: ReadBarrier) -> ProtocolGenerator:
        """Locally-injected: start a ReadIndex round at the current
        commit index.  Refused unless we lead *and* have committed an
        entry under our own ballot (the fresh-leader hazard: our commit
        index may still lag a predecessor's)."""
        if self.state is not LEADER or not self.reads.epoch_ready(
            self.log, self.commit_index, self.ballot
        ):
            yield Annotate("read_ready", (msg.barrier_id, -1, False))
            return
        rnd = self.reads.begin_round(
            msg.barrier_id,
            self.ballot,
            self.commit_index,
            api.now,
            self._majority(api),
            api.pid,
        )
        if rnd is not None:  # single-node group: self-ack is a majority
            yield from self._finish_read_round(api, rnd)
            return
        probe = ReadProbe(self.ballot, api.pid, msg.barrier_id)
        for pid in self._members(api):
            if pid != api.pid:
                yield Send(pid, probe)

    def _on_read_probe(self, api: ProcessAPI, msg: ReadProbe) -> ProtocolGenerator:
        """A probe is an empty heartbeat for read purposes: it proves the
        sender's leadership and renews our stickiness window."""
        self._observe(msg.term)
        if msg.term < self.promised:
            yield Send(
                msg.leader_id,
                ReadProbeAck(self.promised, api.pid, msg.probe_id, False),
            )
            return
        self.promised = msg.term
        if self.state is not FOLLOWER and msg.term != self.ballot:
            self.state = FOLLOWER
        self.leader_hint = msg.leader_id
        self.reads.note_leader_contact(api.now)
        yield from self._on_leader_contact(api, msg.leader_id)
        yield Send(
            msg.leader_id,
            ReadProbeAck(msg.term, api.pid, msg.probe_id, True),
        )

    def _on_read_probe_ack(
        self, api: ProcessAPI, msg: ReadProbeAck
    ) -> ProtocolGenerator:
        self._observe(msg.term)
        if msg.term > self.promised:
            self.promised = msg.term
            self.reads.drop_rounds()
            if self.state is not FOLLOWER:
                self.state = FOLLOWER
                yield from self._on_campaign_failed(api)
            return
        if self.state is not LEADER or msg.term != self.ballot or not msg.ok:
            return
        rnd = self.reads.record_ack(msg.probe_id, msg.voter_id, self.ballot)
        if rnd is not None:
            yield from self._finish_read_round(api, rnd)

    def _finish_read_round(self, api: ProcessAPI, rnd: Any) -> ProtocolGenerator:
        """A probe round reached its majority: extend the lease, release
        queued reads, and hand followers a freshness proof — only a live
        leader can complete rounds, so a deposed leader's cohort stops
        getting these the moment it is cut off."""
        self.reads.extend_lease(rnd)
        yield Annotate("read_ready", (rnd.probe_id, rnd.read_index, True))
        fresh = ReadFresh(self.ballot, api.pid, rnd.read_index)
        for pid in self._members(api):
            if pid != api.pid:
                yield Send(pid, fresh)

    def _on_read_fresh(self, api: ProcessAPI, msg: ReadFresh) -> ProtocolGenerator:
        self._observe(msg.term)
        if msg.term < self.promised:
            return
        self.promised = msg.term
        if self.state is not FOLLOWER and msg.term != self.ballot:
            self.state = FOLLOWER
        self.leader_hint = msg.leader_id
        self.reads.note_leader_contact(api.now)
        yield from self._on_leader_contact(api, msg.leader_id)
        if self.last_applied >= msg.read_index:
            self.reads.note_fresh(api.now)

    # ------------------------------------------------------------------
    # Client proposals
    # ------------------------------------------------------------------

    def _on_client_propose(
        self, api: ProcessAPI, msg: ClientPropose
    ) -> ProtocolGenerator:
        if self.state is not LEADER:
            return
        if self.log.contains_command(msg.command):
            return
        self.log.append_new(Entry(self.ballot, msg.command))
        yield from self._broadcast_chains(api)
        yield from self._advance_commit(api)

    # ------------------------------------------------------------------
    # Values (consensus-mode support, mirrors the Raft backend)
    # ------------------------------------------------------------------

    def _current_value(self, api: ProcessAPI) -> Any:
        if self.log.last_index > 0:
            command = self.log.entry_at(self.log.last_index).command
            if isinstance(command, DecideAndStop):
                return command.value
        return api.init_value
