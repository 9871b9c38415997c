"""The complete Raft node (paper Figures 1-2, Algorithms 7-9).

One :class:`RaftNode` is a :class:`~repro.sim.process.Process` for the
asynchronous runtime.  It implements the full protocol:

* three states (follower / candidate / leader) with randomized election
  timers — the paper's reconciliator (Algorithm 11);
* RequestVote with the "candidate's log at least as up-to-date" check and
  one vote per term;
* AppendEntries with the ``prevLogIndex`` / ``prevLogTerm`` consistency
  check, conflict-suffix deletion, and the NextIndex decrement-and-retry
  repair loop (Algorithm 8's false-ack branch);
* *delta replication*: per-follower ``next_index``/``match_index`` cursors
  plus a ``sent_index`` pipeline cursor, so each AppendEntries carries only
  the entries the follower has not already been sent — replication bytes
  are linear in new entries regardless of how many proposals are in
  flight (the Raft paper's nextIndex design, pipelined).  The repair loop
  rewinds ``sent_index`` on rejection, so the optimistic stream always
  restarts from a confirmed point;
* *ack coalescing*: a follower suppresses success replies to empty
  heartbeats that repeat an already-acknowledged ``(term, leader, match,
  commit)`` state — with a bounded backstop (it re-acks at least every
  few suppressions), so a lost ack still cannot stall commit advancement;
* the leader commit rule: advance ``commitIndex`` to ``N`` only when a
  majority matches ``N`` *and* ``log[N].term == currentTerm``;
* heartbeats carrying ``leaderCommit`` (the paper's second-kind
  AppendEntries), sent eagerly when the commit index advances;
* crash/restart: ``currentTerm``, ``votedFor`` and the log live on ``self``
  and survive; commit index, leadership state and timers are volatile and
  rebuilt (the state machine is reset and replayed as entries re-commit).

Consensus via ``D&S`` (Algorithm 7): with ``propose_on_leadership`` a fresh
leader appends ``D&S(v*)`` — ``v*`` being the value in its last log entry,
or its own input for an empty log — and drives it to commitment.  Applying
a ``D&S`` decides.

VAC annotations (Algorithm 10): each node annotates its per-term confidence
transitions — ``vacillate`` when a term starts without leader contact,
``adopt`` when it accepts new entries (or wins the election), ``commit``
when its decision applies — so Lemma 7's coherence can be checked from the
trace by :func:`repro.algorithms.raft.vac.check_raft_vac`.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.algorithms.raft.log import Entry, RaftLog
from repro.algorithms.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    ClientPropose,
    InstallSnapshot,
    InstallSnapshotReply,
    RequestVote,
    RequestVoteReply,
)
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
    Broadcast,
    Decide,
    EpochTimer,
    Receive,
    Send,
    SetTimer,
    TimerFired,
)
from repro.sim.process import Process, ProcessAPI, ProtocolGenerator

#: Node states.
FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


class RaftNode(Process):
    """A full Raft participant.

    Args:
        election_timeout: ``(low, high)`` range the randomized election
            timer is drawn from.  Per the paper's *timing property* this
            must be much larger than the network's broadcast time.
        heartbeat_interval: period of the leader's empty AppendEntries.
        state_machine_factory: builds the node's state machine (default:
            the paper's decide-and-stop machine).
        propose_on_leadership: run Algorithm 7 — a fresh leader appends
            ``D&S(v*)`` immediately.  Disable for pure log-replication
            clusters driven by client proposals.
        snapshot_threshold: when set, compact the log once the applied
            prefix beyond the last snapshot reaches this many entries;
            followers whose needed suffix was compacted are repaired via
            InstallSnapshot (the Raft paper's log-compaction extension).
        cluster_size: number of Raft members, which are pids
            ``0 .. cluster_size - 1``.  Defaults to every simulated
            process — pass it explicitly whenever non-member processes
            (clients, observers) share the network, since votes, majorities
            and replication fan-out must only count members.

    Attributes (durable across crashes):
        current_term, voted_for, log — Raft's persistent state (Figure 2).

    Attributes (volatile, observable by tests):
        state, commit_index, last_applied, machine, reconciliator_timer
        (the :class:`~repro.sim.ops.EpochTimer` behind the election
        timer).
    """

    def __init__(
        self,
        *,
        election_timeout: Tuple[float, float] = (10.0, 20.0),
        heartbeat_interval: float = 2.0,
        state_machine_factory: Callable[[], StateMachine] = DecideStateMachine,
        propose_on_leadership: bool = True,
        snapshot_threshold: Optional[int] = None,
        cluster_size: Optional[int] = None,
        read_config: Optional[ReadConfig] = None,
    ):
        low, high = election_timeout
        if not 0 < low <= high:
            raise ValueError("election_timeout must satisfy 0 < low <= high")
        if heartbeat_interval <= 0:
            raise ValueError("heartbeat_interval must be positive")
        if snapshot_threshold is not None and snapshot_threshold < 1:
            raise ValueError("snapshot_threshold must be >= 1")
        if cluster_size is not None and cluster_size < 1:
            raise ValueError("cluster_size must be >= 1")
        self.cluster_size = cluster_size
        self.election_timeout = election_timeout
        self.heartbeat_interval = heartbeat_interval
        self.propose_on_leadership = propose_on_leadership
        self.snapshot_threshold = snapshot_threshold
        # Durable state (Figure 2) — survives crash/restart.
        self.current_term = 0
        self.voted_for: Optional[Pid] = None
        self.log = RaftLog()
        self.machine_snapshot: Any = None  # state image at log.snapshot_index
        # Volatile state — reset by run().
        self.machine = state_machine_factory()
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.next_index: Dict[Pid, int] = {}
        self.match_index: Dict[Pid, int] = {}
        #: Pipeline cursor: highest log index already *sent* to each
        #: follower (acknowledged or still in flight).  Deltas start at
        #: ``sent_index + 1``; rejections rewind it to ``next_index - 1``.
        self.sent_index: Dict[Pid, int] = {}
        self._votes: Set[Pid] = set()
        self.reconciliator_timer = EpochTimer("election")
        self._decided = False
        #: Last known leader of the current term (``None`` during
        #: elections) — the redirect hint live KV frontends serve clients.
        self.leader_hint: Optional[Pid] = None
        # Follower-side ack coalescing (volatile): the last success-ack
        # state sent, and how many redundant heartbeat acks were skipped
        # since.  A backstop re-ack fires every ``ACK_REACK_EVERY``
        # suppressions so a lost ack cannot stall the leader's commit rule.
        self._last_ack: Optional[Tuple[int, Pid, int, int]] = None
        self._ack_skips = 0
        # Lease piggyback (volatile, leader-side): the *oldest unacked*
        # AppendEntries send time per follower.  A success ack proves the
        # follower deferred elections from that send onward, so ordinary
        # replication traffic renews the lease with zero extra frames.
        self._ae_sent: Dict[Pid, float] = {}
        #: Fast-read-path state: leader-contact stickiness, in-flight
        #: ReadIndex probe rounds, the lease, follower freshness.  Inert
        #: (zero behaviour change) unless a lease duration is configured
        #: or a :class:`ReadBarrier` is injected.
        self.reads = ReadLedger(read_config)

    #: Re-ack at least every this-many suppressed redundant heartbeats.
    ACK_REACK_EVERY = 3

    # ------------------------------------------------------------------
    # Main event loop
    # ------------------------------------------------------------------

    def run(self, api: ProcessAPI) -> ProtocolGenerator:
        self.state = FOLLOWER
        self.commit_index = 0
        self.last_applied = 0
        self.machine.reset()
        self.next_index = {}
        self.match_index = {}
        self.sent_index = {}
        self._votes = set()
        self._decided = False
        self.leader_hint = None
        self._last_ack = None
        self._ack_skips = 0
        self._ae_sent = {}
        self.reads.reset()
        if self.log.snapshot_index > 0:
            # Recover from the durable snapshot: the compacted prefix can
            # no longer be replayed entry by entry.
            self.machine.restore(self.machine_snapshot)
            self.commit_index = self.log.snapshot_index
            self.last_applied = self.log.snapshot_index
            yield from self._report_decision(api)
        yield from self._arm_election_timer(api)
        while True:
            envelopes = yield Receive(count=1)
            payload = envelopes[0].payload
            src = envelopes[0].src
            if isinstance(payload, TimerFired):
                yield from self._on_timer(api, payload)
            elif isinstance(payload, RequestVote):
                yield from self._on_request_vote(api, payload)
            elif isinstance(payload, RequestVoteReply):
                yield from self._on_request_vote_reply(api, payload)
            elif isinstance(payload, AppendEntries):
                yield from self._on_append_entries(api, payload)
            elif isinstance(payload, AppendEntriesReply):
                yield from self._on_append_entries_reply(api, payload)
            elif isinstance(payload, InstallSnapshot):
                yield from self._on_install_snapshot(api, payload)
            elif isinstance(payload, InstallSnapshotReply):
                yield from self._on_install_snapshot_reply(api, payload)
            elif isinstance(payload, ClientPropose):
                yield from self._on_client_propose(api, payload, src)
            elif isinstance(payload, ReadBarrier):
                yield from self._on_read_barrier(api, payload)
            elif isinstance(payload, ReadProbe):
                yield from self._on_read_probe(api, payload)
            elif isinstance(payload, ReadProbeAck):
                yield from self._on_read_probe_ack(api, payload)
            elif isinstance(payload, ReadFresh):
                yield from self._on_read_fresh(api, payload)
            # Unknown payloads are ignored: the cluster may share the
            # network with other protocols.

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def _members(self, api: ProcessAPI) -> range:
        """The Raft cluster members (excludes co-simulated clients)."""
        return range(self.cluster_size if self.cluster_size is not None else api.n)

    def _majority(self, api: ProcessAPI) -> int:
        """Strict majority of the *cluster*, not of all simulated processes."""
        return len(self._members(api)) // 2 + 1

    # ------------------------------------------------------------------
    # Timers (the reconciliator, Algorithm 11)
    # ------------------------------------------------------------------

    def _arm_election_timer(self, api: ProcessAPI) -> ProtocolGenerator:
        """(Re-)arm the election timer with a fresh random timeout,
        cancelling the superseded one (see :class:`EpochTimer`)."""
        timeout = api.rng.uniform(*self.election_timeout)
        yield from self.reconciliator_timer.arm(timeout)

    def _on_timer(self, api: ProcessAPI, fired: TimerFired) -> ProtocolGenerator:
        if self.reconciliator_timer.is_current(fired):
            if self.state != LEADER:
                yield from self._start_election(api)
        elif fired.name == "heartbeat" and self.state == LEADER:
            yield from self._broadcast_append_entries(api)
            yield SetTimer(self.heartbeat_interval, "heartbeat")

    def _start_election(self, api: ProcessAPI) -> ProtocolGenerator:
        """Timer expiry: increment the term and solicit votes (Algorithm 11)."""
        self.current_term += 1
        self.state = CANDIDATE
        self.voted_for = api.pid
        self.leader_hint = None
        self._votes = {api.pid}
        value = self._current_value(api)
        yield Annotate("vac", (self.current_term, VACILLATE, value))
        yield Annotate("reconciled", (self.current_term, value))
        yield from self._arm_election_timer(api)
        if len(self._votes) >= self._majority(api):
            yield from self._become_leader(api)
            return
        yield Broadcast(
            RequestVote(
                self.current_term, api.pid, self.log.last_index, self.log.last_term
            ),
            include_self=False,
        )

    # ------------------------------------------------------------------
    # Elections
    # ------------------------------------------------------------------

    def _on_request_vote(self, api: ProcessAPI, msg: RequestVote) -> ProtocolGenerator:
        # Lease stickiness: within ``lease_duration`` of hearing from the
        # current leader we refuse challengers *without adopting their
        # term* — this is the follower half of the leader lease.  The
        # leader's lease expiry is ``round_start + lease_duration`` on its
        # clock; any rival majority intersects the majority that acked
        # that round at times >= round_start, and the intersection refuses
        # here until the lease is over.  The known leader itself is exempt
        # (only the lease holder may bypass its own lease).
        if self.reads.sticky(api.now) and msg.candidate_id != self.leader_hint:
            yield Send(
                msg.candidate_id,
                RequestVoteReply(self.current_term, False, api.pid),
            )
            return
        yield from self._maybe_step_down(api, msg.term)
        grant = (
            msg.term == self.current_term
            and self.voted_for in (None, msg.candidate_id)
            and self.log.other_is_up_to_date(msg.last_log_term, msg.last_log_index)
        )
        if grant:
            self.voted_for = msg.candidate_id
            yield from self._arm_election_timer(api)
        yield Send(
            msg.candidate_id, RequestVoteReply(self.current_term, grant, api.pid)
        )

    def _on_request_vote_reply(
        self, api: ProcessAPI, msg: RequestVoteReply
    ) -> ProtocolGenerator:
        yield from self._maybe_step_down(api, msg.term)
        if (
            self.state is not CANDIDATE
            or msg.term != self.current_term
            or not msg.vote_granted
        ):
            return
        self._votes.add(msg.voter_id)
        if len(self._votes) >= self._majority(api):
            yield from self._become_leader(api)

    def _become_leader(self, api: ProcessAPI) -> ProtocolGenerator:
        """Election won: freeze the election timer, adopt, start replicating."""
        self.state = LEADER
        self.leader_hint = api.pid
        yield from self.reconciliator_timer.disarm()  # "freeze timer T" (Algorithm 10)
        self.next_index = {
            pid: self.log.last_index + 1 for pid in self._members(api) if pid != api.pid
        }
        self.match_index = {pid: 0 for pid in self._members(api) if pid != api.pid}
        # Nothing from this incarnation is in flight yet: the pipeline
        # cursor starts at the optimistic floor, so the first AppendEntries
        # of the term carries exactly the (possibly empty) new suffix.
        self.sent_index = {pid: index - 1 for pid, index in self.next_index.items()}
        self._ae_sent = {}  # no sends from this incarnation acked yet
        value = self._current_value(api)
        if self.propose_on_leadership:
            self.log.append_new(Entry(self.current_term, DecideAndStop(value)))
        yield Annotate("vac", (self.current_term, ADOPT, value))
        yield Annotate("leader", (self.current_term, api.pid))
        yield from self._broadcast_append_entries(api)
        yield SetTimer(self.heartbeat_interval, "heartbeat")
        yield from self._advance_commit(api)  # n == 1: commit immediately

    # ------------------------------------------------------------------
    # Log replication
    # ------------------------------------------------------------------

    def _broadcast_append_entries(self, api: ProcessAPI) -> ProtocolGenerator:
        for pid in self._members(api):
            if pid != api.pid:
                yield from self._send_append_entries(api, pid)

    def _send_append_entries(self, api: ProcessAPI, dst: Pid) -> ProtocolGenerator:
        # Delta replication: everything up to ``sent_index`` is already in
        # flight (or acknowledged), so this message carries only the new
        # suffix beyond it — linear bytes per entry no matter how many
        # proposals are pipelined.  ``next_index`` stays the repair floor:
        # a rejection rewinds ``sent_index`` back to it and the classic
        # decrement-and-retry loop takes over with full consistency checks.
        start = self.next_index[dst]
        sent = self.sent_index.get(dst, start - 1)
        if sent + 1 > start:
            start = sent + 1
        prev_index = start - 1
        if prev_index < self.log.snapshot_index:
            # The suffix this follower needs was compacted: ship the
            # snapshot instead of entries.
            yield Send(
                dst,
                InstallSnapshot(
                    term=self.current_term,
                    leader_id=api.pid,
                    last_included_index=self.log.snapshot_index,
                    last_included_term=self.log.snapshot_term,
                    machine_state=self.machine_snapshot,
                ),
            )
            self.sent_index[dst] = self.log.snapshot_index
            return
        if self.reads.enabled and dst not in self._ae_sent:
            # Lease evidence anchors at the *oldest* unacked send: recording
            # before the Send executes under-estimates, never over-extends.
            self._ae_sent[dst] = api.now
        yield Send(
            dst,
            AppendEntries(
                term=self.current_term,
                leader_id=api.pid,
                prev_log_index=prev_index,
                prev_log_term=self.log.term_at(prev_index),
                entries=self.log.entries_from(start),
                leader_commit=self.commit_index,
            ),
        )
        self.sent_index[dst] = self.log.last_index

    def _on_append_entries(
        self, api: ProcessAPI, msg: AppendEntries
    ) -> ProtocolGenerator:
        if msg.term < self.current_term:
            yield Send(
                msg.leader_id,
                AppendEntriesReply(self.current_term, False, api.pid),
            )
            return
        yield from self._maybe_step_down(api, msg.term)
        if self.state is CANDIDATE:
            self.state = FOLLOWER  # a leader of our own term exists
        self.leader_hint = msg.leader_id
        self.reads.note_leader_contact(api.now)
        yield from self._arm_election_timer(api)
        ok = self.log.try_append(msg.prev_log_index, msg.prev_log_term, msg.entries)
        if not ok:
            yield Send(
                msg.leader_id,
                AppendEntriesReply(self.current_term, False, api.pid),
            )
            return
        match = msg.prev_log_index + len(msg.entries)
        if msg.entries:
            last = msg.entries[-1]
            if isinstance(last.command, DecideAndStop):
                yield Annotate("vac", (msg.term, ADOPT, last.command.value))
        if msg.leader_commit > self.commit_index:
            self.commit_index = max(self.commit_index, min(msg.leader_commit, match))
            yield from self._apply_committed(api)
        # Ack coalescing: an empty heartbeat that confirms the exact state
        # the leader already heard carries no information — skip the reply,
        # but re-ack every few suppressions so a lost ack is always
        # retransmitted eventually (commit liveness under message loss).
        ack = (self.current_term, msg.leader_id, match, self.commit_index)
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
            msg.leader_id,
            AppendEntriesReply(self.current_term, True, api.pid, match),
        )

    def _on_append_entries_reply(
        self, api: ProcessAPI, msg: AppendEntriesReply
    ) -> ProtocolGenerator:
        yield from self._maybe_step_down(api, msg.term)
        if self.state is not LEADER or msg.term != self.current_term:
            return
        follower = msg.follower_id
        if msg.success:
            sent = self._ae_sent.pop(follower, None)
            if sent is not None and self.reads.enabled:
                # Piggybacked lease renewal: this ack confirms every
                # AppendEntries sent to ``follower`` since ``sent``.
                self.reads.note_ack_time(
                    follower, sent, self._majority(api), api.now
                )
            match = max(self.match_index.get(follower, 0), msg.match_index)
            self.match_index[follower] = match
            self.next_index[follower] = match + 1
            if self.sent_index.get(follower, 0) < match:
                self.sent_index[follower] = match
            yield from self._advance_commit(api)
            if self.sent_index.get(follower, 0) < self.log.last_index:
                # Entries appended since the last send: ship just the delta.
                yield from self._send_append_entries(api, follower)
        else:
            self.next_index[follower] = max(1, self.next_index[follower] - 1)
            # The optimistic stream is broken — rewind the pipeline cursor
            # so repair restarts from the confirmed floor.
            self.sent_index[follower] = self.next_index[follower] - 1
            yield from self._send_append_entries(api, follower)

    def _advance_commit(self, api: ProcessAPI) -> ProtocolGenerator:
        """Leader commit rule: majority match and current-term entry."""
        advanced = False
        for candidate in range(self.log.last_index, self.commit_index, -1):
            if self.log.term_at(candidate) != self.current_term:
                break  # older-term entries commit only transitively
            replicas = 1 + sum(
                1 for index in self.match_index.values() if index >= candidate
            )
            if replicas >= self._majority(api):
                self.commit_index = candidate
                advanced = True
                break
        if advanced:
            yield from self._apply_committed(api)
            # The paper's second-kind AppendEntries: tell everyone the new
            # commit index without waiting for the next heartbeat.
            yield from self._broadcast_append_entries(api)

    def _apply_committed(self, api: ProcessAPI) -> ProtocolGenerator:
        while self.last_applied < self.commit_index:
            self.last_applied += 1
            entry = self.log.entry_at(self.last_applied)
            self.machine.apply(self.last_applied, entry.command)
            yield Annotate(
                "applied", (self.last_applied, entry.term, entry.command)
            )
            yield from self._report_decision(api)
        yield from self._maybe_compact(api)

    def _report_decision(self, api: ProcessAPI) -> ProtocolGenerator:
        """Surface a decide-and-stop machine's decision exactly once."""
        if (
            isinstance(self.machine, DecideStateMachine)
            and self.machine.decision is not None
            and not self._decided
        ):
            self._decided = True
            yield Annotate(
                "vac", (self.current_term, COMMIT, self.machine.decision)
            )
            yield Decide(self.machine.decision)

    # ------------------------------------------------------------------
    # Log compaction (InstallSnapshot extension)
    # ------------------------------------------------------------------

    def _maybe_compact(self, api: ProcessAPI) -> ProtocolGenerator:
        if self.snapshot_threshold is None:
            return
        applied_since = self.last_applied - self.log.snapshot_index
        if applied_since < self.snapshot_threshold:
            return
        self.machine_snapshot = self.machine.snapshot()
        self.log.compact_to(self.last_applied)
        yield Annotate(
            "compacted", (self.log.snapshot_index, self.log.snapshot_term)
        )

    def _on_install_snapshot(
        self, api: ProcessAPI, msg: InstallSnapshot
    ) -> ProtocolGenerator:
        if msg.term < self.current_term:
            yield Send(
                msg.leader_id,
                InstallSnapshotReply(self.current_term, api.pid, 0),
            )
            return
        yield from self._maybe_step_down(api, msg.term)
        if self.state is CANDIDATE:
            self.state = FOLLOWER
        self.leader_hint = msg.leader_id
        self.reads.note_leader_contact(api.now)
        yield from self._arm_election_timer(api)
        if msg.last_included_index > self.log.snapshot_index:
            # Adopt the machine state before moving the log's snapshot
            # point: the log's compaction hook may persist the snapshot.
            self.machine_snapshot = msg.machine_state
            self.log.install_snapshot(
                msg.last_included_index, msg.last_included_term
            )
            self.machine.restore(msg.machine_state)
            self.commit_index = max(self.commit_index, msg.last_included_index)
            self.last_applied = max(self.last_applied, msg.last_included_index)
            yield Annotate(
                "snapshot_installed",
                (msg.last_included_index, msg.last_included_term),
            )
            yield from self._report_decision(api)
        yield Send(
            msg.leader_id,
            InstallSnapshotReply(
                self.current_term, api.pid, msg.last_included_index
            ),
        )

    def _on_install_snapshot_reply(
        self, api: ProcessAPI, msg: InstallSnapshotReply
    ) -> ProtocolGenerator:
        yield from self._maybe_step_down(api, msg.term)
        if self.state is not LEADER or msg.term != self.current_term:
            return
        follower = msg.follower_id
        if msg.last_included_index > 0:
            self.match_index[follower] = max(
                self.match_index.get(follower, 0), msg.last_included_index
            )
            self.next_index[follower] = self.match_index[follower] + 1
            if self.sent_index.get(follower, 0) < self.match_index[follower]:
                self.sent_index[follower] = self.match_index[follower]
            if self.sent_index.get(follower, 0) < self.log.last_index:
                yield from self._send_append_entries(api, follower)

    # ------------------------------------------------------------------
    # Client proposals (general log replication)
    # ------------------------------------------------------------------

    def _on_client_propose(
        self, api: ProcessAPI, msg: ClientPropose, src: Pid
    ) -> ProtocolGenerator:
        if self.state is not LEADER:
            return
        if self.log.contains_command(msg.command):
            return  # already logged (e.g. under a previous leader)
        self.log.append_new(Entry(self.current_term, msg.command))
        yield from self._broadcast_append_entries(api)
        yield from self._advance_commit(api)  # n == 1 clusters commit at once

    # ------------------------------------------------------------------
    # Fast read path (ReadIndex rounds, leases, follower freshness)
    # ------------------------------------------------------------------

    def _on_read_barrier(self, api: ProcessAPI, msg: ReadBarrier) -> ProtocolGenerator:
        """Locally-injected: start a ReadIndex round for the current
        commit index.  Refused (``read_ready`` with index ``-1``) unless
        we are leader *and* have committed an entry of our own term —
        a fresh leader's commit index may lag its predecessor's."""
        if self.state is not LEADER or not self.reads.epoch_ready(
            self.log, self.commit_index, self.current_term
        ):
            yield Annotate("read_ready", (msg.barrier_id, -1, False))
            return
        rnd = self.reads.begin_round(
            msg.barrier_id,
            self.current_term,
            self.commit_index,
            api.now,
            self._majority(api),
            api.pid,
        )
        if rnd is not None:  # single-node group: a self-ack is a majority
            yield from self._finish_read_round(api, rnd)
            return
        yield Broadcast(
            ReadProbe(self.current_term, api.pid, msg.barrier_id),
            include_self=False,
        )

    def _on_read_probe(self, api: ProcessAPI, msg: ReadProbe) -> ProtocolGenerator:
        """A probe is an empty heartbeat for read purposes: it proves the
        sender's leadership to us, resets our election timer, and renews
        our stickiness window."""
        if msg.term < self.current_term:
            yield Send(
                msg.leader_id,
                ReadProbeAck(self.current_term, api.pid, msg.probe_id, False),
            )
            return
        yield from self._maybe_step_down(api, msg.term)
        if self.state is CANDIDATE:
            self.state = FOLLOWER
        self.leader_hint = msg.leader_id
        self.reads.note_leader_contact(api.now)
        yield from self._arm_election_timer(api)
        yield Send(
            msg.leader_id,
            ReadProbeAck(self.current_term, api.pid, msg.probe_id, True),
        )

    def _on_read_probe_ack(
        self, api: ProcessAPI, msg: ReadProbeAck
    ) -> ProtocolGenerator:
        yield from self._maybe_step_down(api, msg.term)
        if self.state is not LEADER or msg.term != self.current_term or not msg.ok:
            return
        rnd = self.reads.record_ack(msg.probe_id, msg.voter_id, self.current_term)
        if rnd is not None:
            yield from self._finish_read_round(api, rnd)

    def _finish_read_round(self, api: ProcessAPI, rnd) -> ProtocolGenerator:
        """A probe round reached its majority: the lease extends to
        ``round start + lease_duration``, queued reads are released at
        the round's read index, and followers get a freshness proof —
        only a *live* leader can complete rounds, so a deposed leader's
        cohort stops receiving these the moment it is cut off."""
        self.reads.extend_lease(rnd)
        yield Annotate("read_ready", (rnd.probe_id, rnd.read_index, True))
        yield Broadcast(
            ReadFresh(self.current_term, api.pid, rnd.read_index),
            include_self=False,
        )

    def _on_read_fresh(self, api: ProcessAPI, msg: ReadFresh) -> ProtocolGenerator:
        if msg.term < self.current_term:
            return
        yield from self._maybe_step_down(api, msg.term)
        if self.state is CANDIDATE:
            self.state = FOLLOWER
        self.leader_hint = msg.leader_id
        self.reads.note_leader_contact(api.now)
        if self.last_applied >= msg.read_index:
            self.reads.note_fresh(api.now)

    # ------------------------------------------------------------------
    # Term bookkeeping
    # ------------------------------------------------------------------

    def _maybe_step_down(self, api: ProcessAPI, term: int) -> ProtocolGenerator:
        """Adopt a higher term and revert to follower if we led or ran."""
        if term <= self.current_term:
            return
        self.current_term = term
        self.voted_for = None
        self.reads.drop_rounds()
        self._ae_sent = {}
        if self.state is not FOLLOWER:
            self.state = FOLLOWER
            yield from self._arm_election_timer(api)

    def _current_value(self, api: ProcessAPI) -> Any:
        """Algorithm 7's ``v*``: the last logged value, else the own input."""
        if self.log.last_index > 0:
            command = self.log.entry_at(self.log.last_index).command
            if isinstance(command, DecideAndStop):
                return command.value
        return api.init_value
