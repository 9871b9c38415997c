"""The chaos campaign runner: one live-stack campaign, on any runtime.

:func:`run_live` is the only place a campaign is assembled: boot a
sharded :class:`~repro.live.harness.LiveKVCluster`, wait for leaders,
run the recorded client workload while a
:class:`~repro.chaos.nemesis.Nemesis` executes the scenario's fault
events, heal and restart everything, take read-only grace reads, then
hand the history to the Wing & Gill linearizability checker.  ``python
-m repro chaos``, ``explore --stack live``, corpus replay, the chaos
test suites and experiment E15 all describe their campaign as a
:class:`LiveScenario` and call it.

The runtime is the one free choice.  By default each run gets a fresh
:class:`~repro.core.runtime.SimRuntime` — in-memory sockets, virtual
clocks — so a 10-second campaign takes tens of milliseconds and the
whole execution is a pure function of the scenario: the same histories,
traces, commit orders and verdict, byte for byte, which turns every
live-stack bug into a replayable regression seed.  An
:class:`~repro.core.runtime.AsyncioRuntime` runs the identical campaign
over real localhost sockets and wall-clock time.

:func:`explore_live` sweeps seeded scenarios;
:func:`repro.dst.shrinker.shrink` minimizes a failing one.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.checker import CheckReport, check_history
from repro.chaos.history import History
from repro.chaos.nemesis import (
    DEFAULT_KINDS,
    DURABILITY_KINDS,
    FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    Nemesis,
)
from repro.chaos.workload import close_clients, make_clients, run_workload
from repro.core.runtime import Runtime, SimRuntime
from repro.dst.scenario import (
    ERROR,
    OK,
    UNDECIDED,
    VIOLATION,
    ScenarioOutcome,
    ViolationRecord,
)
from repro.live.harness import LiveKVCluster

#: Campaign timings: elections resolve in about a second, so short
#: campaigns still see several leadership changes.
CAMPAIGN_TIMINGS = dict(election_timeout=(0.3, 0.6), heartbeat_interval=0.06)

#: Seconds (on the runtime's clock) to wait for every shard to elect a
#: leader, at boot and again after the final heal.
LEADER_WAIT = 30.0

#: The fault mix explored by default: every kind that needs neither a
#: data directory nor wall-clock side effects.  Durability kinds
#: (power failures, torn tails) join in when the scenario carries a
#: ``lost-ack`` bug or schedules them explicitly.
LIVE_EXPLORE_KINDS = DEFAULT_KINDS + (
    "drop",
    "delay",
    "timeout-skew",
    "clock-skew",
)

#: Injectable bugs a scenario may carry, mapping to the same flags the
#: chaos CLI exposes (empty string = correct cluster).
LIVE_BUGS = ("", "stale-reads", "unbounded-lease", "lost-ack")

#: Safety cap, in runtime seconds, on one campaign beyond its duration
#: and grace period.
_RUN_TIMEOUT_SLACK = 90.0

#: Server settings serialized only when they differ from their defaults,
#: so scenarios stored before the fields existed round-trip unchanged.
_SERVER_FIELDS = ("sync_mode", "drift_bound", "lease_duration")


@dataclass(frozen=True)
class LiveScenario:
    """One fully-specified, JSON-serializable live-stack campaign.

    ``faults`` is the *explicit* event list (not a generator seed), so a
    shrunk scenario — with events deleted — round-trips through the
    corpus unchanged.  ``seed`` still drives everything else: election
    randomness, transport jitter, the workload op mix, and the nemesis'
    own victim RNG.
    """

    n: int = 3
    shards: int = 2
    seed: int = 0
    engine: str = "raft"
    read_tier: str = "safe"
    inject_bug: str = ""
    duration: float = 6.0
    clients: int = 3
    readonly_clients: int = 1
    key_space: int = 3
    read_fraction: float = 0.5
    op_pause: float = 0.02
    grace: float = 1.5
    faults: Tuple[FaultEvent, ...] = ()
    sync_mode: str = "inline"
    drift_bound: float = 0.03
    lease_duration: Optional[float] = None

    def __post_init__(self) -> None:
        if self.inject_bug not in LIVE_BUGS:
            raise ValueError(
                f"unknown inject_bug {self.inject_bug!r} "
                f"(choose from {LIVE_BUGS})"
            )
        for event in self.faults:
            if event.kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {event.kind!r}")

    @property
    def needs_disk(self) -> bool:
        """Whether this run requires per-node data directories."""
        return self.inject_bug == "lost-ack" or any(
            e.kind in DURABILITY_KINDS for e in self.faults
        )

    def effective_read_tier(self) -> str:
        if self.inject_bug == "unbounded-lease" and self.read_tier == "safe":
            return "lease"  # the bug needs a lease to mis-bound
        return self.read_tier

    def effective_drift_bound(self) -> float:
        if self.inject_bug == "unbounded-lease":
            return 0.0  # the bug: leases ignore clock drift
        return self.drift_bound

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"stack": "live"}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in _SERVER_FIELDS and value == f.default:
                continue
            if f.name == "faults":
                value = [
                    {
                        "at": e.at,
                        "kind": e.kind,
                        "args": [[name, arg] for name, arg in e.args],
                    }
                    for e in value
                ]
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LiveScenario":
        names = {f.name for f in fields(cls)} - {"n", "faults"}
        faults = tuple(
            FaultEvent(
                at=f["at"],
                kind=f["kind"],
                args=tuple((name, value) for name, value in f.get("args", [])),
            )
            for f in data.get("faults", [])
        )
        kwargs = {k: v for k, v in data.items() if k in names}
        kwargs.setdefault("shards", 1)
        return cls(n=data["n"], faults=faults, **kwargs)


@dataclass
class LiveRunResult:
    """Everything one campaign produced.

    ``stats`` counts the workload's ops while the faults ran,
    ``grace_stats`` the post-heal grace reads alone; ``fault_ops`` is
    the history length when the fault phase ended, so
    ``history.ops[:fault_ops]`` are the ops issued under faults.

    ``fingerprint`` hashes the client history, every node's applied
    (commit) order, the nemesis action log and the checker verdict —
    two simulated runs of the same scenario must produce the same
    fingerprint, which is the determinism test's single assertion.
    """

    outcome: ScenarioOutcome
    history: Optional[History] = None
    report: Optional[CheckReport] = None
    stats: Dict[str, int] = field(default_factory=dict)
    grace_stats: Dict[str, int] = field(default_factory=dict)
    fault_ops: int = 0
    trace_text: str = ""
    nemesis_log: List[Tuple[float, str, str]] = field(default_factory=list)
    fingerprint: str = ""

    @property
    def history_jsonl(self) -> str:
        return self.history.to_jsonl() if self.history is not None else ""


def run_live(
    scenario: LiveScenario,
    runtime: Optional[Runtime] = None,
    *,
    data_dir: Optional[str] = None,
    time_budget: float = 60.0,
) -> LiveRunResult:
    """Run one campaign and check its history; never raises on a bad run.

    Args:
        scenario: the campaign to run.
        runtime: where to run it; ``None`` means a fresh
            :class:`SimRuntime` (deterministic, closed afterwards).
        data_dir: root of the nodes' data directories.  ``None`` keeps
            the cluster diskless unless the scenario needs disks, in
            which case a temporary directory is used and removed.
        time_budget: the linearizability checker's wall-clock budget.
            The default is generous: simulated histories are small, and
            a budget-flipped verdict would break replay determinism.

    A harness failure (a crash, no leader within :data:`LEADER_WAIT`)
    is reported as an ``error`` outcome, not raised.

    Raises:
        ValueError: if ``data_dir`` already holds entries.  A history
            starts empty, so values a previous run left in the WALs
            would read as violations it never wrote.
    """
    if data_dir is not None and os.path.isdir(data_dir) and os.listdir(data_dir):
        raise ValueError(
            f"data dir {data_dir!r} is not empty; a campaign needs a new or "
            f"empty directory"
        )
    rt = runtime if runtime is not None else SimRuntime()
    tmp_dir: Optional[tempfile.TemporaryDirectory] = None
    if data_dir is None and scenario.needs_disk:
        tmp_dir = tempfile.TemporaryDirectory(prefix="repro-live-")
        data_dir = tmp_dir.name
    cap = scenario.duration + scenario.grace + _RUN_TIMEOUT_SLACK
    try:
        result = rt.run(_campaign(rt, scenario, data_dir), timeout=cap)
        result.report = check_history(result.history, time_budget=time_budget)
    except Exception as exc:  # harness failure, not a verdict
        return LiveRunResult(
            outcome=ScenarioOutcome(
                status=ERROR,
                violation=ViolationRecord(
                    "error", f"{type(exc).__name__}: {exc}"
                ),
            )
        )
    finally:
        if runtime is None:
            rt.close()
        if tmp_dir is not None:
            tmp_dir.cleanup()
    result.outcome = _verdict(result.report, result.history)
    result.fingerprint = _fingerprint(
        result.history_jsonl, result.trace_text, result.nemesis_log,
        result.outcome,
    )
    return result


async def _campaign(
    rt: Runtime, scenario: LiveScenario, data_dir: Optional[str]
) -> LiveRunResult:
    """Boot → wait for leaders → nemesis ‖ workload → heal + restart →
    grace reads.  Returns the result without a verdict."""
    cluster = LiveKVCluster(
        scenario.n,
        seed=scenario.seed,
        shards=scenario.shards,
        engine=scenario.engine,
        unsafe_lin_reads=(scenario.inject_bug == "stale-reads"),
        lost_ack_bug=(scenario.inject_bug == "lost-ack"),
        data_dir=data_dir,
        sync_mode=scenario.sync_mode,
        read_tier=scenario.effective_read_tier(),
        lease_duration=scenario.lease_duration,
        drift_bound=scenario.effective_drift_bound(),
        runtime=rt,
        **CAMPAIGN_TIMINGS,
    )
    history = History(runtime=rt)
    clients = make_clients(
        cluster.cluster,
        history,
        scenario.clients,
        shards=scenario.shards,
        deterministic_ids=True,
    )
    nemesis = Nemesis(cluster, FaultPlan(scenario.faults, seed=scenario.seed))
    result = LiveRunResult(
        outcome=ScenarioOutcome(status=UNDECIDED), history=history
    )
    try:
        await cluster.start()
        await cluster.wait_for_all_leaders(LEADER_WAIT)
        workload = rt.spawn(
            run_workload(
                clients,
                duration=scenario.duration,
                seed=scenario.seed,
                key_space=scenario.key_space,
                read_fraction=scenario.read_fraction,
                readonly_clients=scenario.readonly_clients,
                pause=scenario.op_pause,
            )
        )
        await nemesis.run()
        result.stats = await workload
        result.fault_ops = len(history)
        # Heal, revive, and give the converged cluster a read-only grace
        # pass so stale state still visible anywhere gets observed.
        await nemesis.apply(FaultEvent(0.0, "heal"))
        await nemesis.apply(FaultEvent(0.0, "restart"))
        await cluster.wait_for_all_leaders(LEADER_WAIT)
        totals = result.stats
        if scenario.grace > 0:
            totals = await run_workload(
                clients,
                duration=scenario.grace,
                seed=scenario.seed + 1,
                key_space=scenario.key_space,
                read_fraction=1.0,
                readonly_clients=len(clients),
                pause=scenario.op_pause,
            )
        result.grace_stats = {k: totals[k] - result.stats[k] for k in totals}
    finally:
        await close_clients(clients)
        await cluster.stop()
    result.trace_text = _trace_text(cluster)
    result.nemesis_log = [(a.at, a.kind, a.detail) for a in nemesis.log]
    return result


def _verdict(report, history: History) -> ScenarioOutcome:
    if report.ok is True:
        return ScenarioOutcome(
            status=OK, events=len(history), stop_reason="linearizable"
        )
    if report.ok is None:
        return ScenarioOutcome(
            status=UNDECIDED,
            events=len(history),
            stop_reason="checker budget exhausted",
        )
    worst = report.violations[0]
    event_index = -1
    if worst.witness:
        last = worst.witness[-1]
        for i, op in enumerate(history.ops):
            if op is last:
                event_index = i
                break
    return ScenarioOutcome(
        status=VIOLATION,
        violation=ViolationRecord(
            kind="linearizability",
            message=f"key {worst.key!r}: {worst.reason}",
            event_index=event_index,
        ),
        events=len(history),
    )


def _trace_text(cluster: LiveKVCluster) -> str:
    """A canonical, deterministic dump of every node's merged trace."""
    lines = []
    for event in cluster.merged_trace().events:
        lines.append(
            f"{event.time:.6f} {event.kind} {event.pid} {event.detail!r}"
        )
    return "\n".join(lines)


def _fingerprint(
    history_jsonl: str,
    trace_text: str,
    nemesis_log: List[Tuple[float, str, str]],
    outcome: ScenarioOutcome,
) -> str:
    digest = hashlib.sha256()
    digest.update(history_jsonl.encode())
    digest.update(trace_text.encode())
    digest.update(repr(nemesis_log).encode())
    digest.update(outcome.status.encode())
    if outcome.violation is not None:
        digest.update(repr(
            (outcome.violation.kind, outcome.violation.message,
             outcome.violation.event_index)
        ).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


def generate_live_scenarios(
    count: int,
    meta_seed: int,
    *,
    base: Optional[LiveScenario] = None,
    kinds: Tuple[str, ...] = LIVE_EXPLORE_KINDS,
    fault_period: float = 1.5,
) -> List[LiveScenario]:
    """``count`` seeded scenarios derived deterministically from ``meta_seed``.

    Each draws a fresh run seed and a fresh random fault campaign over
    ``kinds``; everything else comes from ``base`` (cluster size, tier,
    injected bug, workload shape).
    """
    import random as _random

    rng = _random.Random(meta_seed)
    template = base if base is not None else LiveScenario()
    scenarios = []
    for _ in range(count):
        seed = rng.randrange(2**31)
        plan = FaultPlan.random_campaign(
            seed,
            duration=template.duration,
            period=fault_period,
            kinds=kinds,
        )
        scenarios.append(replace(template, seed=seed, faults=plan.events))
    return scenarios


@dataclass
class LiveExplorationReport:
    """What a live-stack sweep found."""

    schedules: int = 0
    ok: int = 0
    undecided: int = 0
    errors: int = 0
    failures: List[Tuple[LiveScenario, ViolationRecord]] = field(
        default_factory=list
    )
    #: One fingerprint per schedule, in run order.  Two sweeps with the
    #: same parameters must produce the identical list.
    fingerprints: List[str] = field(default_factory=list)

    @property
    def violations(self) -> int:
        return len(self.failures)

    def digest(self) -> str:
        """One hash over the whole sweep (histories, traces, verdicts)."""
        h = hashlib.sha256()
        for fingerprint in self.fingerprints:
            h.update(fingerprint.encode())
        return h.hexdigest()

    def summary(self) -> str:
        return (
            f"explored {self.schedules} live schedule(s): {self.ok} ok, "
            f"{self.violations} violation(s), {self.undecided} undecided, "
            f"{self.errors} error(s)"
        )


def explore_live(
    schedules: int,
    meta_seed: int,
    *,
    base: Optional[LiveScenario] = None,
    kinds: Tuple[str, ...] = LIVE_EXPLORE_KINDS,
    fault_period: float = 1.5,
    stop_after: Optional[int] = None,
    trace_sink: Any = None,
) -> LiveExplorationReport:
    """Run ``schedules`` seeded live campaigns; collect every violation.

    Runs are sequential — each owns a fresh simulated world — and the
    report is a deterministic function of ``(meta_seed, parameters)``.
    ``trace_sink`` (if given) is called after each run with
    ``(index, scenario, result)`` — the full :class:`LiveRunResult`,
    for callers that want the trace/history artifacts.
    """
    report = LiveExplorationReport()
    for index, scenario in enumerate(
        generate_live_scenarios(
            schedules, meta_seed, base=base, kinds=kinds,
            fault_period=fault_period,
        )
    ):
        result = run_live(scenario)
        outcome = result.outcome
        report.schedules += 1
        report.fingerprints.append(result.fingerprint)
        if trace_sink is not None:
            trace_sink(index, scenario, result)
        if outcome.status == OK:
            report.ok += 1
        elif outcome.status == VIOLATION:
            assert outcome.violation is not None
            report.failures.append((scenario, outcome.violation))
        elif outcome.status == UNDECIDED:
            report.undecided += 1
        else:
            report.errors += 1
        if stop_after is not None and report.violations >= stop_after:
            break
    return report
