"""DST over the live production stack (``repro.dst.livestack``).

The acceptance bar for live-stack DST is *byte identity*: the same
:class:`~repro.dst.livestack.LiveScenario` — a full 3-node × 2-shard
``KVServer`` cluster with real framing, redirects, batching, a seeded
nemesis and a recorded workload, all in virtual time — must replay to
the identical client history, the identical merged node trace, the
identical nemesis log and the identical checker verdict, run after run.
Everything else (shrinking, the corpus, CLI sweeps) stands on that.
"""

import json

import pytest

from repro.chaos.nemesis import FaultEvent
from repro.dst.livestack import (
    LiveScenario,
    explore_live,
    generate_live_scenarios,
    run_live,
)

#: Short but not trivial: two fault-heal cycles, a couple hundred ops.
SCENARIO = LiveScenario(
    n=3,
    shards=2,
    seed=42,
    duration=3.0,
    clients=3,
    op_pause=0.01,
    grace=1.0,
    faults=(
        FaultEvent(0.8, "partition-leader", (("roll", 0.31),)),
        FaultEvent(1.6, "heal"),
        FaultEvent(1.6, "restart"),
        FaultEvent(2.2, "kill-leader", (("roll", 0.77),)),
        FaultEvent(2.8, "heal"),
        FaultEvent(2.8, "restart"),
    ),
)


class TestByteIdentity:
    def test_same_scenario_replays_byte_identical(self):
        """The tentpole assertion: every artifact of a run — history,
        trace, nemesis log, verdict, and the fingerprint over them all —
        is a pure function of the scenario."""
        a = run_live(SCENARIO)
        b = run_live(SCENARIO)
        assert a.outcome.status == "ok", a.outcome
        assert a.history_jsonl == b.history_jsonl
        assert a.trace_text == b.trace_text
        assert a.nemesis_log == b.nemesis_log
        assert a.stats == b.stats
        assert a.fingerprint == b.fingerprint

    def test_run_produced_real_work(self):
        """Guard against vacuous determinism: the campaign must commit
        operations, survive its faults, and record nemesis actions."""
        result = run_live(SCENARIO)
        assert result.outcome.status == "ok"
        assert result.outcome.events > 100
        assert result.stats["ok"] > 50
        kinds = [kind for _, kind, _ in result.nemesis_log]
        assert "partition-leader" in kinds and "kill-leader" in kinds
        # The merged node trace carries the consensus-level events too:
        # leadership changes and applied batches, on the same time axis.
        assert "'leader'" in result.trace_text
        assert "'applied'" in result.trace_text

    def test_different_seeds_diverge(self):
        """The fingerprint must actually discriminate executions."""
        from dataclasses import replace

        a = run_live(SCENARIO)
        b = run_live(replace(SCENARIO, seed=43))
        assert a.fingerprint != b.fingerprint

    def test_explore_sweep_digest_is_deterministic(self):
        base = LiveScenario(duration=2.0, clients=2, grace=0.8)
        sweeps = [
            explore_live(2, 9, base=base, fault_period=1.0) for _ in range(2)
        ]
        assert sweeps[0].digest() == sweeps[1].digest()
        assert sweeps[0].fingerprints == sweeps[1].fingerprints
        assert sweeps[0].schedules == 2


class TestScenarioSerialization:
    def test_round_trip_through_json(self):
        data = json.loads(json.dumps(SCENARIO.to_dict()))
        assert data["stack"] == "live"
        restored = LiveScenario.from_dict(data)
        assert restored == SCENARIO  # FaultEvent args survive list->tuple

    def test_generated_scenarios_are_deterministic(self):
        a = generate_live_scenarios(3, meta_seed=5)
        b = generate_live_scenarios(3, meta_seed=5)
        assert a == b
        assert len({s.seed for s in a}) == 3

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            LiveScenario(inject_bug="nonsense")

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            LiveScenario(faults=(FaultEvent(1.0, "meteor-strike"),))


#: A deposed leader that serves lin reads from local state: must violate.
STALE_READS_CANARY = LiveScenario(
    n=3,
    shards=1,
    seed=13,
    duration=4.0,
    clients=3,
    op_pause=0.005,
    inject_bug="stale-reads",
    faults=(
        FaultEvent(1.0, "partition-leader", (("roll", 0.2),)),
        FaultEvent(3.0, "heal"),
        FaultEvent(3.0, "restart"),
    ),
)


class TestInjectedBugCanary:
    def test_stale_reads_bug_violates(self):
        """A deliberately broken cluster must produce a violation —
        the oracle path from live history to checker verdict works."""
        outcome = run_live(STALE_READS_CANARY).outcome
        assert outcome.status == "violation", outcome
        assert outcome.violation.kind == "linearizability"
        assert outcome.violation.event_index >= 0


class TestDataDir:
    def test_reused_data_dir_is_refused(self, tmp_path):
        """Values a previous run left in the WALs would read as writes
        the new history never made, so a used directory is refused
        before the cluster boots."""
        scenario = LiveScenario(
            n=3,
            shards=1,
            seed=3,
            duration=2.0,
            clients=2,
            grace=0.5,
            faults=(FaultEvent(1.0, "power-fail", (("roll", 0.4),)),),
        )
        data_dir = str(tmp_path / "data")
        assert run_live(scenario, data_dir=data_dir).outcome.status == "ok"
        before = sorted(p.name for p in (tmp_path / "data").iterdir())
        with pytest.raises(ValueError, match="not empty"):
            run_live(scenario, data_dir=data_dir)
        assert sorted(p.name for p in (tmp_path / "data").iterdir()) == before
