"""``python -m repro chaos`` argument handling: flags → campaign scenario.

Fast: nothing here boots a cluster.  The campaigns themselves run in
``test_campaign.py`` and ``test_durability_campaign.py`` (``-m chaos``).
"""

import pytest

from repro.chaos.cli import build_parser, main, scenario_from_args
from repro.chaos.nemesis import FaultPlan


def scenario(*argv):
    return scenario_from_args(build_parser().parse_args(list(argv)))


def test_defaults_map_onto_the_scenario():
    s = scenario("--seed", "7", "--duration", "10")
    assert (s.n, s.shards, s.seed, s.clients, s.key_space) == (5, 2, 7, 4, 4)
    assert (s.op_pause, s.grace, s.drift_bound) == (0.005, 3.0, 0.25)
    assert s.faults == FaultPlan.random_campaign(
        7, duration=10.0, period=3.0
    ).events
    assert not s.needs_disk


def test_unbounded_lease_on_the_safe_tier_runs_an_undrifted_lease():
    s = scenario("--inject-bug", "unbounded-lease")
    assert s.read_tier == "safe"
    assert s.effective_read_tier() == "lease"
    assert s.effective_drift_bound() == 0.0


def test_lease_attack_ignores_kinds():
    s = scenario(
        "--seed", "11", "--campaign", "lease-attack", "--kinds", "power-fail"
    )
    assert s.faults == FaultPlan.lease_attack_campaign(
        11, duration=20.0, period=3.0
    ).events
    assert {e.kind for e in s.faults} == {
        "clock-skew", "timeout-skew", "partition-leader", "heal", "restart",
    }
    assert not s.needs_disk


@pytest.mark.parametrize(
    "argv",
    [
        ("--kinds", "power-fail,torn-tail,bit-flip"),
        ("--kinds", "power-fail-all"),
        ("--inject-bug", "lost-ack"),
    ],
)
def test_durability_campaigns_get_a_data_dir(argv):
    assert scenario("--seed", "5", "--duration", "10", *argv).needs_disk


@pytest.mark.parametrize("spec", ["nonsense", "raft,ct,paxos"])
def test_bad_engine_spec_exits_2(spec, capsys):
    assert main(["--engine", spec, "--shards", "2", "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_fault_kind_exits_2(capsys):
    assert main(["--kinds", "meteor-strike", "--quiet"]) == 2
    assert "meteor-strike" in capsys.readouterr().err


def test_non_empty_data_dir_exits_2_before_booting(tmp_path, capsys):
    (tmp_path / "node-0").mkdir()
    argv = ["--kinds", "power-fail", "--data-dir", str(tmp_path), "--quiet"]
    assert main(argv) == 2
    assert "not empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["node-0"]
