"""End-to-end chaos campaigns — the PR's acceptance criteria.

A seeded campaign (leader kills + partitions against a 5-node, 2-shard
cluster) must produce a history the checker verifies linearizable; the
same campaign with a known consistency bug injected (lin reads served
from a deposed leader's local state) must FAIL the check with a minimal
witness.  Marked ``chaos``: opt in with ``pytest -m chaos``.
"""

import pytest

from repro.chaos import FaultPlan
from repro.core.runtime import AsyncioRuntime
from repro.dst.livestack import LiveScenario, run_live

pytestmark = pytest.mark.chaos


def campaign_report(
    *,
    seed,
    duration=10.0,
    kinds=("kill-leader", "partition", "partition-leader"),
    lease_attack=False,
    data_dir=None,
    nodes=5,
    shards=2,
    **fields,
):
    """Boot → fault+load → heal → grace reads → check, on real sockets.
    Returns the checker report."""
    if lease_attack:
        plan = FaultPlan.lease_attack_campaign(
            seed, duration=duration, period=3.0
        )
    else:
        plan = FaultPlan.random_campaign(
            seed, duration=duration, period=3.0, kinds=kinds
        )
    scenario = LiveScenario(
        n=nodes,
        shards=shards,
        seed=seed,
        duration=duration,
        clients=4,
        key_space=4,
        op_pause=0.005,
        grace=2.0,
        faults=plan.events,
        **fields,
    )
    result = run_live(scenario, AsyncioRuntime(), data_dir=data_dir)
    assert result.report is not None, result.outcome
    assert len(result.history) > 100, "campaign produced too little history"
    return result.report


class TestCampaigns:
    def test_seeded_campaign_is_linearizable(self):
        """A correct cluster survives leader kills and partitions."""
        report = campaign_report(seed=7)
        assert report.ok is True, report.summary()

    def test_stale_read_bug_is_caught_with_witness(self):
        """The injected deposed-leader bug must fail the check."""
        report = campaign_report(
            seed=7,
            kinds=("partition-leader",),
            inject_bug="stale-reads",
        )
        assert report.ok is False, report.summary()
        violation = report.violations[0]
        assert violation.witness, "violations must carry a witness"
        # The witness is a usable artifact: ordered, ends at the
        # contradiction, and far smaller than the whole history.
        assert violation.witness == sorted(
            violation.witness, key=lambda o: o.inv
        )
        assert len(violation.witness) <= violation.ops
        assert "linearized" in violation.reason or "linearization" in (
            violation.reason
        )

    def test_lease_attack_with_drift_bound_is_linearizable(self):
        """Clock-skewed, isolated leaseholders with a correct drift
        bound stop serving before a rival can commit past them."""
        report = campaign_report(
            seed=11,
            nodes=3,
            shards=1,
            lease_attack=True,
            read_tier="lease",
            drift_bound=0.25,
        )
        assert report.ok is True, report.summary()

    def test_unbounded_lease_is_caught_with_witness(self):
        """A lease that ignores clock drift serves stale reads after
        deposition; the checker must reject the history."""
        report = campaign_report(
            seed=11,
            nodes=3,
            shards=1,
            lease_attack=True,
            read_tier="lease",
            drift_bound=0.0,
        )
        assert report.ok is False, report.summary()
        violation = report.violations[0]
        assert violation.witness, "violations must carry a witness"
        assert len(violation.witness) <= violation.ops
