"""Power-failure chaos campaigns — durability's acceptance criteria.

A seeded campaign of power failures (single-node, whole-cluster, torn
final frames, flipped bits) against a cluster persisting to real data
directories must produce a linearizable history: every restart is WAL
crash recovery, so acked writes either survive or the checker screams.
The same campaign with the ``lost-ack`` bug injected (writes acked
before fsync) must FAIL with a minimal witness.  Marked ``chaos``:
opt in with ``pytest -m chaos``.
"""

import pytest

from tests.chaos.test_campaign import campaign_report

pytestmark = pytest.mark.chaos

#: Every power-failure kind, against real data directories.
POWER_FAILURES = ("power-fail", "power-fail-all", "torn-tail", "bit-flip")


class TestDurabilityCampaigns:
    @pytest.mark.parametrize("sync_mode", ["inline", "pipelined"])
    def test_power_failure_campaign_is_linearizable(self, tmp_path, sync_mode):
        """Correct WAL + fsync barriers survive every power-failure kind,
        including full-cluster outages that restart from disk alone —
        with the fsync inline on the event loop or off-loaded to the
        pipelined durability-watermark thread."""
        report = campaign_report(
            seed=5,
            duration=12.0,
            kinds=POWER_FAILURES,
            data_dir=str(tmp_path),
            sync_mode=sync_mode,
        )
        assert report.ok is True, report.summary()

    @pytest.mark.parametrize("sync_mode", ["inline", "pipelined"])
    def test_lost_ack_bug_is_caught_with_witness(self, tmp_path, sync_mode):
        """Acking before fsync must fail the check after a full power
        loss: the cluster forgets writes it confirmed, and the checker
        produces a witness proving it.  The pipelined barrier must not
        mask the bug: with fsync skipped the watermark still advances,
        so acks escape and the canary still fires."""
        report = campaign_report(
            seed=5,
            duration=12.0,
            data_dir=str(tmp_path),
            kinds=("power-fail-all",),
            inject_bug="lost-ack",
            sync_mode=sync_mode,
        )
        assert report.ok is False, report.summary()
        violation = report.violations[0]
        assert violation.witness, "violations must carry a witness"
        # Same witness-quality bar as the stale-reads canary: ordered,
        # minimal, and it names the contradiction.
        assert violation.witness == sorted(
            violation.witness, key=lambda o: o.inv
        )
        assert len(violation.witness) <= violation.ops
        assert "linearized" in violation.reason or "linearization" in (
            violation.reason
        )
