"""Shrinker tests: minimization preserves the violation, deterministically.

Uses the deliberately broken Ben-Or variant as the bug source — the same
acceptance path the corpus workflow exercises: explore → shrink → the
minimized scenario replays to the *identical* violation — and, for the
live stack, the stale-reads canary cluster.
"""

import pytest

from repro.dst import (
    LiveScenario,
    ShrinkResult,
    explore,
    run_live,
    run_scenario,
    shrink,
)
from repro.dst.scenario import VIOLATION, Scenario, mutate_scenario
from tests.dst.test_livestack import STALE_READS_CANARY


@pytest.fixture(scope="module")
def found():
    """One (scenario, violation) pair caught by a bounded sweep."""
    report = explore(
        "ben-or-broken-coherence",
        schedules=200,
        meta_seed=0,
        stop_after_violations=1,
    )
    assert report.violations, "sweep failed to catch the broken variant"
    return report.violations[0]


def test_shrink_preserves_the_violation_kind(found):
    scenario, violation = found
    result = shrink(scenario, violation)
    assert isinstance(result, ShrinkResult)
    assert result.violation.kind == violation.kind == "vac-coherence"
    assert result.attempts <= 400


def test_shrink_never_grows_the_scenario(found):
    scenario, violation = found
    result = shrink(scenario, violation)
    small = result.scenario
    assert small.n <= scenario.n
    assert len(small.crashes) <= len(scenario.crashes)
    assert len(small.network.partitions) <= len(scenario.network.partitions)
    if scenario.max_rounds is not None:
        assert small.max_rounds is not None
        assert small.max_rounds <= scenario.max_rounds


def test_minimized_scenario_replays_the_identical_violation(found):
    scenario, violation = found
    result = shrink(scenario, violation)
    # Determinism across replays — including a JSON round trip, which is
    # exactly what the regression corpus stores on disk.
    first = run_scenario(result.scenario)
    second = run_scenario(Scenario.from_json(result.scenario.to_json()))
    assert first.status == second.status == VIOLATION
    assert first.violation == second.violation
    assert first.violation.kind == result.violation.kind
    assert first.violation.message == result.violation.message


def test_shrink_rejects_non_violating_input():
    healthy = Scenario(
        algorithm="ben-or", n=4, t=1, init_values=(1, 1, 1, 1), seed=0
    )
    with pytest.raises(ValueError, match="does not reproduce"):
        shrink(healthy)


def test_shrink_respects_the_attempt_cap(found):
    scenario, violation = found
    # Give the shrinker more failure clauses to chew through, then cap it.
    bloated = mutate_scenario(scenario, max_rounds=59)
    if run_scenario(bloated).status != VIOLATION:
        bloated = scenario
    result = shrink(bloated, max_attempts=5)
    assert result.attempts <= 5


@pytest.fixture(scope="module")
def live_shrunk():
    """The live stale-reads canary, shrunk under a small attempt cap
    (each live run costs a second or more of wall time)."""
    outcome = run_live(STALE_READS_CANARY).outcome
    assert outcome.status == VIOLATION, outcome
    return outcome.violation, shrink(
        STALE_READS_CANARY, outcome.violation, max_attempts=4
    )


def test_live_shrink_keeps_the_violation_kind(live_shrunk):
    violation, result = live_shrunk
    assert result.violation.kind == violation.kind == "linearizability"
    assert 1 <= result.attempts <= 4


def test_live_shrink_never_grows_the_scenario(live_shrunk):
    _, result = live_shrunk
    small, big = result.scenario, STALE_READS_CANARY
    assert set(small.faults) <= set(big.faults)
    assert small.duration <= big.duration
    assert 2 <= small.clients <= big.clients


def test_live_shrunk_scenario_replays_to_the_same_kind(live_shrunk):
    _, result = live_shrunk
    replayed = run_live(LiveScenario.from_dict(result.scenario.to_dict()))
    assert replayed.outcome.status == VIOLATION
    assert replayed.outcome.violation.kind == result.violation.kind
