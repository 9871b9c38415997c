"""The benchmark gate infers each metric's direction from its name."""

import pytest

from benchmarks.compare_baseline import compare, lower_is_better


@pytest.mark.parametrize(
    "metric, lower",
    [
        ("append_entries_binary_bytes", True),
        ("put_p50_ms", True),
        ("checker_elapsed_seconds", True),
        ("chaos.checker_elapsed_s", True),
        ("chaos.latency_s.p99", True),
        ("durable.throughput_ops_s", False),
        ("events_per_s", False),
        ("events_per_s_record_off", False),
        ("sharded.speedup_4x", False),
        ("chaos.availability_post_heal", False),
    ],
)
def test_direction_follows_the_name(metric, lower):
    assert lower_is_better(metric) is lower


@pytest.mark.parametrize(
    "metric, base, now, ok",
    [
        ("put_p50_ms", 2.0, 2.5, True),
        ("put_p50_ms", 2.0, 2.7, False),  # latency grew 35%
        ("put_p50_ms", 2.0, 0.5, True),
        ("throughput_ops_s", 1000.0, 750.0, True),
        ("throughput_ops_s", 1000.0, 650.0, False),  # throughput fell 35%
        ("throughput_ops_s", 1000.0, 5000.0, True),
    ],
)
def test_gate_verdict(metric, base, now, ok):
    [row] = compare({metric: now}, {metric: base}, tolerance=0.3)
    assert row[-1] is ok
