"""Self-tests of the benchmark: its output checks, tracer and metric set.

Run from the repository root::

    python -m pytest perfbench -q

The planted-bug tests show that each output check fails a run that
loses an acknowledged write or serves a stale read.  The smoke test runs
every workload briefly, untraced and traced, and requires every metric
named in ``BENCHMARK.json`` with its unit.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import harness
import run
import spans
from repro.algorithms.raft.log import RaftLog
from repro.chaos.history import GET, PUT, History, OpRecord
from repro.live import wire

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _op(op_id, kind, key, value, inv, ret, found=None):
    return OpRecord(op_id=op_id, client=0, kind=kind, key=key, value=value,
                    inv=inv, ret=ret, ok=True, found=found)


def _two_writes():
    return [
        _op("w1", PUT, "k", "old", 0.0, 1.0),
        _op("w2", PUT, "k", "new", 2.0, 3.0),
    ]


def test_clean_history_passes():
    read = _op("r", GET, "k", "new", 4.0, 5.0, found=True)
    history = History.from_ops(_two_writes() + [read])
    assert harness.check_outputs(history, [read]).ok


def test_planted_lost_write_fails():
    for read in (
        _op("r", GET, "k", "old", 4.0, 5.0, found=True),
        _op("r", GET, "k", None, 4.0, 5.0, found=False),
    ):
        history = History.from_ops(_two_writes() + [read])
        check = harness.check_outputs(history, [read])
        assert check.lost == [read]
        assert check.linearizable is False
        assert not check.ok


def test_planted_stale_read_fails():
    stale = _op("r", GET, "k", "old", 4.0, 5.0, found=True)
    history = History.from_ops(_two_writes() + [stale])
    check = harness.check_outputs(history, [])
    assert check.linearizable is False
    assert not check.ok


def test_unknown_checker_verdict_fails():
    assert not harness.CheckResult(None, [], "budget spent").ok


def test_cluster_that_never_recovers_fails():
    assert not harness.CheckResult(True, [], "", recovered=False).ok


def test_ambiguous_write_may_be_current():
    pending = OpRecord(op_id="w3", client=1, kind=PUT, key="k", value="maybe",
                       inv=2.5, ret=None, ok=None)
    read = _op("r", GET, "k", "maybe", 4.0, 5.0, found=True)
    history = History.from_ops(_two_writes() + [pending, read])
    assert harness.check_outputs(history, [read]).ok


def test_real_run_with_planted_stale_read_fails(tmp_path):
    result = harness.run_workload(
        harness.WORKLOADS["kv-write"], 3, 1.0, str(tmp_path / "work")
    )
    assert result.check.ok, result.check.summary
    puts = {}
    for op in result.history.ops:
        if op.kind == PUT and op.ok:
            puts.setdefault(op.key, []).append(op)
    key, writes = next((k, w) for k, w in puts.items() if len(w) >= 2)
    first = min(writes, key=lambda o: o.ret)
    end = max(op.ret for op in result.history.ops if op.ret is not None)
    stale = _op("planted", GET, key, first.value, end + 1, end + 2, found=True)
    result.history.ops.append(stale)
    assert harness.check_outputs(result.history, result.readbacks).ok is False


def test_real_run_losing_acked_writes_fails(tmp_path):
    # The server's lost-ack bug acknowledges writes without fsync, so the
    # power failure after the window really loses them.
    durable = harness.WORKLOADS["kv-durable"]
    broken = dataclasses.replace(
        durable, server=dict(durable.server, lost_ack_bug=True)
    )
    result = harness.run_workload(broken, 3, 1.0, str(tmp_path / "work"))
    assert result.check.lost
    assert not result.check.ok


def test_tracer_restores_every_attribute_and_keeps_values():
    before = {
        (id(owner), attr): getattr(owner, attr)
        for owner, attr in _patched_attributes()
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert wire.BINARY_CODEC.dumps is not before[
            (id(wire.BINARY_CODEC), "dumps")
        ]
        value = ("m", 1.5, {"k": [1, 2, None]})
        body = wire.BINARY_CODEC.dumps(value)
        assert wire.decode_body(body) == value
        log = RaftLog()
        assert log.contains_command("x") is False
    finally:
        tracer.uninstall()
    assert not tracer.installed
    after = {
        (id(owner), attr): getattr(owner, attr)
        for owner, attr in _patched_attributes()
    }
    assert after == before


def _patched_attributes():
    tracer = spans.Tracer()
    tracer.install()
    try:
        return [(owner, attr) for owner, attr, _orig, _own in tracer._patches]
    finally:
        tracer.uninstall()


def test_step_wrapper_passes_results_and_errors():
    log = spans.SpanLog()
    nid = log.nid("client.step", spans.CPU)

    async def ok():
        await asyncio.sleep(0)
        return 42

    async def boom():
        await asyncio.sleep(0)
        raise KeyError("x")

    async def main():
        assert await spans._steps(log, nid, "op-1", ok()) == 42
        with pytest.raises(KeyError):
            await spans._steps(log, nid, None, boom())

    asyncio.run(main())
    assert len(log.name) == 4
    assert log.ops[0] == "op-1"


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_tables_match_benchmark_json():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(harness.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in bench[key]] == table


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_every_metric_appears(workload):
    bench = _benchmark()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "5", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in bench[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), name
            assert name in out.stdout.split("{")[0]
        if trace:
            table = spans.layer_table(
                os.path.join(HERE, "out", f"spans-{workload}.tsv")
            )
            selves = sum(table[f"{layer}.self_ms_per_op"]
                         for layer in ("client", "wire", "transport", "kv",
                                       "storage"))
            selves += table["engine.self_ms_per_op"]
            selves += table["engine.dedup_scan_ms_per_op"]
            selves += table["kv.apply_us_per_op"] / 1e3
            total = selves + table["loop.other_ms_per_op"]
            assert total == pytest.approx(table["trace.cpu_ms_per_op"])


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kv-write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "{" not in out.stdout
