#!/usr/bin/env python3
"""The live KV store's benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload once and reports the gated end-to-end
metrics (``END_TO_END``).  ``--trace 1`` runs it twice for half the time
each, untraced and then traced; it writes the traced run's spans to
``perfbench/out/spans-<workload>.tsv`` and reports the per-layer metrics
derived from that file, plus the untraced run's ungated end-to-end
figures (``RECORDED``).  Every figure is printed by name with its unit;
the last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``.  The exit code is 1 when a
linearizability check or the durability read-back fails, and 2 when
the system under test (``src/repro``) cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("kv-write", "kv-read-lease", "kv-durable", "kv-failover")

#: (name, unit, better) of the gated end-to-end metrics: BENCHMARK.json's
#: ``end_to_end``, printed as JSON by ``--trace 0``.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("put_p50_ms", "ms", "lower"),
]

#: End-to-end figures that only some workloads have, or that spread too
#: widely between runs to gate.  They are printed by every run and
#: recorded, without a bound, in ``--trace 1``'s JSON (from its untraced
#: run); 0 where a workload does not have the figure.
RECORDED: List[Tuple[str, str, str]] = [
    ("cpu_ms_per_op", "ms", "lower"),
    ("put_p99_ms", "ms", "lower"),
    ("get_p50_ms", "ms", "lower"),
    ("get_p99_ms", "ms", "lower"),
    ("cpu_growth", "ratio", "lower"),
    ("failed_ratio", "ratio", "lower"),
    ("unavail_p50_s", "s", "lower"),
    ("unavail_max_s", "s", "lower"),
    ("recover_s", "s", "lower"),
    ("disk_bytes_per_user_byte", "ratio", "lower"),
    ("catchup_cpu_ms", "ms", "lower"),
]

#: (name, unit, better) of every layer metric of the traced run.
LAYERS: List[Tuple[str, str, str]] = [
    ("client.requests_per_op", "count", "lower"),
    ("client.self_ms_per_op", "ms", "lower"),
    ("wire.encodes_per_op", "count", "lower"),
    ("wire.decodes_per_op", "count", "lower"),
    ("wire.self_ms_per_op", "ms", "lower"),
    ("wire.bytes_per_op", "bytes", "lower"),
    ("transport.msgs_per_op", "count", "lower"),
    ("transport.frames_per_write", "count", "higher"),
    ("transport.self_ms_per_op", "ms", "lower"),
    ("loop.callbacks_per_op", "count", "lower"),
    ("loop.timers_per_op", "count", "lower"),
    ("runtime.injects_per_op", "count", "lower"),
    ("loop.other_ms_per_op", "ms", "lower"),
    ("engine.self_ms_per_op", "ms", "lower"),
    ("engine.dedup_scan_ms_per_op", "ms", "lower"),
    ("engine.commit_wait_ms_p50", "ms", "lower"),
    ("engine.terms_per_kill", "count", "lower"),
    ("engine.leaderless_terms", "count", "lower"),
    ("kv.self_ms_per_op", "ms", "lower"),
    ("kv.batch_wait_ms_p50", "ms", "lower"),
    ("kv.ops_per_batch", "count", "higher"),
    ("kv.apply_us_per_op", "us", "lower"),
    ("kv.ack_wait_ms_p50", "ms", "lower"),
    ("reads.lease_hit_ratio", "ratio", "higher"),
    ("reads.probe_rounds_per_read", "count", "lower"),
    ("storage.self_ms_per_op", "ms", "lower"),
    ("storage.fsyncs_per_op", "count", "lower"),
    ("storage.append_us_per_op", "us", "lower"),
    ("storage.wal_bytes_per_user_byte", "ratio", "lower"),
    ("storage.compactions", "count", "lower"),
    ("storage.compact_max_ms", "ms", "lower"),
    ("storage.recover_ms", "ms", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    ("trace.cpu_ms_per_op", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: BENCHMARK.json's ``per_layer``, printed as JSON by ``--trace 1``.
PER_LAYER = RECORDED + LAYERS


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(result: Any, percentile: Any) -> Dict[str, Tuple[float, str]]:
    """Every end-to-end figure of one untraced run, with a note each.

    Figures a workload does not have are absent.
    """
    puts, gets, ms = result.put_latency, result.get_latency, 1e3
    out = {
        "setup_s": (statistics.median(result.setup_s),
                    f"median of {len(result.setup_s)} set-ups"),
        "throughput_ops_s": (result.acked / result.window_s,
                             f"{result.acked} acked in {result.window_s:.2f} s"),
        "put_p50_ms": (percentile(puts, 0.5) * ms, f"n={len(puts)}"),
        "put_p99_ms": (percentile(puts, 0.99) * ms, f"n={len(puts)}"),
        "cpu_ms_per_op": (result.cpu_s / result.cpu_ops * ms,
                          f"{result.cpu_s:.2f} s over {result.cpu_ops} ops"),
        "cpu_growth": (result.cpu_growth, "fitted over slices, ms/op: " + " ".join(
            f"{s.cpu_per_op * ms:.2f}" for s in result.slices)),
        "failed_ratio": (result.failed / result.attempted,
                         f"{result.failed} of {result.attempted}"),
    }
    if gets:
        where = f"n={len(gets)} ({result.get_phase})"
        out["get_p50_ms"] = (percentile(gets, 0.5) * ms, where)
        out["get_p99_ms"] = (percentile(gets, 0.99) * ms, where)
    if result.unavail:
        kills = f"n={len(result.unavail)} leader kills"
        out["unavail_p50_s"] = (statistics.median(result.unavail), kills)
        out["unavail_max_s"] = (max(result.unavail), kills)
    if result.recover_s is not None:
        out["recover_s"] = (result.recover_s, "restart to first linearizable read")
    if result.catchup_cpu:
        out["catchup_cpu_ms"] = (
            statistics.median(result.catchup_cpu) * ms,
            "the last episode's restart, outside the slices",
        )
    if result.disk_bytes is not None:
        out["disk_bytes_per_user_byte"] = (
            result.disk_bytes / result.user_bytes,
            f"{result.disk_bytes} B on disk for {result.user_bytes} B acked",
        )
    return out


def show(name: str, value: Optional[float], unit: str, note: str = "") -> None:
    shown = "-" if value is None else f"{value:.6g}"
    print(f"  {name:32s} {shown:>14s} {unit:6s} {note}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import harness
        import spans
    except ImportError as exc:
        print(f"perfbench: cannot import the system under test: {exc}",
              file=sys.stderr)
        return 2

    workload = harness.WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    # A traced invocation runs twice, so each run gets half the time.
    seconds = args.seconds / 2 if args.trace else args.seconds
    print(f"perfbench {args.workload} seed={args.seed} seconds={seconds:g} "
          f"trace={args.trace}")

    base = harness.run_workload(workload, args.seed, seconds, workdir)
    figures = end_to_end(base, harness.percentile)
    print("end to end (untraced):")
    for name, unit, _better in END_TO_END + RECORDED:
        value, note = figures.get(name, (None, "not measured by this workload"))
        show(name, value, unit, note)
        if name == END_TO_END[-1][0]:
            print("recorded, not gated:")
    print(f"check: {base.check.summary}")
    values = {name: figures.get(name, (0.0, ""))[0]
              for name, _unit, _better in END_TO_END + RECORDED}
    runs = [base]

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = harness.run_workload(
                workload, args.seed, seconds, workdir,
                observer=tracer, on_loop=tracer.on_loop,
            )
        finally:
            tracer.uninstall()
        runs.append(traced)
        path = os.path.join(OUT, f"spans-{args.workload}.tsv")
        tracer.write(path, {
            "workload": args.workload,
            "seed": args.seed,
            "ops": traced.cpu_ops,
            "cpu_s": traced.cpu_s,
            "gets": len(traced.get_latency) if traced.get_phase == "window" else 0,
            "user_bytes": traced.user_bytes,
            "late": traced.late,
            "kills": traced.kills,
            "untraced_cpu_ms_per_op": values["cpu_ms_per_op"],
        })
        values.update(spans.layer_table(path))
        print(f"per layer (traced, spans in {os.path.relpath(path, ROOT)}):")
        for name, unit, _better in LAYERS:
            show(name, values[name], unit)
        print(f"check (traced run): {traced.check.summary}")
        metrics = PER_LAYER
    else:
        metrics = END_TO_END

    correct = all(run.check.ok for run in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit, _better in metrics
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
