"""``python -m repro chaos`` — run a seeded chaos campaign end to end.

Turns its arguments into a :class:`~repro.dst.livestack.LiveScenario`
and runs it with :func:`~repro.dst.livestack.run_live` on real
localhost sockets (:class:`~repro.core.runtime.AsyncioRuntime`): boot an
in-process cluster, run a recorded client workload while the nemesis
executes a seeded fault plan, heal, take grace reads, and check the
recorded history for linearizability.  Exit status: ``0`` if the history
is linearizable, ``1`` on a violation (the minimal witness is printed),
``2`` if no verdict was reached (the checker's time budget ran out, the
cluster failed to run, or the arguments were unusable).

Examples::

    python -m repro chaos --nodes 5 --shards 2 --seed 7 --duration 20
    python -m repro chaos --seed 3 --inject-bug stale-reads   # exits 1
    python -m repro chaos --seed 1 --html campaign.html --json history.jsonl

Power-failure campaigns (durable storage)::

    python -m repro chaos --seed 5 --kinds power-fail,torn-tail,bit-flip
    python -m repro chaos --seed 5 --kinds power-fail-all --inject-bug lost-ack

Durability fault kinds give every node a data directory (a temporary one
unless ``--data-dir`` is set; a given ``--data-dir`` must be new or
empty), so kills are power failures and restarts are WAL crash
recovery.  ``--inject-bug lost-ack`` skips every fsync —
acked writes then vanish in a ``power-fail-all``, which the checker must
reject.

Lease-attack campaigns (fast read path, docs/reads.md)::

    python -m repro chaos --seed 11 --read-tier lease --drift-bound 0.25 \\
        --campaign lease-attack
    python -m repro chaos --seed 11 --read-tier lease \\
        --campaign lease-attack --inject-bug unbounded-lease   # exits 1

``--read-tier`` selects how the workload's linearizable reads are served
(safe log markers, batched ReadIndex rounds, or clock-based leases); the
``clock-skew`` fault slows the leaseholder's clock, which a correctly
sized ``--drift-bound`` must absorb.  ``--inject-bug unbounded-lease``
zeroes the drift bound, so a skewed leaseholder keeps serving after a
rival leader commits — a stale read the checker must reject.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.chaos.nemesis import DEFAULT_KINDS, FAULT_KINDS, FaultPlan
from repro.chaos.timeline import render_html, render_text
from repro.core.runtime import AsyncioRuntime
from repro.dst.livestack import LiveScenario, run_live
from repro.dst.scenario import ERROR
from repro.live.engine import DEFAULT_ENGINE, ENGINES, EngineError, parse_engine_spec
from repro.live.kv import READ_TIERS
from repro.storage.engine import SYNC_MODES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Fault-inject a live KV cluster and check the recorded "
        "client history for linearizability.",
    )
    parser.add_argument("--nodes", type=int, default=5, help="cluster size")
    parser.add_argument(
        "--shards", type=int, default=2, help="consensus groups"
    )
    parser.add_argument(
        "--engine", default=DEFAULT_ENGINE, metavar="SPEC",
        help="consensus backend per shard: one of "
        f"{'/'.join(sorted(ENGINES))} or a comma-separated per-shard "
        f"list (default {DEFAULT_ENGINE})",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--duration", type=float, default=20.0,
        help="workload/nemesis duration in seconds",
    )
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument(
        "--read-fraction", type=float, default=0.5, metavar="F",
        help="fraction of ops that are linearizable reads",
    )
    parser.add_argument(
        "--key-space", type=int, default=4, metavar="K",
        help="number of distinct keys (small = high contention)",
    )
    parser.add_argument(
        "--readonly-clients", type=int, default=1, metavar="R",
        help="how many clients never write (readers are what catch "
        "deposed-leader stale reads)",
    )
    parser.add_argument(
        "--op-pause", type=float, default=0.005, metavar="SECS",
        help="per-client pause between ops (bounds history size so the "
        "checker finishes within its budget)",
    )
    parser.add_argument(
        "--fault-period", type=float, default=3.0, metavar="SECS",
        help="seconds between injected faults",
    )
    parser.add_argument(
        "--kinds", default=",".join(DEFAULT_KINDS), metavar="K1,K2,...",
        help=f"fault kinds to draw from (choose from {', '.join(FAULT_KINDS)})",
    )
    parser.add_argument(
        "--campaign", choices=("random", "lease-attack"), default="random",
        help="plan shape: random (default) draws one independent fault "
        "per period; lease-attack stacks clock-skew + timeout-skew + "
        "partition-leader each cycle so the deposed leaseholder's clock "
        "is still skewed when it is isolated (ignores --kinds)",
    )
    parser.add_argument(
        "--time-budget", type=float, default=30.0, metavar="SECS",
        help="linearizability checker wall-clock budget",
    )
    parser.add_argument(
        "--grace", type=float, default=3.0, metavar="SECS",
        help="post-heal quiesce time before the final reads",
    )
    parser.add_argument(
        "--html", metavar="FILE", default=None,
        help="write an HTML timeline of the campaign",
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None,
        help="write the recorded history as JSON lines",
    )
    parser.add_argument(
        "--data-dir", metavar="DIR", default=None,
        help="persist each node's Raft state under DIR, which must be new "
        "or empty (power-failure fault kinds and --inject-bug lost-ack "
        "use a temporary directory when omitted)",
    )
    parser.add_argument(
        "--sync-mode", choices=SYNC_MODES, default="inline",
        help="WAL durability pipeline: inline fsyncs on the event loop "
        "(default); pipelined off-loads fsync to a thread behind the "
        "durability watermark — power-failure campaigns must stay "
        "linearizable in both modes",
    )
    parser.add_argument(
        "--read-tier", choices=READ_TIERS, default="safe",
        help="how the workload's linearizable reads are served "
        "(default safe; lease exercises the clock-based fast path the "
        "clock-skew fault attacks)",
    )
    parser.add_argument(
        "--lease-duration", type=float, default=None, metavar="SECS",
        help="leader-lease window (defaults to the election-timeout "
        "floor when --read-tier is lease/follower)",
    )
    parser.add_argument(
        "--drift-bound", type=float, default=0.25, metavar="SECS",
        help="clock-drift allowance subtracted from every lease "
        "(default 0.25: safe against the default clock-skew factor 4 "
        "on the default 0.3s lease, since 0.3 * (1 - 1/4) = 0.225)",
    )
    parser.add_argument(
        "--inject-bug",
        choices=("stale-reads", "lost-ack", "unbounded-lease"),
        default=None,
        help="deliberately break the cluster (stale-reads: nodes that "
        "believe they lead serve lin reads from local state; lost-ack: "
        "writes are acknowledged before fsync, so a power failure "
        "forgets them; unbounded-lease: leases ignore clock drift, so a "
        "clock-skewed leaseholder serves stale reads after deposition) "
        "— the campaign should then FAIL the check",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the verdict"
    )
    return parser


#: Flags that map one to one onto :class:`LiveScenario` fields.
_SCENARIO_ARGS = (
    "shards", "seed", "engine", "read_tier", "duration", "clients",
    "readonly_clients", "key_space", "read_fraction", "op_pause", "grace",
    "sync_mode", "drift_bound", "lease_duration",
)


def scenario_from_args(args: argparse.Namespace) -> LiveScenario:
    """The campaign the arguments describe."""
    if args.campaign == "lease-attack":
        plan = FaultPlan.lease_attack_campaign(
            args.seed, duration=args.duration, period=args.fault_period
        )
    else:
        plan = FaultPlan.random_campaign(
            args.seed,
            duration=args.duration,
            period=args.fault_period,
            kinds=tuple(k.strip() for k in args.kinds.split(",") if k.strip()),
        )
    return LiveScenario(
        n=args.nodes,
        inject_bug=args.inject_bug or "",
        faults=plan.events,
        **{name: getattr(args, name) for name in _SCENARIO_ARGS},
    )


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        parse_engine_spec(args.engine, args.shards)
        scenario = scenario_from_args(args)
    except (EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    say = (lambda *_a, **_k: None) if args.quiet else print
    say(
        f"campaign: {args.nodes} nodes / {args.shards} shards "
        f"({args.engine}, reads={scenario.effective_read_tier()}), "
        f"seed {args.seed}, {len(scenario.faults)} fault events over "
        f"{args.duration:.0f}s"
    )
    try:
        result = run_live(
            scenario,
            AsyncioRuntime(),
            data_dir=args.data_dir,
            time_budget=args.time_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result.outcome.status == ERROR:
        print(f"error: {result.outcome.violation.message}", file=sys.stderr)
        return 2
    history, report, stats = result.history, result.report, result.stats
    for at, kind, detail in result.nemesis_log:
        say(f"  t={at:6.2f}s  {kind:<15} {detail}")
    say(
        f"workload: {stats['ok']} ok, {stats['ambiguous']} ambiguous, "
        f"{stats['failed']} failed; history of {len(history)} ops"
    )
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(result.history_jsonl)
        say(f"history written to {args.json}")
    if args.html:
        witness = report.violations[0].witness if report.violations else None
        with open(args.html, "w") as fh:
            fh.write(
                render_html(
                    history.ops,
                    title=f"chaos seed {args.seed}"
                    + (" — NOT linearizable" if report.ok is False else ""),
                    faults=[(at, kind) for at, kind, _ in result.nemesis_log],
                    highlight=witness,
                )
            )
        say(f"timeline written to {args.html}")
    if report.ok is False:
        for violation in report.violations:
            print()
            print(f"witness for key {violation.key!r}:")
            print(render_text(violation.witness))
        return 1
    return 0 if report.ok else 2


if __name__ == "__main__":
    sys.exit(main())
