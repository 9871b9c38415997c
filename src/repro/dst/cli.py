"""DST subcommands for ``python -m repro``: ``explore`` and ``replay``.

``explore`` sweeps an algorithm's schedule space, prints the outcome and
coverage summary, and — on violations — optionally shrinks each witness
and saves it to the regression corpus::

    python -m repro explore ben-or --schedules 1000
    python -m repro explore phase-king --schedules 500 --workers 4
    python -m repro explore ben-or-broken-coherence --shrink --save-corpus

With ``--stack live`` the sweep targets the *production* stack instead:
each schedule boots a full sharded :class:`~repro.live.kv.KVServer`
cluster under a virtual-time :class:`~repro.core.runtime.SimRuntime`,
runs a seeded nemesis campaign against a recorded client workload, and
checks the history for linearizability.  The sweep is a pure function of
``--seed`` — the printed digest is byte-identical on repeat runs::

    python -m repro explore --stack live --schedules 50 --seed 3
    python -m repro explore --stack live --inject-bug stale-reads \\
        --shrink --save-corpus

``replay`` re-runs a stored corpus case (or any scenario JSON — simulator
or live-stack) and reports whether the recorded violation still
reproduces::

    python -m repro replay tests/regressions/corpus/<case>.json

Exit codes: ``explore`` returns 1 when a non-``expect_broken`` algorithm
violates (so CI sweeps fail loudly); ``replay`` returns 1 when a case no
longer reproduces its recorded violation.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

from repro.analysis.report import exploration_summary
from repro.dst.corpus import (
    DEFAULT_CORPUS_DIR,
    CorpusCase,
    case_name,
    replay as replay_case,
    save_case,
)
from repro.dst.explorer import explore
from repro.dst.livestack import (
    LIVE_BUGS,
    LIVE_EXPLORE_KINDS,
    LiveScenario,
    explore_live,
    run_live,
)
from repro.dst.registry import algorithm_names, get_algorithm
from repro.dst.scenario import VIOLATION, Scenario, run_scenario
from repro.dst.shrinker import shrink

COMMANDS = ("explore", "replay")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Deterministic simulation testing for the consensus library.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser(
        "explore", help="sweep an algorithm's schedule space for violations"
    )
    ex.add_argument(
        "algorithm",
        nargs="?",
        default=None,
        choices=algorithm_names(include_broken=True),
        help="registry name to sweep (required unless --stack live)",
    )
    ex.add_argument(
        "--stack",
        choices=("sim", "live"),
        default="sim",
        help="what to explore: bare simulator algorithms (sim) or the "
        "full KVServer production stack in virtual time (live)",
    )
    ex.add_argument(
        "--schedules", type=int, default=200, help="scenarios to run"
    )
    ex.add_argument(
        "--meta-seed",
        "--seed",
        dest="meta_seed",
        type=int,
        default=0,
        help="seed of the generator walk (the sweep is a pure function of it)",
    )
    ex.add_argument(
        "--mutation-rate",
        type=float,
        default=0.4,
        help="fraction of scenarios produced by adversarial mutation",
    )
    ex.add_argument(
        "--n-range",
        type=str,
        default="4:7",
        metavar="LO:HI",
        help="inclusive system-size range",
    )
    ex.add_argument(
        "--max-rounds", type=int, default=60, help="template-round cap per run"
    )
    ex.add_argument(
        "--workers",
        type=int,
        default=0,
        help="fan execution out over a multiprocessing pool of this size",
    )
    ex.add_argument(
        "--stop-after",
        type=int,
        default=None,
        metavar="K",
        help="stop after K violating scenarios (in-process mode only)",
    )
    ex.add_argument(
        "--shrink",
        action="store_true",
        help="minimize each violating scenario before reporting it",
    )
    ex.add_argument(
        "--save-corpus",
        nargs="?",
        const=DEFAULT_CORPUS_DIR,
        default=None,
        metavar="DIR",
        help=f"save (shrunk) violations as corpus cases (default dir: {DEFAULT_CORPUS_DIR})",
    )
    ex.add_argument(
        "--quiet", action="store_true", help="print only the outcome counts"
    )

    live = ex.add_argument_group("live-stack options (--stack live)")
    live.add_argument(
        "--nodes", type=int, default=3, help="cluster size per schedule"
    )
    live.add_argument(
        "--shards", type=int, default=2, help="consensus groups per node"
    )
    live.add_argument(
        "--duration",
        type=float,
        default=6.0,
        help="virtual seconds of faulted workload per schedule",
    )
    live.add_argument(
        "--clients", type=int, default=3, help="workload clients"
    )
    live.add_argument(
        "--inject-bug",
        choices=[bug for bug in LIVE_BUGS if bug],
        default="",
        help="run a known-buggy cluster (canary sweeps should violate)",
    )
    live.add_argument(
        "--kinds",
        type=str,
        default=None,
        metavar="K1,K2,...",
        help="comma-separated fault kinds "
        f"(default: {','.join(LIVE_EXPLORE_KINDS)})",
    )
    live.add_argument(
        "--fault-period",
        type=float,
        default=1.5,
        help="virtual seconds between scheduled faults",
    )
    live.add_argument(
        "--trace-out",
        type=str,
        default=None,
        metavar="PATH",
        help="append every schedule's full node trace to PATH "
        "(byte-identical across repeat runs of the same sweep)",
    )

    rp = sub.add_parser(
        "replay", help="re-run a stored corpus case or scenario JSON"
    )
    rp.add_argument("path", help="path to a corpus case (or bare scenario) JSON")
    return parser


def _explore_live(args: argparse.Namespace) -> int:
    kinds = LIVE_EXPLORE_KINDS
    if args.kinds:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    base = LiveScenario(
        n=args.nodes,
        shards=args.shards,
        duration=args.duration,
        clients=args.clients,
        inject_bug=args.inject_bug,
        op_pause=0.005,
    )
    trace_file = open(args.trace_out, "w") if args.trace_out else None

    def trace_sink(index, scenario, result):
        if trace_file is not None:
            trace_file.write(
                f"=== schedule {index} seed {scenario.seed} "
                f"fingerprint {result.fingerprint} ===\n"
            )
            trace_file.write(result.trace_text)
            trace_file.write("\n")

    started = time.perf_counter()
    try:
        report = explore_live(
            args.schedules,
            args.meta_seed,
            base=base,
            kinds=kinds,
            fault_period=args.fault_period,
            stop_after=args.stop_after,
            trace_sink=trace_sink,
        )
    finally:
        if trace_file is not None:
            trace_file.close()
    elapsed = time.perf_counter() - started
    print(report.summary())
    print(f"sweep digest: {report.digest()}")
    if not args.quiet:
        print(f"elapsed: {elapsed:.1f}s")
    for scenario, violation in report.failures:
        print(f"\n[{violation.kind}] {violation.message}")
        if args.shrink:
            result = shrink(scenario, violation)
            scenario, violation = result.scenario, result.violation
            print(
                f"shrunk to {len(scenario.faults)} fault event(s), "
                f"{scenario.clients} client(s):"
            )
            print(f"  {json.dumps(scenario.to_dict())}")
        if args.save_corpus:
            case = CorpusCase(
                name=case_name(scenario, violation),
                scenario=scenario,
                violation=violation,
                notes=(
                    f"found by `python -m repro explore --stack live "
                    f"--schedules {args.schedules} --seed {args.meta_seed}"
                    + (
                        f" --inject-bug {args.inject_bug}"
                        if args.inject_bug else ""
                    )
                    + "`"
                    + (", shrunk" if args.shrink else "")
                ),
            )
            path = save_case(case, args.save_corpus)
            print(f"saved corpus case: {path}")
    # A live violation on a *correct* cluster is always a real failure;
    # canary sweeps (--inject-bug) are expected to violate.
    if report.violations and not args.inject_bug:
        return 1
    return 0


def _explore(args: argparse.Namespace) -> int:
    if args.stack == "live":
        return _explore_live(args)
    if args.algorithm is None:
        print(
            "error: an algorithm is required unless --stack live",
            file=sys.stderr,
        )
        return 2
    try:
        lo, hi = (int(part) for part in args.n_range.split(":"))
    except ValueError:
        print(f"error: bad --n-range {args.n_range!r}: use LO:HI", file=sys.stderr)
        return 2
    spec = get_algorithm(args.algorithm)
    started = time.perf_counter()
    report = explore(
        args.algorithm,
        schedules=args.schedules,
        meta_seed=args.meta_seed,
        mutation_rate=args.mutation_rate,
        n_range=(lo, hi),
        max_rounds=args.max_rounds,
        workers=args.workers,
        stop_after_violations=args.stop_after,
    )
    elapsed = time.perf_counter() - started
    if args.quiet:
        print(f"{report.algorithm}: {report.outcomes} ({elapsed:.1f}s)")
    else:
        print(exploration_summary(report))
        print(f"\nelapsed: {elapsed:.1f}s")
    for scenario, violation in report.violations:
        if args.shrink:
            result = shrink(scenario, violation)
            scenario, violation = result.scenario, result.violation
            print(
                f"\nshrunk to n={scenario.n} seed={scenario.seed} "
                f"({result.accepted} reductions in {result.attempts} attempts):"
            )
            print(f"  [{violation.kind}] {violation.message}")
            print(f"  {scenario.to_json()}")
        if args.save_corpus:
            case = CorpusCase(
                name=case_name(scenario, violation),
                scenario=scenario,
                violation=violation,
                notes=(
                    f"found by `python -m repro explore {args.algorithm} "
                    f"--schedules {args.schedules} --meta-seed {args.meta_seed}`"
                    + (", shrunk" if args.shrink else "")
                ),
            )
            path = save_case(case, args.save_corpus)
            print(f"saved corpus case: {path}")
    if report.violation_count and not spec.expect_broken:
        return 1
    return 0


def _replay(args: argparse.Namespace) -> int:
    try:
        with open(args.path) as handle:
            data = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc.strerror}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: {args.path} is not valid JSON: {exc}", file=sys.stderr)
        return 2
    if "scenario" in data:
        case = CorpusCase.from_dict(data)
        outcome = replay_case(case)
        print(
            f"replayed {case.name}: status={outcome.status} "
            f"({outcome.events} events)"
        )
        if outcome.status == VIOLATION and outcome.violation is not None:
            print(f"  [{outcome.violation.kind}] {outcome.violation.message}")
            if outcome.violation.kind == case.violation.kind:
                print("  recorded violation reproduces")
                return 0
            print(
                f"  MISMATCH: recorded kind was {case.violation.kind!r}",
            )
            return 1
        print(
            f"  recorded violation [{case.violation.kind}] did NOT reproduce"
        )
        return 1
    # A bare scenario JSON: just run it and report.
    if data.get("stack") == "live":
        outcome = run_live(LiveScenario.from_dict(data)).outcome
    else:
        outcome = run_scenario(Scenario.from_dict(data))
    print(f"status={outcome.status} ({outcome.events} events)")
    if outcome.violation is not None:
        print(f"  [{outcome.violation.kind}] {outcome.violation.message}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """DST CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "explore":
        return _explore(args)
    return _replay(args)
