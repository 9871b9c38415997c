"""Gate fresh benchmark numbers against a committed baseline.

Usage::

    python benchmarks/compare_baseline.py CURRENT BASELINE [--tolerance 0.30]

Both files are ``{"metric": number}`` JSONs as written by
``benchmarks/test_perf_regression.py``; nested objects (as in
``BENCH_live.json``) are flattened to dotted keys
(``sharded.4-shard.throughput_ops_s``), so one gate serves flat and
structured result files alike.  Every numeric metric present in the
*baseline* is checked; metrics only in the current file are informational
(so adding a metric does not break older baselines).

Direction is inferred from the metric name (:func:`lower_is_better`):
sizes (``*_bytes``) and times (``*_ms``, ``*_seconds``, ``*_s``, and
anything containing ``latency``) are lower-is-better — a grown frame or
a slower op is a regression.  Rates (``*_ops_s``, ``*_per_s``) and
everything else — throughputs, speedup ratios, availabilities — are
higher-is-better.  A metric
regresses when it is worse than the baseline by more than ``tolerance``
(default 30%, the CI band; improvements never fail and are the cue to
refresh the baseline).

Exit status: 0 when every metric is within the band, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict


def _flatten(data: Dict, prefix: str = "") -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in data.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, f"{name}."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[name] = float(value)
    return out


def load_metrics(path: str) -> Dict[str, float]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise SystemExit(f"{path}: expected a JSON object of metrics")
    return _flatten(data)


def lower_is_better(metric: str) -> bool:
    """Whether a smaller value of ``metric`` is an improvement."""
    if metric.endswith(("_ops_s", "_per_s")):
        return False  # a rate, though it ends in _s
    return "latency" in metric or metric.endswith(
        ("_bytes", "_ms", "_seconds", "_s")
    )


def compare(
    current: Dict[str, float], baseline: Dict[str, float], tolerance: float
):
    """Yield ``(metric, base, now, ratio, ok)`` rows for the baseline metrics."""
    for metric in sorted(baseline):
        base = baseline[metric]
        now = current.get(metric)
        if now is None:
            yield metric, base, None, None, False
            continue
        if base == 0:
            ratio, ok = 1.0, True  # a zero baseline cannot regress meaningfully
        elif lower_is_better(metric):
            ratio = now / base
            ok = ratio <= 1.0 + tolerance
        else:
            ratio = now / base
            ok = ratio >= 1.0 - tolerance
        yield metric, base, now, ratio, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current", help="freshly generated metrics JSON")
    parser.add_argument("baseline", help="committed baseline metrics JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional regression (default 0.30)",
    )
    args = parser.parse_args(argv)

    current = load_metrics(args.current)
    baseline = load_metrics(args.baseline)
    failures = 0
    width = max((len(name) for name in baseline), default=10)
    print(f"{args.current} vs {args.baseline} (tolerance {args.tolerance:.0%})")
    for metric, base, now, ratio, ok in compare(current, baseline, args.tolerance):
        if now is None:
            print(f"  {metric:<{width}}  MISSING from current results")
            failures += 1
            continue
        verdict = "ok" if ok else "REGRESSED"
        print(
            f"  {metric:<{width}}  base={base:>12.1f}  now={now:>12.1f}"
            f"  x{ratio:.2f}  {verdict}"
        )
        if not ok:
            failures += 1
    if failures:
        print(f"{failures} metric(s) outside the tolerance band")
        return 1
    print("all metrics within the tolerance band")
    return 0


if __name__ == "__main__":
    sys.exit(main())
