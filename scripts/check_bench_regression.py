#!/usr/bin/env python
"""CI work regression gate over two ``BENCH_<n>.json`` reports.

    python scripts/check_bench_regression.py BASELINE.json CANDIDATE.json
    python scripts/check_bench_regression.py BENCH_9.json fresh.json --work-tolerance 0.02

Thin wrapper over :func:`repro.bench.compare_reports` so CI can gate a
fresh run against the committed trajectory snapshot without invoking
the full CLI. The gate reads only the deterministic work metrics
(Newton iterations, linear solves, modeled speedup): they are bitwise
reproducible at fixed seed and scale, so a snapshot committed from
different hardware still compares. Wall-clock is not gated; speed
claims are measured by ``perfbench/``.

``--inject-slowdown BENCH:work.METRIC:FACTOR`` multiplies one candidate
work metric before comparing — the self-test seam CI uses to prove the
gate actually fails on a seeded regression (a gate that cannot fail is
not a gate).

Exit codes: 0 ok, 1 regression (or invalid report), 2 reports not
comparable (scale/seed mismatch), 3 a report path does not exist.
The missing-file case is distinct from a regression so CI can tell a
never-committed / mistyped snapshot path apart from a real regression.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import (  # noqa: E402  (path bootstrap above)
    BenchReport,
    ScaleMismatch,
    compare_reports,
)
from repro.bench.compare import DEFAULT_WORK_TOLERANCE  # noqa: E402


def _inject_slowdown(report: BenchReport, spec: str) -> None:
    """Multiply one work metric in place: ``benchmark:work.metric:factor``."""
    try:
        bench_name, metric, factor_text = spec.split(":")
        factor = float(factor_text)
    except ValueError:
        raise SystemExit(f"bad --inject-slowdown spec {spec!r}; want BENCH:METRIC:FACTOR")
    bench = report.benchmarks.get(bench_name)
    if bench is None:
        raise SystemExit(f"--inject-slowdown: no benchmark {bench_name!r} in candidate")
    group, _, key = metric.partition(".")
    if group != "work" or key not in bench.work:
        raise SystemExit(f"--inject-slowdown: no work metric {metric!r} on {bench_name!r}")
    bench.work[key] *= factor


EXIT_CODE_EPILOG = """\
exit codes:
  0  gate passed: no hot-path regression past tolerance
  1  regression past tolerance (or an invalid/corrupt report file)
  2  reports not comparable: baseline and candidate were run at a
     different scale or seed (rerun `repro bench` to match the baseline)
  3  missing baseline (or candidate) report file: the committed
     BENCH_<n>.json snapshot was never created or the path is mistyped
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog=EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("baseline", help="previous BENCH_<n>.json")
    parser.add_argument("candidate", help="fresh BENCH_<n>.json to gate")
    parser.add_argument("--work-tolerance", type=float, default=DEFAULT_WORK_TOLERANCE)
    parser.add_argument(
        "--inject-slowdown",
        metavar="BENCH:METRIC:FACTOR",
        default=None,
        help="self-test seam: scale one candidate work metric before comparing",
    )
    args = parser.parse_args(argv)

    try:
        baseline = BenchReport.load(args.baseline)
        candidate = BenchReport.load(args.candidate)
    except FileNotFoundError as exc:
        print(
            f"bench report missing: {exc.filename!r} does not exist; pass the "
            "committed BENCH_<n>.json path",
            file=sys.stderr,
        )
        return 3
    except ValueError as exc:
        print(f"invalid bench report: {exc}", file=sys.stderr)
        return 1
    if args.inject_slowdown:
        _inject_slowdown(candidate, args.inject_slowdown)
        print(f"[self-test] injected slowdown: {args.inject_slowdown}")
    try:
        comparison = compare_reports(
            baseline,
            candidate,
            work_tolerance=args.work_tolerance,
            baseline_label=args.baseline,
            candidate_label=args.candidate,
        )
    except ScaleMismatch as exc:
        print(f"bench compare refused: {exc}", file=sys.stderr)
        return 2
    print(comparison.render())
    return 0 if comparison.ok else 1


if __name__ == "__main__":
    sys.exit(main())
