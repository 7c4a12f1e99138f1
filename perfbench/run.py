"""Benchmark of record for the hybrid analog-digital Burgers solver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hybrid_burgers --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with no timing inside the
program. ``--trace 1`` measures the per-layer metrics: it runs the first
third of the workload's cycles untraced, then replays exactly the same
inputs with every layer wrapped (see ``perfbench/layers.py``), checks
that both passes produced bitwise-identical answers, and reports self
time and counts per layer plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and the environment fingerprint.
The exit code is 0 when a result was printed and 2 when the program
under test is missing.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.env import fingerprint, pin_threads  # noqa: E402

pin_threads()

# workloads.WORKLOADS, named here because that module imports the
# program, which the argument check must not need.
WORKLOAD_NAMES = ("hybrid_burgers", "digital_trajectory", "service_closed_loop")
# setup_s is the median of this many set-ups: this process's own and
# fresh processes that import and build the workload's objects.
SETUP_SAMPLES = 7
# The traced run measures this fraction of the workload's cycles twice,
# untraced and traced, so with the tracing overhead it stays under one
# run's time.
TRACED_SHARE = 3
# A run may take 180 s. No request starts later than this after the
# process started; a request in flight can take ~25 s more (~33 s
# traced). A traced run's untraced pass stops starting requests at
# UNTRACED_CUTOFF_S.
REQUEST_CUTOFF_S = 135.0
UNTRACED_CUTOFF_S = 60.0
TRACED_CUTOFF_S = 130.0


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOAD_NAMES,
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _probe_setup(args) -> float:
    """One set-up in a fresh interpreter; returns its seconds."""
    completed = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
            "--seconds",
            "1",
            "--setup-probe",
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=str(ROOT),
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    from perfbench import metrics as metric_lib
    from perfbench import workloads
    from perfbench.layers import Instrumentation, SpanRecorder

    objects = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - _STARTED
    if args.setup_probe:
        workloads.release(objects)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    lines = []
    count = workloads.cycles(args.workload, args.seconds)
    if args.trace == 1:
        count = max(1, count // TRACED_SHARE)
    cutoff = REQUEST_CUTOFF_S if args.trace == 0 else UNTRACED_CUTOFF_S
    try:
        with Instrumentation(traced=False) as taps:
            untraced = workloads.run(
                args.workload,
                objects,
                taps,
                workloads.make_plan(args.workload, objects, count),
                stop_at=_STARTED + cutoff,
            )
    finally:
        workloads.release(objects)
    caps = metric_lib.settle_caps(taps.settles)
    lines.append(f"detail untraced_settles = {len(taps.settles)}")
    lines += [f"detail {name} = {value:.6g}" for name, (value, _unit) in caps.items()]
    lines.append(f"detail truncated = {untraced.truncated}")
    if args.trace == 0:
        result = untraced
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        values, details = metric_lib.end_to_end(result, statistics.median(setups), peak_rss_mb)
        lines += [f"detail {name} = {value:.6g}" for name, value in details.items()]
        correct = result.wrong == 0
    else:
        recorder = SpanRecorder()
        objects = workloads.build(args.workload, args.seed)
        try:
            with Instrumentation(traced=True, recorder=recorder) as spans:
                result = workloads.run(
                    args.workload,
                    objects,
                    spans,
                    untraced.plan,
                    recorder=recorder,
                    stop_at=_STARTED + TRACED_CUTOFF_S,
                )
        finally:
            workloads.release(objects)
        values = metric_lib.per_layer(result, spans, recorder, untraced, taps)
        recorder.write(workloads.WORKDIR / f"spans-{args.workload}.jsonl")
        pure = untraced.same_answers(result)
        lines.append(f"detail traced_cycles = {len(result.plan)}")
        lines.append(f"detail traced_truncated = {result.truncated}")
        lines.append(f"detail traced_equals_untraced = {pure}")
        lines.append(f"detail spans_kept = {len(recorder.spans)} dropped = {recorder.spans_dropped}")
        correct = pure and result.wrong == 0 and untraced.wrong == 0

    for name, (value, unit) in values.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for line in lines:
        print(line)
    print("fingerprint " + json.dumps(fingerprint(ROOT), sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(result.attempted),
                "failed": int(result.failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
