"""Command-line interface: regenerate any paper table or figure.

    python -m repro list
    python -m repro table4
    python -m repro figure6 --trials 100
    python -m repro figure7 --grids 2,4,8 --reynolds 0.1,1.0 --trials 1
    python -m repro figure7 --nx 20 --trace /tmp/figure7.jsonl
    python -m repro sweep --experiments figure7,figure8 --workers 2
    python -m repro serve-batch --requests 8 --workers 4 --trace /tmp/batch.jsonl
    python -m repro serve-batch --requests 50 --journal /tmp/batch.journal
    python -m repro serve-batch --resume /tmp/batch.journal
    python -m repro serve-batch --requests 8 --certify --journal /tmp/batch.journal
    python -m repro verify-journal /tmp/batch.journal
    python -m repro serve --requests 12 --shards 3 --workers-per-shard 2
    python -m repro serve --requests 12 --shards 3 --journal-dir /tmp/svc
    python -m repro serve --requests 12 --boards 4 --degradation offset_drift_sigma=0.4
    python -m repro serve --requests 12 --boards 4 --certify --canary-interval 2
    python -m repro capacity --boards 1,2,4 --rates 8,16 --slo 1e-6
    python -m repro trajectory --nx 8 --steps 40 --checkpoint-dir /tmp/ck
    python -m repro trajectory --nx 8 --steps 40 --checkpoint-dir /tmp/ck --resume
    python -m repro trace-summary /tmp/batch.jsonl
    python -m repro bench
    python -m repro bench --compare BENCH_5.json
    python -m repro bench --scale full --out /tmp/bench_full.json

Each command runs the corresponding experiment driver and prints the
same rows/series the paper reports. ``sweep`` fans several experiments
across worker processes and adds per-run linear-kernel accounting.
``serve-batch`` pushes a batch of random Burgers problems through the
fault-tolerant solve runtime (:mod:`repro.runtime`) — deadlines,
retries, degradation ladder — and prints the per-request outcomes;
``--faults`` injects seeded chaos (worker crashes, analog spikes,
solver hangs, analog degradation) to exercise the recovery paths, and
``--degradation`` ages every attempt's analog board. ``serve`` is the
scale-out sibling: the same request stream pushed through the sharded
async solve service (:mod:`repro.service`) — admission control,
per-tenant priorities, N journaled Runtime shards, journal-replay
fail-over when a shard's pool dies — with per-shard traces merged
into one file. ``--boards N`` (on both commands) routes every analog
settle through a fleet of N independently drifting boards
(:mod:`repro.fleet`): health-aware routing, predictive seed gating,
board-granularity quarantine with pressure-triggered recalibration,
and a structured fleet-exhausted fallback; ``--kill-board B:A`` is the
matching chaos seam. ``capacity`` sweeps fleet sizes against offered
load and an accuracy SLO and reports how many boards each rate needs.
``--certify`` (on both commands) re-verifies every converged answer
through the independent solve certificate (:mod:`repro.certify`) —
recomputed residual, bounds/boundary/conservation checks — escalating
a failed certificate into a digital re-solve and blaming the board
that produced the bad answer; ``serve --canary-interval N``
additionally routes a seeded known-answer probe through every fleet
board after each N service windows, quarantining drifting silicon
before user traffic reaches it. ``verify-journal`` re-audits a
committed journal offline: every stored solution is re-certified from
scratch and every stored certificate is checked for digest integrity.
``health-report``
runs one persistent board through a sequence of solves and renders the
analog health layer's verdict (tile statistics, seed-gate rejections,
quarantines, recalibrations).

Durability (:mod:`repro.checkpoint`): ``serve-batch --journal PATH``
appends a write-ahead journal of the batch — accepted requests,
started attempts, committed outcomes — and ``serve-batch --resume
PATH`` replays a killed run's completed outcomes without re-solving
and re-enqueues whatever was in flight, bitwise identical to a run
that was never killed. ``trajectory`` integrates a Burgers trajectory
with periodic atomic snapshots (``--checkpoint-dir``) and the matching
``--resume``. Both commands trap SIGTERM/SIGINT and shut down
gracefully: a final snapshot/journal record is flushed and the trace
manifest marks the run ``interrupted``.

Work gate (:mod:`repro.bench`): ``bench`` runs the fixed seven-benchmark
suite — a figure7-scale Burgers trajectory, the figure8 seeding
comparison, a ``serve-batch`` soak, a ``LinearKernel`` microbench and
the service, fleet and certification soaks — and writes a
schema-versioned ``BENCH_<n>.json`` report (wall-clock, span sums,
counters, deterministic work metrics, peak RSS) into the current
directory (auto-numbered continuation of the committed trajectory).
``--compare BASELINE.json`` additionally gates the deterministic work
metrics, which are comparable across machines, and exits non-zero on a
regression past ``--work-tolerance``. Wall-clock is recorded for
reading only; speed claims are measured by ``perfbench/``.

The solver-backed figures (7/8/9) and ``sweep`` accept ``--trace PATH``
to record a structured JSONL trace of the run — a run manifest (grid,
Reynolds, seed, code version) followed by every solver span and counter
(see :mod:`repro.trace`). ``trace-summary`` renders the per-phase
breakdown of any such file.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.experiments import (
    run_figure2,
    run_figure3,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.parallel import SWEEP_RUNNERS, run_parallel_sweep
from repro.experiments.trajectory import run_trajectory
from repro.analog.health import DegradationModel
from repro.checkpoint import BatchJournal, GracefulShutdown, read_journal
from repro.runtime import (
    FAULT_KINDS,
    FaultInjector,
    ProblemSpec,
    RetryPolicy,
    Runtime,
    SolveRequest,
    run_health_report,
)
from repro.trace import Tracer, summarize_trace_file, write_trace

__all__ = ["main"]


def _parse_floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


def _parse_ints(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _parse_degradation(text: str) -> DegradationModel:
    """Parse the ``--degradation`` spec into a model (see
    :meth:`repro.analog.health.DegradationModel.from_spec`)."""
    try:
        return DegradationModel.from_spec(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_kill_board(text: str) -> tuple:
    """Parse the ``--kill-board BOARD:AFTER`` chaos spec."""
    board, sep, after = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"kill spec {text!r} is not of the form BOARD:AFTER_ROUTES"
        )
    try:
        return (int(board), int(after))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"kill spec {text!r} needs integer board id and route count"
        )


def _parse_fault_rates(text: str) -> dict:
    """Parse ``kind=rate,kind=rate`` into a fault-rate mapping."""
    rates = {}
    for part in text.split(","):
        kind, _, rate = part.partition("=")
        if not rate:
            raise argparse.ArgumentTypeError(
                f"fault spec {part!r} is not of the form kind=rate"
            )
        rates[kind.strip()] = float(rate)
    return rates


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables and figures of the MICRO-50 2017 "
        "hybrid analog-digital PDE paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared ``--trace`` option for every command that drives solvers.
    # A parent parser (rather than a root-level flag) keeps the natural
    # ``repro figure7 --trace PATH`` syntax working.
    traceable = argparse.ArgumentParser(add_help=False)
    traceable.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a structured JSONL trace of the run to PATH",
    )

    sub.add_parser("list", help="list available experiments")
    sub.add_parser("table1", help="workload function profiles")
    sub.add_parser("table2", help="Reynolds number effects")
    sub.add_parser("table3", help="analog component usage per variable")
    sub.add_parser("table4", help="scaled accelerator area/power")
    sub.add_parser("table5", help="related-work matrix")

    fig2 = sub.add_parser("figure2", help="basins for u^3 - 1")
    fig2.add_argument("--resolution", type=int, default=96)

    fig3 = sub.add_parser("figure3", help="Equation 2 with/without homotopy")
    fig3.add_argument("--resolution", type=int, default=64)

    fig6 = sub.add_parser("figure6", help="analog error distribution")
    fig6.add_argument("--trials", type=int, default=100)

    fig7 = sub.add_parser(
        "figure7", help="digital vs analog time to convergence", parents=[traceable]
    )
    fig7.add_argument("--grids", type=_parse_ints, default=(2, 4, 8, 16))
    fig7.add_argument(
        "--nx", type=int, default=None, help="single grid size (overrides --grids)"
    )
    fig7.add_argument("--reynolds", type=_parse_floats, default=(0.01, 0.1, 1.0))
    fig7.add_argument("--trials", type=int, default=1)
    fig7.add_argument("--seed", type=int, default=0)

    fig8 = sub.add_parser(
        "figure8", help="baseline vs seeded across Reynolds", parents=[traceable]
    )
    fig8.add_argument("--grid", type=int, default=16)
    fig8.add_argument("--reynolds", type=_parse_floats, default=(0.25, 2.0))
    fig8.add_argument("--trials", type=int, default=2)
    fig8.add_argument("--seed", type=int, default=0)

    fig9 = sub.add_parser("figure9", help="GPU-scale time and energy", parents=[traceable])
    fig9.add_argument("--grids", type=_parse_ints, default=(16,))
    fig9.add_argument("--trials", type=int, default=1)
    fig9.add_argument("--seed", type=int, default=1)

    sweep = sub.add_parser(
        "sweep", help="run several experiments across worker processes", parents=[traceable]
    )
    sweep.add_argument(
        "--experiments",
        type=lambda text: tuple(text.split(",")),
        default=tuple(sorted(SWEEP_RUNNERS)),
        help="comma-separated subset of: " + ",".join(sorted(SWEEP_RUNNERS)),
    )
    sweep.add_argument("--workers", type=int, default=None, help="process count (1 = serial)")

    serve = sub.add_parser(
        "serve-batch",
        help="run a batch of solve requests through the fault-tolerant runtime",
        parents=[traceable],
    )
    serve.add_argument("--requests", type=int, default=8, help="number of solve requests")
    serve.add_argument(
        "--grids", type=_parse_ints, default=(2,), help="Burgers grid sizes, round-robin"
    )
    serve.add_argument("--reynolds", type=float, default=1.0)
    serve.add_argument("--workers", type=int, default=1, help="process count (1 = in-process)")
    serve.add_argument("--seed", type=int, default=0, help="runtime seed (retries, fault draws)")
    serve.add_argument(
        "--deadline", type=float, default=None, help="per-attempt deadline in seconds"
    )
    serve.add_argument("--max-attempts", type=int, default=3)
    serve.add_argument(
        "--analog-time-limit", type=float, default=60.0, help="analog settle budget per attempt"
    )
    serve.add_argument(
        "--faults",
        type=_parse_fault_rates,
        default=None,
        metavar="KIND=RATE,...",
        help="inject chaos faults, e.g. worker_crash=0.1,analog_spike=0.2 "
        "(kinds: " + ",".join(FAULT_KINDS) + ")",
    )
    serve.add_argument(
        "--degradation",
        type=_parse_degradation,
        default=None,
        metavar="KEY=VALUE,...",
        help="age every attempt's analog board, e.g. "
        "offset_drift_sigma=0.2,gain_drift_sigma=0.02 "
        "(lists ';'-separated: stuck_tiles=chip0.tile1;chip0.tile3)",
    )

    serve.add_argument(
        "--boards",
        type=int,
        default=None,
        metavar="N",
        help="route analog settles across a fleet of N independently "
        "drifting boards (health-aware routing, predictive seed "
        "gating, board quarantine); default: the single pre-fleet board",
    )
    serve.add_argument(
        "--kill-board",
        type=_parse_kill_board,
        default=None,
        metavar="BOARD:AFTER",
        help="chaos seam: kill fleet board BOARD once AFTER routing "
        "decisions have been made (requires --boards)",
    )
    serve.add_argument(
        "--settle-max-steps",
        type=int,
        default=None,
        metavar="N",
        help="bound each analog settle to N accepted integrator steps "
        "(a drifted board then costs bounded work instead of "
        "unbounded wall-clock)",
    )
    serve.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="append a write-ahead journal of the batch to PATH; a "
        "killed run can be resumed with --resume PATH",
    )
    serve.add_argument(
        "--resume",
        metavar="JOURNAL",
        default=None,
        help="resume a killed batch from its journal: completed "
        "outcomes are replayed without re-solving, in-flight requests "
        "are re-enqueued, and the runtime (seed, faults, degradation) "
        "is rebuilt from the journal's recorded configuration",
    )
    serve.add_argument(
        "--certify",
        action="store_true",
        help="re-verify every converged answer through the independent "
        "solve certificate before committing it; a failed certificate "
        "escalates to a digital re-solve and blames the analog board",
    )
    serve.add_argument(
        "--crash-after-outcomes", type=int, default=None, help=argparse.SUPPRESS
    )

    service = sub.add_parser(
        "serve",
        help="run requests through the sharded async solve service",
        parents=[traceable],
    )
    service.add_argument("--requests", type=int, default=8, help="number of solve requests")
    service.add_argument("--shards", type=int, default=2, help="Runtime shard count")
    service.add_argument(
        "--workers-per-shard", type=int, default=1, help="pool width inside each shard"
    )
    service.add_argument(
        "--grids", type=_parse_ints, default=(2,), help="Burgers grid sizes, round-robin"
    )
    service.add_argument("--reynolds", type=float, default=1.0)
    service.add_argument("--seed", type=int, default=0, help="service seed (shared by shards)")
    service.add_argument(
        "--queue-limit", type=int, default=64, help="admission-queue bound (backpressure)"
    )
    service.add_argument(
        "--batch-window", type=int, default=4, help="max requests per shard dispatch window"
    )
    service.add_argument(
        "--tenants", type=int, default=1, help="spread requests across N synthetic tenants"
    )
    service.add_argument(
        "--deadline", type=float, default=None, help="per-attempt deadline in seconds"
    )
    service.add_argument("--max-attempts", type=int, default=3)
    service.add_argument(
        "--analog-time-limit", type=float, default=60.0, help="analog settle budget per attempt"
    )
    service.add_argument(
        "--faults",
        type=_parse_fault_rates,
        default=None,
        metavar="KIND=RATE,...",
        help="inject chaos faults on every shard (kinds: " + ",".join(FAULT_KINDS) + ")",
    )
    service.add_argument(
        "--degradation",
        type=_parse_degradation,
        default=None,
        metavar="KEY=VALUE,...",
        help="age every attempt's analog board (same syntax as serve-batch)",
    )
    service.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help="write per-shard write-ahead journals into DIR (enables "
        "journal-replay fail-over when a shard crashes)",
    )
    service.add_argument(
        "--boards",
        type=int,
        default=None,
        metavar="N",
        help="share one fleet of N analog boards across every shard "
        "(health-aware routing, predictive gating, quarantine)",
    )
    service.add_argument(
        "--kill-board",
        type=_parse_kill_board,
        default=None,
        metavar="BOARD:AFTER",
        help="chaos seam: kill fleet board BOARD once AFTER routing "
        "decisions have been made (requires --boards)",
    )
    service.add_argument(
        "--settle-max-steps",
        type=int,
        default=None,
        metavar="N",
        help="bound each analog settle to N accepted integrator steps",
    )
    service.add_argument(
        "--certify",
        action="store_true",
        help="re-verify every converged answer through the independent "
        "solve certificate on every shard (escalation on failure)",
    )
    service.add_argument(
        "--canary-interval",
        type=int,
        default=None,
        metavar="N",
        help="probe every fleet board with a seeded known-answer solve "
        "after each N service windows, quarantining boards whose "
        "answers drift (requires --boards)",
    )

    verify = sub.add_parser(
        "verify-journal",
        help="re-certify every committed outcome in a batch journal",
    )
    verify.add_argument("path", help="journal written by serve-batch --journal")
    verify.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="REL",
        help="override the relative-residual tolerance (default: the "
        "policy recorded in the journal, else the certify defaults)",
    )

    capacity = sub.add_parser(
        "capacity",
        help="sweep fleet sizes vs. request rates against an accuracy SLO",
        parents=[traceable],
    )
    capacity.add_argument(
        "--boards",
        type=_parse_ints,
        default=(1, 2, 4),
        metavar="N,N,...",
        help="fleet sizes to sweep (default 1,2,4)",
    )
    capacity.add_argument(
        "--rates",
        type=_parse_ints,
        default=(8, 16),
        metavar="N,N,...",
        help="offered loads (requests per batch) to sweep (default 8,16)",
    )
    capacity.add_argument(
        "--slo",
        type=float,
        default=1e-6,
        help="accuracy SLO: residual bound an analog-served answer must meet",
    )
    capacity.add_argument(
        "--target",
        type=float,
        default=0.75,
        help="target fraction of requests served on the analog path",
    )
    capacity.add_argument(
        "--drift-sigma",
        type=float,
        default=0.35,
        help="degradation drift level the fleet is sized against",
    )
    capacity.add_argument("--seed", type=int, default=0, help="sweep seed")
    capacity.add_argument(
        "--analog-time-limit", type=float, default=0.5, help="analog settle budget per attempt"
    )
    capacity.add_argument(
        "--settle-max-steps",
        type=int,
        default=2000,
        help="accepted-integrator-step bound per settle (keeps drifted boards cheap)",
    )

    traj = sub.add_parser(
        "trajectory",
        help="integrate a checkpointed Burgers trajectory (resumable)",
        parents=[traceable],
    )
    traj.add_argument("--nx", type=int, default=8, help="grid size (nx x nx)")
    traj.add_argument("--steps", type=int, default=40, help="implicit time steps")
    traj.add_argument("--dt", type=float, default=0.05)
    traj.add_argument(
        "--scheme", choices=("crank-nicolson", "implicit-euler", "bdf2"), default="bdf2"
    )
    traj.add_argument("--reynolds", type=float, default=1.0)
    traj.add_argument("--seed", type=int, default=0, help="boundary + initial-state seed")
    traj.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help="snapshot the integration state into DIR (atomic, hash-validated)",
    )
    traj.add_argument(
        "--checkpoint-every", type=int, default=10, help="snapshot every N steps"
    )
    traj.add_argument(
        "--keep", type=int, default=3, help="retain the newest N snapshots"
    )
    traj.add_argument(
        "--resume",
        action="store_true",
        help="restart from the newest valid snapshot in --checkpoint-dir",
    )
    traj.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="save the trajectory states array to PATH (numpy .npy)",
    )
    traj.add_argument("--crash-at-step", type=int, default=None, help=argparse.SUPPRESS)

    health = sub.add_parser(
        "health-report",
        help="age one analog board across solves and report its health",
        parents=[traceable],
    )
    health.add_argument("--solves", type=int, default=8, help="number of ladder solves")
    health.add_argument("--grid", type=int, default=2, help="Burgers grid size")
    health.add_argument("--reynolds", type=float, default=1.0)
    health.add_argument("--seed", type=int, default=0, help="die + problem seed")
    health.add_argument(
        "--degradation",
        type=_parse_degradation,
        default=None,
        metavar="KEY=VALUE,...",
        help="degradation model spec (same syntax as serve-batch --degradation)",
    )
    health.add_argument(
        "--analog-time-limit", type=float, default=60.0, help="analog settle budget per solve"
    )
    health.add_argument(
        "--boards",
        type=int,
        default=None,
        metavar="N",
        help="route the solves through an N-board fleet and add a per-board table "
        "(boards that never settled render '-' rates)",
    )
    health.add_argument(
        "--settle-max-steps",
        type=int,
        default=None,
        metavar="N",
        help="integrator step budget per analog settle (fleet mode)",
    )

    summary = sub.add_parser("trace-summary", help="render a per-phase summary of a trace file")
    summary.add_argument("path", help="JSONL trace written by --trace")

    from repro.bench import BENCHMARK_NAMES, DEFAULT_SCALE, SCALES
    from repro.bench.compare import DEFAULT_WORK_TOLERANCE

    bench = sub.add_parser(
        "bench",
        help="run the fixed work suite; emit a BENCH_<n>.json report",
    )
    bench.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default=DEFAULT_SCALE,
        help="suite size (smoke = committed-trajectory/CI size, full = deeper local run)",
    )
    bench.add_argument("--seed", type=int, default=0, help="suite seed (reports compare at equal seed)")
    bench.add_argument(
        "--only",
        type=lambda text: tuple(text.split(",")),
        default=None,
        metavar="NAME,...",
        help="run a subset of: " + ",".join(BENCHMARK_NAMES),
    )
    bench.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="report path (default: next free BENCH_<n>.json in the current directory)",
    )
    bench.add_argument(
        "--no-out", action="store_true", help="run and print only; write no report file"
    )
    bench.add_argument(
        "--compare",
        metavar="BASELINE",
        default=None,
        help="gate this run's work metrics against a previous BENCH_<n>.json; "
        "exits 1 on a regression past tolerance, 3 if BASELINE does not exist",
    )
    bench.add_argument(
        "--work-tolerance",
        type=float,
        default=DEFAULT_WORK_TOLERANCE,
        help="allowed relative growth on deterministic work metrics (default 0.01)",
    )
    return parser


def _fleet_config(args):
    """Build the FleetConfig for ``--boards``/``--kill-board`` (or None)."""
    from repro.fleet import FleetConfig

    if args.boards is None and args.kill_board is None:
        return None
    if args.boards is None:
        raise SystemExit("--kill-board requires --boards")
    return FleetConfig(boards=args.boards, kill_board_after=args.kill_board)


def _ladder_kwargs(args):
    if getattr(args, "settle_max_steps", None) is None:
        return None
    return {"settle_max_steps": args.settle_max_steps}


def _make_tracer(trace_path: Optional[str], command: str, **manifest) -> Optional[Tracer]:
    """Build a recording tracer when ``--trace`` was given, else None.

    The manifest keys (grid, Reynolds, seed, ...) land in the trace
    file's header line alongside the code version.
    """
    if trace_path is None:
        return None
    return Tracer(manifest={"command": command, **manifest})


def _run_bench_command(args) -> int:
    """Run the bench suite, write the report, optionally gate it.

    Exit codes: 0 ok, 1 regression gate failed, 2 reports not
    comparable (scale/seed mismatch), 3 baseline snapshot missing.
    The missing-baseline case gets its own code so CI can tell "the
    trajectory snapshot was never committed / a path was fat-fingered"
    apart from a real work regression.
    """
    from pathlib import Path

    from repro.bench import (
        BenchReport,
        ScaleMismatch,
        compare_reports,
        next_bench_path,
        run_bench_suite,
    )

    report = run_bench_suite(
        scale=args.scale,
        seed=args.seed,
        only=args.only,
        progress=lambda name: print(f"[bench] running {name} ({args.scale})", flush=True),
    )
    parts = [report.render()]
    out_path: Optional[Path] = None
    if not args.no_out:
        out_path = Path(args.out) if args.out is not None else next_bench_path(".")
        report.save(out_path)
        parts.append(f"wrote {out_path}")
    exit_code = 0
    if args.compare is not None:
        try:
            baseline = BenchReport.load(args.compare)
        except FileNotFoundError:
            print("\n\n".join(parts))
            print(
                f"bench compare refused: baseline snapshot {args.compare!r} does not "
                "exist; pass the committed BENCH_<n>.json path (or run `repro bench` "
                "once to create the first snapshot)",
                file=sys.stderr,
            )
            return 3
        try:
            comparison = compare_reports(
                baseline,
                report,
                work_tolerance=args.work_tolerance,
                baseline_label=str(args.compare),
                candidate_label=str(out_path) if out_path is not None else "this run",
            )
        except ScaleMismatch as exc:
            print("\n\n".join(parts))
            print(f"\nbench compare refused: {exc}", file=sys.stderr)
            return 2
        parts.append(comparison.render())
        exit_code = 0 if comparison.ok else 1
    print("\n\n".join(parts))
    return exit_code


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    command = args.command
    tracer: Optional[Tracer] = None
    if command == "list":
        print("tables:  table1 table2 table3 table4 table5")
        print("figures: figure2 figure3 figure6 figure7 figure8 figure9")
        print("sweeps:  sweep (parallel: " + " ".join(sorted(SWEEP_RUNNERS)) + ")")
        print("runtime: serve-batch (fault-tolerant batch solving; --journal/--resume/--certify)")
        print("         serve (sharded async solve service; admission, fail-over, canaries)")
        print("         verify-journal (offline re-certification of a batch journal)")
        print("         capacity (fleet sizing: boards vs. request rate vs. SLO)")
        print("         health-report (analog board aging + health monitor)")
        print("         trajectory (checkpointed, crash-resumable integration)")
        print("tools:   trace-summary")
        print("perf:    bench (fixed suite -> BENCH_<n>.json; --compare gates regressions)")
        return 0
    if command == "trace-summary":
        print(summarize_trace_file(args.path))
        return 0
    if command == "verify-journal":
        from repro.certify import verify_journal
        from repro.checkpoint import JournalError

        try:
            verification = verify_journal(args.path, tolerance=args.tolerance)
        except (OSError, JournalError) as exc:
            print(f"verify-journal: cannot audit {args.path}: {exc}", file=sys.stderr)
            return 2
        print(verification.render())
        return 0 if verification.ok else 1
    if command == "bench":
        return _run_bench_command(args)
    if command == "table1":
        result = run_table1()
    elif command == "table2":
        result = run_table2()
    elif command == "table3":
        result = run_table3()
    elif command == "table4":
        result = run_table4()
    elif command == "table5":
        result = run_table5()
    elif command == "figure2":
        result = run_figure2(resolution=args.resolution)
    elif command == "figure3":
        result = run_figure3(resolution=args.resolution)
    elif command == "figure6":
        result = run_figure6(trials=args.trials)
    elif command == "figure7":
        grids = (args.nx,) if args.nx is not None else args.grids
        tracer = _make_tracer(
            args.trace,
            command,
            grid_sizes=list(grids),
            reynolds_values=list(args.reynolds),
            trials=args.trials,
            seed=args.seed,
        )
        result = run_figure7(
            grid_sizes=grids,
            reynolds_values=args.reynolds,
            trials=args.trials,
            seed=args.seed,
            tracer=tracer,
        )
    elif command == "figure8":
        tracer = _make_tracer(
            args.trace,
            command,
            grid_sizes=[args.grid],
            reynolds_values=list(args.reynolds),
            trials=args.trials,
            seed=args.seed,
        )
        result = run_figure8(
            grid_n=args.grid,
            reynolds_values=args.reynolds,
            trials=args.trials,
            seed=args.seed,
            tracer=tracer,
        )
    elif command == "figure9":
        tracer = _make_tracer(
            args.trace, command, grid_sizes=list(args.grids), trials=args.trials, seed=args.seed
        )
        result = run_figure9(grid_sizes=args.grids, trials=args.trials, seed=args.seed, tracer=tracer)
    elif command == "sweep":
        result = run_parallel_sweep(
            names=args.experiments, max_workers=args.workers, trace_path=args.trace
        )
    elif command == "serve-batch":
        if args.resume is not None and args.journal is not None:
            raise SystemExit(
                "--journal starts a new journal, --resume continues one; "
                "pass only --resume (it keeps appending to the same file)"
            )
        replay = None
        if args.resume is not None:
            replay = read_journal(args.resume)
            # --certify on resume adds certification to a journal that
            # was recorded without it; a certified journal keeps its
            # recorded policy either way.
            resume_overrides = {"certify": True} if args.certify else {}
            runtime = replay.build_runtime(
                journal=BatchJournal.resume(replay),
                crash_after_outcomes=args.crash_after_outcomes,
                **resume_overrides,
            )
            requests = replay.requests
            tracer = _make_tracer(
                args.trace,
                command,
                requests=len(requests),
                seed=runtime.seed,
                resumed_from=str(args.resume),
            )
        else:
            tracer = _make_tracer(
                args.trace,
                command,
                requests=args.requests,
                grids=list(args.grids),
                reynolds=args.reynolds,
                workers=args.workers,
                seed=args.seed,
            )
            requests = [
                SolveRequest(
                    request_id=f"req-{index:04d}",
                    problem=ProblemSpec.burgers(
                        grid_n=args.grids[index % len(args.grids)],
                        reynolds=args.reynolds,
                        seed=args.seed + index,
                    ),
                    deadline_seconds=args.deadline,
                    analog_time_limit=args.analog_time_limit,
                )
                for index in range(args.requests)
            ]
            runtime = Runtime(
                workers=args.workers,
                queue_limit=max(256, args.requests),
                retry=RetryPolicy(max_attempts=args.max_attempts),
                seed=args.seed,
                faults=(
                    FaultInjector.from_rates(args.faults, seed=args.seed)
                    if args.faults
                    else None
                ),
                degradation=args.degradation,
                journal=(BatchJournal(args.journal) if args.journal else None),
                crash_after_outcomes=args.crash_after_outcomes,
                ladder_kwargs=_ladder_kwargs(args),
                fleet=_fleet_config(args),
                certify=args.certify or None,
            )
        try:
            with GracefulShutdown() as shutdown:
                result = runtime.run_batch(
                    requests, tracer=tracer, resume=replay, shutdown=shutdown
                )
        finally:
            if runtime.journal is not None:
                runtime.journal.close()
    elif command == "serve":
        from repro.service import serve_requests

        fleet = _fleet_config(args)
        if args.canary_interval is not None and fleet is None:
            raise SystemExit("--canary-interval requires --boards")
        requests = [
            SolveRequest(
                request_id=f"req-{index:04d}",
                problem=ProblemSpec.burgers(
                    grid_n=args.grids[index % len(args.grids)],
                    reynolds=args.reynolds,
                    seed=args.seed + index,
                ),
                deadline_seconds=args.deadline,
                analog_time_limit=args.analog_time_limit,
            )
            for index in range(args.requests)
        ]
        # The service merges its own per-shard traces; the shared
        # single-tracer export path below stays unused here.
        result = serve_requests(
            requests,
            tenants=(
                [f"tenant-{index % args.tenants}" for index in range(args.requests)]
                if args.tenants > 1
                else None
            ),
            trace_path=args.trace,
            shards=args.shards,
            workers_per_shard=args.workers_per_shard,
            queue_limit=args.queue_limit,
            batch_window=args.batch_window,
            seed=args.seed,
            retry=RetryPolicy(max_attempts=args.max_attempts),
            faults=(
                FaultInjector.from_rates(args.faults, seed=args.seed)
                if args.faults
                else None
            ),
            degradation=args.degradation,
            journal_dir=args.journal_dir,
            ladder_kwargs=_ladder_kwargs(args),
            fleet=fleet,
            certify=args.certify or None,
            canary_interval=args.canary_interval,
        )
    elif command == "trajectory":
        tracer = _make_tracer(
            args.trace,
            command,
            nx=args.nx,
            steps=args.steps,
            dt=args.dt,
            scheme=args.scheme,
            reynolds=args.reynolds,
            seed=args.seed,
        )
        with GracefulShutdown() as shutdown:
            result = run_trajectory(
                nx=args.nx,
                steps=args.steps,
                dt=args.dt,
                scheme=args.scheme,
                reynolds=args.reynolds,
                seed=args.seed,
                checkpoint_dir=args.checkpoint_dir,
                checkpoint_every=args.checkpoint_every,
                keep=args.keep,
                resume=args.resume,
                tracer=tracer,
                shutdown=shutdown,
                crash_at_step=args.crash_at_step,
            )
        if tracer is not None:
            tracer.manifest["status"] = (
                "interrupted" if result.interrupted_at is not None else "completed"
            )
        if args.out is not None:
            completed = len(result.trajectory.newton_results)
            np.save(args.out, result.trajectory.states[: completed + 1])
    elif command == "capacity":
        from repro.experiments import run_capacity

        tracer = _make_tracer(
            args.trace,
            command,
            boards=list(args.boards),
            rates=list(args.rates),
            slo=args.slo,
            target=args.target,
            seed=args.seed,
        )
        result = run_capacity(
            boards_list=args.boards,
            rates=args.rates,
            slo=args.slo,
            target=args.target,
            drift_sigma=args.drift_sigma,
            seed=args.seed,
            analog_time_limit=args.analog_time_limit,
            settle_max_steps=args.settle_max_steps,
            tracer=tracer,
        )
    elif command == "health-report":
        tracer = _make_tracer(
            args.trace,
            command,
            solves=args.solves,
            grid=args.grid,
            reynolds=args.reynolds,
            seed=args.seed,
        )
        result = run_health_report(
            solves=args.solves,
            grid_n=args.grid,
            reynolds=args.reynolds,
            seed=args.seed,
            degradation=args.degradation,
            analog_time_limit=args.analog_time_limit,
            boards=args.boards,
            settle_max_steps=args.settle_max_steps,
            tracer=tracer,
        )
    else:  # pragma: no cover - argparse guards this
        raise SystemExit(f"unknown command {command}")
    if tracer is not None:
        write_trace(tracer, args.trace)
    print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
