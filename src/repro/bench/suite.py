"""The fixed benchmark suite behind ``repro bench``.

Four benchmarks, each exercising one layer the roadmap's speed work
lands in, each traced with its own :class:`repro.trace.Tracer` so the
report can separate *where the time went* (``linear_solve`` /
``analog_settle`` span sums) from *how much work was done* (Newton
iterations, linear solves — deterministic at fixed seed):

* ``trajectory`` — a figure7-scale implicit Burgers trajectory through
  :func:`repro.experiments.trajectory.run_trajectory` (the method-of-
  lines path every speed PR must not regress);
* ``figure8_seeding`` — the paper's baseline-vs-analog-seeded
  comparison (:func:`repro.experiments.figure8.run_figure8`), whose
  modeled speedup is the headline claim;
* ``serve_batch`` — a batch soak through the fault-tolerant
  :class:`repro.runtime.Runtime` (admission, ladder, absorbed worker
  traces);
* ``kernel_micro`` — the hot-loop microbench: the numeric phase of
  stencil Jacobian assembly (values written into the pattern cached by
  the first call), CSR matvec, and cached-preconditioner
  :class:`~repro.linalg.kernel.LinearKernel` solves;
* ``service_soak`` — sustained requests/sec through the sharded async
  solve service (:mod:`repro.service`): a stream of cheap digital-only
  solves pushed through admission control (queue bound tighter than
  the stream, so backpressure engages) across several shards, with
  throughput and p99 latency emitted as counters;
* ``fleet_soak`` — the same service front-end with the analog path
  live against a drifting board fleet (:mod:`repro.fleet`): cheap
  quadratic solves on the full ladder, a hot degradation model, and a
  bounded settle budget, so the predictive gate's vetoes
  (``settles_avoided``), the audit stream, and quarantine /
  recalibration churn all fire at measurable, seeded rates. One shard
  on purpose: fleet EWMAs evolve with observation order, and a single
  serial window stream keeps the work metrics bitwise reproducible;
* ``certify_soak`` — the certification layer's cost and its defense,
  in one benchmark: the same Burgers batch is solved uncertified and
  certified (min-of-repeats timing → ``certify_overhead_ratio``, plus
  a bitwise-identity check that certification never perturbs a
  solution), then a certified fleet batch runs under targeted
  ``silent_corruption`` injection so ``corruption_caught`` /
  ``resolves_triggered`` / ``boards_condemned`` land as deterministic
  work metrics the regression gate can pin.

Scales (``--scale``): ``smoke`` is the committed-trajectory /
CI-comparable size (tens of seconds); ``full`` is the deeper local
size. Reports are only comparable at equal scale and seed.

Peak RSS comes from ``resource.getrusage(RUSAGE_SELF)`` — a
process-lifetime high-water mark, so per-benchmark values are
non-decreasing in suite order; the last benchmark's value is the
suite's peak.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Callable, Dict, Optional

import numpy as np

from repro.bench.schema import BENCH_SCHEMA_VERSION, BenchReport, BenchmarkResult
from repro.trace.exporter import build_manifest
from repro.trace.tracer import Tracer

try:  # POSIX only; Windows gets peak_rss_kb = 0 rather than a crash.
    import resource
except ImportError:  # pragma: no cover - non-POSIX
    resource = None  # type: ignore[assignment]

__all__ = ["SCALES", "DEFAULT_SCALE", "BENCHMARK_NAMES", "run_bench_suite"]

DEFAULT_SCALE = "smoke"

# Per-benchmark parameters at each scale. "smoke" is what the committed
# BENCH_<n>.json trajectory and the CI gate run; "full" is the deeper
# local suite (same benchmarks, bigger grids / more repetitions).
SCALES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "smoke": {
        "trajectory": {"nx": 8, "steps": 24, "dt": 0.05, "scheme": "bdf2", "reynolds": 1.0},
        "figure8_seeding": {"grid_n": 8, "reynolds": (0.25, 1.0), "trials": 2},
        "serve_batch": {
            "requests": 6,
            "grids": (2, 4),
            "reynolds": 1.0,
            "max_attempts": 2,
            "analog_time_limit": 20.0,
        },
        "kernel_micro": {"grid_n": 16, "assemblies": 100, "solves": 100},
        "service_soak": {
            "requests": 12,
            "shards": 3,
            "workers_per_shard": 1,
            "batch_window": 2,
            "queue_limit": 8,
            "max_attempts": 2,
        },
        "fleet_soak": {
            "requests": 24,
            "boards": 3,
            "batch_window": 4,
            "queue_limit": 16,
            "max_attempts": 2,
            "drift_sigma": 0.5,
            "analog_time_limit": 0.5,
            "settle_max_steps": 2000,
        },
        "certify_soak": {
            "requests": 6,
            "grids": (2, 4),
            "reynolds": 1.0,
            "analog_time_limit": 20.0,
            "max_attempts": 2,
            "repeats": 3,
            "chaos_requests": 12,
            "chaos_corrupted": 2,
            "boards": 3,
            "chaos_analog_time_limit": 0.5,
            "settle_max_steps": 2000,
        },
    },
    "full": {
        "trajectory": {"nx": 16, "steps": 20, "dt": 0.05, "scheme": "bdf2", "reynolds": 1.0},
        "figure8_seeding": {"grid_n": 16, "reynolds": (0.25, 1.0, 2.0), "trials": 3},
        "serve_batch": {
            "requests": 16,
            "grids": (2, 4, 8),
            "reynolds": 1.0,
            "max_attempts": 2,
            "analog_time_limit": 60.0,
        },
        "kernel_micro": {"grid_n": 24, "assemblies": 200, "solves": 200},
        "service_soak": {
            "requests": 48,
            "shards": 4,
            "workers_per_shard": 1,
            "batch_window": 4,
            "queue_limit": 16,
            "max_attempts": 2,
        },
        "fleet_soak": {
            "requests": 64,
            "boards": 4,
            "batch_window": 8,
            "queue_limit": 32,
            "max_attempts": 2,
            "drift_sigma": 0.5,
            "analog_time_limit": 0.5,
            "settle_max_steps": 2000,
        },
        "certify_soak": {
            "requests": 12,
            "grids": (2, 4, 8),
            "reynolds": 1.0,
            "analog_time_limit": 60.0,
            "max_attempts": 2,
            "repeats": 3,
            "chaos_requests": 32,
            "chaos_corrupted": 4,
            "boards": 4,
            "chaos_analog_time_limit": 0.5,
            "settle_max_steps": 2000,
        },
    },
}

BENCHMARK_NAMES = (
    "trajectory",
    "figure8_seeding",
    "serve_batch",
    "kernel_micro",
    "service_soak",
    "fleet_soak",
    "certify_soak",
)


def _peak_rss_kb() -> int:
    """Process peak resident set size in KiB (0 where unavailable)."""
    if resource is None:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux but bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def _measure(
    name: str,
    params: Dict[str, Any],
    seed: int,
    body: Callable[[Tracer], Dict[str, float]],
) -> BenchmarkResult:
    """Run one benchmark body under a fresh tracer and package it.

    The body receives the tracer, does the work, and returns its
    deterministic ``work`` metrics; wall-clock, span sums/counts,
    counter totals and peak RSS are collected here so every benchmark
    reports the same shape.
    """
    tracer = Tracer(manifest={"benchmark": name})
    t0 = time.perf_counter()
    work = body(tracer)
    wall = time.perf_counter() - t0
    tracer.check_closed()
    names = sorted({record.name for record in tracer.spans})
    return BenchmarkResult(
        name=name,
        wall_seconds=wall,
        span_seconds={span: tracer.total_duration(span) for span in names},
        span_counts={span: len(tracer.spans_named(span)) for span in names},
        counters=dict(tracer.counters),
        work={key: float(value) for key, value in work.items()},
        peak_rss_kb=_peak_rss_kb(),
        params={**params, "seed": seed},
    )


# -- benchmark bodies -------------------------------------------------


def _bench_trajectory(params: Dict[str, Any], seed: int) -> BenchmarkResult:
    from repro.experiments.trajectory import run_trajectory

    def body(tracer: Tracer) -> Dict[str, float]:
        run = run_trajectory(
            nx=params["nx"],
            steps=params["steps"],
            dt=params["dt"],
            scheme=params["scheme"],
            reynolds=params["reynolds"],
            seed=seed,
            tracer=tracer,
        )
        stats = run.trajectory.linear_stats
        return {
            "newton_iterations": run.trajectory.total_newton_iterations,
            "linear_solves": stats.solves,
            "inner_iterations": stats.inner_iterations,
            "preconditioner_builds": stats.preconditioner_builds,
            "steps_converged": sum(
                1 for result in run.trajectory.newton_results if result.converged
            ),
        }

    return _measure("trajectory", params, seed, body)


def _bench_figure8(params: Dict[str, Any], seed: int) -> BenchmarkResult:
    from repro.experiments.figure8 import run_figure8

    def body(tracer: Tracer) -> Dict[str, float]:
        result = run_figure8(
            grid_n=params["grid_n"],
            reynolds_values=tuple(params["reynolds"]),
            trials=params["trials"],
            seed=seed,
            tracer=tracer,
        )
        stats = result.kernel_stats
        rows = result.rows_data
        baseline = float(np.mean([row["baseline digital (s)"] for row in rows])) if rows else 0.0
        seeded = float(np.mean([row["seeded digital (s)"] for row in rows])) if rows else 0.0
        return {
            "linear_solves": stats.solves if stats else 0,
            "inner_iterations": stats.inner_iterations if stats else 0,
            "rows": len(rows),
            # Cost-model outputs: deterministic functions of measured
            # iteration counts, i.e. cross-machine comparable.
            "modeled_baseline_s": baseline,
            "modeled_seeded_s": seeded,
            "modeled_speedup": baseline / seeded if seeded > 0 else 0.0,
        }

    return _measure("figure8_seeding", params, seed, body)


def _bench_serve_batch(params: Dict[str, Any], seed: int) -> BenchmarkResult:
    from repro.runtime import ProblemSpec, RetryPolicy, Runtime, SolveRequest

    def body(tracer: Tracer) -> Dict[str, float]:
        grids = tuple(params["grids"])
        requests = [
            SolveRequest(
                request_id=f"bench-{index:04d}",
                problem=ProblemSpec.burgers(
                    grid_n=grids[index % len(grids)],
                    reynolds=params["reynolds"],
                    seed=seed + index,
                ),
                analog_time_limit=params["analog_time_limit"],
            )
            for index in range(params["requests"])
        ]
        runtime = Runtime(
            workers=1,
            retry=RetryPolicy(max_attempts=params["max_attempts"]),
            seed=seed,
        )
        result = runtime.run_batch(requests, tracer=tracer)
        return {
            "requests_completed": result.completed,
            "requests_failed": result.failed,
            "runtime_attempts": result.counters.get("runtime_attempts", 0),
            "newton_iterations": sum(
                outcome.iterations for outcome in result.outcomes
            ),
        }

    return _measure("serve_batch", params, seed, body)


def _bench_kernel_micro(params: Dict[str, Any], seed: int) -> BenchmarkResult:
    from repro.linalg.kernel import LinearKernel, LinearSolverStats
    from repro.pde.burgers import random_burgers_system

    def body(tracer: Tracer) -> Dict[str, float]:
        rng = np.random.default_rng(seed)
        system, guess = random_burgers_system(params["grid_n"], 1.0, rng)
        jacobian = system.jacobian(guess)
        rhs = -system.residual(guess)

        # Hot path 1: stencil assembly. The call above built and cached
        # the sparsity pattern, so each span times the numeric phase only.
        for _ in range(params["assemblies"]):
            with tracer.span("stencil_assembly", dimension=system.dimension):
                jacobian = system.jacobian(guess)

        # Hot path 2: the CSR matvec every Krylov iteration pays for.
        vector = guess.copy()
        for _ in range(params["assemblies"]):
            with tracer.span("csr_matvec"):
                vector = jacobian.matvec(vector)
            norm = np.linalg.norm(vector)
            if norm > 0:
                vector /= norm

        # Hot path 3: cached-preconditioner kernel solves. One kernel,
        # fixed sparsity pattern: the factorization is built once and
        # reused, exactly the Newton-loop usage profile.
        stats = LinearSolverStats()
        kernel = LinearKernel(stats=stats)  # lifetime stats: charged once per solve
        for _ in range(params["solves"]):
            call_stats = LinearSolverStats()
            with tracer.span("linear_solve") as span:
                kernel.solve(jacobian, rhs, sink=call_stats)
                span.update(
                    inner_iterations=call_stats.inner_iterations,
                    matvecs=call_stats.matvecs,
                    preconditioner_builds=call_stats.preconditioner_builds,
                )
        return {
            "nnz": jacobian.nnz,
            "linear_solves": stats.solves,
            "inner_iterations": stats.inner_iterations,
            "matvecs": stats.matvecs,
            "preconditioner_builds": stats.preconditioner_builds,
        }

    return _measure("kernel_micro", params, seed, body)


def _bench_service_soak(params: Dict[str, Any], seed: int) -> BenchmarkResult:
    import tempfile
    from pathlib import Path

    from repro.runtime import ProblemSpec, RetryPolicy, SolveRequest
    from repro.service import serve_requests
    from repro.trace.exporter import read_trace

    def body(tracer: Tracer) -> Dict[str, float]:
        # Cheap digital-only solves: the soak measures the *service*
        # (admission, routing, windowing, journal/trace merge), not
        # the solver. The queue bound is tighter than the stream, so
        # backpressure engages on every run.
        requests = [
            SolveRequest(
                request_id=f"soak-{index:04d}",
                problem=ProblemSpec.quadratic(
                    rhs0=1.0, rhs1=1.3, guess=(0.1 + 0.01 * (index % 5), 0.1)
                ),
                rungs=("damped_newton",),
                analog_time_limit=1e-3,
            )
            for index in range(params["requests"])
        ]
        with tempfile.TemporaryDirectory() as tmp:
            trace_path = Path(tmp) / "service_soak.jsonl"
            result = serve_requests(
                requests,
                trace_path=trace_path,
                shards=params["shards"],
                workers_per_shard=params["workers_per_shard"],
                queue_limit=params["queue_limit"],
                batch_window=params["batch_window"],
                seed=seed,
                retry=RetryPolicy(
                    max_attempts=params["max_attempts"], base_delay=0.01, max_delay=0.05
                ),
            )
            merged = read_trace(trace_path)
        # Graft the merged shard trace into the bench tracer: the
        # report then carries real per-span sums (linear_solve,
        # newton_iter) alongside the service-level counters.
        tracer.absorb(merged.spans, counters=merged.counters, gauges=merged.gauges)
        tracer.counter("service_requests_per_sec", result.requests_per_second)
        tracer.counter("service_p99_latency_s", result.latency_p99)
        return {
            "requests_completed": result.completed,
            "requests_failed": result.failed,
            "requests_rejected": len(result.rejections),
            "runtime_attempts": result.counters.get("runtime_attempts", 0),
            "newton_iterations": len(merged.spans_named("newton_iter")),
            "linear_solves": len(merged.spans_named("linear_solve")),
        }

    return _measure("service_soak", params, seed, body)


def _bench_fleet_soak(params: Dict[str, Any], seed: int) -> BenchmarkResult:
    import tempfile
    from pathlib import Path

    from repro.analog.health import DegradationModel
    from repro.fleet import FleetConfig
    from repro.runtime import ProblemSpec, RetryPolicy, SolveRequest
    from repro.service import serve_requests
    from repro.trace.exporter import read_trace

    def body(tracer: Tracer) -> Dict[str, float]:
        # The analog path is live here (full ladder, hot drift model),
        # but each settle is bounded by settle_max_steps so a drifted
        # board costs capped work. One shard keeps routing/observation
        # order — and therefore the fleet's EWMA evolution and veto
        # counts — bitwise reproducible for the work-metric gate.
        drift = float(params["drift_sigma"])
        requests = [
            SolveRequest(
                request_id=f"fleet-{index:04d}",
                problem=ProblemSpec.quadratic(
                    rhs0=1.0 + 0.05 * index, rhs1=1.0
                ),
                analog_time_limit=params["analog_time_limit"],
            )
            for index in range(params["requests"])
        ]
        with tempfile.TemporaryDirectory() as tmp:
            trace_path = Path(tmp) / "fleet_soak.jsonl"
            result = serve_requests(
                requests,
                trace_path=trace_path,
                shards=1,
                workers_per_shard=1,
                queue_limit=params["queue_limit"],
                batch_window=params["batch_window"],
                seed=seed,
                retry=RetryPolicy(
                    max_attempts=params["max_attempts"],
                    base_delay=0.0,
                    max_delay=0.0,
                    jitter=0.0,
                ),
                degradation=DegradationModel(
                    offset_drift_sigma=drift,
                    gain_drift_sigma=drift / 2.0,
                    seed=seed + 7,
                ),
                ladder_kwargs={"settle_max_steps": int(params["settle_max_steps"])},
                fleet=FleetConfig(boards=int(params["boards"])),
            )
            merged = read_trace(trace_path)
        tracer.absorb(merged.spans, counters=merged.counters, gauges=merged.gauges)
        tracer.counter("service_requests_per_sec", result.requests_per_second)
        fleet_counters = (result.fleet or {}).get("counters", {})
        return {
            "requests_completed": result.completed,
            "requests_failed": result.failed,
            "runtime_attempts": result.counters.get("runtime_attempts", 0),
            "settles_avoided": fleet_counters.get("settles_avoided", 0),
            "gate_audits": fleet_counters.get("gate_audits", 0),
            "gate_false_positives": fleet_counters.get("gate_false_positive", 0),
            "boards_quarantined": fleet_counters.get("boards_quarantined", 0),
            "board_recalibrations": fleet_counters.get("board_recalibrations", 0),
            "fleet_exhausted": fleet_counters.get("fleet_exhausted", 0),
            "analog_settles": len(merged.spans_named("analog_settle")),
        }

    return _measure("fleet_soak", params, seed, body)


def _bench_certify_soak(params: Dict[str, Any], seed: int) -> BenchmarkResult:
    from repro.fleet import FleetConfig
    from repro.runtime import (
        FaultInjector,
        FaultSpec,
        ProblemSpec,
        RetryPolicy,
        Runtime,
        SolveRequest,
    )

    def body(tracer: Tracer) -> Dict[str, float]:
        grids = tuple(params["grids"])

        def burgers_requests():
            return [
                SolveRequest(
                    request_id=f"certify-{index:04d}",
                    problem=ProblemSpec.burgers(
                        grid_n=grids[index % len(grids)],
                        reynolds=params["reynolds"],
                        seed=seed + index,
                    ),
                    analog_time_limit=params["analog_time_limit"],
                )
                for index in range(params["requests"])
            ]

        def run_once(certify: bool):
            runtime = Runtime(
                workers=1,
                retry=RetryPolicy(max_attempts=params["max_attempts"]),
                seed=seed,
                certify=certify or None,
            )
            t0 = time.perf_counter()
            result = runtime.run_batch(burgers_requests(), tracer=Tracer())
            return time.perf_counter() - t0, result

        # Overhead: min-of-repeats so allocator noise and first-touch
        # costs do not masquerade as certification cost. The solutions
        # of the first certified/uncertified pair must match bitwise —
        # the certificate is a pure observer.
        plain_times, certified_times = [], []
        bitwise_identical = 1.0
        for repeat in range(int(params["repeats"])):
            plain_elapsed, plain = run_once(certify=False)
            certified_elapsed, certified = run_once(certify=True)
            plain_times.append(plain_elapsed)
            certified_times.append(certified_elapsed)
            if repeat == 0:
                for a, b in zip(plain.outcomes, certified.outcomes):
                    same = (
                        a.status == b.status
                        and (a.solution is None) == (b.solution is None)
                        and (
                            a.solution is None
                            or np.array_equal(a.solution, b.solution)
                        )
                    )
                    if not same:
                        bitwise_identical = 0.0
        overhead_ratio = min(certified_times) / min(plain_times)
        tracer.counter("certify_overhead_ratio", overhead_ratio)

        # Defense: a certified fleet batch under targeted silent
        # corruption. Every injected corruption must be caught by the
        # certificate, escalated to a digital re-solve, and blamed on
        # its board — all deterministic at fixed seed, so the gate pins
        # the caught/escalated counts exactly.
        corrupted = [
            f"chaos-{index:04d}"
            for index in range(int(params["chaos_corrupted"]))
        ]
        faults = FaultInjector(
            specs=tuple(
                FaultSpec("silent_corruption", request_id=request_id, attempt=0)
                for request_id in corrupted
            ),
            seed=seed,
        )
        chaos_runtime = Runtime(
            workers=1,
            retry=RetryPolicy(
                max_attempts=params["max_attempts"],
                base_delay=0.0,
                max_delay=0.0,
                jitter=0.0,
            ),
            seed=seed,
            faults=faults,
            certify=True,
            fleet=FleetConfig(boards=int(params["boards"])),
            ladder_kwargs={"settle_max_steps": int(params["settle_max_steps"])},
        )
        chaos_requests = [
            SolveRequest(
                request_id=f"chaos-{index:04d}",
                problem=ProblemSpec.quadratic(rhs0=1.0 + 0.05 * index, rhs1=1.0),
                analog_time_limit=params["chaos_analog_time_limit"],
            )
            for index in range(int(params["chaos_requests"]))
        ]
        chaos = chaos_runtime.run_batch(chaos_requests, tracer=tracer)
        return {
            "requests_completed": chaos.completed,
            "requests_failed": chaos.failed,
            "certificates_checked": chaos.counters.get("certificates_checked", 0),
            "certificates_failed": chaos.counters.get("certificates_failed", 0),
            "corruption_caught": chaos.counters.get("corruption_caught", 0),
            "resolves_triggered": chaos.counters.get("resolves_triggered", 0),
            "boards_condemned": chaos.counters.get("boards_condemned", 0),
            "bitwise_identical": bitwise_identical,
        }

    return _measure("certify_soak", params, seed, body)


_BENCH_RUNNERS: Dict[str, Callable[[Dict[str, Any], int], BenchmarkResult]] = {
    "trajectory": _bench_trajectory,
    "figure8_seeding": _bench_figure8,
    "serve_batch": _bench_serve_batch,
    "kernel_micro": _bench_kernel_micro,
    "service_soak": _bench_service_soak,
    "fleet_soak": _bench_fleet_soak,
    "certify_soak": _bench_certify_soak,
}


def _warmup() -> None:
    """Touch the hot code paths once, untimed, before the suite runs.

    First-call costs (module imports, numpy's allocator growth, the
    first preconditioner factorization) otherwise land entirely on
    whichever benchmark happens to run first and show up as phantom
    regressions between a cold and a warm process.
    """
    from repro.analog.engine import AnalogAccelerator
    from repro.experiments.trajectory import run_trajectory
    from repro.pde.burgers import random_burgers_system

    run_trajectory(nx=2, steps=2, dt=0.05, scheme="implicit-euler", reynolds=1.0, seed=0)
    rng = np.random.default_rng(0)
    system, guess = random_burgers_system(2, 1.0, rng)
    AnalogAccelerator(seed=0).solve(
        system, initial_guess=guess, value_bound=3.0, time_limit=5.0
    )


def run_bench_suite(
    scale: str = DEFAULT_SCALE,
    seed: int = 0,
    only: Optional[Any] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the fixed suite at one scale; returns the full report.

    ``only`` restricts to a subset of benchmark names (test/debug
    seam); ``progress`` is called with each benchmark name as it
    starts (the CLI prints these).
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    selected = tuple(only) if only else BENCHMARK_NAMES
    unknown = [name for name in selected if name not in _BENCH_RUNNERS]
    if unknown:
        raise ValueError(f"unknown benchmark(s) {unknown}; choose from {BENCHMARK_NAMES}")
    report = BenchReport(
        scale=scale,
        seed=seed,
        manifest=build_manifest(
            command="bench",
            scale=scale,
            seed=seed,
            benchmarks=list(selected),
            bench_schema=BENCH_SCHEMA_VERSION,
        ),
    )
    _warmup()
    for name in selected:
        if progress is not None:
            progress(name)
        params = dict(SCALES[scale][name])
        report.benchmarks[name] = _BENCH_RUNNERS[name](params, seed)
    return report
