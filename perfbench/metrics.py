"""Turn a measured run into the benchmark's named metrics."""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Tuple

from perfbench.layers import Instrumentation, SpanRecorder
from perfbench.workloads import RunResult

__all__ = ["tail", "end_to_end", "settle_caps", "per_layer", "TAIL_BEYOND"]

# The tail is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10
# JSON has no infinity; a tail that lands on a failed request reads as
# this many seconds.
_MISSED_S = 1e9

Metric = Tuple[float, str]


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, samples) of the highest percentile that has at
    least ``TAIL_BEYOND`` samples above it; with too few samples, the
    lowest value."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    rank = max(n - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / n, n


def _finite(value: float) -> float:
    return value if math.isfinite(value) else _MISSED_S


def end_to_end(
    result: RunResult, setup_s: float, peak_rss_mb: float
) -> Tuple[Dict[str, Metric], Dict[str, float]]:
    """The end-to-end metrics, plus details printed next to them."""
    # A failed or refused request misses every latency limit.
    latencies = [item.latency if item.ok and not item.wrong else math.inf for item in result.items]
    tail_value, tail_pct, samples = tail(latencies)
    # Answered items per busy second, less the seconds of failed requests
    # (result.lost_s): 0-6 creeping settles per run, ~20 s each, would
    # move it by half between seeds. They show in the
    # throughput_all_per_s detail and in analog.wasted_settle_s.
    answered = sum(1 for item in result.items if item.ok and not item.wrong)
    useful_s = result.busy_s - result.lost_s
    throughput = answered / useful_s if useful_s > 0 else 0.0
    settle_units = sum(units for units, _ in result.settle_times)
    settle_host = sum(host for _, host in result.settle_times)
    extra = result.extra
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_s": (_finite(statistics.median(latencies)), "s"),
        "latency_tail_s": (_finite(tail_value), "s"),
        "throughput_per_s": (throughput, "1/s"),
        "ok_ratio": ((result.attempted - result.failed) / result.attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        # Measured on hybrid_burgers only; 1.0 on digital_trajectory.
        "modelled_speedup": (extra.get("modelled_speedup", 1.0), "x"),
        "seed_rms_error": (extra.get("seed_rms_error", 1.0), "%"),
        "settle_units_per_s": (settle_units / settle_host if settle_host else 1.0, "1/s"),
    }
    details = {
        "latency_tail_percentile": tail_pct,
        "latency_samples": float(samples),
        "failed_ratio": result.failed / result.attempted,
        "wrong_answers": float(result.wrong),
        "cycles": float(len(result.plan or ())),
        "busy_s": result.busy_s,
        "lost_s": result.lost_s,
        "throughput_all_per_s": answered / result.busy_s if result.busy_s > 0 else 0.0,
    }
    for key in ("modelled_instances", "modelled_skipped", "rejected", "journal_checked"):
        if key in extra:
            details[key] = extra[key]
    return metrics, details


def settle_caps(settles: List[Dict[str, Any]]) -> Dict[str, Metric]:
    """Settles that used the whole step budget, from the settle tap."""
    capped = sum(1 for settle in settles if settle["capped"])
    return {
        "analog.settle_capped_ratio": (capped / len(settles) if settles else 0.0, "ratio"),
        "analog.wasted_settle_s": (
            sum(settle["seconds"] for settle in settles if not settle["converged"]),
            "s",
        ),
    }


def per_layer(
    result: RunResult,
    instrumentation: Instrumentation,
    recorder: SpanRecorder,
    untraced: RunResult,
    untraced_taps: Instrumentation,
) -> Dict[str, Metric]:
    """Per-layer metrics of a traced replay (``result``) of ``untraced``.
    The settle-cap figures come from the untraced pass, whose host time
    carries no tracing overhead."""
    calls, self_s, incl = recorder.calls, recorder.self_time, recorder.inclusive
    settles = instrumentation.settles
    analog = [pair for record in result.records for pair in record["analog"]]
    hybrid_iterations = sum(
        attempt.iterations
        for record in result.records
        if record["result"] is not None
        for attempt in record["result"].attempts
        if attempt.rung == "hybrid"
    )
    extra = result.extra
    routes = instrumentation.routes
    # Queue wait: from submission to the start of the request's window.
    started = {}
    for start, request_ids in instrumentation.windows:
        for request_id in request_ids:
            started.setdefault(request_id, start)
    waits = [started[key] - result.submitted[key] for key in started if key in result.submitted]

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    metrics: Dict[str, Metric] = {
        "analog.settle_s": (incl["analog.settle"], "s"),
        "analog.compile_s": (incl["analog.compile"], "s"),
        "analog.settles": (float(len(settles)), "count"),
        **settle_caps(untraced_taps.settles),
        "analog.seed_accepted_ratio": (
            ratio(sum(1 for a, _ in analog if a.converged and a.seed_accepted), len(analog)),
            "ratio",
        ),
        "ode.steps_accepted": (float(sum(s["accepted"] for s in settles)), "count"),
        "ode.steps_rejected": (float(sum(s["rejected"] for s in settles)), "count"),
        "ode.rhs_evals": (float(sum(s["rhs"] for s in settles)), "count"),
        "ode.integrate_self_s": (self_s["ode.integrate"], "s"),
        "nonlinear.flow_rhs_s": (self_s["nonlinear.flow_rhs"], "s"),
        "nonlinear.flow_dense_fallbacks": (float(calls["nonlinear.flow_dense"]), "count"),
        "nonlinear.polish_iterations": (float(hybrid_iterations), "count"),
        "nonlinear.newton_self_s": (
            self_s["nonlinear.newton"] + self_s["nonlinear.damped"],
            "s",
        ),
        "pde.jacobian_s": (self_s["pde.jacobian"], "s"),
        "pde.residual_s": (self_s["pde.residual"], "s"),
        "linalg.assembly_s": (self_s["linalg.assembly"], "s"),
        "linalg.matvec_s": (self_s["linalg.matvec"], "s"),
        "linalg.matvecs": (float(calls["linalg.matvec"]), "count"),
        "linalg.kernel_solve_s": (self_s["linalg.kernel_solve"], "s"),
        "linalg.dense_solve_s": (self_s["linalg.dense_solve"], "s"),
        "linalg.inner_iterations": (float(sum(instrumentation.inner_iterations)), "count"),
        "linalg.preconditioner_builds": (float(calls["linalg.preconditioner"]), "count"),
        "runtime.self_s": (self_s["runtime.batch"] + self_s["runtime.ladder"], "s"),
        "service.queue_wait_p50_s": (statistics.median(waits) if waits else 0.0, "s"),
        "service.queue_wait_tail_s": (tail(waits)[0], "s"),
        "service.window_s": (incl["service.window"], "s"),
        "service.rejected": (extra.get("rejected", 0.0), "count"),
        "fleet.route_s": (self_s["fleet.route"], "s"),
        "fleet.routes": (float(len(routes)), "count"),
        "fleet.routes_without_settle": (
            float(sum(1 for route in routes if not route["can_settle"])),
            "count",
        ),
        "fleet.vetoes": (float(sum(1 for route in routes if route["veto"])), "count"),
        "certify.s": (self_s["certify"], "s"),
        "certify.checked": (float(calls["certify"]), "count"),
        "checkpoint.append_s": (self_s["checkpoint.append"], "s"),
        "checkpoint.records": (float(calls["checkpoint.append"]), "count"),
        "checkpoint.bytes": (extra.get("checkpoint_bytes", 0.0), "B"),
        "checkpoint.verify_s": (extra.get("checkpoint_verify_s", 0.0), "s"),
        "perf.modelled_baseline_s": (extra.get("modelled_baseline_s", 0.0), "s"),
        "perf.modelled_polish_s": (extra.get("modelled_polish_s", 0.0), "s"),
        "perf.modelled_settle_s": (extra.get("modelled_settle_s", 0.0), "s"),
        "trace.overhead_ratio": (ratio(_warm(result.busy), _warm(untraced.busy)), "ratio"),
        "trace.self_time_s": (sum(self_s.values()), "s"),
    }
    return metrics


def _warm(busy: List[float]) -> float:
    """Busy time after the first cycle, which pays one-time costs."""
    return sum(busy[1:]) if len(busy) > 1 else sum(busy)
