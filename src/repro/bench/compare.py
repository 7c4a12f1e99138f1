"""The work regression gate: compare two ``BENCH_<n>.json`` reports.

``repro bench --compare BENCH_<n-1>.json`` (and the CI wrapper
``scripts/check_bench_regression.py``) diff a candidate report against
a baseline on the suite's **named hot paths** and fail on regressions
past tolerance. Every hot path is a ``work`` metric: deterministic
effort (Newton iterations, linear solves, inner iterations, modeled
speedup) that is bitwise reproducible at fixed seed and scale, so it
is compared with a tight tolerance (default 1%) and means the same on
any machine. Reports still carry wall-clock and span sums for reading,
but nothing here gates on them: speed claims are measured by
``perfbench/`` (seeded medians with their spread).

Improvements never fail; only the regression direction is gated (for
``modeled_speedup`` the regression direction is *down*). A hot-path
metric missing from the candidate is itself a failure — deleting the
instrumentation must not green the gate — while a metric missing from
the *baseline* is merely reported (new benchmarks appear over time).
Reports at different scale or seed are refused outright rather than
compared apples-to-oranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bench.schema import BenchReport
from repro.reporting import ascii_table

__all__ = [
    "HOT_PATHS",
    "HotPath",
    "MetricComparison",
    "ComparisonResult",
    "ScaleMismatch",
    "compare_reports",
]

DEFAULT_WORK_TOLERANCE = 0.01


class ScaleMismatch(ValueError):
    """Baseline and candidate were run at different scale or seed."""


@dataclass(frozen=True)
class HotPath:
    """One gated work metric: where it lives and how it may regress.

    ``higher_is_better`` flips the regression direction (modeled
    speedup must not *drop*).
    """

    benchmark: str
    metric: str
    higher_is_better: bool = False

    @property
    def label(self) -> str:
        return f"{self.benchmark}:{self.metric}"


# The named hot paths every PR is gated against: the work metrics pin
# convergence behaviour (a "speedup" that converges less is a
# regression, not a win).
HOT_PATHS: Tuple[HotPath, ...] = (
    # trajectory: the implicit method-of-lines path.
    HotPath("trajectory", "work.newton_iterations"),
    HotPath("trajectory", "work.linear_solves"),
    HotPath("trajectory", "work.inner_iterations"),
    # figure8: the headline seeding claim.
    HotPath("figure8_seeding", "work.inner_iterations"),
    HotPath("figure8_seeding", "work.modeled_speedup", higher_is_better=True),
    # serve-batch: the runtime orchestration.
    HotPath("serve_batch", "work.requests_completed", higher_is_better=True),
    HotPath("serve_batch", "work.newton_iterations"),
    # kernel microbench: cached-factorization solves.
    HotPath("kernel_micro", "work.inner_iterations"),
    HotPath("kernel_micro", "work.preconditioner_builds"),
    # service soak: exactly-once accounting through the sharded async
    # service.
    HotPath("service_soak", "work.requests_completed", higher_is_better=True),
    HotPath("service_soak", "work.runtime_attempts"),
    HotPath("service_soak", "work.newton_iterations"),
    # fleet soak: the board-fleet management layer. The veto count is
    # gated in both directions by proxy: fewer settles avoided at equal
    # drift means the predictive gate stopped paying for itself
    # (higher_is_better), while the attempt/settle counts catch the
    # fleet burning extra work to get there.
    HotPath("fleet_soak", "work.requests_completed", higher_is_better=True),
    HotPath("fleet_soak", "work.runtime_attempts"),
    HotPath("fleet_soak", "work.settles_avoided", higher_is_better=True),
    HotPath("fleet_soak", "work.analog_settles"),
    # certify soak: the certification layer's defense — every injected
    # corruption caught, escalated, and blamed, with no lost requests.
    HotPath("certify_soak", "work.requests_completed", higher_is_better=True),
    HotPath("certify_soak", "work.corruption_caught", higher_is_better=True),
    HotPath("certify_soak", "work.resolves_triggered"),
    HotPath("certify_soak", "work.certificates_failed"),
    HotPath("certify_soak", "work.bitwise_identical", higher_is_better=True),
)


@dataclass
class MetricComparison:
    """One hot-path metric's verdict."""

    path: HotPath
    baseline: Optional[float]
    candidate: Optional[float]
    tolerance: float
    status: str  # "ok" | "improved" | "regressed" | "missing" | "new" | "skipped"

    @property
    def change(self) -> Optional[float]:
        """Relative change (positive = candidate larger); None if
        either side is absent or the baseline is zero."""
        if self.baseline is None or self.candidate is None or self.baseline == 0:
            return None
        return (self.candidate - self.baseline) / abs(self.baseline)

    def row(self) -> dict:
        change = self.change
        return {
            "hot path": self.path.label,
            "baseline": "-" if self.baseline is None else f"{self.baseline:.6g}",
            "candidate": "-" if self.candidate is None else f"{self.candidate:.6g}",
            "change": "-" if change is None else f"{100 * change:+.1f}%",
            "tolerance": f"{100 * self.tolerance:.0f}%",
            "status": self.status.upper() if self.status == "regressed" else self.status,
        }


@dataclass
class ComparisonResult:
    """Every hot-path verdict plus the overall gate decision."""

    comparisons: List[MetricComparison]
    baseline_label: str
    candidate_label: str

    @property
    def regressions(self) -> List[MetricComparison]:
        return [c for c in self.comparisons if c.status in ("regressed", "missing")]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"bench comparison: {self.baseline_label} (baseline) vs "
            f"{self.candidate_label} (candidate)",
            ascii_table([comparison.row() for comparison in self.comparisons]),
        ]
        if self.ok:
            lines.append("gate: OK — no hot-path regression past tolerance")
        else:
            names = ", ".join(c.path.label for c in self.regressions)
            lines.append(f"gate: FAIL — {len(self.regressions)} regression(s): {names}")
        return "\n\n".join(lines)


def compare_reports(
    baseline: BenchReport,
    candidate: BenchReport,
    work_tolerance: float = DEFAULT_WORK_TOLERANCE,
    hot_paths: Sequence[HotPath] = HOT_PATHS,
    baseline_label: str = "baseline",
    candidate_label: str = "candidate",
) -> ComparisonResult:
    """Gate ``candidate`` against ``baseline`` on the named hot paths."""
    if baseline.scale != candidate.scale or baseline.seed != candidate.seed:
        raise ScaleMismatch(
            f"reports are not comparable: baseline is scale={baseline.scale!r} "
            f"seed={baseline.seed}, candidate is scale={candidate.scale!r} "
            f"seed={candidate.seed}; rerun `repro bench` at the baseline's "
            "scale and seed"
        )
    comparisons: List[MetricComparison] = []
    for path in hot_paths:
        old_bench = baseline.benchmarks.get(path.benchmark)
        new_bench = candidate.benchmarks.get(path.benchmark)
        old = old_bench.metric(path.metric) if old_bench is not None else None
        new = new_bench.metric(path.metric) if new_bench is not None else None
        if new is None:
            # Losing the instrumentation (or the benchmark) must fail
            # the gate: an invisible hot path is an ungated one.
            status = "missing" if old is not None else "skipped"
        elif old is None:
            status = "new"
        elif old == 0:
            status = "ok" if new == 0 else ("improved" if path.higher_is_better else "regressed")
        else:
            change = (new - old) / abs(old)
            worse = -change if path.higher_is_better else change
            if worse > work_tolerance:
                status = "regressed"
            elif worse < 0:
                status = "improved"
            else:
                status = "ok"
        comparisons.append(MetricComparison(path, old, new, work_tolerance, status))
    return ComparisonResult(
        comparisons=comparisons,
        baseline_label=baseline_label,
        candidate_label=candidate_label,
    )
