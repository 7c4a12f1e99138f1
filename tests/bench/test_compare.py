"""The regression gate's decision logic on synthetic report pairs."""

import copy

import pytest

from repro.bench.compare import (
    DEFAULT_WORK_TOLERANCE,
    HOT_PATHS,
    HotPath,
    ScaleMismatch,
    compare_reports,
)
from repro.bench.schema import BenchReport, BenchmarkResult


def baseline_report():
    """A synthetic full-suite report covering every hot-path metric,
    plus wall and span times the gate must ignore."""
    benchmarks = {
        "trajectory": BenchmarkResult(
            name="trajectory",
            wall_seconds=1.0,
            span_seconds={"linear_solve": 0.4},
            work={
                "newton_iterations": 50.0,
                "linear_solves": 50.0,
                "inner_iterations": 400.0,
            },
        ),
        "figure8_seeding": BenchmarkResult(
            name="figure8_seeding",
            wall_seconds=2.0,
            span_seconds={"linear_solve": 0.8, "analog_settle": 0.5},
            work={"inner_iterations": 900.0, "modeled_speedup": 8.0},
        ),
        "serve_batch": BenchmarkResult(
            name="serve_batch",
            wall_seconds=3.0,
            work={"requests_completed": 6.0, "newton_iterations": 120.0},
        ),
        "kernel_micro": BenchmarkResult(
            name="kernel_micro",
            wall_seconds=0.5,
            span_seconds={"linear_solve": 0.2},
            work={"inner_iterations": 360.0, "preconditioner_builds": 1.0},
        ),
        "service_soak": BenchmarkResult(
            name="service_soak",
            wall_seconds=0.4,
            work={
                "requests_completed": 12.0,
                "runtime_attempts": 12.0,
                "newton_iterations": 60.0,
            },
        ),
        "fleet_soak": BenchmarkResult(
            name="fleet_soak",
            wall_seconds=3.0,
            span_seconds={"analog_settle": 2.5},
            work={
                "requests_completed": 24.0,
                "runtime_attempts": 24.0,
                "settles_avoided": 18.0,
                "analog_settles": 6.0,
            },
        ),
        "certify_soak": BenchmarkResult(
            name="certify_soak",
            wall_seconds=2.0,
            counters={"certify_overhead_ratio": 1.02},
            work={
                "requests_completed": 12.0,
                "corruption_caught": 2.0,
                "resolves_triggered": 2.0,
                "certificates_failed": 2.0,
                "bitwise_identical": 1.0,
            },
        ),
    }
    return BenchReport(scale="smoke", seed=0, manifest={}, benchmarks=benchmarks)


def perturbed(report, benchmark, metric, factor):
    """Deep-copied report with one ``work.<key>`` metric scaled by ``factor``."""
    clone = copy.deepcopy(report)
    group, _, key = metric.partition(".")
    assert group == "work", f"unhandled metric {metric}"
    clone.benchmarks[benchmark].work[key] *= factor
    return clone


class TestGateDecisions:
    def test_identical_reports_pass(self):
        base = baseline_report()
        result = compare_reports(base, copy.deepcopy(base))
        assert result.ok
        assert result.regressions == []
        statuses = {comparison.status for comparison in result.comparisons}
        assert statuses == {"ok"}

    def test_every_hot_path_is_compared(self):
        base = baseline_report()
        result = compare_reports(base, copy.deepcopy(base))
        assert len(result.comparisons) == len(HOT_PATHS)

    def test_every_hot_path_is_a_work_metric(self):
        assert len(HOT_PATHS) == 21
        assert all(path.metric.startswith("work.") for path in HOT_PATHS)

    def test_time_slowdown_passes_the_gate(self):
        # Wall-clock, span sums and timing counters are recorded for
        # reading, never gated: a 3x slowdown everywhere still passes.
        base = baseline_report()
        slow = copy.deepcopy(base)
        for bench in slow.benchmarks.values():
            bench.wall_seconds *= 3.0
            for table in (bench.span_seconds, bench.counters):
                for key in table:
                    table[key] *= 3.0
        result = compare_reports(base, slow)
        assert result.ok
        assert {c.status for c in result.comparisons} == {"ok"}

    def test_time_noise_within_tolerance_passes(self):
        base = baseline_report()
        noisy = copy.deepcopy(base)
        noisy.benchmarks["trajectory"].wall_seconds *= 1.1
        noisy.benchmarks["kernel_micro"].span_seconds["linear_solve"] *= 0.9
        assert compare_reports(base, noisy).ok

    def test_work_regression_fails_beside_a_time_slowdown(self):
        base = baseline_report()
        worse = perturbed(base, "serve_batch", "work.newton_iterations", 1.1)
        worse.benchmarks["trajectory"].wall_seconds *= 3.0
        result = compare_reports(base, worse)
        assert not result.ok
        assert [c.path.label for c in result.regressions] == [
            "serve_batch:work.newton_iterations"
        ]

    def test_work_growth_past_one_percent_fails(self):
        base = baseline_report()
        grown = perturbed(base, "kernel_micro", "work.inner_iterations", 1.02)
        result = compare_reports(base, grown)
        assert [c.path.label for c in result.regressions] == [
            "kernel_micro:work.inner_iterations"
        ]

    def test_work_within_tolerance_passes(self):
        base = baseline_report()
        wiggle = perturbed(
            base, "kernel_micro", "work.inner_iterations", 1.0 + DEFAULT_WORK_TOLERANCE / 2
        )
        assert compare_reports(base, wiggle).ok

    def test_improvement_never_fails(self):
        base = baseline_report()
        faster = perturbed(base, "trajectory", "work.inner_iterations", 0.5)
        result = compare_reports(base, faster)
        assert result.ok
        improved = {c.path.label for c in result.comparisons if c.status == "improved"}
        assert improved == {"trajectory:work.inner_iterations"}

    def test_higher_is_better_gates_the_drop_direction(self):
        base = baseline_report()
        slower_speedup = perturbed(base, "figure8_seeding", "work.modeled_speedup", 0.8)
        result = compare_reports(base, slower_speedup)
        assert [c.path.label for c in result.regressions] == [
            "figure8_seeding:work.modeled_speedup"
        ]
        better_speedup = perturbed(base, "figure8_seeding", "work.modeled_speedup", 1.5)
        assert compare_reports(base, better_speedup).ok

    def test_candidate_missing_metric_fails_the_gate(self):
        base = baseline_report()
        blinded = copy.deepcopy(base)
        del blinded.benchmarks["kernel_micro"].work["inner_iterations"]
        result = compare_reports(base, blinded)
        assert not result.ok
        missing = [c for c in result.comparisons if c.status == "missing"]
        assert [c.path.label for c in missing] == ["kernel_micro:work.inner_iterations"]

    def test_metric_new_in_candidate_is_reported_not_gated(self):
        base = baseline_report()
        del base.benchmarks["trajectory"].work["inner_iterations"]
        candidate = baseline_report()
        result = compare_reports(base, candidate)
        assert result.ok
        new = [c for c in result.comparisons if c.status == "new"]
        assert [c.path.label for c in new] == ["trajectory:work.inner_iterations"]

    def test_custom_tolerances_are_respected(self):
        base = baseline_report()
        grown = perturbed(base, "trajectory", "work.linear_solves", 1.015)
        assert not compare_reports(base, grown).ok
        assert compare_reports(base, grown, work_tolerance=0.02).ok
        wiggle = perturbed(base, "trajectory", "work.linear_solves", 1.005)
        assert not compare_reports(base, wiggle, work_tolerance=0.001).ok


class TestComparability:
    def test_scale_mismatch_refused(self):
        base = baseline_report()
        other = copy.deepcopy(base)
        other.scale = "full"
        with pytest.raises(ScaleMismatch):
            compare_reports(base, other)

    def test_seed_mismatch_refused(self):
        base = baseline_report()
        other = copy.deepcopy(base)
        other.seed = 7
        with pytest.raises(ScaleMismatch):
            compare_reports(base, other)


class TestRendering:
    def test_render_shows_gate_verdict(self):
        base = baseline_report()
        ok_text = compare_reports(base, copy.deepcopy(base)).render()
        assert "gate: OK" in ok_text
        fail_text = compare_reports(
            base, perturbed(base, "trajectory", "work.newton_iterations", 2.0)
        ).render()
        assert "gate: FAIL" in fail_text
        assert "trajectory:work.newton_iterations" in fail_text

    def test_hot_path_label(self):
        path = HotPath("trajectory", "work.linear_solves")
        assert path.label == "trajectory:work.linear_solves"
