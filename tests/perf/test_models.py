"""Tests for the CPU/GPU/analog performance models and profiler."""

import time

import numpy as np
import pytest

from repro.linalg.sparse import CooBuilder
from repro.nonlinear.newton import LinearSolverStats, NewtonResult
from repro.perf.analog_model import AnalogTimingModel
from repro.perf.cpu_model import CpuModel
from repro.perf.gpu_model import GpuModel
from repro.perf.profiles import KernelProfiler


def fake_newton_result(iterations, total=None, inner=10, solves=None):
    stats = LinearSolverStats(
        solves=solves or iterations, inner_iterations=inner * (solves or iterations), matvecs=0
    )
    return NewtonResult(
        u=np.zeros(2),
        converged=True,
        iterations=iterations,
        residual_norm=0.0,
        residual_history=[],
        total_iterations_including_restarts=total or iterations,
        linear_stats=stats,
    )


def stencil_matrix(n):
    builder = CooBuilder(n, n)
    for i in range(n):
        builder.add(i, i, 4.0)
        if i > 0:
            builder.add(i, i - 1, -1.0)
        if i < n - 1:
            builder.add(i, i + 1, -1.0)
    return builder.to_csr()


class TestCpuModel:
    def test_time_scales_with_iterations(self):
        model = CpuModel()
        short = model.solve_seconds(fake_newton_result(5), num_unknowns=100, nnz=1000)
        long = model.solve_seconds(fake_newton_result(50), num_unknowns=100, nnz=1000)
        assert long == pytest.approx(10.0 * short)

    def test_time_scales_with_problem_size(self):
        model = CpuModel()
        small = model.solve_seconds(fake_newton_result(10), num_unknowns=32, nnz=200)
        big = model.solve_seconds(fake_newton_result(10), num_unknowns=512, nnz=3000)
        assert big > 5.0 * small

    def test_dense_solve_cubic_scaling(self):
        model = CpuModel(iteration_overhead_seconds=0.0, flops_per_nonzero_assembly=0.0)
        t1 = model.newton_iteration_seconds(100, 0)
        t2 = model.newton_iteration_seconds(200, 0)
        assert 7.0 < t2 / t1 < 9.0

    def test_restart_accounting(self):
        model = CpuModel()
        result = fake_newton_result(10, total=40)
        charitable = model.solve_seconds(result, num_unknowns=100, nnz=1000, count_restarts=False)
        honest = model.solve_seconds(result, num_unknowns=100, nnz=1000, count_restarts=True)
        assert honest == pytest.approx(4.0 * charitable)

    def test_energy_is_power_times_time(self):
        model = CpuModel(power_watts=200.0)
        assert model.energy_joules(2.0) == pytest.approx(400.0)

    def test_solve_seconds_from_stats_rewards_reuse(self):
        # Same measured Krylov work, fewer preconditioner builds =>
        # strictly cheaper modeled time.
        model = CpuModel()
        rebuilt = LinearSolverStats(
            solves=10, inner_iterations=100, matvecs=210, preconditioner_builds=10
        )
        reused = LinearSolverStats(
            solves=10, inner_iterations=100, matvecs=210, preconditioner_builds=1
        )
        cost_rebuilt = model.solve_seconds_from_stats(rebuilt, num_unknowns=256, nnz=1200)
        cost_reused = model.solve_seconds_from_stats(reused, num_unknowns=256, nnz=1200)
        assert 0.0 < cost_reused < cost_rebuilt

    def test_solve_seconds_from_stats_charges_all_attempts(self):
        model = CpuModel()
        base = LinearSolverStats(solves=4, inner_iterations=40, matvecs=84)
        with_fallback = LinearSolverStats(solves=4, inner_iterations=40, matvecs=160)
        assert model.solve_seconds_from_stats(
            with_fallback, num_unknowns=64, nnz=300
        ) > model.solve_seconds_from_stats(base, num_unknowns=64, nnz=300)
        with pytest.raises(ValueError):
            model.solve_seconds_from_stats(base, num_unknowns=-1, nnz=300)

    def test_validation(self):
        model = CpuModel()
        with pytest.raises(ValueError):
            model.newton_iteration_seconds(-1, 0)
        with pytest.raises(ValueError):
            model.solve_seconds_from_counts(-1, 10, 10)
        with pytest.raises(ValueError):
            model.energy_joules(-1.0)


class TestGpuModel:
    def test_overhead_dominates_small_problems(self):
        model = GpuModel()
        tiny = stencil_matrix(8)
        t = model.newton_step_seconds(tiny)
        assert t == pytest.approx(model.step_overhead_seconds, rel=0.2)

    def test_flops_dominate_large_banded_problems(self):
        model = GpuModel()
        # Wide-band matrix: QR flops overwhelm overhead.
        n = 2048
        builder = CooBuilder(n, n)
        for i in range(n):
            builder.add(i, i, 4.0)
            if i >= 1024:
                builder.add(i, i - 1024, -1.0)
        wide = builder.to_csr()
        t = model.newton_step_seconds(wide)
        assert t > 10.0 * model.step_overhead_seconds

    def test_solve_seconds_uses_iteration_count(self):
        model = GpuModel()
        mat = stencil_matrix(64)
        one = model.solve_seconds(fake_newton_result(1), mat)
        ten = model.solve_seconds(fake_newton_result(10), mat)
        assert ten == pytest.approx(10.0 * one)

    def test_energy(self):
        model = GpuModel(power_watts=180.0)
        assert model.energy_joules(1.0) == pytest.approx(180.0)
        with pytest.raises(ValueError):
            model.energy_joules(-0.1)


class TestAnalogTimingModel:
    def test_seconds_linear_in_settle_units(self):
        model = AnalogTimingModel()
        assert model.seconds(20.0) == pytest.approx(2.0 * model.seconds(10.0))

    def test_typical_2x2_run_is_sub_millisecond(self):
        # Figure 7's analog solution times are ~1e-4 s.
        model = AnalogTimingModel()
        assert 1e-5 < model.seconds(12.0) < 1e-3

    def test_energy_tiny_compared_to_gpu(self):
        model = AnalogTimingModel()
        analog_energy = model.energy_joules(16, settle_time_units=12.0)
        gpu_energy = GpuModel().energy_joules(0.5)
        assert analog_energy < 1e-3 * gpu_energy

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalogTimingModel(time_constant_seconds=0.0)
        with pytest.raises(ValueError):
            AnalogTimingModel(activity_factor=1.5)
        with pytest.raises(ValueError):
            AnalogTimingModel().seconds(-1.0)


class TestKernelProfiler:
    def test_fractions_reflect_time_split(self):
        profiler = KernelProfiler()
        with profiler.run():
            with profiler.region("solve"):
                time.sleep(0.05)
            with profiler.region("other"):
                time.sleep(0.01)
        report = profiler.report()
        assert report.fraction("solve") > report.fraction("other")
        assert 0.5 < report.fraction("solve") < 1.0

    def test_nested_regions_disjoint(self):
        profiler = KernelProfiler()
        with profiler.run():
            with profiler.region("outer"):
                time.sleep(0.01)
                with profiler.region("inner"):
                    time.sleep(0.02)
                time.sleep(0.01)
        report = profiler.report()
        total_attributed = sum(report.region_seconds.values())
        assert total_attributed <= report.total_seconds * 1.05
        assert report.fraction("inner") > report.fraction("outer") * 0.5

    def test_unentered_region_fraction_zero(self):
        profiler = KernelProfiler()
        with profiler.run():
            pass
        assert profiler.report().fraction("missing") == 0.0

    def test_report_during_run_rejected(self):
        profiler = KernelProfiler()
        with pytest.raises(RuntimeError):
            with profiler.run():
                profiler.report()
