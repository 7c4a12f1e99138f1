"""Tests for the hybrid analog-seeded digital solver."""

import numpy as np
import pytest

from repro.analog.engine import AnalogAccelerator
from repro.analog.noise import NoiseModel
from repro.core.hybrid import HybridResult, HybridSolver
from repro.nonlinear.newton import NewtonOptions
from repro.nonlinear.systems import CoupledQuadraticSystem
from repro.pde.burgers import random_burgers_system
from repro.runtime.ladder import DOUBLE_EPS, FALLBACK_TOLERANCE_FLOOR


class TestHybridSolver:
    def test_reaches_high_precision(self):
        solver = HybridSolver(AnalogAccelerator(seed=0))
        system, guess = random_burgers_system(2, 1.0, np.random.default_rng(0))
        result = solver.solve(system, initial_guess=guess)
        assert result.converged
        assert result.residual_norm < 1e-10

    def test_seed_puts_newton_in_quadratic_region(self):
        # The hybrid digital polish takes very few iterations.
        solver = HybridSolver(AnalogAccelerator(seed=1))
        system, guess = random_burgers_system(2, 1.0, np.random.default_rng(1))
        result = solver.solve(system, initial_guess=guess)
        assert result.converged
        assert result.digital_iterations <= 8
        assert result.digital.restarts == 0

    def test_hybrid_beats_or_matches_baseline_iterations(self):
        solver = HybridSolver(AnalogAccelerator(seed=2))
        wins = 0
        trials = 0
        for seed in range(4):
            system, guess = random_burgers_system(2, 2.0, np.random.default_rng(seed + 10))
            baseline = solver.solve_baseline(system, initial_guess=guess)
            if not baseline.converged:
                continue
            hybrid = solver.solve(system, initial_guess=guess)
            assert hybrid.converged
            trials += 1
            if hybrid.digital_iterations <= baseline.total_iterations_including_restarts:
                wins += 1
        assert trials > 0
        assert wins == trials

    def test_analog_result_attached(self):
        solver = HybridSolver(AnalogAccelerator(seed=3))
        system = CoupledQuadraticSystem(1.0, 1.0)
        result = solver.solve(system, initial_guess=np.array([1.0, 1.0]))
        assert isinstance(result, HybridResult)
        assert result.analog.settle_time_units > 0.0
        # Seed is percent-accurate; polish is eps-accurate.
        assert system.residual_norm(result.analog.solution) > result.residual_norm

    def test_fallback_when_analog_fails(self):
        # A time limit too short for settling: hybrid must still solve
        # via the damped fallback.
        acc = AnalogAccelerator(seed=4)
        solver = HybridSolver(acc)
        system, guess = random_burgers_system(2, 1.0, np.random.default_rng(6))
        result = solver.solve(system, initial_guess=guess, analog_time_limit=1e-3)
        assert result.converged

    def test_custom_polish_options(self):
        solver = HybridSolver(
            AnalogAccelerator(seed=5),
            polish_options=NewtonOptions(tolerance=1e-6, max_iterations=50),
        )
        system, guess = random_burgers_system(2, 1.0, np.random.default_rng(7))
        result = solver.solve(system, initial_guess=guess)
        assert result.converged
        assert result.residual_norm < 1e-6

    def test_double_eps_constant(self):
        assert DOUBLE_EPS == pytest.approx(2.220446049250313e-16)


class TestFallbackOptions:
    def test_default_fallback_relaxes_tight_polish_tolerance(self):
        # The polish runs at ~1e3 * eps; inheriting that for the damped
        # recovery used to loop every damping level to the iteration
        # cap. The default fallback gets its own relaxed floor.
        solver = HybridSolver(AnalogAccelerator(seed=0))
        assert solver.polish_options.tolerance < FALLBACK_TOLERANCE_FLOOR
        assert solver.fallback_options.tolerance == FALLBACK_TOLERANCE_FLOOR
        assert solver.fallback_options.max_iterations >= 200

    def test_explicit_fallback_options_respected(self):
        custom = NewtonOptions(tolerance=1e-7, max_iterations=33)
        solver = HybridSolver(AnalogAccelerator(seed=0), fallback_options=custom)
        assert solver.fallback_options is custom

    def test_loose_polish_tolerance_not_tightened(self):
        solver = HybridSolver(
            AnalogAccelerator(seed=0),
            polish_options=NewtonOptions(tolerance=1e-6, max_iterations=50),
        )
        assert solver.fallback_options.tolerance == 1e-6

    def test_recovery_converges_and_reports_honestly(self):
        # Unsettled analog run (tiny time limit) on a hard problem:
        # the undamped polish from the naive guess fails, recovery runs
        # under the relaxed options, and the final result's converged
        # flag matches the residual actually achieved.
        solver = HybridSolver(AnalogAccelerator(seed=4))
        system, guess = random_burgers_system(4, 2.0, np.random.default_rng(11))
        result = solver.solve(system, initial_guess=guess, analog_time_limit=1e-3)
        if result.converged:
            achieved = max(
                solver.polish_options.tolerance, solver.fallback_options.tolerance
            )
            assert result.residual_norm <= achieved
        else:
            assert result.residual_norm > solver.fallback_options.tolerance

    def test_recovery_folds_restart_accounting(self):
        # When recovery kicks in, its restart/iteration bill must not
        # vanish from the result the cost models read.
        solver = HybridSolver(
            AnalogAccelerator(seed=4),
            polish_options=NewtonOptions(
                damping=1.0, tolerance=1e3 * DOUBLE_EPS, max_iterations=2
            ),
        )
        system, guess = random_burgers_system(4, 2.0, np.random.default_rng(12))
        result = solver.solve(system, initial_guess=guess, analog_time_limit=1e-3)
        digital = result.digital
        assert (
            digital.total_iterations_including_restarts >= digital.iterations
        )
        if result.converged and digital.total_linear_stats is not None:
            assert digital.total_linear_stats.solves >= digital.linear_stats.solves
