"""Tests for the Bratu problem and the lookup-table function generator."""

import numpy as np
import pytest

from repro.analog.function_generator import LookupTableFunction, make_exp_pair
from repro.nonlinear.newton import NewtonOptions, damped_newton_with_restarts, newton_solve
from repro.nonlinear.systems import check_jacobian
from repro.pde.bratu import (
    BRATU_1D_CRITICAL,
    BratuProblem1D,
    BratuProblem2D,
)


class TestBratu1D:
    def test_jacobian_matches_fd(self):
        problem = BratuProblem1D(num_nodes=9, lam=1.0)
        rng = np.random.default_rng(0)
        check_jacobian(problem, rng.uniform(0.0, 1.0, 9), rtol=1e-4, atol=1e-4)

    def test_lower_branch_solution_exists_subcritical(self):
        problem = BratuProblem1D(num_nodes=31, lam=1.0)
        result = newton_solve(problem, problem.lower_branch_guess(), NewtonOptions(tolerance=1e-11))
        assert result.converged
        assert np.all(result.u > 0.0)

    def test_two_branches_below_fold(self):
        # The defining Bratu structure: two distinct solutions for
        # subcritical lambda.
        problem = BratuProblem1D(num_nodes=31, lam=2.0)
        lower = newton_solve(problem, problem.lower_branch_guess(), NewtonOptions(tolerance=1e-11))
        upper = damped_newton_with_restarts(
            problem, problem.upper_branch_guess(), NewtonOptions(tolerance=1e-11, max_iterations=200)
        )
        assert lower.converged and upper.converged
        assert np.max(upper.u) > 2.0 * np.max(lower.u)

    def test_no_solution_above_fold(self):
        problem = BratuProblem1D(num_nodes=31, lam=BRATU_1D_CRITICAL + 0.5)
        result = damped_newton_with_restarts(
            problem,
            problem.lower_branch_guess(),
            NewtonOptions(tolerance=1e-10, max_iterations=100),
            min_damping=1.0 / 64.0,
        )
        assert not result.converged

    def test_solution_amplitude_grows_with_lambda(self):
        amplitudes = []
        for lam in (0.5, 1.5, 3.0):
            problem = BratuProblem1D(num_nodes=31, lam=lam)
            result = newton_solve(
                problem, problem.lower_branch_guess(), NewtonOptions(tolerance=1e-11, max_iterations=100)
            )
            assert result.converged
            amplitudes.append(float(np.max(result.u)))
        assert amplitudes[0] < amplitudes[1] < amplitudes[2]

    def test_matches_known_peak_value(self):
        # For lam = 1 the 1-D Bratu lower solution peaks at ~0.1405
        # (from the closed-form cosh solution).
        problem = BratuProblem1D(num_nodes=63, lam=1.0)
        result = newton_solve(problem, problem.lower_branch_guess(), NewtonOptions(tolerance=1e-12))
        assert result.converged
        assert float(np.max(result.u)) == pytest.approx(0.1405, abs=0.002)

    def test_validation(self):
        with pytest.raises(ValueError):
            BratuProblem1D(num_nodes=0, lam=1.0)
        with pytest.raises(ValueError):
            BratuProblem1D(num_nodes=5, lam=-1.0)


class TestBratu2D:
    def test_jacobian_matches_fd(self):
        problem = BratuProblem2D(grid_n=4, lam=1.0)
        rng = np.random.default_rng(1)
        check_jacobian(problem, rng.uniform(0.0, 0.5, 16), rtol=1e-4, atol=1e-4)

    def test_lower_branch_subcritical(self):
        problem = BratuProblem2D(grid_n=11, lam=5.0)
        result = newton_solve(problem, problem.lower_branch_guess(), NewtonOptions(tolerance=1e-11))
        assert result.converged
        field = problem.grid.field(result.u)
        # Positive, peaked at the center.
        assert np.all(result.u > 0.0)
        center = field[5, 5]
        assert center == pytest.approx(float(result.u.max()))

    def test_supercritical_has_no_solution(self):
        problem = BratuProblem2D(grid_n=11, lam=8.5)
        result = damped_newton_with_restarts(
            problem,
            problem.lower_branch_guess(),
            NewtonOptions(tolerance=1e-10, max_iterations=80),
            min_damping=1.0 / 32.0,
        )
        assert not result.converged


class TestLookupTableFunction:
    def test_exact_at_table_nodes(self):
        lut = LookupTableFunction(np.exp, (-1.0, 3.0), table_bits=8)
        xs = np.linspace(-1.0, 3.0, 2**8)
        np.testing.assert_allclose(lut(xs), np.exp(xs), rtol=1e-12)

    def test_error_shrinks_with_table_bits(self):
        coarse = LookupTableFunction(np.exp, (-1.0, 3.0), table_bits=6)
        fine = LookupTableFunction(np.exp, (-1.0, 3.0), table_bits=12)
        assert fine.max_error(np.exp) < coarse.max_error(np.exp) / 10.0

    def test_interpolation_beats_staircase(self):
        smooth = LookupTableFunction(np.exp, (0.0, 2.0), table_bits=7, interpolate=True)
        stair = LookupTableFunction(np.exp, (0.0, 2.0), table_bits=7, interpolate=False)
        assert smooth.max_error(np.exp) < stair.max_error(np.exp)

    def test_output_quantization_adds_error(self):
        exact = LookupTableFunction(np.exp, (0.0, 2.0), table_bits=10)
        quantized = LookupTableFunction(np.exp, (0.0, 2.0), table_bits=10, output_bits=6)
        assert quantized.max_error(np.exp) > exact.max_error(np.exp)

    def test_saturation_outside_range(self):
        lut = LookupTableFunction(np.exp, (0.0, 1.0), table_bits=8)
        assert lut(np.array([5.0]))[0] == pytest.approx(np.e, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            LookupTableFunction(np.exp, (1.0, 0.0))
        with pytest.raises(ValueError):
            LookupTableFunction(np.exp, (0.0, 1.0), table_bits=0)
        with pytest.raises(ValueError):
            LookupTableFunction(np.exp, (0.0, 1.0), output_bits=0)


class TestBratuWithLookupExponential:
    def test_lookup_solution_close_to_exact(self):
        exact_problem = BratuProblem1D(num_nodes=31, lam=2.0)
        lookup_problem = BratuProblem1D(
            num_nodes=31, lam=2.0, exp_pair=make_exp_pair((-1.0, 4.0), table_bits=12)
        )
        exact = newton_solve(
            exact_problem, exact_problem.lower_branch_guess(), NewtonOptions(tolerance=1e-11)
        )
        approx = newton_solve(
            lookup_problem, lookup_problem.lower_branch_guess(), NewtonOptions(tolerance=1e-8)
        )
        assert exact.converged and approx.converged
        assert np.max(np.abs(exact.u - approx.u)) < 1e-3

    def test_coarse_table_degrades_solution(self):
        exact_problem = BratuProblem1D(num_nodes=31, lam=2.0)
        exact = newton_solve(
            exact_problem, exact_problem.lower_branch_guess(), NewtonOptions(tolerance=1e-11)
        )
        errors = []
        for bits in (5, 12):
            problem = BratuProblem1D(
                num_nodes=31, lam=2.0, exp_pair=make_exp_pair((-1.0, 4.0), table_bits=bits)
            )
            result = newton_solve(
                problem, problem.lower_branch_guess(), NewtonOptions(tolerance=1e-6)
            )
            assert result.converged
            errors.append(float(np.max(np.abs(result.u - exact.u))))
        assert errors[0] > errors[1]
