"""Tests for the digital Newton solvers."""

import numpy as np
import pytest

from repro.nonlinear.newton import (
    LinearKernel,
    NewtonOptions,
    damped_newton_with_restarts,
    newton_solve,
)
from repro.nonlinear.systems import (
    CallableSystem,
    CoupledQuadraticSystem,
    CubicRootSystem,
    SimpleSquareSystem,
)


class TestNewtonSolve:
    def test_converges_on_cubic_from_good_guess(self):
        result = newton_solve(CubicRootSystem(), np.array([1.2, 0.1]))
        assert result.converged
        np.testing.assert_allclose(result.u, [1.0, 0.0], atol=1e-8)

    def test_quadratic_convergence_counts_iterations(self):
        # From a guess within the quadratic basin, very few iterations.
        result = newton_solve(CubicRootSystem(), np.array([1.05, 0.0]))
        assert result.converged
        assert result.iterations <= 6

    def test_zero_iterations_when_starting_at_root(self):
        result = newton_solve(SimpleSquareSystem(2), np.array([1.0, -1.0]))
        assert result.converged
        assert result.iterations == 0

    def test_damping_slows_but_stabilizes(self):
        system = CubicRootSystem()
        u0 = np.array([0.4, 0.3])
        full = newton_solve(system, u0, NewtonOptions(damping=1.0, max_iterations=400))
        damped = newton_solve(system, u0, NewtonOptions(damping=0.25, max_iterations=400))
        assert damped.converged
        if full.converged:
            assert damped.iterations >= full.iterations

    def test_rootless_system_reported_as_failure(self):
        # F(u) = exp(u) + 1 has no root; the residual plateaus at 1.
        system = CallableSystem(
            1,
            residual=lambda u: np.array([np.exp(u[0]) + 1.0]),
            jacobian=lambda u: np.array([[np.exp(u[0])]]),
        )
        result = newton_solve(system, np.array([0.0]), NewtonOptions(max_iterations=50))
        assert not result.converged
        assert result.failure_reason is not None

    def test_residual_blowup_detected_early(self):
        # F(u) = u + u^3 with a huge overshooting start diverges; the
        # divergence threshold must cut the run before the cap.
        system = CallableSystem(
            1,
            residual=lambda u: np.array([np.cbrt(u[0])]),
            jacobian=lambda u: np.array([[np.cbrt(u[0]) / (3.0 * u[0]) if u[0] != 0 else 1.0]]),
        )
        # Newton on cbrt doubles the iterate each step: |u| -> 2|u|.
        result = newton_solve(system, np.array([1.0]), NewtonOptions(max_iterations=500))
        assert not result.converged
        assert result.iterations < 500

    def test_singular_jacobian_reported(self):
        system = CallableSystem(
            1,
            residual=lambda u: np.array([u[0] ** 2 + 1.0]),
            jacobian=lambda u: np.array([[0.0]]),
        )
        result = newton_solve(system, np.array([0.0]))
        assert not result.converged
        assert result.failure_reason == "singular Jacobian"

    def test_residual_history_recorded(self):
        result = newton_solve(CubicRootSystem(), np.array([1.3, 0.2]))
        assert len(result.residual_history) == result.iterations + 1
        assert result.residual_history[-1] <= 1e-12

    def test_options_validation(self):
        with pytest.raises(ValueError):
            NewtonOptions(damping=0.0)
        with pytest.raises(ValueError):
            NewtonOptions(damping=1.5)
        with pytest.raises(ValueError):
            NewtonOptions(tolerance=-1.0)
        with pytest.raises(ValueError):
            NewtonOptions(max_iterations=0)

    def test_coupled_system_all_roots_reachable(self):
        system = CoupledQuadraticSystem(1.0, 1.0)
        roots = system.real_roots()
        for root in roots:
            result = newton_solve(system, root + 0.05)
            assert result.converged
            np.testing.assert_allclose(result.u, root, atol=1e-6)


class TestDampedNewtonWithRestarts:
    def test_no_restart_needed_on_easy_problem(self):
        result = damped_newton_with_restarts(CubicRootSystem(), np.array([1.2, 0.1]))
        assert result.converged
        assert result.restarts == 0
        assert result.damping_used == 1.0

    def test_restarts_reduce_damping_until_convergence(self):
        # A system where full Newton steps oscillate: F(u) = atan-like
        # shape. arctan is the classic example where Newton overshoots.
        system = CallableSystem(
            1,
            residual=lambda u: np.array([np.arctan(u[0])]),
            jacobian=lambda u: np.array([[1.0 / (1.0 + u[0] ** 2)]]),
        )
        # |u0| > ~1.39 makes classical Newton diverge for arctan.
        result = damped_newton_with_restarts(
            system, np.array([2.0]), NewtonOptions(max_iterations=200, tolerance=1e-10)
        )
        assert result.converged
        assert result.damping_used < 1.0
        assert result.restarts >= 1
        assert result.total_iterations_including_restarts > result.iterations

    def test_failure_reported_when_nothing_converges(self):
        system = CallableSystem(
            1,
            residual=lambda u: np.array([np.exp(u[0])]),
            jacobian=lambda u: np.array([[np.exp(u[0])]]),
        )
        result = damped_newton_with_restarts(
            system,
            np.array([0.0]),
            NewtonOptions(max_iterations=20),
            min_damping=1.0 / 8.0,
        )
        assert not result.converged
        assert "no damping" in result.failure_reason


class TestSparseLinearSolver:
    def test_solves_sparse_jacobian(self):
        from repro.linalg.sparse import CooBuilder

        n = 20
        builder = CooBuilder(n, n)
        for i in range(n):
            builder.add(i, i, 4.0)
            if i > 0:
                builder.add(i, i - 1, -1.0)
            if i < n - 1:
                builder.add(i, i + 1, -1.2)
        mat = builder.to_csr()
        solver = LinearKernel()
        x_true = np.random.default_rng(0).standard_normal(n)
        x = solver(mat, mat.matvec(x_true))
        np.testing.assert_allclose(x, x_true, rtol=1e-6, atol=1e-8)

    def test_dense_passthrough(self):
        solver = LinearKernel()
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        np.testing.assert_allclose(solver(a, np.array([2.0, 4.0])), [1.0, 1.0])

    def test_stats_recorded(self):
        from repro.linalg.sparse import CooBuilder
        from repro.nonlinear.newton import LinearSolverStats

        builder = CooBuilder(4, 4)
        for i in range(4):
            builder.add(i, i, 2.0)
        stats = LinearSolverStats()
        solver = LinearKernel(stats=stats)
        solver(builder.to_csr(), np.ones(4))
        assert stats.solves == 1
        assert stats.matvecs >= 1


class TestDefaultPathStats:
    """Regression: the default CSR path must not drop linear stats.

    ``default_linear_solver`` used to build a throwaway solver without a
    stats sink, so ``NewtonResult.linear_stats`` came back all-zero for
    every sparse Newton solve that didn't pass an explicit solver.
    """

    def _sparse_system(self, n=16, reynolds=0.5, seed=0):
        from repro.pde.burgers import random_burgers_system

        rng = np.random.default_rng(seed)
        system, guess = random_burgers_system(int(np.sqrt(n)), reynolds, rng)
        return system, guess

    def test_newton_solve_default_path_records_stats(self):
        system, guess = self._sparse_system()
        result = newton_solve(system, guess, NewtonOptions(tolerance=1e-10))
        assert result.converged
        assert result.linear_stats.solves > 0
        assert result.linear_stats.solves == result.iterations
        assert result.linear_stats.matvecs > 0
        assert result.linear_stats.inner_iterations > 0

    def test_newton_solve_default_path_reuses_preconditioner(self):
        system, guess = self._sparse_system()
        result = newton_solve(system, guess, NewtonOptions(tolerance=1e-10))
        stats = result.linear_stats
        assert stats.solves >= 3
        assert stats.preconditioner_builds == 1

    def test_damped_restarts_total_stats_cover_failed_attempts(self):
        from repro.linalg.kernel import LinearKernel

        system, guess = self._sparse_system(reynolds=2.0, seed=3)
        kernel = LinearKernel()
        result = damped_newton_with_restarts(
            system,
            guess,
            NewtonOptions(tolerance=1e-10, max_iterations=40),
            linear_solver=kernel,
            min_damping=1.0 / 64.0,
        )
        total = result.total_linear_stats
        assert total is not None
        assert total.solves > 0
        # The honest total covers every damping attempt, not just the
        # winning one carried in result.linear_stats.
        assert total.solves >= result.linear_stats.solves
        # One kernel for the whole schedule: far fewer factorizations
        # than solves.
        assert kernel.stats.preconditioner_builds < total.solves
