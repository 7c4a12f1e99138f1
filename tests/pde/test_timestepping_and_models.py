"""Tests for theta-scheme time stepping, reaction-diffusion, Poisson."""

import numpy as np
import pytest

from repro.linalg.preconditioners import Ilu0Preconditioner
from repro.nonlinear.newton import newton_solve
from repro.nonlinear.systems import CoupledQuadraticSystem, check_jacobian
from repro.pde.boundary import DirichletBoundary
from repro.pde.grid import Grid2D
from repro.pde.poisson import PoissonProblem
from repro.pde.reaction_diffusion import ReactionDiffusion1D
from repro.pde.timestepping import (
    CrankNicolsonSystem,
    ImplicitEulerSystem,
    SpatialOperator,
)


def linear_decay_operator(rate=2.0, dimension=1):
    """N(y) = rate * y, so dy/dt = -rate*y with exact solution exp."""
    return SpatialOperator(
        dimension=dimension,
        apply=lambda y: rate * y,
        jacobian=lambda y: rate * np.eye(dimension),
    )


class TestThetaSchemes:
    def test_crank_nicolson_step_matches_trapezoid(self):
        op = linear_decay_operator(rate=2.0)
        y_prev = np.array([1.0])
        dt = 0.1
        system = CrankNicolsonSystem(op, y_prev, dt)
        result = newton_solve(system, y_prev)
        assert result.converged
        # Trapezoid for dy/dt = -2y: y1 = y0 (1 - dt) / (1 + dt) for rate 2.
        expected = (1.0 - dt) / (1.0 + dt)
        assert result.u[0] == pytest.approx(expected, rel=1e-10)

    def test_implicit_euler_step(self):
        op = linear_decay_operator(rate=2.0)
        system = ImplicitEulerSystem(op, np.array([1.0]), 0.1)
        result = newton_solve(system, np.array([1.0]))
        assert result.converged
        assert result.u[0] == pytest.approx(1.0 / 1.2, rel=1e-10)

    def test_cn_more_accurate_than_euler(self):
        rate = 1.0
        op = linear_decay_operator(rate=rate)
        dt = 0.2
        exact = np.exp(-rate * dt)
        cn = newton_solve(CrankNicolsonSystem(op, np.array([1.0]), dt), np.array([1.0])).u[0]
        ie = newton_solve(ImplicitEulerSystem(op, np.array([1.0]), dt), np.array([1.0])).u[0]
        assert abs(cn - exact) < abs(ie - exact)

    def test_sparse_operator_jacobian_supported(self):
        from repro.linalg.sparse import eye

        op = SpatialOperator(
            dimension=3, apply=lambda y: 2.0 * y, jacobian=lambda y: eye(3, scale=2.0)
        )
        system = CrankNicolsonSystem(op, np.ones(3), 0.1)
        jac = system.jacobian(np.ones(3))
        np.testing.assert_allclose(jac.to_dense(), np.eye(3) * (1.0 + 0.1), atol=1e-12)

    def test_validation(self):
        op = linear_decay_operator()
        with pytest.raises(ValueError):
            CrankNicolsonSystem(op, np.array([1.0]), dt=0.0)
        with pytest.raises(ValueError):
            CrankNicolsonSystem(op, np.ones(2), dt=0.1)
        with pytest.raises(ValueError):
            SpatialOperator(0, apply=lambda y: y, jacobian=lambda y: np.eye(1))


class TestReactionDiffusion:
    def test_jacobian_matches_fd(self):
        system = ReactionDiffusion1D(num_nodes=5, diffusion=0.7, left=0.2, right=-0.3)
        rng = np.random.default_rng(0)
        check_jacobian(system, rng.uniform(-1, 1, 5), rtol=1e-4, atol=1e-5)

    def test_two_nodes_matches_equation2_structure(self):
        # On two unit-spaced nodes with D = 1 and zero boundaries, the
        # residual has the quadratic + linear + neighbour-coupling shape
        # of the paper's Equation 2 (modulo sign conventions of the
        # coupling and constants absorbed into the RHS).
        system = ReactionDiffusion1D(num_nodes=2, diffusion=1.0, left=0.0, right=0.0)
        u = np.array([0.4, -0.6])
        residual = system.residual(u)
        # F_0 = -(0 - 2u0 + u1) + u0^2 + u0 = u0^2 + 3u0 - u1
        expected0 = u[0] ** 2 + 3.0 * u[0] - u[1]
        expected1 = u[1] ** 2 + 3.0 * u[1] - u[0]
        np.testing.assert_allclose(residual, [expected0, expected1], atol=1e-14)

    def test_manufactured_solution_recovered(self):
        rng = np.random.default_rng(1)
        target = rng.uniform(-0.5, 0.5, 8)
        base = ReactionDiffusion1D(num_nodes=8, diffusion=1.0, left=0.1, right=-0.1)
        system = ReactionDiffusion1D(
            num_nodes=8, diffusion=1.0, left=0.1, right=-0.1, forcing=base.residual(target)
        )
        assert system.residual_norm(target) < 1e-12
        result = newton_solve(system, target + 0.05 * rng.standard_normal(8))
        assert result.converged
        np.testing.assert_allclose(result.u, target, atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactionDiffusion1D(num_nodes=0)
        with pytest.raises(ValueError):
            ReactionDiffusion1D(num_nodes=2, diffusion=-1.0)
        with pytest.raises(ValueError):
            ReactionDiffusion1D(num_nodes=2, forcing=np.zeros(3))


class TestPoisson:
    def test_matrix_is_symmetric(self):
        grid = Grid2D.square(5)
        problem = PoissonProblem(grid, np.ones(grid.shape))
        dense = problem.matrix().to_dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)

    def test_manufactured_solution(self):
        # u(x, y) = sin(pi x) sin(pi y) on the unit square.
        n = 15
        spacing = 1.0 / (n + 1)
        grid = Grid2D.square(n, spacing=spacing)
        xs, ys = grid.interior_meshgrid()
        exact = np.sin(np.pi * xs) * np.sin(np.pi * ys)
        forcing = 2.0 * np.pi**2 * exact
        problem = PoissonProblem(grid, forcing)
        result = problem.solve(tol=1e-12)
        assert result.converged
        field = problem.solution_field(result)
        assert np.max(np.abs(field - exact)) < 0.01

    def test_boundary_contribution(self):
        # Constant boundary value c with zero forcing: solution is c.
        grid = Grid2D.square(6)
        boundary = DirichletBoundary.constant(grid, 2.0)
        problem = PoissonProblem(grid, np.zeros(grid.shape), boundary=boundary)
        result = problem.solve(tol=1e-12)
        assert result.converged
        np.testing.assert_allclose(problem.solution_field(result), 2.0, atol=1e-8)

    def test_helmholtz_shift_reduces_solution(self):
        grid = Grid2D.square(6)
        forcing = np.ones(grid.shape)
        plain = PoissonProblem(grid, forcing).solve()
        shifted = PoissonProblem(grid, forcing, helmholtz_shift=5.0).solve()
        assert np.max(np.abs(shifted.x)) < np.max(np.abs(plain.x))

    def test_preconditioned_solve_fewer_iterations(self):
        grid = Grid2D.square(12)
        problem = PoissonProblem(grid, np.ones(grid.shape))
        matrix = problem.matrix()
        plain = problem.solve(tol=1e-10)
        pre = problem.solve(preconditioner=Ilu0Preconditioner(matrix), tol=1e-10)
        assert pre.converged
        assert pre.iterations < plain.iterations

    def test_validation(self):
        grid = Grid2D.square(3)
        with pytest.raises(ValueError):
            PoissonProblem(grid, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            PoissonProblem(grid, np.zeros(grid.shape), helmholtz_shift=-1.0)


class TestBdf2:
    def test_step_matches_closed_form(self):
        # dy/dt = -2y: BDF2 gives y2 = (4 y1 - y0) / (3 + 2 dt k).
        op = linear_decay_operator(rate=2.0)
        from repro.pde.timestepping import Bdf2System

        dt = 0.1
        y0, y1 = np.array([1.0]), np.array([np.exp(-2.0 * 0.1)])
        system = Bdf2System(op, y1, y0, dt)
        result = newton_solve(system, y1)
        assert result.converged
        expected = (4.0 * y1[0] - y0[0]) / (3.0 + 2.0 * dt * 2.0)
        assert result.u[0] == pytest.approx(expected, rel=1e-12)

    def test_second_order_convergence(self):
        from repro.pde.timestepping import Bdf2System, CrankNicolsonSystem

        rate = 1.0
        op = linear_decay_operator(rate=rate)

        def integrate(dt, steps):
            y_prev2 = np.array([1.0])
            # CN start-up step.
            y_prev = newton_solve(CrankNicolsonSystem(op, y_prev2, dt), y_prev2).u
            for _ in range(steps - 1):
                system = Bdf2System(op, y_prev, y_prev2, dt)
                y_prev2, y_prev = y_prev, newton_solve(system, y_prev).u
            return y_prev[0]

        exact = np.exp(-1.0)
        err_coarse = abs(integrate(0.1, 10) - exact)
        err_fine = abs(integrate(0.05, 20) - exact)
        assert 3.0 < err_coarse / err_fine < 5.0  # ~2^2

    def test_validation(self):
        from repro.pde.timestepping import Bdf2System

        op = linear_decay_operator()
        with pytest.raises(ValueError):
            Bdf2System(op, np.ones(1), np.ones(1), dt=0.0)
        with pytest.raises(ValueError):
            Bdf2System(op, np.ones(2), np.ones(1), dt=0.1)

    def test_sparse_jacobian_supported(self):
        from repro.linalg.sparse import eye as sparse_eye
        from repro.pde.timestepping import Bdf2System

        op = SpatialOperator(
            dimension=3, apply=lambda y: 2.0 * y, jacobian=lambda y: sparse_eye(3, scale=2.0)
        )
        system = Bdf2System(op, np.ones(3), np.ones(3), dt=0.3)
        jac = system.jacobian(np.ones(3))
        np.testing.assert_allclose(jac.to_dense(), np.eye(3) * (1.0 + 0.4), atol=1e-12)
