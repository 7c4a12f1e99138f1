"""Cross-module integration tests: full pipelines end to end."""

import numpy as np
import pytest

from repro.analog import AnalogAccelerator, NoiseModel, solution_error
from repro.core import HybridSolver, RedBlackGaussSeidel
from repro.nonlinear import (
    CallableSystem,
    NewtonOptions,
    SimpleSquareSystem,
    damped_newton_with_restarts,
    homotopy_solve,
    newton_solve,
)
from repro.pde import (
    BratuProblem1D,
    BurgersTimeStepper,
    DirichletBoundary,
    Grid2D,
    PoissonProblem,
    random_burgers_system,
)


class TestPdeToHybridPipeline:
    """PDE discretization -> analog seed -> digital polish, end to end."""

    def test_time_step_system_solved_by_hybrid(self):
        grid = Grid2D.square(4)
        bc = DirichletBoundary.constant(grid, 0.0)
        stepper = BurgersTimeStepper(grid, reynolds=1.0, dt=0.5, boundary_u=bc, boundary_v=bc)
        rng = np.random.default_rng(0)
        u = rng.uniform(-0.5, 0.5, grid.shape)
        v = rng.uniform(-0.5, 0.5, grid.shape)
        system = stepper.step_system(u, v)
        solver = HybridSolver(AnalogAccelerator(seed=1))
        result = solver.solve(system, initial_guess=system.pack(u, v))
        assert result.converged
        assert system.residual_norm(result.u) < 1e-9

    def test_hybrid_solution_feeds_next_time_step(self):
        # Two consecutive steps, the hybrid output of the first being
        # the (physical) input to the second.
        grid = Grid2D.square(3)
        bc = DirichletBoundary.constant(grid, 0.0)
        solver = HybridSolver(AnalogAccelerator(seed=2))

        def hybrid_step(system, guess):
            return solver.solve(system, initial_guess=guess).digital

        stepper = BurgersTimeStepper(
            grid, reynolds=1.0, dt=0.2, boundary_u=bc, boundary_v=bc, solver=hybrid_step
        )
        u0 = np.full(grid.shape, 0.4)
        v0 = np.zeros(grid.shape)
        u, v, results = stepper.evolve(u0, v0, num_steps=2)
        assert all(r.converged for r in results)
        assert np.max(np.abs(u)) < np.max(np.abs(u0))


class TestDecomposedHybridPipeline:
    """Gauss-Seidel decomposition with analog subdomain solves."""

    def test_analog_blocks_seed_full_newton(self):
        system, _ = random_burgers_system(6, 1.0, np.random.default_rng(3))
        accelerator = AnalogAccelerator(seed=3)

        def analog_block(sub, sub_guess):
            result = accelerator.solve(sub, initial_guess=sub_guess, value_bound=3.0)
            return result.solution if result.converged else sub_guess

        decomposition = RedBlackGaussSeidel(system, block_size=3, subdomain_solver=analog_block)
        guess = np.random.default_rng(4).uniform(-1.0, 1.0, system.dimension)
        gs = decomposition.solve(initial_guess=guess, tolerance=0.05, max_sweeps=6)
        polished = newton_solve(system, gs.u, NewtonOptions(tolerance=1e-10, max_iterations=40))
        assert polished.converged
        assert polished.iterations <= 10


class TestAnalogOnJacobianFreeSystem:
    """The accelerator on a residual-only system: a ``CallableSystem``
    with no Jacobian falls back to a finite-difference Jacobian."""

    def test_poisson_residual_settles(self):
        n = 3
        grid = Grid2D.square(n, spacing=1.0 / (n + 1))
        xs = (np.arange(n) + 1) * grid.dx
        gx, gy = np.meshgrid(xs, xs, indexing="ij")
        forcing = 2.0 * np.pi**2 * np.sin(np.pi * gx) * np.sin(np.pi * gy)
        problem = PoissonProblem(grid, forcing)
        matrix, rhs = problem.matrix(), problem.rhs()
        system = CallableSystem(
            rhs.size, residual=lambda x: matrix.matvec(x) - rhs, jacobian=None
        )
        accelerator = AnalogAccelerator(seed=5, noise=NoiseModel(residual_offset_sigma=0.005))
        result = accelerator.solve(
            system,
            initial_guess=np.zeros(rhs.size),
            value_bound=max(1.0, float(np.abs(rhs).max())),
        )
        dense = np.linalg.solve(matrix.to_dense(), rhs)
        assert result.converged
        # Equation-6 error in the analog range: within the paper's band
        # even though the physical error is amplified by the scale.
        assert solution_error(result.scaled_solution, dense / result.scale) < 0.02
        assert np.linalg.norm(result.solution - dense) < 0.5 * np.linalg.norm(dense)


class TestHomotopyOnPde:
    """Homotopy continuation applied to a PDE stencil system."""

    def test_bratu_branch_reached_from_trivial_system(self):
        hard = BratuProblem1D(num_nodes=8, lam=1.5)
        simple = SimpleSquareSystem(dimension=8)
        result = homotopy_solve(simple, hard, np.ones(8))
        assert result.converged
        assert hard.residual_norm(result.u) < 1e-8


class TestAnalogAgainstGolden:
    """Analog error metric measured against golden digital solutions,
    at a grid size beyond the physical prototype (a 'scaled-up' run)."""

    def test_4x4_scaled_accelerator_error_band(self):
        system, guess = random_burgers_system(4, 1.0, np.random.default_rng(6))
        golden = damped_newton_with_restarts(
            system, guess, NewtonOptions(tolerance=1e-12, max_iterations=150)
        )
        assert golden.converged
        accelerator = AnalogAccelerator(seed=6)
        analog = accelerator.solve(system, initial_guess=guess)
        assert analog.converged
        error = solution_error(analog.scaled_solution, golden.u / analog.scale)
        assert error < 0.15


class TestLinearStackConsistency:
    """Poisson solved two ways must agree."""

    def test_cg_and_dense_agree(self):
        n = 15
        spacing = 1.0 / (n + 1)
        grid = Grid2D.square(n, spacing=spacing)
        rng = np.random.default_rng(7)
        forcing = rng.standard_normal(grid.shape)
        problem = PoissonProblem(grid, forcing)
        cg = problem.solve(tol=1e-11)
        assert cg.converged
        dense = np.linalg.solve(problem.matrix().to_dense(), problem.rhs())
        np.testing.assert_allclose(cg.x, dense, atol=1e-7)
