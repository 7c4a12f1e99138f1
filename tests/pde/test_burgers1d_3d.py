"""Tests for the 1-D Burgers stencil (2nd/4th order) and 3-D splitting."""

import numpy as np
import pytest

from repro.nonlinear.newton import NewtonOptions, newton_solve
from repro.nonlinear.systems import check_jacobian
from repro.pde.burgers1d import Burgers1DStencilSystem, stencil_width
from repro.pde.burgers3d import Burgers3DSplitStepper


def make_1d(n=15, reynolds=1.0, order=2, seed=0, weight=1.0):
    rng = np.random.default_rng(seed)
    return Burgers1DStencilSystem(
        num_nodes=n,
        reynolds=reynolds,
        rhs=rng.uniform(-1.0, 1.0, n),
        left=rng.uniform(-0.5, 0.5),
        right=rng.uniform(-0.5, 0.5),
        weight=weight,
        order=order,
    )


class TestStencilWidth:
    def test_widths(self):
        assert stencil_width(2) == 3
        assert stencil_width(4) == 5
        with pytest.raises(ValueError):
            stencil_width(3)


class TestBurgers1D:
    @pytest.mark.parametrize("order", [2, 4])
    def test_jacobian_matches_fd(self, order):
        system = make_1d(n=9, order=order)
        rng = np.random.default_rng(1)
        check_jacobian(system, rng.uniform(-1.0, 1.0, 9), rtol=1e-4, atol=1e-4)

    @pytest.mark.parametrize("order", [2, 4])
    def test_newton_solves(self, order):
        system = make_1d(n=15, order=order, seed=2)
        result = newton_solve(system, np.zeros(15), NewtonOptions(tolerance=1e-11, max_iterations=60))
        assert result.converged
        assert system.residual_norm(result.u) < 1e-10

    def test_fourth_order_more_accurate_on_smooth_problem(self):
        # Manufactured smooth solution on the unit interval: compare
        # discretization error of the two orders at equal node count.
        def solve_error(order, n):
            spacing = 1.0 / (n + 1)
            xs = (np.arange(n) + 1) * spacing
            target = np.sin(np.pi * xs) * 0.5
            reynolds, weight = 1.0, 0.1

            # Continuous residual of the PDE operator at the target:
            # u + w (u u' - u''/Re).
            up = 0.5 * np.pi * np.cos(np.pi * xs)
            upp = -0.5 * np.pi**2 * np.sin(np.pi * xs)
            rhs_exact = target + weight * (target * up - upp / reynolds)
            system = Burgers1DStencilSystem(
                num_nodes=n,
                reynolds=reynolds,
                rhs=rhs_exact,
                left=0.0,
                right=0.0,
                weight=weight,
                spacing=spacing,
                order=order,
            )
            result = newton_solve(system, target.copy(), NewtonOptions(tolerance=1e-12))
            assert result.converged
            return float(np.max(np.abs(result.u - target)))

        error2 = solve_error(2, 31)
        error4 = solve_error(4, 31)
        assert error4 < error2 / 20.0

    def test_fourth_order_costs_more_tile_inputs(self):
        # The Section 7 trade-off, in accelerator resource units.
        second = make_1d(order=2)
        fourth = make_1d(order=4)
        assert fourth.tile_inputs_per_variable() > second.tile_inputs_per_variable()

    def test_validation(self):
        with pytest.raises(ValueError):
            make_1d(n=2)
        with pytest.raises(ValueError):
            Burgers1DStencilSystem(5, -1.0, np.zeros(5))
        with pytest.raises(ValueError):
            Burgers1DStencilSystem(5, 1.0, np.zeros(4))
        with pytest.raises(ValueError):
            Burgers1DStencilSystem(5, 1.0, np.zeros(5), order=3)


class TestBurgers3D:
    def test_constant_zero_is_fixed_point(self):
        stepper = Burgers3DSplitStepper(n=5, reynolds=1.0, dt=0.1)
        field = np.zeros((5, 5, 5))
        out = stepper.step(field)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_diffusion_decays_bump(self):
        n = 7
        stepper = Burgers3DSplitStepper(n=n, reynolds=0.5, dt=0.05)
        field = np.zeros((n, n, n))
        field[3, 3, 3] = 1.0
        out = stepper.evolve(field, num_steps=3)
        assert np.max(np.abs(out)) < 1.0
        # Mass spreads to the neighbours.
        assert out[2, 3, 3] > 0.0

    def test_lines_accounting(self):
        n = 5
        stepper = Burgers3DSplitStepper(n=n, reynolds=1.0, dt=0.1)
        stepper.step(np.zeros((n, n, n)))
        assert stepper.lines_solved == 3 * n * n

    def test_custom_line_solver_invoked(self):
        calls = []

        def spy(system, guess):
            calls.append(system.dimension)
            from repro.pde.burgers3d import _default_line_solver

            return _default_line_solver(system, guess)

        stepper = Burgers3DSplitStepper(n=5, reynolds=1.0, dt=0.1, line_solver=spy)
        stepper.step(np.full((5, 5, 5), 0.1))
        assert len(calls) == 75
        assert all(dim == 5 for dim in calls)

    def test_symmetry_preserved(self):
        # A centrally symmetric field stays symmetric under splitting.
        n = 7
        stepper = Burgers3DSplitStepper(n=n, reynolds=1.0, dt=0.05)
        xs = np.arange(n) - n // 2
        gx, gy, gz = np.meshgrid(xs, xs, xs, indexing="ij")
        field = np.exp(-(gx**2 + gy**2 + gz**2) / 4.0)
        out = stepper.step(field)
        np.testing.assert_allclose(out, out[::-1, ::-1, ::-1], atol=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            Burgers3DSplitStepper(n=2, reynolds=1.0, dt=0.1)
        with pytest.raises(ValueError):
            Burgers3DSplitStepper(n=5, reynolds=1.0, dt=0.0)
        stepper = Burgers3DSplitStepper(n=5, reynolds=1.0, dt=0.1)
        with pytest.raises(ValueError):
            stepper.step(np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            stepper.evolve(np.zeros((5, 5, 5)), num_steps=0)
