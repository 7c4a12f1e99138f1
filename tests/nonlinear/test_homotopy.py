"""Tests for homotopy continuation."""

import numpy as np
import pytest

from repro.nonlinear.homotopy import (
    BlendedSystem,
    HomotopySchedule,
    homotopy_solve,
)
from repro.nonlinear.systems import CoupledQuadraticSystem, SimpleSquareSystem


class TestBlendedSystem:
    def test_lambda_zero_is_simple(self):
        simple = SimpleSquareSystem(2)
        hard = CoupledQuadraticSystem(1.0, 1.0)
        blended = BlendedSystem(simple, hard, 0.0)
        u = np.array([0.3, -0.8])
        np.testing.assert_allclose(blended.residual(u), simple.residual(u))

    def test_lambda_one_is_hard(self):
        simple = SimpleSquareSystem(2)
        hard = CoupledQuadraticSystem(1.0, 1.0)
        blended = BlendedSystem(simple, hard, 1.0)
        u = np.array([0.3, -0.8])
        np.testing.assert_allclose(blended.residual(u), hard.residual(u))

    def test_jacobian_blends(self):
        simple = SimpleSquareSystem(2)
        hard = CoupledQuadraticSystem(1.0, 1.0)
        u = np.array([0.5, 0.5])
        mid = BlendedSystem(simple, hard, 0.5)
        expected = 0.5 * simple.jacobian(u) + 0.5 * hard.jacobian(u)
        np.testing.assert_allclose(mid.jacobian(u), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            BlendedSystem(SimpleSquareSystem(2), SimpleSquareSystem(3), 0.5)
        with pytest.raises(ValueError):
            BlendedSystem(SimpleSquareSystem(2), SimpleSquareSystem(2), 1.5)


class TestHomotopySolve:
    def test_tracks_to_hard_root(self):
        simple = SimpleSquareSystem(2)
        hard = CoupledQuadraticSystem(1.0, 1.0)
        result = homotopy_solve(simple, hard, np.array([1.0, 1.0]))
        assert result.converged
        assert hard.residual_norm(result.u) < 1e-10

    def test_path_recorded_monotone_lambda(self):
        simple = SimpleSquareSystem(2)
        hard = CoupledQuadraticSystem(1.0, 1.0)
        result = homotopy_solve(simple, hard, np.array([1.0, 1.0]))
        lams = np.array(result.lambdas)
        assert lams[0] == 0.0
        assert lams[-1] == 1.0
        assert np.all(np.diff(lams) > 0)
        assert len(result.path) == len(result.lambdas)

    def test_all_four_starts_land_on_true_roots(self):
        simple = SimpleSquareSystem(2)
        hard = CoupledQuadraticSystem(1.0, 1.0)
        for start in simple.roots():
            result = homotopy_solve(simple, hard, start)
            if result.converged:
                assert hard.residual_norm(result.u) < 1e-8

    def test_failure_reports_lambda(self):
        # Hard system with NO real roots: paths must fail en route.
        simple = SimpleSquareSystem(2)
        hard = CoupledQuadraticSystem(rhs0=-100.0, rhs1=0.0)
        schedule = HomotopySchedule(steps=20)
        result = homotopy_solve(simple, hard, np.array([1.0, 1.0]), schedule)
        assert not result.converged
        assert result.failure_lambda is not None
        assert 0.0 < result.failure_lambda <= 1.0

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            HomotopySchedule(steps=0)
