"""Tests for the simplex solver, barrier flow, and hybrid LP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.optimize import (
    LinearProgram,
    barrier_flow_solve,
    hybrid_lp_solve,
    simplex_solve,
)


def toy_lp():
    """max x0 + 2 x1 s.t. x0 + x1 <= 4, x1 <= 2, x >= 0.

    Optimum at (2, 2) with objective -6 in min form.
    """
    return LinearProgram.from_inequalities(
        c=np.array([-1.0, -2.0]),
        a_ub=np.array([[1.0, 1.0], [0.0, 1.0]]),
        b_ub=np.array([4.0, 2.0]),
    )


def transport_lp():
    """A tiny balanced transportation problem (equality form)."""
    # 2 supplies (3, 5), 2 demands (4, 4); costs [[1, 3], [2, 1]].
    c = np.array([1.0, 3.0, 2.0, 1.0])
    a = np.array(
        [
            [1.0, 1.0, 0.0, 0.0],  # supply 0
            [0.0, 0.0, 1.0, 1.0],  # supply 1
            [1.0, 0.0, 1.0, 0.0],  # demand 0
        ]
    )
    b = np.array([3.0, 5.0, 4.0])
    return LinearProgram(c=c, a=a, b=b)


class TestLinearProgram:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearProgram(c=np.ones(2), a=np.ones((2, 3)), b=np.ones(2))
        with pytest.raises(ValueError):
            LinearProgram(c=np.ones(3), a=np.ones((2, 3)), b=np.ones(3))

    def test_from_inequalities_adds_slacks(self):
        lp = toy_lp()
        assert lp.num_variables == 4

    def test_feasibility_check(self):
        lp = toy_lp()
        assert lp.is_feasible(np.array([2.0, 2.0, 0.0, 0.0]))
        assert not lp.is_feasible(np.array([5.0, 0.0, -1.0, 2.0]))


class TestSimplex:
    def test_toy_optimum(self):
        result = simplex_solve(toy_lp())
        assert result.optimal
        np.testing.assert_allclose(result.x[:2], [2.0, 2.0], atol=1e-9)
        assert result.objective == pytest.approx(-6.0)

    def test_transportation_optimum(self):
        result = simplex_solve(transport_lp())
        assert result.optimal
        # Optimal: ship supply-0 to demand-0 (3), supply-1 covers the
        # rest: 1 to demand-0 and 4 to demand-1. Cost 3+2+4 = 9.
        assert result.objective == pytest.approx(9.0)

    def test_infeasible_detected(self):
        lp = LinearProgram(
            c=np.array([1.0]),
            a=np.array([[1.0], [1.0]]),
            b=np.array([1.0, 2.0]),  # x = 1 and x = 2 simultaneously
        )
        assert simplex_solve(lp).status == "infeasible"

    def test_unbounded_detected(self):
        # min -x0 with x0 - x1 = 0, x >= 0: drive both to infinity.
        lp = LinearProgram(
            c=np.array([-1.0, 0.0]),
            a=np.array([[1.0, -1.0]]),
            b=np.array([0.0]),
        )
        assert simplex_solve(lp).status == "unbounded"

    def test_negative_rhs_handled(self):
        # -x0 = -2 (i.e., x0 = 2).
        lp = LinearProgram(c=np.array([1.0]), a=np.array([[-1.0]]), b=np.array([-2.0]))
        result = simplex_solve(lp)
        assert result.optimal
        assert result.x[0] == pytest.approx(2.0)

    def test_degenerate_does_not_cycle(self):
        # Classic degenerate instance; Bland's rule must terminate.
        lp = LinearProgram.from_inequalities(
            c=np.array([-0.75, 150.0, -0.02, 6.0]),
            a_ub=np.array(
                [
                    [0.25, -60.0, -0.04, 9.0],
                    [0.5, -90.0, -0.02, 3.0],
                    [0.0, 0.0, 1.0, 0.0],
                ]
            ),
            b_ub=np.array([0.0, 0.0, 1.0]),
        )
        result = simplex_solve(lp)
        assert result.optimal
        assert result.objective == pytest.approx(-0.05, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_property_random_inequality_lps(self, seed):
        # Random bounded-feasible LPs: simplex result must be feasible
        # and at least as good as any random feasible point.
        rng = np.random.default_rng(seed)
        num_vars, num_cons = 3, 4
        a_ub = rng.uniform(0.1, 1.0, (num_cons, num_vars))
        b_ub = rng.uniform(1.0, 5.0, num_cons)
        c = rng.uniform(-1.0, 1.0, num_vars)
        lp = LinearProgram.from_inequalities(c, a_ub, b_ub)
        result = simplex_solve(lp)
        assert result.optimal  # feasible (x=0 works) and bounded (a>0)
        assert lp.is_feasible(result.x)
        probe = rng.uniform(0.0, 0.5, num_vars)
        if np.all(a_ub @ probe <= b_ub):
            slack = b_ub - a_ub @ probe
            feasible_point = np.concatenate([probe, slack])
            assert result.objective <= lp.objective(feasible_point) + 1e-7


class TestBarrierFlow:
    def test_settles_near_optimum(self):
        lp = toy_lp()
        flow = barrier_flow_solve(lp, mu=1e-4)
        assert flow.settled
        assert flow.feasible
        np.testing.assert_allclose(flow.x[:2], [2.0, 2.0], atol=0.05)

    def test_smaller_mu_lands_closer(self):
        lp = toy_lp()
        coarse = barrier_flow_solve(lp, mu=1e-2)
        fine = barrier_flow_solve(lp, mu=1e-5)
        exact = simplex_solve(lp).objective
        assert abs(fine.objective - exact) < abs(coarse.objective - exact)

    def test_stays_feasible_throughout(self):
        lp = transport_lp()
        flow = barrier_flow_solve(lp, mu=1e-4)
        assert flow.feasible
        assert np.all(flow.x >= 0.0)

    def test_mu_validated(self):
        with pytest.raises(ValueError):
            barrier_flow_solve(toy_lp(), mu=0.0)

    def test_bad_x0_rejected(self):
        with pytest.raises(ValueError):
            barrier_flow_solve(toy_lp(), x0=np.zeros(4))


class TestHybridLp:
    def test_crossover_reaches_exact_vertex(self):
        lp = toy_lp()
        hybrid = hybrid_lp_solve(lp)
        exact = simplex_solve(lp)
        assert hybrid.optimal
        assert hybrid.objective == pytest.approx(exact.objective, abs=1e-9)
        assert not hybrid.used_fallback

    def test_transportation_hybrid(self):
        lp = transport_lp()
        hybrid = hybrid_lp_solve(lp)
        assert hybrid.optimal
        assert hybrid.objective == pytest.approx(9.0, abs=1e-7)

    def test_fallback_on_infeasible(self):
        lp = LinearProgram(
            c=np.array([1.0]),
            a=np.array([[1.0], [1.0]]),
            b=np.array([1.0, 2.0]),
        )
        hybrid = hybrid_lp_solve(lp)
        assert hybrid.used_fallback
        assert not hybrid.optimal

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_property_hybrid_matches_simplex(self, seed):
        rng = np.random.default_rng(seed)
        a_ub = rng.uniform(0.1, 1.0, (3, 3))
        b_ub = rng.uniform(1.0, 4.0, 3)
        c = rng.uniform(-1.0, -0.1, 3)  # all-negative: interior optimum
        lp = LinearProgram.from_inequalities(c, a_ub, b_ub)
        hybrid = hybrid_lp_solve(lp)
        exact = simplex_solve(lp)
        assert hybrid.optimal and exact.optimal
        assert hybrid.objective == pytest.approx(exact.objective, abs=1e-5)
