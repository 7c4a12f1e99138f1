"""A from-scratch two-phase dense simplex solver.

Solves standard-form linear programs

    minimize    c^T x
    subject to  A x = b,  x >= 0

with the tableau method and Bland's anti-cycling rule. This is the
*digital exact* baseline of the LP extension: deterministic pivoting,
exact vertices — and per-pivot cost that the hybrid pipeline's
analog-seeded route avoids (see :mod:`repro.optimize.hybrid_lp`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

__all__ = ["LinearProgram", "SimplexResult", "simplex_solve"]

_TOL = 1e-9


@dataclass(frozen=True)
class LinearProgram:
    """Standard-form LP data with validation and conveniences."""

    c: np.ndarray
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.ndim != 2:
            raise ValueError("A must be a matrix")
        if c.shape != (a.shape[1],):
            raise ValueError(f"c must have length {a.shape[1]}")
        if b.shape != (a.shape[0],):
            raise ValueError(f"b must have length {a.shape[0]}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def num_variables(self) -> int:
        return self.a.shape[1]

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ np.asarray(x, dtype=float))

    def is_feasible(self, x: np.ndarray, tol: float = 1e-7) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(
            np.all(x >= -tol) and np.linalg.norm(self.a @ x - self.b) <= tol * max(1.0, np.linalg.norm(self.b))
        )

    @classmethod
    def from_inequalities(cls, c, a_ub, b_ub) -> "LinearProgram":
        """Convert ``min c^T x  s.t.  A_ub x <= b_ub, x >= 0`` to
        standard form by appending slack variables."""
        c = np.asarray(c, dtype=float)
        a_ub = np.asarray(a_ub, dtype=float)
        b_ub = np.asarray(b_ub, dtype=float)
        m = a_ub.shape[0]
        return cls(
            c=np.concatenate([c, np.zeros(m)]),
            a=np.hstack([a_ub, np.eye(m)]),
            b=b_ub,
        )


@dataclass
class SimplexResult:
    """Outcome of a simplex solve."""

    x: np.ndarray
    objective: float
    status: str  # "optimal", "infeasible", "unbounded"
    pivots: int
    basis: List[int]

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tableau: np.ndarray, basis: List[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(tableau: np.ndarray, basis: List[int], num_vars: int, max_pivots: int):
    """Iterate Bland-rule pivots on a tableau whose last row is the
    (negated-reduced-cost) objective and last column is the RHS."""
    pivots = 0
    while pivots < max_pivots:
        costs = tableau[-1, :num_vars]
        entering_candidates = np.nonzero(costs < -_TOL)[0]
        if entering_candidates.size == 0:
            return "optimal", pivots
        col = int(entering_candidates[0])  # Bland: smallest index
        column = tableau[:-1, col]
        rhs = tableau[:-1, -1]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(column > _TOL, rhs / column, np.inf)
        if not np.any(np.isfinite(ratios)):
            return "unbounded", pivots
        best = np.min(ratios)
        # Bland tie-break: smallest basis index among the minimizers.
        rows = np.nonzero(np.abs(ratios - best) <= _TOL * max(1.0, best))[0]
        row = int(min(rows, key=lambda r: basis[r]))
        _pivot(tableau, basis, row, col)
        pivots += 1
    return "stalled", pivots


def simplex_solve(problem: LinearProgram, max_pivots: int = 10_000) -> SimplexResult:
    """Two-phase simplex: artificial variables find a basic feasible
    point, then the true objective is optimized."""
    a = problem.a.copy()
    b = problem.b.copy()
    # Normalize to b >= 0 for phase 1.
    negative = b < 0.0
    a[negative] *= -1.0
    b[negative] *= -1.0
    m, n = a.shape

    # Phase 1 tableau: [A | I | b], minimize sum of artificials.
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = a
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    # Objective row: sum of artificial rows (reduced costs of phase 1).
    tableau[-1, : n + m] = -np.sum(tableau[:m, : n + m], axis=0)
    tableau[-1, n : n + m] = 0.0
    tableau[-1, -1] = -np.sum(b)
    basis = list(range(n, n + m))

    status, phase1_pivots = _run_simplex(tableau, basis, n + m, max_pivots)
    phase1_value = -tableau[-1, -1]
    if status != "optimal" or phase1_value > 1e-7 * max(1.0, float(np.sum(b))):
        return SimplexResult(
            x=np.zeros(n), objective=float("nan"), status="infeasible", pivots=phase1_pivots, basis=basis
        )

    # Drive any artificial variables out of the basis where possible.
    for row in range(m):
        if basis[row] >= n:
            candidates = np.nonzero(np.abs(tableau[row, :n]) > _TOL)[0]
            if candidates.size:
                _pivot(tableau, basis, row, int(candidates[0]))

    # Phase 2: drop artificial columns, install the true objective.
    tableau2 = np.zeros((m + 1, n + 1))
    tableau2[:m, :n] = tableau[:m, :n]
    tableau2[:m, -1] = tableau[:m, -1]
    tableau2[-1, :n] = problem.c
    # Make reduced costs of basic variables zero.
    for row, var in enumerate(basis):
        if var < n and abs(tableau2[-1, var]) > 0.0:
            tableau2[-1] -= tableau2[-1, var] * tableau2[row]
    status, phase2_pivots = _run_simplex(tableau2, basis, n, max_pivots)
    x = np.zeros(n)
    for row, var in enumerate(basis):
        if var < n:
            x[var] = tableau2[row, -1]
    if status == "unbounded":
        return SimplexResult(
            x=x, objective=float("-inf"), status="unbounded", pivots=phase1_pivots + phase2_pivots, basis=basis
        )
    return SimplexResult(
        x=x,
        objective=problem.objective(x),
        status="optimal" if status == "optimal" else status,
        pivots=phase1_pivots + phase2_pivots,
        basis=basis,
    )
