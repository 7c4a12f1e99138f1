"""3-D scalar Burgers' equation via dimension splitting (Section 7).

"We note, however, all practical PDE solvers decouple the problem
dimensions and solve the problem in one or two dimensions at a time,
permitting the use of analog acceleration."

This module implements exactly that decoupling for the 3-D scalar
viscous Burgers equation

    u_t + u (u_x + u_y + u_z) - (1/Re) Lap(u) = 0

on an ``n^3`` grid with zero Dirichlet boundaries: each time step is a
sequence of *directional* implicit sub-steps (Douglas-Rachford-style
splitting), and every sub-step decomposes into independent 1-D line
problems — each a :class:`repro.pde.burgers1d.Burgers1DStencilSystem`
small enough for a line-sized analog accelerator. The line solver is
pluggable so the hybrid pipeline can take over.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.nonlinear.newton import NewtonOptions, newton_solve
from repro.pde.burgers1d import Burgers1DStencilSystem

__all__ = ["Burgers3DSplitStepper"]

LineSolver = Callable[[Burgers1DStencilSystem, np.ndarray], np.ndarray]


def _default_line_solver(system: Burgers1DStencilSystem, guess: np.ndarray) -> np.ndarray:
    result = newton_solve(system, guess, NewtonOptions(tolerance=1e-10, max_iterations=40))
    return result.u if result.converged else guess


class Burgers3DSplitStepper:
    """Directionally split implicit stepping of 3-D scalar Burgers.

    Each step applies one implicit 1-D Burgers solve per grid line per
    direction with ``weight = dt / 3`` (the advective-diffusive load is
    split evenly across the three directional sub-steps). First-order
    accurate in time like classical Lie splitting; the point here is
    the structural one — 3-D work reduces to accelerator-sized lines.
    """

    def __init__(
        self,
        n: int,
        reynolds: float,
        dt: float,
        line_solver: Optional[LineSolver] = None,
    ):
        if n < 3:
            raise ValueError("need at least a 3x3x3 interior grid")
        if reynolds <= 0.0:
            raise ValueError("Reynolds number must be positive")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.n = int(n)
        self.reynolds = float(reynolds)
        self.dt = float(dt)
        self.line_solver = line_solver or _default_line_solver
        self.lines_solved = 0

    def _sweep_axis(self, field: np.ndarray, axis: int) -> np.ndarray:
        """One implicit directional sub-step: solve every line along
        ``axis`` independently (these are the parallel analog solves)."""
        # ascontiguousarray: moveaxis returns a strided view whose
        # reshape would silently copy, detaching flat_out from out.
        moved = np.ascontiguousarray(np.moveaxis(field, axis, -1))
        out = np.empty(moved.shape)
        weight = self.dt / 3.0
        flat = moved.reshape(-1, self.n)
        flat_out = out.reshape(-1, self.n)
        for index, line in enumerate(flat):
            system = Burgers1DStencilSystem(
                num_nodes=self.n,
                reynolds=self.reynolds,
                rhs=line,
                left=0.0,
                right=0.0,
                weight=weight,
            )
            flat_out[index] = self.line_solver(system, line.copy())
            self.lines_solved += 1
        return np.moveaxis(out, -1, axis)

    def step(self, field: np.ndarray) -> np.ndarray:
        """Advance one split time step (x, then y, then z sweeps)."""
        field = np.asarray(field, dtype=float)
        if field.shape != (self.n, self.n, self.n):
            raise ValueError(f"field must have shape {(self.n,) * 3}")
        for axis in (0, 1, 2):
            field = self._sweep_axis(field, axis)
        return field

    def evolve(self, field: np.ndarray, num_steps: int) -> np.ndarray:
        if num_steps <= 0:
            raise ValueError("num_steps must be positive")
        for _ in range(num_steps):
            field = self.step(field)
        return field
