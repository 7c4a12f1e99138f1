"""Independent residual evaluation for certification.

The whole point of a certificate is that it does *not* trust the
solver's bookkeeping — so these residual paths deliberately avoid
:mod:`repro.pde.stencils` and the systems' own ``residual`` methods.
The Burgers path re-assembles the ghost ring and applies the
central/Laplacian stencils with direct numpy slicing; the coupled
quadratic is evaluated in closed form. A shared bug between the
solver's stencil code and this file would have to be introduced twice,
independently, in different shapes.

Problem *data* (right-hand sides, boundary values) still comes from
:meth:`repro.runtime.api.ProblemSpec.build` — that rebuild is a pure
function of the spec (seeded ``default_rng``), so it is the same data
the attempt solved against, reproduced bitwise in any process. What is
independent here is the *evaluation*.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "burgers_residual",
    "quadratic_residual",
    "independent_residual",
    "independent_residual_norms",
]


def burgers_residual(system, solution: np.ndarray) -> np.ndarray:
    """Direct ghost-cell re-assembly of the steady forced Burgers
    residual (Section 4.2 discretization), slicing written out inline."""
    grid = system.grid
    ny, nx = grid.ny, grid.nx
    n = grid.num_nodes
    dx, dy = float(grid.dx), float(grid.dy)
    inv_re = 1.0 / float(system.reynolds)
    weight = float(system.weight)

    u = np.asarray(solution[:n], dtype=float).reshape(ny, nx)
    v = np.asarray(solution[n:], dtype=float).reshape(ny, nx)

    def padded(field: np.ndarray, boundary) -> np.ndarray:
        ghost = np.zeros((ny + 2, nx + 2))
        ghost[1:-1, 1:-1] = field
        ghost[1:-1, 0] = boundary.west
        ghost[1:-1, -1] = boundary.east
        ghost[0, 1:-1] = boundary.south
        ghost[-1, 1:-1] = boundary.north
        return ghost

    def advect_diffuse(ghost: np.ndarray) -> np.ndarray:
        ddx = (ghost[1:-1, 2:] - ghost[1:-1, :-2]) / (2.0 * dx)
        ddy = (ghost[2:, 1:-1] - ghost[:-2, 1:-1]) / (2.0 * dy)
        center = ghost[1:-1, 1:-1]
        lap = (ghost[1:-1, 2:] - 2.0 * center + ghost[1:-1, :-2]) / (dx * dx) + (
            ghost[2:, 1:-1] - 2.0 * center + ghost[:-2, 1:-1]
        ) / (dy * dy)
        return u * ddx + v * ddy - inv_re * lap

    f_u = u + weight * advect_diffuse(padded(u, system.boundary_u)) - system.rhs_u
    f_v = v + weight * advect_diffuse(padded(v, system.boundary_v)) - system.rhs_v
    return np.concatenate([f_u.reshape(-1), f_v.reshape(-1)])


def quadratic_residual(system, solution: np.ndarray) -> np.ndarray:
    """Closed-form Equation 2 residual for the coupled quadratic."""
    rho0, rho1 = float(solution[0]), float(solution[1])
    return np.array(
        [
            rho0 * rho0 + rho0 + rho1 - float(system.rhs0),
            rho1 * rho1 + rho1 - rho0 - float(system.rhs1),
        ]
    )


def independent_residual(spec, system, solution: np.ndarray) -> np.ndarray:
    """``F(solution)`` through the certification path for ``spec``'s
    family (:data:`repro.families.FAMILIES`).

    ``system`` must be the object ``spec.build()`` returned (the caller
    usually also needs the initial guess, so it holds the pair already).
    """
    solution = np.asarray(solution, dtype=float)
    if solution.shape != (system.dimension,):
        raise ValueError(
            f"solution shape {solution.shape} does not match dimension {system.dimension}"
        )
    return spec.family.independent_residual(system, solution)


def independent_residual_norms(spec, solution: np.ndarray) -> Tuple[float, float]:
    """``(|F(solution)|, |F(initial_guess)|)`` — the absolute residual
    at the answer and the reference norm at the spec's deterministic
    initial guess, both through the independent path. Non-finite
    solutions yield an infinite first norm (the finite-scan check is
    what reports them readably)."""
    system, guess = spec.build()
    reference = float(np.linalg.norm(independent_residual(spec, system, guess)))
    solution = np.asarray(solution, dtype=float)
    if not np.all(np.isfinite(solution)):
        return float("inf"), reference
    achieved = float(np.linalg.norm(independent_residual(spec, system, solution)))
    return achieved, reference
