"""A 1-D semilinear reaction-diffusion problem.

Section 3.1 of the paper motivates the coupled quadratic system of
Equation 2 as arising "from solving a one-dimensional semilinear PDE
problem on two grid points. The nonlinear term where the variables are
squared indicate for example a reaction process." This module provides
that PDE for arbitrary grid sizes:

    -D u'' + u^2 + u = f(x),   u(0) = left,  u(L) = right

discretized with second-order central differences. On two grid points
with unit spacing and the paper's normalization, the stencil reduces to
a system with the same quadratic-plus-linear-plus-coupling structure as
Equation 2, which the tests verify.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.linalg.sparse import CooBuilder, CsrMatrix
from repro.nonlinear.systems import NonlinearSystem

__all__ = ["ReactionDiffusion1D"]


class ReactionDiffusion1D(NonlinearSystem):
    """Semilinear reaction-diffusion boundary value problem in 1-D.

    The residual at interior node ``i`` (spacing ``h``):

        F_i = -D (u_{i-1} - 2 u_i + u_{i+1}) / h^2 + u_i^2 + u_i - f_i

    with Dirichlet values ``left`` and ``right`` substituted for the
    ghost neighbours of the first and last nodes.
    """

    def __init__(
        self,
        num_nodes: int,
        diffusion: float = 1.0,
        forcing: Optional[np.ndarray] = None,
        left: float = 0.0,
        right: float = 0.0,
        spacing: float = 1.0,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        if diffusion < 0.0:
            raise ValueError("diffusion must be nonnegative")
        if spacing <= 0.0:
            raise ValueError("spacing must be positive")
        self.dimension = num_nodes
        self.diffusion = float(diffusion)
        self.spacing = float(spacing)
        self.left = float(left)
        self.right = float(right)
        if forcing is None:
            self.forcing = np.zeros(num_nodes)
        else:
            self.forcing = np.asarray(forcing, dtype=float)
            if self.forcing.shape != (num_nodes,):
                raise ValueError(f"forcing must have shape ({num_nodes},)")

    def _padded(self, u: np.ndarray) -> np.ndarray:
        return np.concatenate([[self.left], u, [self.right]])

    def residual(self, u: np.ndarray) -> np.ndarray:
        u = self._validate(u)
        padded = self._padded(u)
        lap = (padded[:-2] - 2.0 * padded[1:-1] + padded[2:]) / self.spacing**2
        return -self.diffusion * lap + u**2 + u - self.forcing

    def jacobian(self, u: np.ndarray) -> CsrMatrix:
        u = self._validate(u)
        n = self.dimension
        coeff = self.diffusion / self.spacing**2
        builder = CooBuilder(n, n)
        idx = np.arange(n)
        builder.add_many(idx, idx, 2.0 * coeff + 2.0 * u + 1.0)
        if n > 1:
            builder.add_many(idx[:-1], idx[:-1] + 1, np.full(n - 1, -coeff))
            builder.add_many(idx[1:], idx[1:] - 1, np.full(n - 1, -coeff))
        return builder.to_csr()
