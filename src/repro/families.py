"""The problem-family table: the one place that knows what a kind is.

:class:`~repro.runtime.api.ProblemSpec` names its family by ``kind``.
Each :class:`ProblemFamily` entry gives ``build(params) -> (system,
guess)`` (a pure function of the seeded parameters), the certificate's
``independent_residual(system, u)`` (:mod:`repro.certify.residuals`,
written apart from the solver's assembly), the ``boundary_ring(system)``
row mask, the ``conservation_defect(system, residual)`` and the fleet
gate's ``conditioning(params)`` proxy for the arXiv:2410.06397 bound.
A field is ``None`` where the family has no boundary, no conserved
quantity, or kappa = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.certify.residuals import burgers_residual, quadratic_residual
from repro.nonlinear.systems import CoupledQuadraticSystem
from repro.pde.burgers import random_burgers_system

__all__ = ["FAMILIES", "ProblemFamily"]


@dataclass(frozen=True)
class ProblemFamily:
    """What the stack knows about one problem kind (see module doc)."""

    build: Callable
    independent_residual: Callable
    boundary_ring: Optional[Callable] = None
    conservation_defect: Optional[Callable] = None
    conditioning: Optional[Callable] = None


def _build_burgers(params):
    rng = np.random.default_rng(params["seed"])
    return random_burgers_system(params["grid_n"], params["reynolds"], rng)


def _burgers_ring(system) -> np.ndarray:
    """Rows one node in from the wall, in both fields: the Dirichlet
    data enters only through the ghost ring, so a solve against wrong
    boundary values shows up loudest there."""
    ring = np.zeros((system.grid.ny, system.grid.nx), dtype=bool)
    ring[0, :] = ring[-1, :] = True
    ring[:, 0] = ring[:, -1] = True
    return np.concatenate([ring.reshape(-1), ring.reshape(-1)])


def _burgers_mass_defect(system, residual: np.ndarray) -> float:
    """``|sum F_u| + |sum F_v|``, zero at a root: a correlated bias an
    RMS norm dilutes cannot hide in the sum."""
    n = system.grid.num_nodes
    return abs(float(np.sum(residual[:n]))) + abs(float(np.sum(residual[n:])))


def _burgers_conditioning(params) -> float:
    """Grows with system size (more tiles sharing one board's drift
    budget, log-ish like the bound's dimension factor) and with
    Reynolds stiffness in either direction."""
    dimension = 2 * int(params["grid_n"]) ** 2
    reynolds = float(params["reynolds"])
    stiffness = max(reynolds, 1.0 / reynolds) if reynolds > 0 else 1.0
    return math.sqrt(1.0 + math.log2(max(dimension, 1))) * stiffness**0.25


def _build_quadratic(params):
    system = CoupledQuadraticSystem(params["rhs0"], params["rhs1"])
    return system, np.asarray(params["guess"], dtype=float)


FAMILIES: Dict[str, ProblemFamily] = {
    "burgers": ProblemFamily(
        build=_build_burgers,
        independent_residual=burgers_residual,
        boundary_ring=_burgers_ring,
        conservation_defect=_burgers_mass_defect,
        conditioning=_burgers_conditioning,
    ),
    # Tiny and benign: no boundary, no conserved quantity, kappa = 1.
    "quadratic": ProblemFamily(build=_build_quadratic, independent_residual=quadratic_residual),
}
