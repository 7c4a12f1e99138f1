"""PDE substrate: grids, stencils, discretization, and model problems.

Section 4 of the paper converts nonlinear PDEs into the nonlinear
systems of algebraic equations the accelerator solves, via

* **space discretization** — second-order central finite differences on
  a structured grid (:mod:`repro.pde.grid`, :mod:`repro.pde.stencils`),
* **time stepping** — the implicit, second-order Crank-Nicolson scheme
  (:mod:`repro.pde.timestepping`), yielding one nonlinear system per
  time step.

The model problems are:

* the 2-D viscous Burgers' equation, the paper's benchmark PDE, with
  analytic sparse Jacobian (:mod:`repro.pde.burgers`);
* a 1-D semilinear reaction-diffusion equation, the source of the
  Equation-2 coupled quadratic system
  (:mod:`repro.pde.reaction_diffusion`);
* the linear Poisson equation as an elliptic reference and workload
  building block (:mod:`repro.pde.poisson`).
"""

from repro.pde.grid import Grid2D
from repro.pde.stencils import (
    pad_with_boundary,
    central_x,
    central_y,
    laplacian_5pt,
)
from repro.pde.boundary import DirichletBoundary
from repro.pde.burgers import (
    BurgersStencilSystem,
    BurgersTimeStepper,
    random_burgers_system,
    reynolds_character,
)
from repro.pde.timestepping import (
    Bdf2System,
    CrankNicolsonSystem,
    ImplicitEulerSystem,
    ImplicitStepper,
    SpatialOperator,
    TrajectoryResult,
)
from repro.pde.reaction_diffusion import ReactionDiffusion1D
from repro.pde.poisson import PoissonProblem
from repro.pde.bratu import BratuProblem1D, BratuProblem2D, BRATU_1D_CRITICAL, BRATU_2D_CRITICAL
from repro.pde.burgers1d import Burgers1DStencilSystem, stencil_width
from repro.pde.burgers3d import Burgers3DSplitStepper

__all__ = [
    "Grid2D",
    "pad_with_boundary",
    "central_x",
    "central_y",
    "laplacian_5pt",
    "DirichletBoundary",
    "BurgersStencilSystem",
    "BurgersTimeStepper",
    "random_burgers_system",
    "reynolds_character",
    "CrankNicolsonSystem",
    "ImplicitEulerSystem",
    "Bdf2System",
    "ImplicitStepper",
    "TrajectoryResult",
    "SpatialOperator",
    "ReactionDiffusion1D",
    "PoissonProblem",
    "BratuProblem1D",
    "BratuProblem2D",
    "BRATU_1D_CRITICAL",
    "BRATU_2D_CRITICAL",
    "Burgers1DStencilSystem",
    "stencil_width",
    "Burgers3DSplitStepper",
]
