"""Nonlinear systems of algebraic equations and their solvers.

This package carries the paper's algorithmic core:

* :mod:`repro.nonlinear.systems` — the ``NonlinearSystem`` protocol and
  the concrete systems the paper studies: the scalar cubic ``u^3 - 1``
  of Section 2, the coupled quadratic system of Eq. 2 (a semilinear PDE
  on two grid points), and its trivial homotopy partner of Eq. 3.
* :mod:`repro.nonlinear.newton` — digital Newton variants: classical,
  fixed-damping, and the paper's baseline with a halving damping
  schedule found by restarting (Section 6.1).
* :mod:`repro.nonlinear.continuous_newton` — the continuous Newton
  flow ``du/dtau = -J(u)^{-1} F(u)`` as an ODE, in behavioral and
  circuit (inner gradient-flow) fidelities.
* :mod:`repro.nonlinear.homotopy` — homotopy continuation between a
  simple and a hard system (Section 3.2).
* :mod:`repro.nonlinear.basins` — vectorized basin-of-attraction maps
  behind Figures 2 and 3.
"""

from repro.nonlinear.systems import (
    NonlinearSystem,
    CallableSystem,
    CubicRootSystem,
    CoupledQuadraticSystem,
    SimpleSquareSystem,
    finite_difference_jacobian,
    check_jacobian,
)
from repro.nonlinear.newton import (
    NewtonOptions,
    NewtonResult,
    newton_solve,
    damped_newton_with_restarts,
)
from repro.nonlinear.continuous_newton import (
    ContinuousNewtonResult,
    continuous_newton_solve,
    newton_flow_rhs,
)
from repro.nonlinear.homotopy import (
    HomotopyResult,
    HomotopySchedule,
    homotopy_solve,
)
from repro.nonlinear.flows import (
    EigenFlowResult,
    oja_flow,
    dominant_eigenpairs,
    rayleigh_quotient,
)
from repro.nonlinear.basins import (
    BasinMap,
    classify_roots,
    newton_iteration_basins,
    continuous_newton_basins,
    coupled_system_basins,
    contiguity_score,
)

__all__ = [
    "NonlinearSystem",
    "CallableSystem",
    "CubicRootSystem",
    "CoupledQuadraticSystem",
    "SimpleSquareSystem",
    "finite_difference_jacobian",
    "check_jacobian",
    "NewtonOptions",
    "NewtonResult",
    "newton_solve",
    "damped_newton_with_restarts",
    "ContinuousNewtonResult",
    "continuous_newton_solve",
    "newton_flow_rhs",
    "HomotopyResult",
    "HomotopySchedule",
    "homotopy_solve",
    "BasinMap",
    "classify_roots",
    "newton_iteration_basins",
    "continuous_newton_basins",
    "coupled_system_basins",
    "contiguity_score",
    "EigenFlowResult",
    "oja_flow",
    "dominant_eigenpairs",
    "rayleigh_quotient",
]
