"""The continuous Newton method as an ODE (Section 2.2 of the paper).

Shrinking the damped Newton step to an infinitesimal gives the
continuous Newton flow

    du/dtau = -J(u)^{-1} F(u)

whose trajectories follow the *Newton vector field* to a root. Along
the flow, ``F(u(tau)) = F(u(0)) exp(-tau)`` exactly — every component
of the residual decays at unit rate — which is why the flow is far less
sensitive to initial conditions than its discretizations and why the
basin picture of Figure 2 is contiguous.

Two fidelities are provided, matching the ablation in DESIGN.md:

* **behavioral** — each RHS evaluation solves ``J delta = F`` exactly
  (LU / Krylov). This is what the paper's simulated scaled-up
  accelerator does (Section 6.1).
* **circuit** — the state is augmented with the quotient value
  ``delta`` produced by the analog gradient-descent feedback block of
  Figure 1, integrating the coupled two-timescale system

      d delta/dtau = -gain * J^T (J delta - F)     (fast loop)
      du/dtau      = -delta                        (slow loop)

  which is the actual circuit topology of the prototype chip.

The settle time of the flow is the analog accelerator's solution time;
:mod:`repro.perf.analog_model` converts it to seconds.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from repro.linalg.dense import SingularMatrixError, solve_dense
from repro.linalg.sparse import CsrMatrix
from repro.nonlinear.newton import LinearSolver, default_linear_solver
from repro.nonlinear.systems import NonlinearSystem
from repro.ode.dormand_prince import integrate_rk45
from repro.ode.events import SettleDetector
from repro.ode.solution import OdeSolution

__all__ = [
    "ContinuousNewtonResult",
    "continuous_newton_solve",
    "newton_flow_rhs",
]

# Stall window of the behavioral settle: flow time must advance by at
# least _STALL_ADVANCE over every _STALL_STEPS accepted steps.
_STALL_ADVANCE = 0.05
_STALL_STEPS = 10


@dataclass
class ContinuousNewtonResult:
    """Outcome of a continuous Newton integration.

    ``settle_time`` is in the flow's natural time units; the analog
    performance model multiplies by the circuit time constant to get
    wall-clock seconds.
    """

    u: np.ndarray
    converged: bool
    settle_time: float
    residual_norm: float
    solution: OdeSolution
    fidelity: str
    stalled: bool = False
    """True when the stall window ended the run (behavioral only)."""


def newton_flow_rhs(
    system: NonlinearSystem,
    linear_solver: Optional[LinearSolver] = None,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """RHS of the behavioral Newton flow ``du/dtau = -J^{-1} F``.

    Near points where the Jacobian is singular the exact flow blows up;
    the physical circuit instead saturates, so we regularize: if the
    solve fails, fall back to the damped least-squares direction
    ``-(J^T J + eps I)^{-1} J^T F``.
    """
    solve = linear_solver or default_linear_solver

    def rhs(_tau: float, u: np.ndarray) -> np.ndarray:
        residual = system.residual(u)
        jacobian = system.jacobian(u)
        try:
            delta = solve(jacobian, residual)
            if not np.all(np.isfinite(delta)):
                raise SingularMatrixError("non-finite Newton direction")
        except SingularMatrixError:
            dense = jacobian.to_dense() if isinstance(jacobian, CsrMatrix) else np.asarray(jacobian)
            gram = dense.T @ dense + 1e-8 * np.eye(dense.shape[1])
            delta = solve_dense(gram, dense.T @ residual)
        return -delta

    return rhs


def _circuit_rhs(
    system: NonlinearSystem,
    gain: float,
) -> Callable[[float, np.ndarray], np.ndarray]:
    """RHS of the circuit-fidelity flow over the augmented state
    ``[u, delta]`` (Figure 1's topology)."""
    n = system.dimension

    def rhs(_tau: float, state: np.ndarray) -> np.ndarray:
        u = state[:n]
        delta = state[n:]
        residual = system.residual(u)
        jacobian = system.jacobian(u)
        if isinstance(jacobian, CsrMatrix):
            j_delta = jacobian.matvec(delta)
            grad = jacobian.rmatvec(j_delta - residual)
        else:
            j_delta = jacobian @ delta
            grad = jacobian.T @ (j_delta - residual)
        return np.concatenate([-delta, -gain * grad])

    return rhs


def continuous_newton_solve(
    system: NonlinearSystem,
    u0: np.ndarray,
    time_limit: float = 60.0,
    fidelity: str = "behavioral",
    gain: float = 100.0,
    derivative_tolerance: float = 1e-7,
    dwell: float = 0.05,
    rtol: float = 1e-7,
    atol: float = 1e-10,
    linear_solver: Optional[LinearSolver] = None,
    residual_tolerance: float = 1e-5,
    max_steps: int = 1_000_000,
) -> ContinuousNewtonResult:
    """Integrate the continuous Newton flow from ``u0`` until settled.

    Parameters
    ----------
    fidelity:
        ``"behavioral"`` (exact inner solve per RHS evaluation) or
        ``"circuit"`` (augmented state with the gradient-descent
        quotient loop; ``gain`` sets the inner-loop bandwidth).
    residual_tolerance:
        The run counts as converged only if it settled *and* the final
        residual is below this — settling far from a root (e.g. at a
        saturation rail) is reported honestly as failure.
    max_steps:
        Accepted-step budget for the integrator. A badly degraded
        board's flow can shrink the adaptive step until covering the
        time limit costs unbounded wall-clock; a real board's settle
        window is wall-clock bounded, so the simulation's must be too.
        Exhausting the budget reads out wherever the flow stands —
        an unsettled, unconverged run the seed gate then rejects.

    A behavioral run also ends at a *stall*: when flow time advances by
    less than ``_STALL_ADVANCE`` over the last ``_STALL_STEPS`` accepted
    steps. The exact flow reaches a singular Jacobian in finite time,
    where the simulator would shrink its steps without limit; the
    hardware's quotient loop saturates instead and its settle window
    ends. A stalled run reads out where it stands, unsettled and
    unconverged, with ``stalled`` set. Ordinary grid-8 Burgers settles
    advance at least 1.30 per 10 steps, 26x the threshold. The circuit
    fidelity has no stall window: its fast quotient loop takes short
    steps by design.
    """
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (system.dimension,):
        raise ValueError(f"u0 must have shape ({system.dimension},), got {u0.shape}")
    if fidelity not in ("behavioral", "circuit"):
        raise ValueError(f"unknown fidelity {fidelity!r}")

    detector = SettleDetector(derivative_tolerance=derivative_tolerance, dwell=dwell)
    n = system.dimension
    stalled = False
    if fidelity == "behavioral":
        rhs = newton_flow_rhs(system, linear_solver)
        y0 = u0
        recent = deque([0.0], maxlen=_STALL_STEPS + 1)

        def callback(t: float, y: np.ndarray, dy_dt: np.ndarray) -> bool:
            nonlocal stalled
            if detector(t, y, dy_dt):
                return True
            recent.append(t)
            stalled = len(recent) == recent.maxlen and t - recent[0] < _STALL_ADVANCE
            return stalled

    else:
        rhs = _circuit_rhs(system, gain)
        y0 = np.concatenate([u0, np.zeros(n)])

        # Settle on the slow (u) components only: the fast quotient loop
        # hovers at its noise floor amplified by the loop gain, which is
        # invisible at the integrator outputs the ADCs actually measure.
        def callback(t: float, y: np.ndarray, dy_dt: np.ndarray) -> bool:
            return detector(t, y[:n], dy_dt[:n])

    solution = integrate_rk45(
        rhs,
        0.0,
        y0,
        time_limit,
        rtol=rtol,
        atol=atol,
        max_steps=max_steps,
        step_callback=callback,
    )
    if stalled:
        solution = replace(solution, settled=False, settle_time=None)
    u_final = solution.final_state[: system.dimension]
    residual_norm = system.residual_norm(u_final)
    settle_time = solution.settle_time if solution.settle_time is not None else solution.final_time
    return ContinuousNewtonResult(
        u=u_final,
        converged=solution.settled and residual_norm <= residual_tolerance,
        settle_time=settle_time,
        residual_norm=residual_norm,
        solution=solution,
        fidelity=fidelity,
        stalled=stalled,
    )
