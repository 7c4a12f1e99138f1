"""Analog-seeded digital Newton: the hybrid pipeline of Section 6.2.

"The analog solution is set as the initial condition for a seeded
digital solver, which is then immediately in the quadratic convergence
region for the Newton method. The digital solver carries on and
terminates when the error metric is the smallest value representable in
double-precision floating point numbers."

The pipeline:

1. the analog accelerator (simulated, :mod:`repro.analog.engine`) runs
   continuous Newton on the problem and returns a ~5 %-accurate
   solution in its (fast) settle time;
2. classical undamped digital Newton polishes from that seed; because
   the seed sits inside the quadratic basin, a handful of iterations
   reach double-precision accuracy and no damping search is needed.

The baseline it beats is :func:`repro.nonlinear.newton.damped_newton_with_restarts`
from a naive initial guess, which at high Reynolds number must halve
its damping repeatedly (Figure 8).

:class:`HybridSolver` is the runtime's
:class:`~repro.runtime.ladder.DegradationLadder` with its ``hybrid``
and ``damped_newton`` rungs, which share one
:class:`~repro.linalg.kernel.LinearKernel` per solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analog.engine import AnalogAccelerator, AnalogSolveResult
from repro.linalg.kernel import LinearKernel
from repro.nonlinear.newton import (
    LinearSolverLike,
    NewtonOptions,
    NewtonResult,
    damped_newton_with_restarts,
)
from repro.nonlinear.systems import NonlinearSystem
from repro.runtime.ladder import DegradationLadder
from repro.trace.tracer import TracerLike

__all__ = ["HybridResult", "HybridSolver"]


@dataclass
class HybridResult:
    """Outcome of one hybrid (analog-seeded digital) solve."""

    u: np.ndarray
    converged: bool
    analog: AnalogSolveResult
    digital: NewtonResult

    @property
    def digital_iterations(self) -> int:
        return self.digital.iterations

    @property
    def residual_norm(self) -> float:
        return self.digital.residual_norm


class HybridSolver:
    """The hybrid analog-digital nonlinear solver.

    Parameters
    ----------
    accelerator:
        The (simulated) analog accelerator used for seeding; a default
        board is created when omitted.
    polish_options:
        Newton options for the digital polish. The default uses full
        (undamped) steps — the point of a good seed — and a tolerance
        scaled from double epsilon.
    fallback_options:
        Options for the damped-restart recovery used when the analog
        seed misses the quadratic basin or the seed gate rejects it;
        relaxed by default to
        :data:`~repro.runtime.ladder.FALLBACK_TOLERANCE_FLOOR`.
    linear_solver:
        A :class:`~repro.linalg.kernel.LinearKernel` or bare callable
        shared by every digital leg. When omitted, each ``solve`` call
        creates its own kernel (per-solve factorization reuse without
        cross-problem contamination).
    """

    def __init__(
        self,
        accelerator: Optional[AnalogAccelerator] = None,
        polish_options: Optional[NewtonOptions] = None,
        linear_solver: Optional[LinearSolverLike] = None,
        fallback_options: Optional[NewtonOptions] = None,
    ):
        self.ladder = DegradationLadder(
            accelerator=accelerator,
            polish_options=polish_options,
            fallback_options=fallback_options,
            rungs=("hybrid", "damped_newton"),
            linear_solver=linear_solver,
        )

    @property
    def polish_options(self) -> NewtonOptions:
        return self.ladder.polish_options

    @property
    def fallback_options(self) -> NewtonOptions:
        return self.ladder.fallback_options

    def solve(
        self,
        system: NonlinearSystem,
        initial_guess: Optional[np.ndarray] = None,
        value_bound: float = 3.0,
        analog_time_limit: float = 60.0,
        tracer: Optional[TracerLike] = None,
    ) -> HybridResult:
        """Analog seed, then digital polish to high precision.

        ``tracer`` records the ladder's ``ladder``/``ladder_rung``
        spans. Raises ``RuntimeError`` if a rung's error leaves no
        settle or no Newton result to report.
        """
        result = self.ladder.solve(
            system,
            initial_guess=initial_guess,
            value_bound=value_bound,
            analog_time_limit=analog_time_limit,
            tracer=tracer,
        )
        digital = next(
            (a.newton for a in reversed(result.attempts) if a.newton is not None), None
        )
        if result.analog is None or digital is None:
            failures = "; ".join(f"{a.rung}: {a.error}" for a in result.attempts)
            raise RuntimeError(f"hybrid solve failed ({failures})")
        return HybridResult(digital.u, digital.converged, result.analog, digital)

    def solve_baseline(
        self,
        system: NonlinearSystem,
        initial_guess: Optional[np.ndarray] = None,
        tracer: Optional[TracerLike] = None,
    ) -> NewtonResult:
        """The paper's digital baseline: damped Newton with the halving
        restart schedule, from the same naive initial guess."""
        guess = (
            np.zeros(system.dimension)
            if initial_guess is None
            else np.asarray(initial_guess, dtype=float)
        )
        solver = self.ladder.linear_solver
        return damped_newton_with_restarts(
            system,
            guess,
            self.polish_options,
            solver if solver is not None else LinearKernel(),
            tracer=tracer,
        )
