"""Shared experiment protocol pieces (Section 6.1's setup).

The Figure 7 protocol compares the baseline digital solver and the
simulated analog accelerator *at equal accuracy*: "Both the baseline
digital solver and the simulated analog solver are stopped when their
error metric defined in Equation 6 reaches 5.38%, the value we measured
from the analog accelerator chip."

:func:`equal_accuracy_damped_newton` implements the digital side: the
damped Newton iteration with the paper's halving restart schedule,
stopped the moment the Equation 6 error against the golden solution
drops below the target. Iteration and inner-solve counts feed the CPU
cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analog.engine import solution_error
from repro.linalg.kernel import LinearKernel, LinearSolverStats
from repro.nonlinear.newton import _traced_linear_solve
from repro.nonlinear.systems import NonlinearSystem
from repro.trace.tracer import TracerLike, as_tracer

__all__ = ["EqualAccuracyResult", "equal_accuracy_damped_newton", "ANALOG_ERROR_TARGET"]

# The chip's measured total RMS error (Figure 6), used as the
# equal-accuracy stopping threshold in Figure 7.
ANALOG_ERROR_TARGET = 0.0538


@dataclass
class EqualAccuracyResult:
    """Digital solve stopped at the analog accuracy level."""

    u: np.ndarray
    reached_target: bool
    iterations: int
    total_iterations_including_restarts: int
    damping_used: float
    restarts: int
    inner_iterations: int
    linear_solves: int
    total_inner_iterations: int = 0
    total_linear_solves: int = 0
    preconditioner_builds: int = 0


def equal_accuracy_damped_newton(
    system: NonlinearSystem,
    initial_guess: np.ndarray,
    golden: np.ndarray,
    scale: float,
    target_error: float = ANALOG_ERROR_TARGET,
    max_iterations: int = 200,
    min_damping: float = 1.0 / 1024.0,
    divergence_threshold: float = 1e6,
    kernel: Optional[LinearKernel] = None,
    tracer: Optional[TracerLike] = None,
) -> EqualAccuracyResult:
    """Damped Newton, halving on failure, stopped at the error target.

    ``scale`` maps solutions into the analog dynamic range so the error
    metric matches Equation 6's scaled form. Following the paper's
    charitable accounting, ``iterations`` counts only the successful
    damping's run; the honest total is also reported
    (``total_iterations_including_restarts``, ``total_inner_iterations``
    and ``total_linear_solves`` include every failed attempt).

    One :class:`~repro.linalg.kernel.LinearKernel` is shared across
    every damping attempt (pass ``kernel`` to share it with other
    solves of the same problem), so the preconditioner is factorized
    once per sparsity pattern instead of once per attempt.

    ``tracer`` records one ``newton_attempt`` span per damping level and
    one ``linear_solve`` span per inner kernel call, carrying that
    call's exact share of the kernel counters.
    """
    golden = np.asarray(golden, dtype=float)
    kernel = kernel or LinearKernel()
    tracer = as_tracer(tracer)
    damping = 1.0
    restarts = 0
    total_iterations = 0
    total_stats = LinearSolverStats()
    builds_before = kernel.stats.preconditioner_builds
    last_u = np.asarray(initial_guess, dtype=float)

    while damping >= min_damping:
        stats = LinearSolverStats()
        u = np.array(initial_guess, dtype=float, copy=True)
        initial_norm = max(system.residual_norm(u), 1e-300)
        performed = 0
        diverged = False
        with tracer.span("newton_attempt", damping=damping, restart=restarts) as attempt:
            for _ in range(max_iterations):
                if solution_error(u / scale, golden / scale) <= target_error:
                    break
                residual = system.residual(u)
                jacobian = system.jacobian(u)
                try:
                    delta = _traced_linear_solve(
                        tracer, kernel, None, jacobian, residual, stats
                    )
                except Exception:
                    diverged = True
                    break
                u = u - damping * delta
                performed += 1
                if not np.all(np.isfinite(u)) or (
                    system.residual_norm(u) > divergence_threshold * initial_norm
                ):
                    diverged = True
                    break
            attempt.update(iterations=performed, diverged=diverged)
        total_iterations += performed
        total_stats.merge(stats)
        if not diverged and solution_error(u / scale, golden / scale) <= target_error:
            return EqualAccuracyResult(
                u=u,
                reached_target=True,
                iterations=performed,
                total_iterations_including_restarts=total_iterations,
                damping_used=damping,
                restarts=restarts,
                inner_iterations=stats.inner_iterations,
                linear_solves=stats.solves,
                total_inner_iterations=total_stats.inner_iterations,
                total_linear_solves=total_stats.solves,
                preconditioner_builds=kernel.stats.preconditioner_builds - builds_before,
            )
        last_u = u
        restarts += 1
        damping /= 2.0
    return EqualAccuracyResult(
        u=last_u,
        reached_target=False,
        iterations=max_iterations,
        total_iterations_including_restarts=total_iterations,
        damping_used=damping * 2.0,
        restarts=restarts,
        inner_iterations=0,
        linear_solves=0,
        total_inner_iterations=total_stats.inner_iterations,
        total_linear_solves=total_stats.solves,
        preconditioner_builds=kernel.stats.preconditioner_builds - builds_before,
    )
