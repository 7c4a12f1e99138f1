"""The explicit degradation ladder: how a solve is allowed to fail.

The paper's whole pitch is graceful degradation — a 5.38 %-RMS analog
seed still lands the digital Newton polish in the quadratic basin
(Fig. 6), and when it doesn't, Section 5 falls back to homotopy
continuation. The ladder makes that story an explicit, inspectable
policy instead of ad-hoc nested fallbacks:

1. ``hybrid`` — analog-seeded undamped Newton polish (the headline
   method, Section 6.2);
2. ``damped_newton`` — damped Newton with the halving restart
   schedule, recovered from whatever seed is available, then
   best-effort re-polished at the tight tolerance;
3. ``homotopy`` — global (Newton) homotopy continuation from the naive
   guess, needing no structure at all (Section 3.2);
4. structured failure — a :class:`LadderResult` with ``converged
   False`` and every rung's diagnosis, never an exception.

:class:`repro.core.HybridSolver` is this ladder with the first two
rungs. One :class:`~repro.linalg.kernel.LinearKernel` serves every
digital rung of a descent, so the preconditioner factorized by the
polish is reused by the damped recovery.

Every rung is recorded as a ``ladder_rung`` span; each downgrade bumps
the ``ladder_fallbacks`` counter. A cooperative
:class:`~repro.runtime.api.Deadline` is checked between rungs and (via
the Newton ``iteration_hook``) inside them, so a deadline always
surfaces as ``timed_out`` rather than as unbounded work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.analog.engine import AnalogAccelerator, AnalogSolveResult
from repro.nonlinear.homotopy import HomotopySchedule, newton_homotopy_solve
from repro.nonlinear.newton import (
    IterationHook,
    LinearKernel,
    LinearSolverLike,
    NewtonOptions,
    NewtonResult,
    damped_newton_with_restarts,
    newton_solve,
)
from repro.nonlinear.systems import NonlinearSystem
from repro.runtime.api import DEFAULT_RUNGS, Deadline, DeadlineExceeded, check_rungs
from repro.runtime.faults import InjectedWorkerCrash
from repro.trace.tracer import TracerLike, as_tracer

__all__ = [
    "DEFAULT_RUNGS",
    "DOUBLE_EPS",
    "FALLBACK_TOLERANCE_FLOOR",
    "RungAttempt",
    "LadderResult",
    "DegradationLadder",
    "damped_recovery",
]

# The paper polishes "to double-precision floating point epsilon"; on a
# residual norm this is epsilon scaled by the problem's magnitude.
DOUBLE_EPS = float(np.finfo(np.float64).eps)

# Tolerance floor for the damped recovery rung — loose enough for a
# damped search from a bad seed to terminate, tight enough that a
# recovered solution is a solution by any practical measure.
FALLBACK_TOLERANCE_FLOOR = 1e-9


def damped_recovery(
    system: NonlinearSystem,
    seed: np.ndarray,
    polish_options: NewtonOptions,
    fallback_options: NewtonOptions,
    solver: LinearSolverLike,
    tracer: Optional[TracerLike] = None,
    iteration_hook: Optional[IterationHook] = None,
) -> NewtonResult:
    """Damped-restart recovery from a bad seed, then best-effort polish.

    The ladder's ``damped_newton`` rung: run the damped baseline under
    the relaxed fallback options; if it converges, attempt a final
    polish at the tight tolerance, folding the recovery's
    restart/iteration/linear-solve bill into the polished result so no
    accounting is lost. The reported ``converged`` honestly reflects
    whichever tolerance was actually achieved.
    """
    tracer = as_tracer(tracer)
    recovery = damped_newton_with_restarts(
        system, seed, fallback_options, solver, tracer=tracer, iteration_hook=iteration_hook
    )
    if not recovery.converged:
        return recovery
    polish = newton_solve(
        system, recovery.u, polish_options, solver, tracer=tracer, iteration_hook=iteration_hook
    )
    if not polish.converged:
        # The relaxed-tolerance solution stands; report it honestly
        # (converged at fallback_options.tolerance, residual_norm says
        # exactly how far it got).
        return recovery
    # Fold the recovery's work into the polished result.
    polish.restarts += recovery.restarts
    polish.total_iterations_including_restarts = (
        recovery.total_iterations_including_restarts + polish.iterations
    )
    if recovery.total_linear_stats is not None:
        merged = recovery.total_linear_stats
        merged.merge(polish.linear_stats)
        polish.total_linear_stats = merged
    return polish


@dataclass
class RungAttempt:
    """What one ladder rung did: the per-rung line of the failure story."""

    rung: str
    converged: bool
    residual_norm: float
    iterations: int = 0
    error: Optional[str] = None
    u: Optional[np.ndarray] = field(default=None, repr=False)
    # The digital rungs' full Newton result (None for homotopy and for
    # a hybrid rung whose seed was rejected).
    newton: Optional[NewtonResult] = field(default=None, repr=False)


@dataclass
class LadderResult:
    """The ladder's terminal verdict for one solve attempt."""

    u: Optional[np.ndarray]
    converged: bool
    rung: Optional[str]
    residual_norm: float
    attempts: List[RungAttempt] = field(default_factory=list)
    timed_out: bool = False
    analog: Optional[AnalogSolveResult] = field(default=None, repr=False)  # the settle

    @property
    def rungs_tried(self) -> Tuple[str, ...]:
        return tuple(attempt.rung for attempt in self.attempts)


class DegradationLadder:
    """Runs the rungs in order until one converges or the ladder is spent.

    Option defaults: undamped polish to ``1e3 * DOUBLE_EPS``; damped
    recovery relaxed to :data:`FALLBACK_TOLERANCE_FLOOR`. ``schedule``
    configures the homotopy rung's lambda sweep. ``rungs`` reorders or
    prunes the ladder (e.g. ``("damped_newton",)`` for digital-only
    batches). ``linear_solver`` serves the digital rungs of every
    descent; when omitted each descent builds its own kernel.
    """

    def __init__(
        self,
        accelerator: Optional[AnalogAccelerator] = None,
        polish_options: Optional[NewtonOptions] = None,
        fallback_options: Optional[NewtonOptions] = None,
        schedule: Optional[HomotopySchedule] = None,
        rungs: Tuple[str, ...] = DEFAULT_RUNGS,
        settle_max_steps: int = 1_000_000,
        linear_solver: Optional[LinearSolverLike] = None,
    ):
        self.accelerator = accelerator or AnalogAccelerator()
        if settle_max_steps < 1:
            raise ValueError("settle_max_steps must be at least 1")
        self.settle_max_steps = int(settle_max_steps)
        self.polish_options = polish_options or NewtonOptions(
            damping=1.0, tolerance=1e3 * DOUBLE_EPS, max_iterations=100
        )
        self.fallback_options = fallback_options or NewtonOptions(
            damping=self.polish_options.damping,
            tolerance=max(self.polish_options.tolerance, FALLBACK_TOLERANCE_FLOOR),
            max_iterations=max(self.polish_options.max_iterations, 200),
            divergence_threshold=self.polish_options.divergence_threshold,
        )
        self.schedule = schedule or HomotopySchedule(steps=20)
        self.rungs = check_rungs(rungs)
        self.linear_solver = linear_solver

    def solve(
        self,
        system: NonlinearSystem,
        initial_guess: Optional[np.ndarray] = None,
        value_bound: float = 3.0,
        analog_time_limit: float = 60.0,
        deadline: Optional[Deadline] = None,
        tracer: Optional[TracerLike] = None,
        iteration_hook: Optional[IterationHook] = None,
        rungs: Optional[Tuple[str, ...]] = None,
    ) -> LadderResult:
        """Descend the ladder; always returns a :class:`LadderResult`.

        Only :class:`~repro.runtime.api.DeadlineExceeded` (converted to
        ``timed_out``) and
        :class:`~repro.runtime.faults.InjectedWorkerCrash` (which must
        escape — it stands in for the process dying) interrupt the
        descent; any other exception inside a rung is recorded as that
        rung's failure and the next rung runs. ``rungs`` overrides the
        ladder's order for this solve and is checked like the
        constructor's.
        """
        rungs = self.rungs if rungs is None else check_rungs(rungs)
        tracer = as_tracer(tracer)
        guess = (
            np.zeros(system.dimension)
            if initial_guess is None
            else np.asarray(initial_guess, dtype=float)
        )
        hook = self._compose_hook(deadline, iteration_hook)
        solver = self.linear_solver if self.linear_solver is not None else LinearKernel()
        attempts: List[RungAttempt] = []
        best_u: Optional[np.ndarray] = None
        best_norm = float("inf")
        seed = guess  # running best starting point for digital rungs
        analog: Optional[AnalogSolveResult] = None
        timed_out = False

        with tracer.span("ladder", dimension=system.dimension) as ladder_span:
            for index, rung in enumerate(rungs):
                if deadline is not None and deadline.expired:
                    timed_out = True
                    break
                if index > 0:
                    tracer.counter("ladder_fallbacks")
                with tracer.span("ladder_rung", rung=rung) as rung_span:
                    try:
                        if rung == "hybrid":
                            result, seed, analog = self._hybrid_rung(
                                system, guess, value_bound, analog_time_limit, solver, tracer, hook
                            )
                        elif rung == "damped_newton":
                            result = _attempt_from_newton(
                                "damped_newton",
                                damped_recovery(
                                    system,
                                    seed,
                                    self.polish_options,
                                    self.fallback_options,
                                    solver,
                                    tracer=tracer,
                                    iteration_hook=hook,
                                ),
                            )
                        else:  # homotopy
                            result = self._homotopy_rung(system, guess, tracer, hook)
                    except DeadlineExceeded:
                        rung_span.update(outcome="timeout")
                        attempts.append(
                            RungAttempt(
                                rung=rung,
                                converged=False,
                                residual_norm=best_norm,
                                error="deadline exceeded",
                            )
                        )
                        timed_out = True
                        break
                    except InjectedWorkerCrash:
                        raise
                    except Exception as exc:
                        # A rung blowing up is a rung failing; the
                        # ladder's contract is a structured verdict.
                        tracer.counter("ladder_rung_errors")
                        rung_span.update(outcome="error", error=f"{type(exc).__name__}: {exc}")
                        attempts.append(
                            RungAttempt(
                                rung=rung,
                                converged=False,
                                residual_norm=float("inf"),
                                error=f"{type(exc).__name__}: {exc}",
                            )
                        )
                        continue
                    attempts.append(result)
                    rung_span.update(
                        outcome="converged" if result.converged else "failed",
                        residual_norm=result.residual_norm,
                        iterations=result.iterations,
                    )
                    if result.residual_norm < best_norm and result.u is not None:
                        best_norm = result.residual_norm
                        best_u = result.u
                    if result.converged:
                        ladder_span.update(rung=rung, converged=True)
                        return LadderResult(
                            u=result.u,
                            converged=True,
                            rung=rung,
                            residual_norm=result.residual_norm,
                            attempts=attempts,
                            analog=analog,
                        )
            ladder_span.update(converged=False, timed_out=timed_out)
        return LadderResult(
            u=best_u,
            converged=False,
            rung=None,
            residual_norm=best_norm,
            attempts=attempts,
            timed_out=timed_out,
            analog=analog,
        )

    # -- rungs ----------------------------------------------------------

    @staticmethod
    def _compose_hook(
        deadline: Optional[Deadline], extra: Optional[IterationHook]
    ) -> Optional[IterationHook]:
        if deadline is None and extra is None:
            return None

        def hook(iteration: int, residual_norm: float) -> None:
            if extra is not None:
                extra(iteration, residual_norm)
            if deadline is not None:
                deadline.check()

        return hook

    def _hybrid_rung(
        self,
        system: NonlinearSystem,
        guess: np.ndarray,
        value_bound: float,
        analog_time_limit: float,
        solver: LinearSolverLike,
        tracer: TracerLike,
        hook: Optional[IterationHook],
    ):
        """Analog seed + undamped polish; returns (attempt, seed, analog)."""
        analog = self.accelerator.solve(
            system,
            initial_guess=guess,
            value_bound=value_bound,
            time_limit=analog_time_limit,
            tracer=tracer,
            settle_max_steps=self.settle_max_steps,
        )
        if analog.converged and not analog.seed_accepted:
            # The seed gate refused the settled analog solution (it is
            # worse than the naive guess — a degraded board). Fail the
            # rung *without* burning the doomed undamped polish; the
            # ladder falls straight to damped_newton from the guess.
            quality = analog.seed_quality
            detail = f" (quality {quality.quality:.3g} > {quality.threshold:.3g})" if quality else ""
            attempt = RungAttempt(
                rung="hybrid",
                converged=False,
                residual_norm=float(analog.residual_norm),
                error=f"analog seed rejected by quality gate{detail}",
            )
            return attempt, guess, analog
        seed = analog.solution if analog.converged else guess
        polish = newton_solve(
            system, seed, self.polish_options, solver, tracer=tracer, iteration_hook=hook
        )
        return _attempt_from_newton("hybrid", polish), seed, analog

    def _homotopy_rung(
        self,
        system: NonlinearSystem,
        guess: np.ndarray,
        tracer: TracerLike,
        hook: Optional[IterationHook],
    ) -> RungAttempt:
        result = newton_homotopy_solve(
            system, guess, schedule=self.schedule, tracer=tracer, iteration_hook=hook
        )
        norm = float(system.residual_norm(result.u)) if result.u is not None else float("inf")
        return RungAttempt(
            rung="homotopy",
            converged=bool(result.converged),
            residual_norm=norm,
            iterations=result.corrector_iterations,
            u=result.u,
        )


def _attempt_from_newton(rung: str, result: NewtonResult) -> RungAttempt:
    return RungAttempt(
        rung=rung,
        converged=bool(result.converged),
        residual_norm=float(result.residual_norm),
        iterations=int(result.iterations),
        error=result.failure_reason,
        u=result.u,
        newton=result,
    )
