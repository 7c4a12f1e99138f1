"""Homotopy continuation (Section 3.2 of the paper).

To solve a hard system ``H(rho) = 0`` without knowing good initial
conditions, connect it to a simple system ``S(rho) = 0`` with obvious
roots through the convex homotopy

    G(rho, lambda) = (1 - lambda) S(rho) + lambda H(rho) = 0,

and track each simple root from ``lambda = 0`` to ``lambda = 1``. The
paper emphasizes that this tracking is "again an ODE in disguise" (the
Davidenko equation), which is why an analog accelerator executes it
naturally; digitally, we sweep lambda in small increments with a Newton
corrector at each value — the classical predictor-corrector scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.nonlinear.newton import (
    IterationHook,
    NewtonOptions,
    damped_newton_with_restarts,
    newton_solve,
)
from repro.nonlinear.systems import NonlinearSystem
from repro.trace.tracer import TracerLike, as_tracer

__all__ = [
    "BlendedSystem",
    "HomotopySchedule",
    "HomotopyResult",
    "NewtonHomotopySystem",
    "homotopy_solve",
    "newton_homotopy_solve",
]


class BlendedSystem(NonlinearSystem):
    """The joint system ``(1 - lambda) S + lambda H`` at fixed lambda."""

    def __init__(self, simple: NonlinearSystem, hard: NonlinearSystem, lam: float):
        if simple.dimension != hard.dimension:
            raise ValueError(
                f"dimension mismatch: simple {simple.dimension} vs hard {hard.dimension}"
            )
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"lambda must be in [0, 1], got {lam}")
        self.simple = simple
        self.hard = hard
        self.lam = float(lam)
        self.dimension = simple.dimension

    def residual(self, u: np.ndarray) -> np.ndarray:
        return (1.0 - self.lam) * self.simple.residual(u) + self.lam * self.hard.residual(u)

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        js = self.simple.jacobian(u)
        jh = self.hard.jacobian(u)
        js = js if isinstance(js, np.ndarray) else js.to_dense()
        jh = jh if isinstance(jh, np.ndarray) else jh.to_dense()
        return (1.0 - self.lam) * js + self.lam * jh


# Newton options at each intermediate lambda: loose tolerances are fine
# mid-path, because the terminal lambda = 1 solve is refined with
# _FINAL_CORRECTOR.
_CORRECTOR = NewtonOptions(tolerance=1e-8, max_iterations=30)
_FINAL_CORRECTOR = NewtonOptions(tolerance=1e-12, max_iterations=60)


@dataclass
class HomotopySchedule:
    """Controls the lambda sweep.

    Attributes
    ----------
    steps:
        Number of lambda increments from 0 to 1.
    """

    steps: int = 50

    def __post_init__(self) -> None:
        if self.steps <= 0:
            raise ValueError("steps must be positive")


@dataclass
class HomotopyResult:
    """One tracked homotopy path."""

    u: np.ndarray
    converged: bool
    start_root: np.ndarray
    path: List[np.ndarray] = field(default_factory=list)
    lambdas: List[float] = field(default_factory=list)
    corrector_iterations: int = 0
    failure_lambda: Optional[float] = None
    jumps: int = 0
    """Number of fold points where the tracked root annihilated and the
    path jumped to a surviving root's basin (the behaviour of the
    physical continuous dynamics at a turning point)."""


class NewtonHomotopySystem(NonlinearSystem):
    """The classical global (Newton) homotopy's simple companion.

    ``S(u) = F(u) - F(u0)`` has ``u0`` as an exact root by
    construction, so any state at all can anchor a homotopy path:
    blending with ``H = F`` via :class:`BlendedSystem` yields
    ``G(u, lambda) = F(u) - (1 - lambda) F(u0)``, the textbook global
    homotopy. This is the degradation ladder's last solver rung
    (:mod:`repro.runtime.ladder`): when neither the analog-seeded
    polish nor damped restarts converge, the path from the naive guess
    is swept instead — the paper's Section 3.2 fallback, made
    systematic.
    """

    def __init__(self, system: NonlinearSystem, u0: np.ndarray):
        self.system = system
        self.dimension = system.dimension
        self._f0 = np.asarray(system.residual(np.asarray(u0, dtype=float)), dtype=float)

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.system.residual(u) - self._f0

    def jacobian(self, u: np.ndarray):
        return self.system.jacobian(u)


def newton_homotopy_solve(
    system: NonlinearSystem,
    u0: np.ndarray,
    schedule: Optional[HomotopySchedule] = None,
    tracer: Optional[TracerLike] = None,
    iteration_hook: Optional[IterationHook] = None,
) -> HomotopyResult:
    """Solve ``F(u) = 0`` by global homotopy from an arbitrary state.

    Builds the :class:`NewtonHomotopySystem` companion at ``u0`` and
    tracks its (exact) root to a root of ``system``. No knowledge of
    the problem's structure is needed — which is exactly what a last
    fallback rung requires.
    """
    simple = NewtonHomotopySystem(system, u0)
    return homotopy_solve(
        simple,
        system,
        np.asarray(u0, dtype=float),
        schedule=schedule,
        tracer=tracer,
        iteration_hook=iteration_hook,
    )


def _fold_recovery(
    blended: BlendedSystem,
    u: np.ndarray,
    options: NewtonOptions,
    tracer: Optional[TracerLike] = None,
    iteration_hook: Optional[IterationHook] = None,
):
    """Find a surviving root of the blended system after a fold.

    When the tracked real root annihilates (a turning point of the real
    path), the physical accelerator's state is no longer at equilibrium
    and its continuous dynamics carry it to whichever attractor of the
    blended system it reaches — empirically, Figure 3 shows every
    initial condition ends on a correct solution. We emulate that
    global behaviour by restarting damped Newton from a deterministic
    coarse lattice of starting points, visited nearest-to-``u`` first,
    and accepting the first root found. The caller counts these events
    in ``HomotopyResult.jumps``.
    """
    recovery_options = NewtonOptions(
        tolerance=options.tolerance,
        max_iterations=max(options.max_iterations, 200),
        divergence_threshold=options.divergence_threshold,
    )
    if blended.dimension <= 4:
        axis = np.linspace(-3.0, 3.0, 7)
        lattice = np.array(
            np.meshgrid(*([axis] * blended.dimension), indexing="ij")
        ).reshape(blended.dimension, -1).T
    else:
        # High-dimensional systems: a full lattice is intractable; use
        # deterministic random perturbations of growing radius instead.
        rng = np.random.default_rng(12345)
        lattice = u + np.concatenate(
            [radius * rng.standard_normal((8, u.shape[0])) for radius in (0.25, 0.5, 1.0, 2.0)]
        )
    order = np.argsort(np.linalg.norm(lattice - u, axis=1))
    last = None
    for idx in order:
        result = damped_newton_with_restarts(
            blended,
            lattice[idx],
            recovery_options,
            min_damping=1.0 / 64.0,
            tracer=tracer,
            iteration_hook=iteration_hook,
        )
        last = result
        if result.converged:
            return result
    return last


def homotopy_solve(
    simple: NonlinearSystem,
    hard: NonlinearSystem,
    start_root: np.ndarray,
    schedule: Optional[HomotopySchedule] = None,
    tracer: Optional[TracerLike] = None,
    iteration_hook: Optional[IterationHook] = None,
) -> HomotopyResult:
    """Track one root of the simple system to a root of the hard one.

    The sweep uses secant prediction (extrapolating the last two path
    points) followed by a Newton corrector on the blended system. A
    path that loses its corrector (turning point, path divergence) is
    reported with the lambda at which tracking failed. ``tracer``
    records one ``homotopy_stage`` span per lambda increment wrapping
    that stage's corrector iterations.
    """
    schedule = schedule or HomotopySchedule()
    tracer = as_tracer(tracer)
    u = np.array(start_root, dtype=float, copy=True)
    path = [u.copy()]
    lambdas = [0.0]
    total_corrector = 0
    jumps = 0

    previous = None
    lam_values = np.linspace(0.0, 1.0, schedule.steps + 1)[1:]
    for lam in lam_values:
        with tracer.span("homotopy_stage", lam=float(lam)) as stage:
            # Secant predictor.
            if previous is not None:
                prediction = u + (u - previous)
            else:
                prediction = u.copy()
            blended = BlendedSystem(simple, hard, float(lam))
            options = _FINAL_CORRECTOR if lam == lam_values[-1] else _CORRECTOR
            result = newton_solve(
                blended, prediction, options, tracer=tracer, iteration_hook=iteration_hook
            )
            if not result.converged:
                # Retry without the predictor before resorting to a jump.
                result = newton_solve(
                    blended, u, options, tracer=tracer, iteration_hook=iteration_hook
                )
            if not result.converged:
                # Fold point: the tracked real root annihilated. The
                # continuous dynamics of the physical accelerator do not
                # stop here — noise kicks the state off the fold and the
                # Newton flow slides into the basin of a surviving root of
                # the blended system. We emulate that with damped Newton
                # restarts from deterministic perturbations of growing
                # radius around the fold point.
                result = _fold_recovery(
                    blended, u, options, tracer=tracer, iteration_hook=iteration_hook
                )
                if result.converged:
                    jumps += 1
                    tracer.counter("homotopy_jumps")
            total_corrector += result.iterations
            stage.update(converged=result.converged, iterations=result.iterations)
            if not result.converged:
                return HomotopyResult(
                    u=u,
                    converged=False,
                    start_root=np.asarray(start_root, dtype=float),
                    path=path,
                    lambdas=lambdas,
                    corrector_iterations=total_corrector,
                    failure_lambda=float(lam),
                    jumps=jumps,
                )
            previous = u
            u = result.u
            path.append(u.copy())
            lambdas.append(float(lam))
    return HomotopyResult(
        u=u,
        converged=True,
        start_root=np.asarray(start_root, dtype=float),
        path=path,
        lambdas=lambdas,
        corrector_iterations=total_corrector,
        jumps=jumps,
    )
