"""Digital Newton's method: classical, damped, and the paper's baseline.

Section 2.1 of the paper reviews the two digital variants:

* **classical Newton**: ``u <- u - J(u)^{-1} F(u)`` — quadratically
  convergent near a root, fractally sensitive to the initial guess;
* **damped Newton**: the full step is scaled by ``h in (0, 1]``, which
  grows the convergence basins at the cost of more iterations, and is
  the Euler discretization of the continuous Newton ODE.

The paper's *baseline digital solver* (Section 6.1) starts at damping
1.0 and halves the damping on failure until convergence is possible,
counting only the final (successful) run's work. That restart schedule
is :func:`damped_newton_with_restarts`, which reports both the
charitable "paper accounting" and the true total work.

Each Newton step solves ``J delta = F``. The linear kernel is
pluggable and comes in two forms:

* a stateful :class:`~repro.linalg.kernel.LinearKernel` — the
  preferred hot-path form. The kernel owns its preconditioner and
  reuses the factorization across Newton steps while the Jacobian's
  sparsity pattern is unchanged (refreshing only when the Krylov
  residual-reduction rate degrades), and it charges every inner
  iteration to a :class:`~repro.linalg.kernel.LinearSolverStats` sink,
  so ``NewtonResult.linear_stats`` reflects the true inner work the
  CPU/GPU cost models bill for;
* a bare ``solver(jacobian, rhs)`` callable, kept as a thin
  backward-compatible adapter (stats then only count outer solves).

When no solver is given, :func:`newton_solve` builds a fresh
``LinearKernel`` per solve: dense LU for array Jacobians,
Jacobi-preconditioned Bi-CGstab (with GMRES and emergency-dense
fallbacks) for CSR — and the per-solve statistics are recorded instead
of silently dropped. A ``LinearKernel`` is itself callable, so a
caller that needs other tolerances, an iteration cap or a different
preconditioner constructs one directly and gains factorization reuse
and additive fallback accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.linalg.dense import SingularMatrixError
from repro.linalg.kernel import LinearKernel, LinearSolverStats
from repro.linalg.sparse import CsrMatrix
from repro.nonlinear.systems import NonlinearSystem
from repro.trace.tracer import TracerLike, as_tracer

__all__ = [
    "IterationHook",
    "NewtonOptions",
    "NewtonResult",
    "LinearSolverStats",
    "LinearKernel",
    "newton_solve",
    "damped_newton_with_restarts",
]

JacobianLike = Union[np.ndarray, CsrMatrix]
LinearSolver = Callable[[JacobianLike, np.ndarray], np.ndarray]
# Called at the top of every Newton iteration with (iteration,
# residual_norm). The fault-tolerant runtime uses it as its cooperative
# cancellation seam: a deadline check raises
# :class:`repro.runtime.api.DeadlineExceeded` to abort the solve, and
# the chaos harness's FaultInjector uses it to inject bounded hangs.
# Exceptions raised here propagate out of the solve (trace spans close
# on the way out).
IterationHook = Callable[[int, float], None]
# Accepted everywhere a linear solver is pluggable: a stateful kernel
# or the legacy bare callable.
LinearSolverLike = Union[LinearKernel, LinearSolver]


@dataclass
class NewtonOptions:
    """Knobs of the digital Newton iteration.

    Attributes
    ----------
    damping:
        Step-size fraction ``h``; 1.0 is classical Newton.
    tolerance:
        Convergence threshold on the residual 2-norm. The paper's
        high-precision runs use double-epsilon-scaled tolerances.
    max_iterations:
        Iteration cap; hitting it reports non-convergence.
    divergence_threshold:
        Residual growth beyond this multiple of the initial residual is
        declared divergence (saves pointless iterations).
    """

    damping: float = 1.0
    tolerance: float = 1e-12
    max_iterations: int = 200
    divergence_threshold: float = 1e6

    def __post_init__(self) -> None:
        if not 0.0 < self.damping <= 1.0:
            raise ValueError(f"damping must be in (0, 1], got {self.damping}")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass
class NewtonResult:
    """Outcome of a (possibly restarted) Newton solve."""

    u: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residual_history: List[float] = field(default_factory=list)
    damping_used: float = 1.0
    restarts: int = 0
    total_iterations_including_restarts: int = 0
    linear_stats: LinearSolverStats = field(default_factory=LinearSolverStats)
    total_linear_stats: Optional[LinearSolverStats] = None
    failure_reason: Optional[str] = None


def default_linear_solver(
    jacobian: JacobianLike, rhs: np.ndarray, stats: Optional[LinearSolverStats] = None
) -> np.ndarray:
    """Backward-compatible one-shot solve: dense LU for arrays,
    preconditioned Krylov (with fallbacks) for CSR.

    Prefer passing a :class:`LinearKernel` to the Newton drivers — a
    fresh kernel per call cannot reuse factorizations. ``stats``, when
    given, receives the solve's full inner-iteration accounting.
    """
    return LinearKernel(stats=stats).solve(jacobian, rhs)


def _traced_linear_solve(
    tracer: TracerLike,
    kernel: Optional[LinearKernel],
    solve: Optional[LinearSolver],
    jacobian: JacobianLike,
    rhs: np.ndarray,
    stats: LinearSolverStats,
) -> np.ndarray:
    """One inner linear solve, charged to ``stats`` and (when a
    recording tracer is given) wrapped in a ``linear_solve`` span whose
    attributes carry the PR-1 kernel counters for exactly this call."""
    if not tracer.active:
        if kernel is not None:
            return kernel.solve(jacobian, rhs, sink=stats)
        delta = solve(jacobian, rhs)
        stats.solves += 1
        return delta
    with tracer.span("linear_solve") as span:
        if kernel is not None:
            call_stats = LinearSolverStats()
            delta = kernel.solve(jacobian, rhs, sink=call_stats)
            stats.merge(call_stats)
            span.update(
                solves=call_stats.solves,
                inner_iterations=call_stats.inner_iterations,
                matvecs=call_stats.matvecs,
                preconditioner_builds=call_stats.preconditioner_builds,
                gmres_fallbacks=call_stats.gmres_fallbacks,
                dense_fallbacks=call_stats.dense_fallbacks,
            )
        else:
            delta = solve(jacobian, rhs)
            stats.solves += 1
            span.update(solves=1, inner_iterations=0, matvecs=0, preconditioner_builds=0)
    return delta


def newton_solve(
    system: NonlinearSystem,
    u0: np.ndarray,
    options: Optional[NewtonOptions] = None,
    linear_solver: Optional[LinearSolverLike] = None,
    tracer: Optional[TracerLike] = None,
    iteration_hook: Optional[IterationHook] = None,
) -> NewtonResult:
    """Run (damped) Newton's method from ``u0``.

    The iteration is ``u <- u - h * J(u)^{-1} F(u)`` with ``h`` fixed at
    ``options.damping``. Convergence is declared when the residual
    2-norm drops below ``options.tolerance``; divergence when the state
    stops being finite, the Jacobian is singular to working precision,
    or the residual grows past ``options.divergence_threshold`` times
    its initial value.

    ``linear_solver`` may be a stateful
    :class:`~repro.linalg.kernel.LinearKernel` (preferred: the
    preconditioner is reused across the Newton steps and the full
    inner-solve accounting lands in ``NewtonResult.linear_stats``) or a
    bare callable. When omitted, a fresh kernel is created for this
    solve.

    ``tracer`` (a :class:`repro.trace.Tracer`) records one
    ``newton_iter`` span per iteration — residual norm and damping as
    attributes — each containing a ``linear_solve`` span carrying the
    inner kernel counters. The default is the no-op null tracer.
    """
    options = options or NewtonOptions()
    tracer = as_tracer(tracer)
    kernel: Optional[LinearKernel]
    if linear_solver is None:
        kernel = LinearKernel()
        solve: Optional[LinearSolver] = None
    elif isinstance(linear_solver, LinearKernel):
        kernel = linear_solver
        solve = None
    else:
        kernel = None
        solve = linear_solver
    u = np.array(u0, dtype=float, copy=True)
    stats = LinearSolverStats()

    residual = system.residual(u)
    norm = float(np.linalg.norm(residual))
    history = [norm]
    initial_norm = max(norm, 1e-300)

    if norm <= options.tolerance:
        return NewtonResult(
            u=u,
            converged=True,
            iterations=0,
            residual_norm=norm,
            residual_history=history,
            damping_used=options.damping,
            linear_stats=stats,
        )

    for iteration in range(1, options.max_iterations + 1):
        if iteration_hook is not None:
            iteration_hook(iteration, norm)
        with tracer.span(
            "newton_iter", iteration=iteration, damping=options.damping
        ) as iter_span:
            jacobian = system.jacobian(u)
            try:
                delta = _traced_linear_solve(tracer, kernel, solve, jacobian, residual, stats)
            except SingularMatrixError:
                iter_span.set("failure", "singular Jacobian")
                return NewtonResult(
                    u=u,
                    converged=False,
                    iterations=iteration - 1,
                    residual_norm=norm,
                    residual_history=history,
                    damping_used=options.damping,
                    linear_stats=stats,
                    failure_reason="singular Jacobian",
                )
            u = u - options.damping * delta
            if not np.all(np.isfinite(u)):
                iter_span.set("failure", "non-finite iterate")
                return NewtonResult(
                    u=u,
                    converged=False,
                    iterations=iteration,
                    residual_norm=float("inf"),
                    residual_history=history,
                    damping_used=options.damping,
                    linear_stats=stats,
                    failure_reason="non-finite iterate",
                )
            residual = system.residual(u)
            norm = float(np.linalg.norm(residual))
            history.append(norm)
            iter_span.set("residual_norm", norm)
            if norm <= options.tolerance:
                return NewtonResult(
                    u=u,
                    converged=True,
                    iterations=iteration,
                    residual_norm=norm,
                    residual_history=history,
                    damping_used=options.damping,
                    linear_stats=stats,
                )
            if norm > options.divergence_threshold * initial_norm:
                iter_span.set("failure", "residual diverged")
                return NewtonResult(
                    u=u,
                    converged=False,
                    iterations=iteration,
                    residual_norm=norm,
                    residual_history=history,
                    damping_used=options.damping,
                    linear_stats=stats,
                    failure_reason="residual diverged",
                )
    return NewtonResult(
        u=u,
        converged=False,
        iterations=options.max_iterations,
        residual_norm=norm,
        residual_history=history,
        damping_used=options.damping,
        linear_stats=stats,
        failure_reason="iteration cap reached",
    )


def damped_newton_with_restarts(
    system: NonlinearSystem,
    u0: np.ndarray,
    options: Optional[NewtonOptions] = None,
    linear_solver: Optional[LinearSolverLike] = None,
    min_damping: float = 1.0 / 1024.0,
    tracer: Optional[TracerLike] = None,
    iteration_hook: Optional[IterationHook] = None,
) -> NewtonResult:
    """The paper's baseline solver: halve the damping until convergence.

    Starts at ``options.damping`` (default 1.0). On failure, halves the
    damping and restarts from ``u0``, down to ``min_damping``. Matching
    the paper's charitable accounting ("we give the digital solver the
    advantage counting only the time spent using the correct damping
    parameter"), the returned ``iterations`` counts only the successful
    run; the honest total including failed restarts is in
    ``total_iterations_including_restarts``, and the honest
    inner-linear-solve total across every attempt is in
    ``total_linear_stats`` (``linear_stats`` keeps the successful run's
    share). A :class:`~repro.linalg.kernel.LinearKernel` passed as
    ``linear_solver`` is shared across the restart attempts, so the
    preconditioner built on the first attempt keeps paying off.
    """
    options = options or NewtonOptions()
    tracer = as_tracer(tracer)
    if linear_solver is None:
        # One kernel for the whole restart schedule: the sparsity
        # pattern is fixed, so failed-damping attempts reuse the
        # factorization instead of rebuilding it.
        linear_solver = LinearKernel()
    damping = options.damping
    restarts = 0
    total_iterations = 0
    total_stats = LinearSolverStats()
    last: Optional[NewtonResult] = None
    while damping >= min_damping:
        attempt_options = NewtonOptions(
            damping=damping,
            tolerance=options.tolerance,
            max_iterations=options.max_iterations,
            divergence_threshold=options.divergence_threshold,
        )
        with tracer.span("newton_attempt", damping=damping, restart=restarts) as attempt:
            result = newton_solve(
                system,
                u0,
                attempt_options,
                linear_solver,
                tracer=tracer,
                iteration_hook=iteration_hook,
            )
            attempt.update(converged=result.converged, iterations=result.iterations)
        total_iterations += result.iterations
        total_stats.merge(result.linear_stats)
        if not result.converged:
            tracer.counter("newton_restarts")
        if result.converged:
            result.restarts = restarts
            result.total_iterations_including_restarts = total_iterations
            result.total_linear_stats = total_stats
            return result
        last = result
        restarts += 1
        damping /= 2.0
    assert last is not None
    last.restarts = restarts
    last.total_iterations_including_restarts = total_iterations
    last.total_linear_stats = total_stats
    last.failure_reason = f"no damping in [{min_damping}, {options.damping}] converged"
    return last
