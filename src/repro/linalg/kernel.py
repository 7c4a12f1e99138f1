"""Stateful linear kernel for the Newton hot path.

The paper's performance argument is carried by the *inner* linear-solve
work of each Newton step (the Table 1 kernels; the Figure 8/9 CPU and
GPU comparisons). Two things about that hot path used to be wrong in
this library:

* the default solver path rebuilt the sparse preconditioner from
  scratch on every Newton step even though the Jacobian's sparsity
  pattern never changes inside a solve, and
* the :class:`LinearSolverStats` the inner kernels were designed to
  record were silently dropped on the default path, so the CPU/GPU
  cost models undercharged the digital baseline.

:class:`LinearKernel` fixes both. It owns the preconditioner and the
CSR symbolic structure it was built for, reuses the factorization
across Newton steps while the sparsity pattern is unchanged, refreshes
it only when the Krylov residual-reduction rate degrades past a
threshold, and *always* threads a stats sink — every Bi-CGstab, GMRES
and emergency-dense attempt is charged additively.

A kernel instance is itself a valid ``LinearSolver`` callable, so every
API that used to take a bare ``solver(jacobian, rhs)`` function accepts
a kernel unchanged.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.linalg.dense import SingularMatrixError, solve_dense
from repro.linalg.iterative import IterativeResult, bicgstab, gmres
from repro.linalg.preconditioners import (
    Ilu0Preconditioner,
    JacobiPreconditioner,
    Preconditioner,
)
from repro.linalg.sparse import CsrMatrix

__all__ = ["LinearSolverStats", "LinearKernel"]

MatrixLike = Union[np.ndarray, CsrMatrix]


@dataclass
class LinearSolverStats:
    """Aggregate cost of the inner linear solves across Newton steps.

    ``record`` charges one solve; the fallback counters make the
    accounting *explicit*: when Bi-CGstab stalls and GMRES (or the
    emergency dense path) finishes the job, ``inner_iterations`` and
    ``matvecs`` hold the additive total over every attempt, and the
    corresponding fallback counter marks which path completed.
    """

    solves: int = 0
    inner_iterations: int = 0
    matvecs: int = 0
    preconditioner_builds: int = 0
    gmres_fallbacks: int = 0
    dense_fallbacks: int = 0

    def record(self, iterations: int, matvecs: int) -> None:
        self.solves += 1
        self.inner_iterations += iterations
        self.matvecs += matvecs

    def merge(self, other: "LinearSolverStats") -> None:
        """Fold another sink's counters into this one (additive)."""
        self.solves += other.solves
        self.inner_iterations += other.inner_iterations
        self.matvecs += other.matvecs
        self.preconditioner_builds += other.preconditioner_builds
        self.gmres_fallbacks += other.gmres_fallbacks
        self.dense_fallbacks += other.dense_fallbacks

    @property
    def preconditioner_reuse_fraction(self) -> float:
        """Fraction of solves that did *not* pay a factorization."""
        if self.solves == 0:
            return 0.0
        return 1.0 - min(self.preconditioner_builds, self.solves) / self.solves

    def as_row(self) -> dict:
        """Reporting row for the CLI / experiment summaries."""
        return {
            "linear solves": self.solves,
            "inner iterations": self.inner_iterations,
            "matvecs": self.matvecs,
            "preconditioner builds": self.preconditioner_builds,
            "reuse fraction": self.preconditioner_reuse_fraction,
            "GMRES fallbacks": self.gmres_fallbacks,
            "dense fallbacks": self.dense_fallbacks,
        }


def _pattern_key(matrix: CsrMatrix) -> Tuple:
    """Fingerprint of the CSR symbolic structure (shape + positions).

    Uses content digests rather than Python's builtin ``hash`` so the
    key is stable across interpreter restarts (``hash(bytes)`` is
    salted per process): a kernel state restored from a checkpoint in a
    fresh process must recognize the same sparsity pattern, or the
    cached factorization would be silently discarded and the resumed
    trajectory would diverge bitwise from the uninterrupted one.
    """
    return (
        matrix.shape,
        matrix.nnz,
        hashlib.sha1(matrix.indptr.tobytes()).digest(),
        hashlib.sha1(matrix.indices.tobytes()).digest(),
    )


class LinearKernel:
    """Reusable preconditioned Krylov kernel for ``J delta = F`` systems.

    Parameters
    ----------
    tol, max_iterations:
        Bi-CGstab stopping controls (relative residual 2-norm).
    preconditioner_kind:
        ``"jacobi"`` (default — vectorized, right for diagonally
        dominant Burgers Jacobians), ``"ilu0"`` (stronger, row-serial),
        or ``"none"``.
    stats:
        Lifetime stats sink; the kernel creates its own when omitted.
        Per-call sinks can be layered on top via ``solve(..., sink=)``.
    refresh_iteration_ratio, refresh_min_iterations:
        Reuse-quality gate. A reused preconditioner is kept while the
        Krylov solve stays within ``ratio`` times the iteration count
        measured right after the last factorization (with a floor of
        ``refresh_min_iterations`` so cheap solves never thrash);
        degrading past that — or outright non-convergence — triggers a
        refactorization from the current Jacobian values.
    gmres_fallback_iterations:
        Budget of the restarted-GMRES fallback used for systems too
        large for the emergency dense path.
    dense_fallback_max_rows:
        Largest system routed to the emergency dense solve when the
        Krylov attempts stall (near-singular Jacobians).

    Notes
    -----
    The kernel caches the preconditioner keyed on the CSR *symbolic*
    structure. Within one Newton solve (and across time steps of an
    implicit scheme on a fixed grid) the pattern is constant, so at
    most one factorization is paid until the reuse gate trips; a
    pattern change (new grid, new stencil) invalidates the cache
    immediately.
    """

    def __init__(
        self,
        tol: float = 1e-10,
        max_iterations: int = 2_000,
        preconditioner_kind: str = "jacobi",
        stats: Optional[LinearSolverStats] = None,
        refresh_iteration_ratio: float = 3.0,
        refresh_min_iterations: int = 8,
        gmres_fallback_iterations: int = 400,
        dense_fallback_max_rows: int = 4096,
    ):
        if preconditioner_kind not in ("jacobi", "ilu0", "none"):
            raise ValueError(f"unknown preconditioner_kind {preconditioner_kind!r}")
        if tol <= 0.0:
            raise ValueError("tol must be positive")
        if max_iterations <= 0:
            raise ValueError("max_iterations must be positive")
        if refresh_iteration_ratio < 1.0:
            raise ValueError("refresh_iteration_ratio must be >= 1.0")
        self.tol = float(tol)
        self.max_iterations = int(max_iterations)
        self.preconditioner_kind = preconditioner_kind
        self.stats = stats if stats is not None else LinearSolverStats()
        self.refresh_iteration_ratio = float(refresh_iteration_ratio)
        self.refresh_min_iterations = int(refresh_min_iterations)
        self.gmres_fallback_iterations = int(gmres_fallback_iterations)
        self.dense_fallback_max_rows = int(dense_fallback_max_rows)

        self._preconditioner: Optional[Preconditioner] = None
        self._pattern: Optional[Tuple] = None
        # (indptr, indices, key) of the last read-only pattern digested.
        self._known_pattern: Optional[Tuple] = None
        self._reference_iterations: Optional[int] = None
        # Lifetime counters independent of any external stats sink.
        self.factorizations = 0
        self.reuses = 0
        self.refreshes = 0

    # -- cache management -------------------------------------------------

    def reset(self) -> None:
        """Drop the cached preconditioner and symbolic structure."""
        self._preconditioner = None
        self._pattern = None
        self._known_pattern = None
        self._reference_iterations = None

    def _key_of(self, matrix: CsrMatrix) -> Tuple:
        """:func:`_pattern_key` of ``matrix``, digested once per read-only
        pattern: a matrix carrying the very arrays digested last time
        (a cached stencil pattern, which nothing may write) reuses
        that key."""
        known = self._known_pattern
        if (
            known is not None
            and known[0] is matrix.indptr
            and known[1] is matrix.indices
            and known[2][0] == matrix.shape
        ):
            return known[2]
        key = _pattern_key(matrix)
        if not (matrix.indptr.flags.writeable or matrix.indices.flags.writeable):
            self._known_pattern = (matrix.indptr, matrix.indices, key)
        return key

    # -- checkpointing ----------------------------------------------------

    def checkpoint_state(self) -> Dict[str, Any]:
        """Everything a resumed run needs to continue *bitwise* where
        this kernel left off: the cached preconditioner (its
        factorization arrays), the symbolic pattern it was built for,
        the reuse-gate reference, and all accounting. Picklable; the
        trajectory snapshot embeds the pickled bytes.
        """
        return {
            "preconditioner": self._preconditioner,
            "pattern": self._pattern,
            "reference_iterations": self._reference_iterations,
            "factorizations": self.factorizations,
            "reuses": self.reuses,
            "refreshes": self.refreshes,
            "stats": {
                f.name: getattr(self.stats, f.name)
                for f in dataclass_fields(self.stats)
            },
        }

    def restore_checkpoint_state(self, state: Dict[str, Any]) -> None:
        """Install a :meth:`checkpoint_state` capture on this kernel.

        The lifetime ``stats`` object is updated *in place* (it may be
        a sink shared with a driver), never replaced.
        """
        self._preconditioner = state["preconditioner"]
        self._pattern = state["pattern"]
        self._reference_iterations = state["reference_iterations"]
        self.factorizations = int(state["factorizations"])
        self.reuses = int(state["reuses"])
        self.refreshes = int(state["refreshes"])
        for name, value in state["stats"].items():
            setattr(self.stats, name, value)

    def _build_preconditioner(self, jacobian: CsrMatrix) -> Optional[Preconditioner]:
        try:
            if self.preconditioner_kind == "jacobi":
                return JacobiPreconditioner(jacobian)
            if self.preconditioner_kind == "ilu0":
                return Ilu0Preconditioner(jacobian)
        except ValueError:
            # Zero diagonal / zero pivot: run unpreconditioned rather
            # than refuse — the fallback chain still guards the solve.
            return None
        return None

    def _factorize(self, jacobian: CsrMatrix, pattern: Tuple) -> int:
        self._preconditioner = self._build_preconditioner(jacobian)
        self._pattern = pattern
        self._reference_iterations = None
        if self._preconditioner is None:
            return 0
        self.factorizations += 1
        return 1

    def _reuse_degraded(self, result: IterativeResult) -> bool:
        if not result.converged:
            return True
        if self._reference_iterations is None:
            return False
        allowance = max(
            self.refresh_min_iterations,
            int(np.ceil(self.refresh_iteration_ratio * self._reference_iterations)),
        )
        return result.iterations > allowance

    # -- solving ----------------------------------------------------------

    def solve(
        self,
        jacobian: MatrixLike,
        rhs: np.ndarray,
        sink: Optional[LinearSolverStats] = None,
    ) -> np.ndarray:
        """Solve ``jacobian @ delta = rhs``; charge every attempt.

        ``sink`` is an additional per-call stats sink (e.g. the one a
        ``NewtonResult`` will carry); the kernel's lifetime ``stats``
        is always charged as well.
        """
        if not isinstance(jacobian, CsrMatrix):
            delta = solve_dense(np.asarray(jacobian, dtype=float), rhs)
            self._charge(sink, iterations=0, matvecs=0, builds=0)
            return delta

        pattern = self._key_of(jacobian)
        builds = 0
        if self._pattern != pattern or (
            self._preconditioner is None and self.preconditioner_kind != "none"
        ):
            builds += self._factorize(jacobian, pattern)
        else:
            self.reuses += 1

        inner = 0
        matvecs = 0
        result = bicgstab(
            jacobian,
            rhs,
            preconditioner=self._preconditioner,
            tol=self.tol,
            max_iterations=self.max_iterations,
        )
        inner += result.iterations
        matvecs += result.matvec_count

        if builds == 0 and self._reuse_degraded(result):
            # The cached factorization has gone stale (values drifted
            # too far from the ones it was built from): refresh from
            # the current Jacobian and retry, charging both attempts.
            self.refreshes += 1
            builds += self._factorize(jacobian, pattern)
            result = bicgstab(
                jacobian,
                rhs,
                preconditioner=self._preconditioner,
                tol=self.tol,
                max_iterations=self.max_iterations,
            )
            inner += result.iterations
            matvecs += result.matvec_count

        if result.converged and builds > 0:
            self._reference_iterations = result.iterations

        gmres_fallbacks = 0
        if not result.converged and jacobian.num_rows > self.dense_fallback_max_rows:
            # GMRES fallback for systems too large for the emergency
            # dense path; bounded budget — restart cycles carry
            # per-stage costs that would dominate wall-clock on
            # near-singular systems.
            gmres_fallbacks = 1
            result = gmres(
                jacobian,
                rhs,
                preconditioner=self._preconditioner,
                tol=self.tol,
                max_iterations=min(self.max_iterations, self.gmres_fallback_iterations),
            )
            inner += result.iterations
            matvecs += result.matvec_count

        if not result.converged and jacobian.num_rows <= self.dense_fallback_max_rows:
            # Emergency dense fallback for (near-)singular Jacobians.
            # Our own LU is used where its pure-Python cost is
            # tolerable; past that we lean on LAPACK so a pathological
            # instance cannot stall a whole experiment sweep.
            delta = self._dense_fallback(jacobian, rhs)
            self._charge(
                sink,
                iterations=inner,
                matvecs=matvecs,
                builds=builds,
                gmres_fallbacks=gmres_fallbacks,
                dense_fallbacks=1,
            )
            return delta

        self._charge(
            sink,
            iterations=inner,
            matvecs=matvecs,
            builds=builds,
            gmres_fallbacks=gmres_fallbacks,
        )
        return result.x

    # A kernel instance is a drop-in ``LinearSolver`` callable.
    def __call__(self, jacobian: MatrixLike, rhs: np.ndarray) -> np.ndarray:
        return self.solve(jacobian, rhs)

    @staticmethod
    def _dense_fallback(jacobian: CsrMatrix, rhs: np.ndarray) -> np.ndarray:
        dense = jacobian.to_dense()
        if jacobian.num_rows <= 128:
            try:
                return solve_dense(dense, rhs)
            except SingularMatrixError:
                return np.linalg.lstsq(dense, rhs, rcond=None)[0]
        try:
            return np.linalg.solve(dense, rhs)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(dense, rhs, rcond=None)[0]

    def _charge(
        self,
        sink: Optional[LinearSolverStats],
        iterations: int,
        matvecs: int,
        builds: int,
        gmres_fallbacks: int = 0,
        dense_fallbacks: int = 0,
    ) -> None:
        targets = [self.stats]
        if sink is not None and sink is not self.stats:
            targets.append(sink)
        for target in targets:
            target.record(iterations, matvecs)
            target.preconditioner_builds += builds
            target.gmres_fallbacks += gmres_fallbacks
            target.dense_fallbacks += dense_fallbacks
