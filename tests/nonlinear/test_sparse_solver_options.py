"""Tests for the configurable sparse Newton linear kernel."""

import numpy as np
import pytest

from repro.linalg.sparse import CooBuilder
from repro.linalg.kernel import LinearKernel, LinearSolverStats


def stencil(n, asym=0.3):
    builder = CooBuilder(n, n)
    for i in range(n):
        builder.add(i, i, 4.0)
        if i > 0:
            builder.add(i, i - 1, -1.0 - asym)
        if i < n - 1:
            builder.add(i, i + 1, -1.0 + asym)
    return builder.to_csr()


@pytest.mark.parametrize("kind", ["jacobi", "ilu0", "none"])
def test_all_preconditioner_kinds_solve(kind):
    mat = stencil(30)
    x_true = np.random.default_rng(0).standard_normal(30)
    solver = LinearKernel(preconditioner_kind=kind)
    x = solver(mat, mat.matvec(x_true))
    np.testing.assert_allclose(x, x_true, rtol=1e-6, atol=1e-8)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        LinearKernel(preconditioner_kind="magic")


def test_singular_system_falls_back_to_least_squares():
    # A structurally singular matrix: the kernel must still return a
    # finite direction (the regularized/lstsq emergency path).
    builder = CooBuilder(4, 4)
    for i in range(4):
        builder.add(i, 0, 1.0)  # rank-1 with zero diagonal rows 1..3
        builder.add(i, i, 1e-30)
    mat = builder.to_csr()
    solver = LinearKernel()
    out = solver(mat, np.ones(4))
    assert np.all(np.isfinite(out))


def test_large_system_uses_lapack_fallback_quickly():
    # A 700-unknown singular-ish system must not grind through the
    # pure-Python LU (the >512 guard routes to LAPACK).
    import time

    n = 700
    builder = CooBuilder(n, n)
    for i in range(n):
        builder.add(i, i, 1e-14)  # near-singular diagonal
        if i > 0:
            builder.add(i, i - 1, 1.0)
        if i < n - 1:
            builder.add(i, i + 1, -1.0)
    mat = builder.to_csr()
    solver = LinearKernel(max_iterations=50)
    start = time.perf_counter()
    out = solver(mat, np.ones(n))
    elapsed = time.perf_counter() - start
    assert np.all(np.isfinite(out))
    assert elapsed < 30.0


def test_stats_capture_inner_iterations():
    stats = LinearSolverStats()
    solver = LinearKernel(stats=stats)
    mat = stencil(20)
    solver(mat, np.ones(20))
    assert stats.solves == 1
    assert stats.inner_iterations >= 1


def test_fallback_accounting_is_explicit_and_additive():
    # Regression: the dense emergency path used to leave the failed
    # Krylov attempt's stats as the whole record — the dense solve
    # itself was invisible. It is now an explicit counter, and the
    # Krylov work stays on the bill.
    # Exactly singular and inconsistent: the last row duplicates row 0
    # but its rhs demands a different value, so no Krylov attempt can
    # converge and the lstsq-backed dense path must answer.
    n = 4
    builder = CooBuilder(n, n)
    for i in range(n - 1):
        builder.add(i, i, 1.0)
    builder.add(n - 1, 0, 1.0)
    mat = builder.to_csr()
    stats = LinearSolverStats()
    solver = LinearKernel(stats=stats)
    rhs = np.ones(n)
    rhs[-1] = 2.0
    out = solver(mat, rhs)
    assert np.all(np.isfinite(out))
    assert stats.solves == 1
    assert stats.dense_fallbacks == 1
    assert stats.matvecs >= stats.inner_iterations


def test_returned_solver_is_a_reusing_kernel():
    # Repeated same-pattern solves share one preconditioner build.
    stats = LinearSolverStats()
    solver = LinearKernel(stats=stats)
    mat = stencil(25)
    for _ in range(3):
        solver(mat, np.ones(25))
    assert stats.solves == 3
    assert stats.preconditioner_builds == 1
