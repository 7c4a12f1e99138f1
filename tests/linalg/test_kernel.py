"""LinearKernel: preconditioner reuse, invalidation, fallback accounting."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.linalg.kernel import LinearKernel, LinearSolverStats
from repro.linalg.sparse import CooBuilder, CsrMatrix, diags, eye
from repro.nonlinear.newton import _traced_linear_solve
from repro.trace import Tracer


def _tridiag(n: int, diag: float = 4.0, off: float = -1.0) -> CsrMatrix:
    builder = CooBuilder(n, n)
    for i in range(n):
        builder.add(i, i, diag)
        if i > 0:
            builder.add(i, i - 1, off)
        if i < n - 1:
            builder.add(i, i + 1, off)
    return builder.to_csr()


class TestPreconditionerReuse:
    def test_single_factorization_across_same_pattern_solves(self):
        """>= 3 solves with an unchanged pattern pay <= 1 factorization."""
        kernel = LinearKernel()
        rng = np.random.default_rng(0)
        base = _tridiag(30)
        for step in range(4):
            # Same symbolic structure, drifting values — the Newton-step
            # regime the cache is built for.
            matrix = CsrMatrix(
                shape=base.shape,
                indptr=base.indptr,
                indices=base.indices,
                data=base.data * (1.0 + 0.01 * step),
            )
            rhs = rng.normal(size=30)
            delta = kernel.solve(matrix, rhs)
            np.testing.assert_allclose(matrix.matvec(delta), rhs, atol=1e-7)
        assert kernel.factorizations == 1
        assert kernel.reuses == 3
        assert kernel.stats.solves == 4
        assert kernel.stats.preconditioner_builds == 1
        assert kernel.stats.preconditioner_reuse_fraction == pytest.approx(0.75)

    def test_pattern_change_invalidates_cache(self):
        kernel = LinearKernel()
        kernel.solve(_tridiag(20), np.ones(20))
        assert kernel.factorizations == 1
        # New size => new symbolic structure => fresh factorization.
        kernel.solve(_tridiag(24), np.ones(24))
        assert kernel.factorizations == 2
        # Same size but different sparsity (diagonal only) also rebuilds.
        kernel.solve(diags(np.full(24, 2.0)), np.ones(24))
        assert kernel.factorizations == 3
        assert kernel.reuses == 0

    def test_read_only_pattern_digested_once(self, monkeypatch):
        """A read-only (cached) pattern is digested on first sight only;
        a writeable one on every solve. Both keep the digest key, so a
        restored kernel still recognises the pattern."""
        from repro.linalg import kernel as kernel_module

        digests = []
        digest = kernel_module._pattern_key
        monkeypatch.setattr(
            kernel_module, "_pattern_key", lambda m: digests.append(m) or digest(m)
        )
        base = _tridiag(12)
        indptr, indices = base.indptr.copy(), base.indices.copy()
        indptr.flags.writeable = False
        indices.flags.writeable = False
        kernel = LinearKernel()
        for step in range(3):
            matrix = CsrMatrix(base.shape, indptr, indices, base.data * (1.0 + 0.01 * step))
            kernel.solve(matrix, np.ones(12))
        assert len(digests) == 1
        kernel.solve(base, np.ones(12))
        kernel.solve(base, np.ones(12))
        assert len(digests) == 3
        assert (kernel.factorizations, kernel.reuses) == (1, 4)

        restored = LinearKernel()
        restored.restore_checkpoint_state(kernel.checkpoint_state())
        restored.solve(CsrMatrix(base.shape, indptr, indices, base.data), np.ones(12))
        assert (restored.factorizations, restored.reuses) == (1, 5)

    def test_reset_drops_cache(self):
        kernel = LinearKernel()
        matrix = _tridiag(16)
        kernel.solve(matrix, np.ones(16))
        kernel.reset()
        kernel.solve(matrix, np.ones(16))
        assert kernel.factorizations == 2

    def test_degraded_reuse_triggers_refresh(self):
        """A stale factorization that stalls Bi-CGstab is refreshed."""
        n = 40
        kernel = LinearKernel(
            preconditioner_kind="ilu0",
            refresh_min_iterations=1,
            refresh_iteration_ratio=1.0,
        )
        kernel.solve(_tridiag(n, diag=4.0), np.ones(n))
        assert kernel.factorizations == 1
        # Values drift far from the factorized ones: an indefinite
        # matrix the old ILU(0) preconditions badly.
        drifted = _tridiag(n, diag=0.5, off=-1.0)
        delta = kernel.solve(drifted, np.ones(n))
        assert kernel.refreshes == 1
        assert kernel.factorizations == 2
        np.testing.assert_allclose(drifted.matvec(delta), np.ones(n), atol=1e-6)
        # Both attempts were charged additively to the same solve.
        assert kernel.stats.solves == 2
        assert kernel.stats.preconditioner_builds == 2


class TestStatsAccounting:
    def test_dense_input_charged_as_direct_solve(self):
        kernel = LinearKernel()
        delta = kernel.solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
        np.testing.assert_allclose(delta, [1.0, 2.0])
        assert kernel.stats.solves == 1
        assert kernel.stats.inner_iterations == 0
        assert kernel.stats.preconditioner_builds == 0

    def test_per_call_sink_and_lifetime_stats_both_charged(self):
        kernel = LinearKernel()
        matrix = _tridiag(12)
        sink_a = LinearSolverStats()
        sink_b = LinearSolverStats()
        kernel.solve(matrix, np.ones(12), sink=sink_a)
        kernel.solve(matrix, np.ones(12), sink=sink_b)
        assert sink_a.solves == 1 and sink_b.solves == 1
        assert kernel.stats.solves == 2
        assert kernel.stats.inner_iterations == (
            sink_a.inner_iterations + sink_b.inner_iterations
        )
        # Only the first call factorized; the sink records reflect that.
        assert sink_a.preconditioner_builds == 1
        assert sink_b.preconditioner_builds == 0

    def test_sink_identical_to_lifetime_stats_not_double_charged(self):
        stats = LinearSolverStats()
        kernel = LinearKernel(stats=stats)
        kernel.solve(_tridiag(10), np.ones(10), sink=stats)
        assert stats.solves == 1

    def test_dense_fallback_additive_accounting(self):
        """A singular CSR system stalls Bi-CGstab; dense fallback is
        charged *in addition to* the failed Krylov attempt."""
        n = 6
        # Rank-deficient: last row duplicates row 0, but the rhs demands
        # a different value there — no exact solution exists, so every
        # Krylov attempt stalls and the lstsq-backed dense path answers.
        builder = CooBuilder(n, n)
        for i in range(n - 1):
            builder.add(i, i, 1.0)
        builder.add(n - 1, 0, 1.0)
        builder.add(n - 1, n - 1, 0.0)
        matrix = builder.to_csr()
        kernel = LinearKernel(max_iterations=20)
        rhs = np.ones(n)
        rhs[-1] = 2.0
        delta = kernel.solve(matrix, rhs)
        assert np.all(np.isfinite(delta))
        stats = kernel.stats
        assert stats.solves == 1
        assert stats.dense_fallbacks == 1
        assert stats.gmres_fallbacks == 0
        # The failed Krylov attempts' work is still on the bill.
        assert stats.matvecs > 0

    def test_gmres_fallback_for_large_systems(self):
        """Above the dense-routing cap, a stalled Bi-CGstab falls back
        to GMRES and both attempts are charged."""
        n = 50
        matrix = _tridiag(n, diag=0.05, off=-1.0)  # indefinite: stalls Bi-CGstab
        kernel = LinearKernel(
            max_iterations=5,
            gmres_fallback_iterations=200,
            dense_fallback_max_rows=10,  # force the "too large for dense" route
            preconditioner_kind="none",
        )
        delta = kernel.solve(matrix, np.ones(n))
        stats = kernel.stats
        assert stats.gmres_fallbacks == 1
        assert stats.dense_fallbacks == 0
        assert stats.solves == 1
        # Additive: Bi-CGstab's matvecs plus GMRES's.
        assert stats.matvecs > 5
        assert np.all(np.isfinite(delta))

    def test_merge_is_additive(self):
        a = LinearSolverStats(solves=2, inner_iterations=10, matvecs=21, preconditioner_builds=1)
        b = LinearSolverStats(solves=1, inner_iterations=4, matvecs=9, dense_fallbacks=1)
        a.merge(b)
        assert a.solves == 3
        assert a.inner_iterations == 14
        assert a.matvecs == 30
        assert a.preconditioner_builds == 1
        assert a.dense_fallbacks == 1

    def test_as_row_keys_stable(self):
        row = LinearSolverStats().as_row()
        assert list(row) == [
            "linear solves",
            "inner iterations",
            "matvecs",
            "preconditioner builds",
            "reuse fraction",
            "GMRES fallbacks",
            "dense fallbacks",
        ]


class TestTracedAccounting:
    """The tracing layer's accounting contract: summing the per-call
    ``linear_solve`` span attributes reproduces the kernel's lifetime
    stats exactly, for any interleaving of sizes and value drifts."""

    COUNTER_FIELDS = (
        "solves",
        "inner_iterations",
        "matvecs",
        "preconditioner_builds",
        "gmres_fallbacks",
        "dense_fallbacks",
    )

    @given(
        calls=st.lists(
            st.tuples(st.sampled_from([8, 12, 17]), st.floats(0.0, 0.5)),
            min_size=1,
            max_size=8,
        )
    )
    def test_span_sums_equal_lifetime_stats(self, calls):
        lifetime = LinearSolverStats()
        kernel = LinearKernel(stats=lifetime)
        tracer = Tracer()
        result_stats = LinearSolverStats()
        for n, drift in calls:
            matrix = _tridiag(n, diag=4.0 + drift)
            _traced_linear_solve(tracer, kernel, None, matrix, np.ones(n), result_stats)
        tracer.check_closed()
        spans = tracer.spans_named("linear_solve")
        assert len(spans) == len(calls)
        for field in self.COUNTER_FIELDS:
            span_total = sum(span.attrs[field] for span in spans)
            assert span_total == getattr(lifetime, field), field
            # The per-solve sink the Newton result keeps sees the same
            # totals: nothing is double- or under-charged by tracing.
            assert span_total == getattr(result_stats, field), field

    def test_traced_and_untraced_solves_agree(self):
        matrix = _tridiag(20)
        rhs = np.ones(20)
        plain = LinearKernel().solve(matrix, rhs)
        traced_stats = LinearSolverStats()
        traced = _traced_linear_solve(
            Tracer(), LinearKernel(), None, matrix, rhs, traced_stats
        )
        np.testing.assert_allclose(traced, plain)
        assert traced_stats.solves == 1


class TestCallableCompatibility:
    def test_kernel_is_a_linear_solver_callable(self):
        kernel = LinearKernel()
        matrix = eye(8, scale=2.0)
        delta = kernel(matrix, np.full(8, 4.0))
        np.testing.assert_allclose(delta, np.full(8, 2.0), atol=1e-9)

    def test_validates_preconditioner_kind(self):
        with pytest.raises(ValueError):
            LinearKernel(preconditioner_kind="cholesky")
