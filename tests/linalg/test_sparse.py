"""Unit tests for the CSR sparse matrix.

The second half keeps the assembly and kernels as they were before the
symbolic/numeric split (a ``lexsort`` + ``np.add.at`` triplet packing,
``np.add.at`` products, the per-call Burgers triplet Jacobian) as the
reference, and requires the fast paths to match it byte for byte.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analog.engine import AnalogAccelerator
from repro.experiments.trajectory import run_trajectory
from repro.linalg.sparse import CooBuilder, CsrMatrix, csr_from_triplets, diags, eye
from repro.pde.boundary import DirichletBoundary
from repro.pde.burgers import BurgersStencilSystem, random_burgers_system
from repro.pde.grid import Grid2D
from repro.pde.stencils import central_x, central_y, pad_with_boundary


def laplacian_1d(n):
    """Standard 1-D Laplacian used as a realistic stencil matrix."""
    builder = CooBuilder(n, n)
    for i in range(n):
        builder.add(i, i, 2.0)
        if i > 0:
            builder.add(i, i - 1, -1.0)
        if i < n - 1:
            builder.add(i, i + 1, -1.0)
    return builder.to_csr()


class TestCooBuilder:
    def test_empty_matrix(self):
        mat = CooBuilder(3, 4).to_csr()
        assert mat.shape == (3, 4)
        assert mat.nnz == 0
        np.testing.assert_allclose(mat.matvec(np.ones(4)), np.zeros(3))

    def test_duplicates_are_summed(self):
        builder = CooBuilder(2, 2)
        builder.add(0, 0, 1.5)
        builder.add(0, 0, 2.5)
        mat = builder.to_csr()
        assert mat.nnz == 1
        assert mat.to_dense()[0, 0] == pytest.approx(4.0)

    def test_out_of_range_rejected(self):
        builder = CooBuilder(2, 2)
        with pytest.raises(IndexError):
            builder.add(2, 0, 1.0)
        with pytest.raises(IndexError):
            builder.add(0, -1, 1.0)

    def test_extend_and_len(self):
        builder = CooBuilder(2, 2)
        builder.extend([(0, 0, 1.0), (1, 1, 2.0)])
        assert len(builder) == 2


class TestCsrKernels:
    def test_matvec_matches_dense(self):
        mat = laplacian_1d(8)
        x = np.arange(8.0)
        np.testing.assert_allclose(mat.matvec(x), mat.to_dense() @ x)

    def test_matmul_operator(self):
        mat = laplacian_1d(4)
        x = np.ones(4)
        np.testing.assert_allclose(mat @ x, mat.matvec(x))

    def test_rmatvec_matches_dense_transpose(self):
        builder = CooBuilder(3, 5)
        builder.extend([(0, 1, 2.0), (1, 4, -1.0), (2, 0, 3.0), (2, 4, 0.5)])
        mat = builder.to_csr()
        y = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(mat.rmatvec(y), mat.to_dense().T @ y)

    def test_matvec_length_checked(self):
        with pytest.raises(ValueError):
            laplacian_1d(4).matvec(np.ones(5))

    def test_diagonal(self):
        mat = laplacian_1d(5)
        np.testing.assert_allclose(mat.diagonal(), np.full(5, 2.0))

    def test_diagonal_missing_entries_are_zero(self):
        builder = CooBuilder(3, 3)
        builder.add(0, 1, 5.0)
        mat = builder.to_csr()
        np.testing.assert_allclose(mat.diagonal(), np.zeros(3))

    def test_row_view(self):
        mat = laplacian_1d(4)
        cols, vals = mat.row(1)
        assert set(cols.tolist()) == {0, 1, 2}
        assert sorted(vals.tolist()) == [-1.0, -1.0, 2.0]

    def test_scaled(self):
        mat = laplacian_1d(3).scaled(2.0)
        assert mat.to_dense()[0, 0] == pytest.approx(4.0)

    def test_add(self):
        a = laplacian_1d(3)
        summed = a.add(eye(3))
        np.testing.assert_allclose(summed.to_dense(), a.to_dense() + np.eye(3))

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            laplacian_1d(3).add(eye(4))


class TestFactories:
    def test_eye(self):
        np.testing.assert_allclose(eye(3).to_dense(), np.eye(3))

    def test_diags(self):
        np.testing.assert_allclose(diags(np.array([1.0, 2.0])).to_dense(), np.diag([1.0, 2.0]))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_csr_equals_dense_assembly(rows, cols, entries, seed):
    """Random triplet assembly agrees with the equivalent dense sum."""
    rng = np.random.default_rng(seed)
    builder = CooBuilder(rows, cols)
    dense = np.zeros((rows, cols))
    for _ in range(entries):
        r = int(rng.integers(rows))
        c = int(rng.integers(cols))
        v = float(rng.standard_normal())
        builder.add(r, c, v)
        dense[r, c] += v
    mat = builder.to_csr()
    np.testing.assert_allclose(mat.to_dense(), dense, atol=1e-12)
    x = rng.standard_normal(cols)
    np.testing.assert_allclose(mat.matvec(x), dense @ x, atol=1e-9)
    y = rng.standard_normal(rows)
    np.testing.assert_allclose(mat.rmatvec(y), dense.T @ y, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=0, max_value=10_000),
)
def test_property_fast_triplet_path_matches_builder(rows, cols, entries, seed):
    """csr_from_triplets agrees with CooBuilder.to_csr entry for entry."""
    from repro.linalg.sparse import csr_from_triplets

    rng = np.random.default_rng(seed)
    builder = CooBuilder(rows, cols)
    r = rng.integers(0, rows, entries)
    c = rng.integers(0, cols, entries)
    v = rng.standard_normal(entries)
    for i in range(entries):
        builder.add(int(r[i]), int(c[i]), float(v[i]))
    via_builder = builder.to_csr()
    via_fast = csr_from_triplets(rows, cols, r, c, v)
    np.testing.assert_array_equal(via_fast.indptr, via_builder.indptr)
    np.testing.assert_array_equal(via_fast.indices, via_builder.indices)
    np.testing.assert_allclose(via_fast.data, via_builder.data, atol=1e-12)


def test_fast_triplet_path_validates_indices():
    from repro.linalg.sparse import csr_from_triplets

    with pytest.raises(IndexError):
        csr_from_triplets(2, 2, np.array([2]), np.array([0]), np.array([1.0]))
    with pytest.raises(ValueError):
        csr_from_triplets(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))


def test_fast_triplet_path_empty():
    from repro.linalg.sparse import csr_from_triplets

    mat = csr_from_triplets(3, 3, np.array([]), np.array([]), np.array([]))
    assert mat.nnz == 0
    np.testing.assert_allclose(mat.matvec(np.ones(3)), np.zeros(3))


class TestFastTripletEdgeCases:
    """The hot assembly path's corners (bench kernel_micro exercises
    csr_from_triplets via ``system.jacobian`` on every call)."""

    def test_empty_rectangular_shape_is_well_formed(self):
        from repro.linalg.sparse import csr_from_triplets

        mat = csr_from_triplets(3, 5, np.array([]), np.array([]), np.array([]))
        assert mat.shape == (3, 5)
        assert mat.nnz == 0
        assert mat.indptr.shape == (4,)
        assert mat.indptr[-1] == 0
        np.testing.assert_allclose(mat.matvec(np.ones(5)), np.zeros(3))
        np.testing.assert_allclose(mat.rmatvec(np.ones(3)), np.zeros(5))
        np.testing.assert_allclose(mat.to_dense(), np.zeros((3, 5)))

    def test_duplicates_summed_regardless_of_input_order(self):
        from repro.linalg.sparse import csr_from_triplets

        # Unsorted triplets, (1,1) contributed three times.
        rows = np.array([1, 0, 1, 1])
        cols = np.array([1, 2, 1, 1])
        vals = np.array([1.0, 5.0, 2.0, -0.5])
        mat = csr_from_triplets(2, 3, rows, cols, vals)
        assert mat.nnz == 2  # (0,2) and the merged (1,1)
        dense = mat.to_dense()
        assert dense[0, 2] == pytest.approx(5.0)
        assert dense[1, 1] == pytest.approx(2.5)

    def test_duplicates_cancelling_to_zero_stay_structural(self):
        from repro.linalg.sparse import csr_from_triplets

        # FEM assembly convention (and CooBuilder semantics): an entry
        # whose duplicate contributions sum to zero remains a stored
        # explicit zero — the sparsity pattern must not depend on the
        # values, or kernel pattern-keyed preconditioner reuse breaks.
        mat = csr_from_triplets(
            2, 2, np.array([0, 0]), np.array([1, 1]), np.array([3.0, -3.0])
        )
        builder = CooBuilder(2, 2)
        builder.add(0, 1, 3.0)
        builder.add(0, 1, -3.0)
        via_builder = builder.to_csr()
        assert mat.nnz == via_builder.nnz == 1
        assert mat.to_dense()[0, 1] == 0.0
        np.testing.assert_array_equal(mat.indptr, via_builder.indptr)
        np.testing.assert_array_equal(mat.indices, via_builder.indices)


# -- reference algorithms (before the symbolic/numeric split) -------------


def reference_pack(num_rows, num_cols, rows, cols, vals):
    """``lexsort`` + ``np.add.at`` triplet-to-CSR packing."""
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if rows.size == 0:
        return CsrMatrix(
            shape=(num_rows, num_cols),
            indptr=np.zeros(num_rows + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            data=np.zeros(0, dtype=float),
        )
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    is_new = np.ones(rows.size, dtype=bool)
    is_new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group = np.cumsum(is_new) - 1
    merged_vals = np.zeros(int(group[-1]) + 1, dtype=float)
    np.add.at(merged_vals, group, vals)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.add.at(indptr, rows[is_new] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CsrMatrix(
        shape=(num_rows, num_cols), indptr=indptr, indices=cols[is_new], data=merged_vals
    )


def reference_row_ids(matrix):
    return np.repeat(np.arange(matrix.num_rows), np.diff(matrix.indptr))


def reference_matvec(matrix, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(matrix.num_rows)
    np.add.at(out, reference_row_ids(matrix), matrix.data * x[matrix.indices])
    return out


def reference_rmatvec(matrix, y):
    y = np.asarray(y, dtype=float)
    out = np.zeros(matrix.num_cols)
    np.add.at(out, matrix.indices, matrix.data * y[reference_row_ids(matrix)])
    return out


def reference_add(matrix, other):
    if matrix.shape != other.shape:
        raise ValueError(f"shape mismatch {matrix.shape} vs {other.shape}")
    return reference_pack(
        matrix.num_rows,
        matrix.num_cols,
        np.concatenate([reference_row_ids(matrix), reference_row_ids(other)]),
        np.concatenate([matrix.indices, other.indices]),
        np.concatenate([matrix.data, other.data]),
    )


def reference_burgers_jacobian(system, w):
    """The Burgers Jacobian assembled from triplets on every call."""
    u, v = system.split(w)
    grid = system.grid
    nx, ny, n = grid.nx, grid.ny, grid.num_nodes
    dx, dy = grid.dx, grid.dy
    wgt = system.weight
    inv_re = 1.0 / system.reynolds
    up = pad_with_boundary(u, system.boundary_u, grid)
    vp = pad_with_boundary(v, system.boundary_v, grid)
    ux, uy = central_x(up, dx), central_y(up, dy)
    vx, vy = central_x(vp, dx), central_y(vp, dy)
    jj, ii = np.meshgrid(np.arange(ny), np.arange(nx), indexing="ij")
    k = (jj * nx + ii).ravel()
    visc_center = 2.0 * inv_re * (1.0 / dx**2 + 1.0 / dy**2)
    adv_e = u / (2.0 * dx)
    adv_n = v / (2.0 * dy)
    visc_x = inv_re / dx**2
    visc_y = inv_re / dy**2
    rows, cols, vals = [], [], []

    def add_block(r, c, values, mask=None):
        values = np.broadcast_to(np.asarray(values, dtype=float).ravel(), r.shape)
        m = np.ones(r.shape, dtype=bool) if mask is None else mask.ravel()
        rows.append(r[m])
        cols.append(c[m])
        vals.append(values[m])

    east, west = (ii < nx - 1).ravel(), (ii > 0).ravel()
    north, south = (jj < ny - 1).ravel(), (jj > 0).ravel()
    for block, (own_grad, cross_grad) in enumerate(((ux, uy), (vy, vx))):
        row = k + block * n
        add_block(row, row, 1.0 + wgt * (own_grad.ravel() + visc_center))
        add_block(row, row + 1, wgt * (adv_e.ravel() - visc_x), east)
        add_block(row, row - 1, wgt * (-adv_e.ravel() - visc_x), west)
        add_block(row, row + nx, wgt * (adv_n.ravel() - visc_y), north)
        add_block(row, row - nx, wgt * (-adv_n.ravel() - visc_y), south)
        add_block(row, k + (1 - block) * n, wgt * cross_grad.ravel())
    return reference_pack(
        system.dimension,
        system.dimension,
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def assert_same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_same_matrix(actual, expected):
    assert actual.shape == expected.shape
    assert_same_bytes(actual.indptr, expected.indptr)
    assert_same_bytes(actual.indices, expected.indices)
    assert_same_bytes(actual.data, expected.data)


# -- the fast paths against the reference ----------------------------------

# Signed zeros and values whose sums round differently in another order.
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 0.2, 0.3, 1e16]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@st.composite
def triplets(draw, num_rows, num_cols, max_entries=30):
    # Entries cluster in the first rows, so later rows are often empty.
    used_rows = draw(st.integers(1, num_rows))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, used_rows - 1), st.integers(0, num_cols - 1), VALUES
            ),
            max_size=max_entries,
        )
    )
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=float)
    return rows, cols, vals


@st.composite
def matrices(draw):
    """A shape (square or rectangular) and triplets with duplicates."""
    num_rows = draw(st.integers(1, 7))
    num_cols = draw(st.integers(1, 7))
    return num_rows, num_cols, draw(triplets(num_rows, num_cols))


def with_drawn_values(matrix, data):
    """``matrix``'s pattern with values drawn directly, not packed, so
    they may hold -0.0 (as a scaled or gain-weighted Jacobian does)."""
    values = data.draw(st.lists(VALUES, min_size=matrix.nnz, max_size=matrix.nnz))
    return CsrMatrix(matrix.shape, matrix.indptr, matrix.indices, np.array(values, dtype=float))


class TestFastPathProperties:
    @settings(max_examples=200)
    @given(matrices())
    def test_property_packing_matches_reference(self, case):
        num_rows, num_cols, (rows, cols, vals) = case
        expected = reference_pack(num_rows, num_cols, rows, cols, vals)
        assert_same_matrix(csr_from_triplets(num_rows, num_cols, rows, cols, vals), expected)
        builder = CooBuilder(num_rows, num_cols)
        builder.add_many(rows, cols, vals)
        assert_same_matrix(builder.to_csr(), expected)

    @settings(max_examples=200)
    @given(matrices(), st.data())
    def test_property_kernels_match_reference(self, case, data):
        num_rows, num_cols, (rows, cols, vals) = case
        matrix = with_drawn_values(csr_from_triplets(num_rows, num_cols, rows, cols, vals), data)
        x = np.array(data.draw(st.lists(VALUES, min_size=num_cols, max_size=num_cols)))
        y = np.array(data.draw(st.lists(VALUES, min_size=num_rows, max_size=num_rows)))
        for _ in range(2):  # the second call reads the cached row ids
            assert_same_bytes(matrix.matvec(x), reference_matvec(matrix, x))
            assert_same_bytes(matrix.rmatvec(y), reference_rmatvec(matrix, y))

    @settings(max_examples=200)
    @given(matrices(), st.data())
    def test_property_add_matches_reference(self, case, data):
        num_rows, num_cols, (rows, cols, vals) = case
        first = csr_from_triplets(num_rows, num_cols, rows, cols, vals)
        contained = data.draw(st.booleans())
        if contained:
            # A sub-pattern of the first operand.
            keep = np.array(
                data.draw(st.lists(st.booleans(), min_size=first.nnz, max_size=first.nnz)),
                dtype=bool,
            )
            second = csr_from_triplets(
                num_rows,
                num_cols,
                reference_row_ids(first)[keep],
                first.indices[keep],
                first.data[keep],
            )
        else:
            second = csr_from_triplets(
                num_rows, num_cols, *data.draw(triplets(num_rows, num_cols))
            )
        first = with_drawn_values(first, data)
        second = with_drawn_values(second, data)
        assert_same_matrix(first.add(second), reference_add(first, second))
        assert_same_matrix(second.add(first), reference_add(second, first))
        if contained:
            assert first.add(second).indices is first.indices

    @pytest.mark.parametrize(
        "indptr, indices",
        [([0, 3, 3], [0, 2, 1]), ([0, 2, 3], [0, 0, 1])],
        ids=["unsorted-row", "repeated-entry"],
    )
    def test_add_of_non_canonical_pattern_matches_reference(self, indptr, indices):
        # Hand-built CSR whose first row is out of column order or holds
        # one entry twice: add must pack triplets afresh, as it did.
        odd = CsrMatrix(
            shape=(2, 3),
            indptr=np.array(indptr),
            indices=np.array(indices),
            data=np.array([1.0, -0.0, 0.5]),
        )
        corner = csr_from_triplets(2, 3, np.array([0]), np.array([0]), np.array([2.0]))
        for other in (corner, odd):
            assert_same_matrix(odd.add(other), reference_add(odd, other))
            assert_same_matrix(other.add(odd), reference_add(other, odd))


# -- stencil Jacobians and whole runs against the reference --------------


def burgers_system(nx, ny, seed):
    grid = Grid2D(nx=nx, ny=ny)
    rng = np.random.default_rng(seed)
    system = BurgersStencilSystem(
        grid=grid,
        reynolds=1.5,
        rhs_u=rng.uniform(-3.0, 3.0, grid.shape),
        rhs_v=rng.uniform(-3.0, 3.0, grid.shape),
        boundary_u=DirichletBoundary.random(grid, rng),
        boundary_v=DirichletBoundary.random(grid, rng),
        weight=0.5,
    )
    return system, rng


class TestCachedBurgersJacobian:
    @pytest.mark.parametrize("nx, ny", [(5, 5), (6, 3), (1, 4)])
    def test_matches_reference_assembly(self, nx, ny):
        system, rng = burgers_system(nx, ny, seed=nx * 10 + ny)
        for _ in range(4):
            w = rng.uniform(-2.0, 2.0, system.dimension)
            w[::3] = -0.0
            assert_same_matrix(system.jacobian(w), reference_burgers_jacobian(system, w))
            # Zeros of both signs: their differences give -0.0 entries.
            w = np.where(rng.random(system.dimension) < 0.5, -0.0, 0.0)
            assert_same_matrix(system.jacobian(w), reference_burgers_jacobian(system, w))

    def test_pattern_is_shared_and_read_only(self):
        system, rng = burgers_system(4, 3, seed=0)
        first = system.jacobian(rng.standard_normal(system.dimension))
        second = system.jacobian(rng.standard_normal(system.dimension))
        assert second.indptr is first.indptr
        assert second.indices is first.indices
        with pytest.raises(ValueError):
            first.indptr[0] = 1
        with pytest.raises(ValueError):
            first.indices[0] = 1


def _reference_paths(monkeypatch):
    monkeypatch.setattr(BurgersStencilSystem, "jacobian", reference_burgers_jacobian)
    monkeypatch.setattr(CsrMatrix, "matvec", reference_matvec)
    monkeypatch.setattr(CsrMatrix, "rmatvec", reference_rmatvec)
    monkeypatch.setattr(CsrMatrix, "add", reference_add)


def _analog_run():
    system, guess = random_burgers_system(8, 2.0, np.random.default_rng(1))
    return AnalogAccelerator(seed=1).solve(
        system, guess, record_trajectory=True, settle_max_steps=1000
    )


def _stats(stats):
    return (
        stats.solves,
        stats.inner_iterations,
        stats.matvecs,
        stats.preconditioner_builds,
        stats.gmres_fallbacks,
        stats.dense_fallbacks,
    )


class TestEndToEndEquivalence:
    """Whole runs on the fast paths and on the reference paths agree to
    the bit, in one process (BLAS reductions differ across CPUs, so no
    absolute digest is pinned)."""

    def test_analog_settle(self, monkeypatch):
        fast = _analog_run()
        _reference_paths(monkeypatch)
        reference = _analog_run()
        assert_same_bytes(fast.scaled_solution, reference.scaled_solution)
        assert fast.settle_time_units == reference.settle_time_units
        assert fast.trajectory.rhs_evaluations == reference.trajectory.rhs_evaluations

    def test_trajectory(self, monkeypatch):
        fast = run_trajectory(nx=16, steps=10).trajectory
        _reference_paths(monkeypatch)
        reference = run_trajectory(nx=16, steps=10).trajectory
        assert_same_bytes(fast.states, reference.states)
        assert _stats(fast.linear_stats) == _stats(reference.linear_stats)
        assert [_stats(r.linear_stats) for r in fast.newton_results] == [
            _stats(r.linear_stats) for r in reference.newton_results
        ]
