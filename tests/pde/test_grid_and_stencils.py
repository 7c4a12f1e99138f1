"""Tests for grids, boundaries, and finite-difference stencils."""

import numpy as np
import pytest

from repro.pde.boundary import DirichletBoundary
from repro.pde.grid import Grid2D
from repro.pde.stencils import central_x, central_y, laplacian_5pt, pad_with_boundary


class TestGrid2D:
    def test_square_factory(self):
        grid = Grid2D.square(4)
        assert grid.nx == grid.ny == 4
        assert grid.num_nodes == 16
        assert grid.shape == (4, 4)

    def test_flat_index_row_major(self):
        grid = Grid2D(nx=3, ny=2)
        assert grid.flat_index(0, 0) == 0
        assert grid.flat_index(2, 0) == 2
        assert grid.flat_index(0, 1) == 3

    def test_flat_index_bounds(self):
        grid = Grid2D.square(2)
        with pytest.raises(IndexError):
            grid.flat_index(2, 0)

    def test_field_flatten_roundtrip(self):
        grid = Grid2D(nx=3, ny=2)
        values = np.arange(6.0)
        np.testing.assert_array_equal(grid.flatten(grid.field(values)), values)

    def test_field_shape_checked(self):
        grid = Grid2D.square(2)
        with pytest.raises(ValueError):
            grid.field(np.zeros(5))
        with pytest.raises(ValueError):
            grid.flatten(np.zeros((3, 3)))

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid2D(nx=0, ny=2)
        with pytest.raises(ValueError):
            Grid2D(nx=2, ny=2, dx=0.0)

    def test_meshgrid_shapes(self):
        grid = Grid2D(nx=4, ny=3)
        xs, ys = grid.interior_meshgrid()
        assert xs.shape == (3, 4)
        assert ys.shape == (3, 4)


class TestDirichletBoundary:
    def test_constant_factory(self):
        grid = Grid2D(nx=3, ny=2)
        boundary = DirichletBoundary.constant(grid, 2.5)
        boundary.validate(grid)
        assert boundary.west.shape == (2,)
        assert boundary.south.shape == (3,)
        assert np.all(boundary.north == 2.5)

    def test_random_within_range(self):
        grid = Grid2D.square(5)
        boundary = DirichletBoundary.random(grid, np.random.default_rng(0), -2.0, 2.0)
        for side in (boundary.west, boundary.east, boundary.south, boundary.north):
            assert np.all(np.abs(side) <= 2.0)

    def test_validate_rejects_wrong_shapes(self):
        grid = Grid2D(nx=3, ny=2)
        bad = DirichletBoundary(
            west=np.zeros(3), east=np.zeros(2), south=np.zeros(3), north=np.zeros(3)
        )
        with pytest.raises(ValueError):
            bad.validate(grid)

    def test_scaled(self):
        grid = Grid2D.square(2)
        boundary = DirichletBoundary.constant(grid, 1.0).scaled(0.5)
        assert np.all(boundary.west == 0.5)


class TestPadding:
    def test_pad_places_values(self):
        grid = Grid2D(nx=2, ny=2)
        boundary = DirichletBoundary(
            west=np.array([1.0, 2.0]),
            east=np.array([3.0, 4.0]),
            south=np.array([5.0, 6.0]),
            north=np.array([7.0, 8.0]),
        )
        padded = pad_with_boundary(np.zeros((2, 2)), boundary, grid)
        assert padded.shape == (4, 4)
        np.testing.assert_array_equal(padded[1:-1, 0], [1.0, 2.0])
        np.testing.assert_array_equal(padded[1:-1, -1], [3.0, 4.0])
        np.testing.assert_array_equal(padded[0, 1:-1], [5.0, 6.0])
        np.testing.assert_array_equal(padded[-1, 1:-1], [7.0, 8.0])

    def test_pad_shape_checked(self):
        grid = Grid2D.square(2)
        boundary = DirichletBoundary.constant(grid)
        with pytest.raises(ValueError):
            pad_with_boundary(np.zeros((3, 3)), boundary, grid)


class TestStencils:
    def _padded_from_function(self, f, n=8, spacing=0.1):
        grid = Grid2D.square(n, spacing=spacing)
        xs = np.arange(n + 2) * spacing
        full_x, full_y = np.meshgrid(xs, xs, indexing="xy")
        return f(full_x, full_y), grid

    def test_central_x_exact_for_linear(self):
        padded, grid = self._padded_from_function(lambda x, y: 3.0 * x + y)
        np.testing.assert_allclose(central_x(padded, grid.dx), 3.0, atol=1e-12)

    def test_central_y_exact_for_linear(self):
        padded, grid = self._padded_from_function(lambda x, y: x - 2.0 * y)
        np.testing.assert_allclose(central_y(padded, grid.dy), -2.0, atol=1e-12)

    def test_laplacian_exact_for_quadratic(self):
        padded, grid = self._padded_from_function(lambda x, y: x**2 + 2.0 * y**2)
        np.testing.assert_allclose(laplacian_5pt(padded, grid.dx, grid.dy), 6.0, atol=1e-9)

    def test_second_order_convergence(self):
        # Error of the Laplacian of sin(x)sin(y) shrinks ~4x when the
        # spacing halves.
        def error(spacing):
            n = int(round(1.0 / spacing)) - 1
            xs = np.arange(n + 2) * spacing
            fx, fy = np.meshgrid(xs, xs, indexing="xy")
            padded = np.sin(np.pi * fx) * np.sin(np.pi * fy)
            exact = -2.0 * np.pi**2 * padded[1:-1, 1:-1]
            approx = laplacian_5pt(padded, spacing, spacing)
            return np.max(np.abs(approx - exact))

        ratio = error(1.0 / 8.0) / error(1.0 / 16.0)
        assert 3.0 < ratio < 5.0
