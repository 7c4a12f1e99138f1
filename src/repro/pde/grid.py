"""Structured 2-D grids for finite-difference discretization."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Grid2D"]


@dataclass(frozen=True)
class Grid2D:
    """A uniform ``nx x ny`` grid of *interior* nodes.

    Boundary values live on a ghost ring around the interior (handled
    by :class:`~repro.pde.boundary.DirichletBoundary`); only interior
    nodes are unknowns. Following the paper's isotropic normalization
    (Section 4.4: "We choose values for dt, dx, and dy so these
    coefficients are eliminated"), the default spacing is 1.

    Index convention: node ``(i, j)`` is column ``i`` (x-direction) and
    row ``j`` (y-direction); the flattened index is ``j * nx + i``
    (row-major, matching ``numpy.reshape`` of a ``(ny, nx)`` array).
    """

    nx: int
    ny: int
    dx: float = 1.0
    dy: float = 1.0

    def __post_init__(self) -> None:
        if self.nx <= 0 or self.ny <= 0:
            raise ValueError(f"grid must have positive extents, got {self.nx}x{self.ny}")
        if self.dx <= 0.0 or self.dy <= 0.0:
            raise ValueError("grid spacings must be positive")

    @classmethod
    def square(cls, n: int, spacing: float = 1.0) -> "Grid2D":
        """Square ``n x n`` grid, the shape used throughout the paper."""
        return cls(nx=n, ny=n, dx=spacing, dy=spacing)

    @property
    def num_nodes(self) -> int:
        return self.nx * self.ny

    @property
    def shape(self) -> tuple:
        """Array shape ``(ny, nx)`` of a field on this grid."""
        return (self.ny, self.nx)

    def flat_index(self, i: int, j: int) -> int:
        """Flattened index of interior node ``(i, j)``."""
        if not (0 <= i < self.nx and 0 <= j < self.ny):
            raise IndexError(f"node ({i}, {j}) outside {self.nx}x{self.ny} grid")
        return j * self.nx + i

    def field(self, values: np.ndarray) -> np.ndarray:
        """Reshape a flat vector into a ``(ny, nx)`` field."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_nodes,):
            raise ValueError(f"expected {self.num_nodes} values, got {values.shape}")
        return values.reshape(self.ny, self.nx)

    def flatten(self, field: np.ndarray) -> np.ndarray:
        """Flatten a ``(ny, nx)`` field into the unknown ordering."""
        field = np.asarray(field, dtype=float)
        if field.shape != self.shape:
            raise ValueError(f"expected shape {self.shape}, got {field.shape}")
        return field.reshape(-1)

    def interior_meshgrid(self) -> tuple:
        """Coordinate arrays ``(xs, ys)`` of shape ``(ny, nx)``."""
        xs = (np.arange(self.nx) + 1) * self.dx
        ys = (np.arange(self.ny) + 1) * self.dy
        return np.meshgrid(xs, ys, indexing="xy")
