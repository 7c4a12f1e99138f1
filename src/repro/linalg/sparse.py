"""A compressed-sparse-row matrix built from scratch.

The Jacobians of finite-difference PDE stencils are five-point sparse;
the paper's digital baselines (Bi-CGstab, PCG, sparse QR on the GPU)
all consume this structure. We implement our own CSR container rather
than depending on scipy so every kernel the performance models charge
for is visible in this repository.

The usual construction path is :class:`CooBuilder` (append triplets
while walking a stencil) followed by :meth:`CooBuilder.to_csr`, which
sorts, deduplicates (summing duplicates, the standard FEM assembly
convention) and packs.

Assembly inside solver inner loops is split in two phases. The
*symbolic* phase runs once per sparsity pattern: it sorts the stencil's
triplets into ``indptr``/``indices`` and records where each stencil
value lands. The *numeric* phase runs per call and only writes
``data``. A pattern built this way is stored read-only, so a consumer
that sees the same read-only arrays again (a Jacobian's row gains, the
linear kernel's preconditioner cache) may reuse what it derived from
them. :meth:`CsrMatrix.add` keeps a contained operand's pattern the
same way instead of sorting again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

__all__ = ["CooBuilder", "CsrMatrix", "eye", "diags", "csr_from_triplets"]


def csr_from_triplets(
    num_rows: int, num_cols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> "CsrMatrix":
    """Vectorized triplet-to-CSR packing (duplicates summed).

    The one COO-to-CSR packing: :meth:`CooBuilder.to_csr` and the
    stencil systems' symbolic phase both call it. Entries are ordered by
    (row, column), input order kept among duplicates, and duplicates
    are summed from 0.0 in that order.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    cols = np.asarray(cols, dtype=np.int64).ravel()
    vals = np.asarray(vals, dtype=float).ravel()
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows, cols, and values must have matching lengths")
    if rows.size:
        if rows.min() < 0 or rows.max() >= num_rows:
            raise IndexError("row index outside matrix")
        if cols.min() < 0 or cols.max() >= num_cols:
            raise IndexError("column index outside matrix")
    else:
        return CsrMatrix(
            shape=(num_rows, num_cols),
            indptr=np.zeros(num_rows + 1, dtype=np.int64),
            indices=np.zeros(0, dtype=np.int64),
            data=np.zeros(0, dtype=float),
        )
    # One stable argsort of the row-major key is the same permutation as
    # ``np.lexsort((cols, rows))``, several times faster.
    order = np.argsort(rows * num_cols + cols, kind="stable")
    rows, cols, vals = rows[order], cols[order], vals[order]
    is_new = np.ones(rows.size, dtype=bool)
    is_new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    group = np.cumsum(is_new) - 1
    merged_vals = _scatter_add(group, vals, int(group[-1]) + 1)
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[is_new], minlength=num_rows), out=indptr[1:])
    return CsrMatrix(
        shape=(num_rows, num_cols), indptr=indptr, indices=cols[is_new], data=merged_vals
    )


def _scatter_add(ids: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """``out = zeros(length); np.add.at(out, ids, weights)`` as one bincount.

    Both add each weight in input order onto a 0.0 start, so every sum
    is the same to the bit (``-0.0`` comes out as ``0.0`` in both).
    """
    if ids.size == 0:
        # bincount returns integers for an empty input.
        return np.zeros(length)
    return np.bincount(ids, weights=weights, minlength=length)


@dataclass
class CooBuilder:
    """Triplet accumulator for assembling a :class:`CsrMatrix`."""

    num_rows: int
    num_cols: int
    _rows: List[int] = field(default_factory=list)
    _cols: List[int] = field(default_factory=list)
    _vals: List[float] = field(default_factory=list)

    def add(self, row: int, col: int, value: float) -> None:
        """Append one entry; duplicates are summed at pack time."""
        if not (0 <= row < self.num_rows and 0 <= col < self.num_cols):
            raise IndexError(f"entry ({row}, {col}) outside {self.num_rows}x{self.num_cols}")
        self._rows.append(row)
        self._cols.append(col)
        self._vals.append(float(value))

    def extend(self, entries: Iterable[Tuple[int, int, float]]) -> None:
        for row, col, value in entries:
            self.add(row, col, value)

    def add_many(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
        """Vectorized bulk append (used by PDE stencil assembly)."""
        rows = np.asarray(rows, dtype=np.int64).ravel()
        cols = np.asarray(cols, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("rows, cols, and values must have matching lengths")
        if rows.size == 0:
            return
        if rows.min() < 0 or rows.max() >= self.num_rows:
            raise IndexError("row index outside matrix")
        if cols.min() < 0 or cols.max() >= self.num_cols:
            raise IndexError("column index outside matrix")
        self._rows.extend(rows.tolist())
        self._cols.extend(cols.tolist())
        self._vals.extend(values.tolist())

    def __len__(self) -> int:
        return len(self._vals)

    def to_csr(self) -> "CsrMatrix":
        """Sort by (row, col), merge duplicates, and pack into CSR."""
        return csr_from_triplets(self.num_rows, self.num_cols, self._rows, self._cols, self._vals)


@dataclass
class CsrMatrix:
    """Compressed sparse row matrix with the kernels the solvers need."""

    shape: Tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    # Row id of each stored entry, derived from ``indptr`` on first use.
    _rows: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num_rows, _ = self.shape
        if self.indptr.shape[0] != num_rows + 1:
            raise ValueError("indptr length must be num_rows + 1")
        if self.indices.shape[0] != self.data.shape[0]:
            raise ValueError("indices and data must be the same length")

    # -- basic properties ------------------------------------------------

    @property
    def num_rows(self) -> int:
        return self.shape[0]

    @property
    def num_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of stored (structurally nonzero) entries."""
        return int(self.data.shape[0])

    # -- kernels ----------------------------------------------------------

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x``."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.num_cols:
            raise ValueError(f"vector length {x.shape[0]} != num_cols {self.num_cols}")
        return _scatter_add(self._row_ids(), self.data * x[self.indices], self.num_rows)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Transposed product ``A.T @ y`` without materializing ``A.T``."""
        y = np.asarray(y, dtype=float)
        if y.shape[0] != self.num_rows:
            raise ValueError(f"vector length {y.shape[0]} != num_rows {self.num_rows}")
        return _scatter_add(self.indices, self.data * y[self._row_ids()], self.num_cols)

    def _row_ids(self) -> np.ndarray:
        if self._rows is None:
            rows = np.repeat(np.arange(self.num_rows), np.diff(self.indptr))
            rows.flags.writeable = False
            self._rows = rows
        return self._rows

    def _with_data(self, data: np.ndarray) -> "CsrMatrix":
        """The same pattern (row ids included) carrying ``data``."""
        out = CsrMatrix(shape=self.shape, indptr=self.indptr, indices=self.indices, data=data)
        out._rows = self._rows
        return out

    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where absent)."""
        n = min(self.shape)
        diag = np.zeros(n)
        row_ids = self._row_ids()
        hits = (row_ids == self.indices) & (row_ids < n)
        diag[row_ids[hits]] = self.data[hits]
        return diag

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row ``i`` as views."""
        start, stop = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:stop], self.data[start:stop]

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense array (tests and small solves only)."""
        out = np.zeros(self.shape)
        row_ids = self._row_ids()
        out[row_ids, self.indices] = self.data
        return out

    def scaled(self, alpha: float) -> "CsrMatrix":
        """Return ``alpha * A`` sharing structure, copying data."""
        return self._with_data(self.data * float(alpha))

    def add(self, other: "CsrMatrix") -> "CsrMatrix":
        """Structural sum ``A + B`` (shapes must match).

        When one operand's pattern holds the other's, the sum is written
        into the larger pattern, whose arrays the result shares;
        otherwise the triplets of both are packed afresh. Either way
        each entry is ``(0.0 + a) + b`` and the pattern is the sorted,
        deduplicated union, so both paths give the same bytes.
        """
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        big, small = (self, other) if self.nnz >= other.nnz else (other, self)
        positions = big._positions_of(small)
        if positions is not None:
            everywhere = slice(None)
            data = np.zeros(big.nnz)
            data[everywhere if big is self else positions] += self.data
            data[positions if big is self else everywhere] += other.data
            return big._with_data(data)
        return csr_from_triplets(
            self.num_rows,
            self.num_cols,
            np.concatenate([self._row_ids(), other._row_ids()]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]),
        )

    def _positions_of(self, other: "CsrMatrix") -> Optional[np.ndarray]:
        """Where ``other``'s entries sit among this matrix's, or ``None``
        unless both patterns are sorted without duplicates and this one
        holds every entry of ``other``."""
        keys = self._row_ids() * self.num_cols + self.indices
        other_keys = other._row_ids() * self.num_cols + other.indices
        if np.any(keys[1:] <= keys[:-1]) or np.any(other_keys[1:] <= other_keys[:-1]):
            return None
        positions = np.searchsorted(keys, other_keys)
        if positions.size and (
            positions[-1] >= keys.size or np.any(keys[positions] != other_keys)
        ):
            return None
        return positions

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)


def eye(n: int, scale: float = 1.0) -> CsrMatrix:
    """Sparse identity (optionally scaled)."""
    return CsrMatrix(
        shape=(n, n),
        indptr=np.arange(n + 1, dtype=np.int64),
        indices=np.arange(n, dtype=np.int64),
        data=np.full(n, float(scale)),
    )


def diags(values: np.ndarray) -> CsrMatrix:
    """Sparse diagonal matrix from a dense vector."""
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    return CsrMatrix(
        shape=(n, n),
        indptr=np.arange(n + 1, dtype=np.int64),
        indices=np.arange(n, dtype=np.int64),
        data=values.copy(),
    )
