"""Linear algebra substrate built from scratch on top of numpy arrays.

The paper's digital solvers lean on a handful of linear-algebra kernels:

* dense LU / QR for the small systems that arise inside analog blocks
  and golden-model checks (:mod:`repro.linalg.dense`),
* a CSR sparse matrix (:mod:`repro.linalg.sparse`) carrying the
  five-point-stencil Jacobians of discretized PDEs,
* the iterative Krylov and relaxation solvers named in Table 1 of the
  paper — CG, preconditioned CG, Bi-CGstab, SOR, GMRES
  (:mod:`repro.linalg.iterative`),
* preconditioners (:mod:`repro.linalg.preconditioners`),
* a Householder sparse-aware QR that stands in for the cuSolver kernel
  used by the paper's GPU baseline (:mod:`repro.linalg.qr`), and
* *continuous gradient descent*, the analog accelerator's
  Jacobian-inverse block, expressed as a gradient flow
  (:mod:`repro.linalg.gradient_flow`).
"""

from repro.linalg.dense import (
    lu_factor,
    lu_solve,
    solve_dense,
    qr_factor,
    qr_solve,
    forward_substitution,
    back_substitution,
    determinant,
    condition_estimate,
)
from repro.linalg.sparse import CsrMatrix, CooBuilder, eye, diags, csr_from_triplets
from repro.linalg.iterative import (
    IterativeResult,
    jacobi,
    gauss_seidel,
    sor,
    conjugate_gradient,
    bicgstab,
    gmres,
)
from repro.linalg.preconditioners import (
    Preconditioner,
    IdentityPreconditioner,
    JacobiPreconditioner,
    Ilu0Preconditioner,
    SsorPreconditioner,
)
from repro.linalg.kernel import LinearKernel, LinearSolverStats
from repro.linalg.qr import SparseQr, qr_operation_count
from repro.linalg.gradient_flow import GradientFlowResult, gradient_flow_solve
from repro.linalg.refinement import RefinementResult, mixed_precision_solve

__all__ = [
    "lu_factor",
    "lu_solve",
    "solve_dense",
    "qr_factor",
    "qr_solve",
    "forward_substitution",
    "back_substitution",
    "determinant",
    "condition_estimate",
    "CsrMatrix",
    "CooBuilder",
    "eye",
    "diags",
    "csr_from_triplets",
    "IterativeResult",
    "jacobi",
    "gauss_seidel",
    "sor",
    "conjugate_gradient",
    "bicgstab",
    "gmres",
    "Preconditioner",
    "IdentityPreconditioner",
    "JacobiPreconditioner",
    "Ilu0Preconditioner",
    "SsorPreconditioner",
    "LinearKernel",
    "LinearSolverStats",
    "SparseQr",
    "qr_operation_count",
    "GradientFlowResult",
    "gradient_flow_solve",
    "RefinementResult",
    "mixed_precision_solve",
]
