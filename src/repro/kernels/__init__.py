"""Dense / sparse computational kernels behind the analytic pipeline.

The package splits into:

* :mod:`repro.kernels.backend` — the ``auto`` / ``dense`` / ``sparse``
  mode and the size x density selector every kernel consults;
* :mod:`repro.kernels.sparse` — representation-agnostic block helpers
  (dense ``ndarray`` or CSR) plus LU factorization and PH moments;
* :mod:`repro.kernels.kron` — sparse Kronecker assembly;
* :mod:`repro.kernels.boundary` — the block-tridiagonal boundary
  solver replacing the dense all-levels least-squares path;
* :mod:`repro.kernels.batched` — ``(n, m, m)`` stacked twins of the
  drift test, the cold R/G solve and the dense boundary solve, driving
  many sweep points through one batched-BLAS iteration with per-point
  dropout;
* :mod:`repro.kernels.adaptive` — measured dense/sparse crossover:
  armed per-site winners plus the host+shape-keyed JSON sidecar.

Every kernel here has a dense reference twin elsewhere in the repo;
``backend="dense"`` routes around this package entirely and the
sparse paths fall back to the references on numerical failure.
"""

from repro.kernels.adaptive import (
    CALIBRATION_ENV,
    arm_decisions,
    armed_decision,
    armed_decisions,
    calibrated,
    calibration_key,
    calibration_path,
    load_calibration,
    store_calibration,
)
from repro.kernels.backend import (
    AUTO,
    BACKENDS,
    DENSE,
    SPARSE,
    SPARSE_DENSITY_THRESHOLD,
    SPARSE_MIN_SIZE,
    SPARSE_SIZE_THRESHOLD,
    resolve_backend,
    select_backend,
)
from repro.kernels.batched import (
    batched_boundary_solve,
    batched_drift,
    batched_gth,
    batched_r_from_g,
    batched_solve_G,
    batched_solve_R,
    stack_blocks,
)
from repro.kernels.boundary import solve_boundary_blocktridiag
from repro.kernels.kron import kron2
from repro.kernels.sparse import (
    Factorization,
    block_bytes,
    density,
    diagonal,
    factorize,
    is_sparse,
    ph_moments,
    row_sums,
    sub_dense,
    to_csr,
    to_dense,
)

__all__ = [
    "AUTO",
    "BACKENDS",
    "DENSE",
    "SPARSE",
    "SPARSE_DENSITY_THRESHOLD",
    "SPARSE_MIN_SIZE",
    "SPARSE_SIZE_THRESHOLD",
    "resolve_backend",
    "select_backend",
    "CALIBRATION_ENV",
    "arm_decisions",
    "armed_decision",
    "armed_decisions",
    "calibrated",
    "calibration_key",
    "calibration_path",
    "load_calibration",
    "store_calibration",
    "stack_blocks",
    "batched_gth",
    "batched_drift",
    "batched_solve_G",
    "batched_r_from_g",
    "batched_solve_R",
    "batched_boundary_solve",
    "solve_boundary_blocktridiag",
    "kron2",
    "Factorization",
    "block_bytes",
    "density",
    "diagonal",
    "factorize",
    "is_sparse",
    "ph_moments",
    "row_sums",
    "sub_dense",
    "to_csr",
    "to_dense",
]
