"""Reference numeric kernels for the four task types.

The Executor of the paper supports four customisable task kernels
(§3.4, Figure 7): GETRF (diagonal LU), TSTRF (row-panel triangular
solve), GEESM (column-panel triangular solve) and SSSSM (Schur-complement
GEMM), each in a dense and a sparse (gather–compute–scatter) flavour.
This package provides NumPy reference implementations that mutate dense
tile scratch in place — exactly the dense staging the paper's GETRF kernel
performs — together with exact structural flop/byte accounting used by the
GPU cost model.
"""

from repro.kernels.dense import (
    dense_getrf,
    dense_getrf_pivoted,
    trsm_left_col,
    trsm_lower_unit,
    trsm_upper,
    gemm_update,
)
from repro.kernels.tilekernels import (
    ColumnarStats,
    KernelStats,
    getrf_kernel,
    tstrf_kernel,
    geesm_kernel,
    ssssm_kernel,
    sptrsv_diag_kernel,
    sptrsv_update_kernel,
)
from repro.kernels.batched import (
    batch_kernels_enabled,
    batch_solve_enabled,
    batched_geesm,
    batched_ssssm,
    batched_ssssm_products,
    batched_sptrsv_diag,
    batched_sptrsv_update,
    batched_tstrf,
)
from repro.kernels.reference_lu import ReferenceLUResult, reference_lu
from repro.kernels.flops import (
    getrf_flops_dense,
    trsm_flops_dense,
    gemm_flops_dense,
    getrf_flops_sparse,
    ssssm_flops_sparse,
    factorization_flops,
)

__all__ = [
    "dense_getrf",
    "dense_getrf_pivoted",
    "trsm_lower_unit",
    "trsm_upper",
    "gemm_update",
    "ColumnarStats",
    "KernelStats",
    "getrf_kernel",
    "tstrf_kernel",
    "geesm_kernel",
    "ssssm_kernel",
    "trsm_left_col",
    "sptrsv_diag_kernel",
    "sptrsv_update_kernel",
    "batch_kernels_enabled",
    "batch_solve_enabled",
    "batched_geesm",
    "batched_ssssm",
    "batched_ssssm_products",
    "batched_sptrsv_diag",
    "batched_sptrsv_update",
    "batched_tstrf",
    "ReferenceLUResult",
    "reference_lu",
    "getrf_flops_dense",
    "trsm_flops_dense",
    "gemm_flops_dense",
    "getrf_flops_sparse",
    "ssssm_flops_sparse",
    "factorization_flops",
]
