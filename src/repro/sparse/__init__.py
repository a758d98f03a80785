"""From-scratch sparse matrix infrastructure.

This subpackage provides the storage formats and structural operations that
every other layer of the reproduction builds on: COO (triplet) assembly,
CSR/CSC compressed formats, format conversion, symmetric permutation, block
(tile) extraction and scatter, sparse matrix products, and triangular
solves (row by row, and blocked with inverted diagonal blocks).
Everything is implemented directly on NumPy arrays — no SciPy —
following the vectorisation idioms of the HPC-Python guides (expand /
sort / reduce rather than Python-level loops wherever the operation is on
the nonzero stream).
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.ops import (
    spgemm,
    sparse_add,
    sparse_scale,
    triangular_solve,
    matvec,
)
from repro.sparse.triplan import SOLVE_BLOCK, TriangularPlan
from repro.sparse.permute import (
    permute_symmetric,
    permute_rows,
    permute_cols,
    inverse_permutation,
)
from repro.sparse.blocking import (
    Partition,
    uniform_partition,
    partition_from_boundaries,
    extract_block,
    split_tiles,
    tile_nnz_counts,
    block_pattern,
    assemble_from_blocks,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "spgemm",
    "sparse_add",
    "sparse_scale",
    "triangular_solve",
    "matvec",
    "SOLVE_BLOCK",
    "TriangularPlan",
    "permute_symmetric",
    "permute_rows",
    "permute_cols",
    "inverse_permutation",
    "Partition",
    "uniform_partition",
    "partition_from_boundaries",
    "extract_block",
    "split_tiles",
    "tile_nnz_counts",
    "block_pattern",
    "assemble_from_blocks",
]
