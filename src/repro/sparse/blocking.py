"""Matrix partitioning into 2-D tiles (blocks).

Both solver substrates view the matrix as a grid of tiles: PanguLU with a
uniform partition (paper: block size 512; scaled here), SuperLU with a
variable partition derived from supernodes.  A :class:`Partition` is just
the list of split boundaries shared by the row and column dimension (tiles
are aligned because sparse LU works on a square, symmetrically permuted
matrix).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class Partition:
    """A 1-D partition of ``0..n`` into contiguous ranges.

    Attributes
    ----------
    boundaries:
        ``int64`` array ``[0, b1, ..., n]`` of length ``nblocks + 1``.
    """

    boundaries: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.boundaries, dtype=np.int64)
        if b.ndim != 1 or b.size < 2:
            raise ValueError("partition needs at least [0, n]")
        if b[0] != 0 or np.any(np.diff(b) <= 0):
            raise ValueError("boundaries must start at 0 and strictly increase")
        object.__setattr__(self, "boundaries", b)

    @property
    def n(self) -> int:
        """Total dimension covered."""
        return int(self.boundaries[-1])

    @property
    def nblocks(self) -> int:
        """Number of ranges."""
        return int(self.boundaries.size - 1)

    def block_of(self, index) -> np.ndarray:
        """Map scalar/array element indices to their block index."""
        return np.searchsorted(self.boundaries, index, side="right") - 1

    def block_range(self, b: int) -> tuple[int, int]:
        """Half-open element range ``[lo, hi)`` of block ``b``."""
        return int(self.boundaries[b]), int(self.boundaries[b + 1])

    def block_size(self, b: int) -> int:
        """Number of elements in block ``b``."""
        lo, hi = self.block_range(b)
        return hi - lo

    def sizes(self) -> np.ndarray:
        """All block sizes as an array."""
        return np.diff(self.boundaries)


def uniform_partition(n: int, block_size: int) -> Partition:
    """Partition ``0..n`` into blocks of ``block_size`` (last may be short)."""
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    cuts = list(range(0, n, block_size)) + [n]
    if cuts[-2] == n:  # n divisible by block_size duplicates the endpoint
        cuts.pop(-2)
    return Partition(np.asarray(cuts, dtype=np.int64))


def partition_from_boundaries(boundaries) -> Partition:
    """Build a :class:`Partition` from an explicit boundary list."""
    return Partition(np.asarray(boundaries, dtype=np.int64))


def extract_block(a: CSRMatrix, r0: int, r1: int, c0: int, c1: int) -> CSRMatrix:
    """Extract the dense-index submatrix ``A[r0:r1, c0:c1]`` as CSR."""
    nr = r1 - r0
    rows_out = []
    cols_out = []
    data_out = []
    for i in range(r0, r1):
        cols, vals = a.row_slice(i)
        lo = np.searchsorted(cols, c0)
        hi = np.searchsorted(cols, c1)
        if hi > lo:
            rows_out.append(np.full(hi - lo, i - r0, dtype=np.int64))
            cols_out.append(cols[lo:hi] - c0)
            data_out.append(vals[lo:hi])
    if not rows_out:
        return CSRMatrix.empty((nr, c1 - c0))
    coo = COOMatrix(
        (nr, c1 - c0),
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(data_out),
    )
    return coo.to_csr()


def split_tiles(a: CSRMatrix, part: Partition) -> dict[tuple[int, int], CSRMatrix]:
    """Split a square matrix into all its nonempty tiles in one pass.

    Returns a dict ``{(bi, bj): tile_csr}`` where each tile uses local
    (within-block) coordinates.  A single sort of the nonzero stream by
    tile id replaces ``nblocks²`` calls to :func:`extract_block`.
    """
    if a.nrows != part.n or a.ncols != part.n:
        raise ValueError("partition does not cover the matrix")
    if a.nnz == 0:
        return {}
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_lengths())
    cols = a.indices
    brow = part.block_of(rows)
    bcol = part.block_of(cols)
    nb = part.nblocks
    tile_id = brow * nb + bcol
    order = np.argsort(tile_id, kind="stable")
    tile_sorted = tile_id[order]
    rows_s = rows[order]
    cols_s = cols[order]
    data_s = a.data[order]
    # Group boundaries of equal tile ids.
    change = np.flatnonzero(np.diff(tile_sorted)) + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [tile_sorted.size]])
    tiles: dict[tuple[int, int], CSRMatrix] = {}
    lo_bound = part.boundaries
    for s, e in zip(starts, ends):
        t = int(tile_sorted[s])
        bi, bj = divmod(t, nb)
        r_lo = lo_bound[bi]
        c_lo = lo_bound[bj]
        shape = (part.block_size(bi), part.block_size(bj))
        coo = COOMatrix(
            shape, rows_s[s:e] - r_lo, cols_s[s:e] - c_lo, data_s[s:e]
        )
        tiles[(bi, bj)] = coo.to_csr()
    return tiles


def tile_nnz_counts(a: CSRMatrix,
                    part: Partition) -> dict[tuple[int, int], int]:
    """Stored entries per nonempty tile, ``{(bi, bj): nnz}`` in tile-id
    order — the ``.nnz`` of every tile :func:`split_tiles` would build,
    counted with one ``np.bincount`` over the entries' tile ids."""
    if a.nrows != part.n or a.ncols != part.n:
        raise ValueError("partition does not cover the matrix")
    nb = part.nblocks
    per_block_row = np.diff(a.indptr[part.boundaries])
    tile_id = (np.repeat(np.arange(nb, dtype=np.int64), per_block_row) * nb
               + part.block_of(a.indices))
    counts = np.bincount(tile_id, minlength=nb * nb)
    tiles = np.flatnonzero(counts)
    bi, bj = np.divmod(tiles, nb)
    return dict(zip(zip(bi.tolist(), bj.tolist()), counts[tiles].tolist()))


def block_pattern(a: CSRMatrix, part: Partition) -> np.ndarray:
    """Boolean ``nblocks × nblocks`` map of which tiles hold any nonzero."""
    nb = part.nblocks
    out = np.zeros((nb, nb), dtype=bool)
    if a.nnz == 0:
        return out
    rows = np.repeat(np.arange(a.nrows, dtype=np.int64), a.row_lengths())
    out[part.block_of(rows), part.block_of(a.indices)] = True
    return out


def assemble_from_blocks(
    tiles: dict[tuple[int, int], CSRMatrix], part: Partition
) -> CSRMatrix:
    """Reassemble a global CSR matrix from local-coordinate tiles."""
    rows_out = []
    cols_out = []
    data_out = []
    for (bi, bj), tile in tiles.items():
        if tile.nnz == 0:
            continue
        r_lo, _ = part.block_range(bi)
        c_lo, _ = part.block_range(bj)
        t_rows = np.repeat(
            np.arange(tile.nrows, dtype=np.int64), tile.row_lengths()
        )
        rows_out.append(t_rows + r_lo)
        cols_out.append(tile.indices + c_lo)
        data_out.append(tile.data)
    n = part.n
    if not rows_out:
        return CSRMatrix.empty((n, n))
    coo = COOMatrix(
        (n, n),
        np.concatenate(rows_out),
        np.concatenate(cols_out),
        np.concatenate(data_out),
    )
    return coo.to_csr()
