"""Blocked triangular substitution with inverted diagonal blocks.

:func:`~repro.sparse.ops.triangular_solve` walks a triangular factor one
row at a time: ``n`` dependent Python steps of ~10 NumPy calls each.  A
:class:`TriangularPlan` cuts the rows into uniform blocks of
:data:`SOLVE_BLOCK` and takes one step per *block*:

1. subtract the block row's off-diagonal contributions with one folded
   ``np.bincount`` (the discipline :func:`~repro.sparse.ops.matvec`
   uses), then
2. multiply by the block's precomputed inverse — one broadcast
   ``(B, B) @ (B, 1)`` matmul per right-hand-side column.

``⌈n/B⌉`` sequential steps instead of ``n``; SuperLU_DIST's GPU
triangular solve removes in-block sequencing the same way.  The
diagonal blocks are inverted once, at plan build, by the stacked tile
kernels of :mod:`repro.kernels.batched` run against an identity stack
(``batched_geesm`` for unit diagonals, ``batched_tstrf`` otherwise), so
no LAPACK and no extra kernel is involved.

The right-hand side lives in the column-folded ``(nrhs, n_pad, 1)``
layout for the whole solve: every column runs the same bincount bins
in the same stream order and the same ``(B, B) @ (B, 1)`` core, so the
2-D solve is bitwise column-equivariant by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix

#: Rows per substitution block.  16/32/64 were measured (EXPERIMENTS.md):
#: larger blocks mean fewer sequential solve steps but a longer inversion
#: loop at build time; 32 had the lowest build-plus-solve cost.
SOLVE_BLOCK = 32


@dataclass(frozen=True, eq=False)
class TriangularPlan:
    """A triangular CSR factor precompiled for blocked substitution.

    Attributes
    ----------
    n, block, lower:
        System size, rows per block and the substitution direction.
    inv:
        ``(nb, block, block)`` stack of inverted diagonal blocks; the
        last block is padded with identity past row ``n``.
    ptr:
        ``nb + 1`` offsets of each block row's off-diagonal segment.
    rib, col, val:
        Off-diagonal entries in CSR order: int32 row within the block,
        int32 global column, float64 value.
    """

    n: int
    block: int
    lower: bool
    inv: np.ndarray
    ptr: np.ndarray
    rib: np.ndarray
    col: np.ndarray
    val: np.ndarray

    @classmethod
    def from_csr(cls, a: CSRMatrix, lower: bool = True,
                 unit_diagonal: bool = False) -> "TriangularPlan":
        """Build the plan of triangular ``a``.

        Raises ``ValueError`` if ``a`` is not square or has entries on
        the wrong side of the diagonal, and — unless ``unit_diagonal``
        — ``ZeroDivisionError`` naming the first zero (or missing)
        diagonal row in substitution order, the row
        :func:`~repro.sparse.ops.triangular_solve` would stop at.
        """
        # imported here: repro.kernels itself imports repro.sparse
        from repro.kernels.batched import batched_geesm, batched_tstrf

        n = a.nrows
        if a.ncols != n:
            raise ValueError("triangular solve requires a square matrix")
        block = SOLVE_BLOCK
        # int32 throughout: the plan stores int32 columns anyway, and
        # the build's temporaries are most of its transient memory.
        rows = np.repeat(np.arange(n, dtype=np.int32), a.row_lengths())
        cols, vals = a.indices.astype(np.int32), a.data
        if np.any(cols > rows if lower else cols < rows):
            side = "lower" if lower else "upper"
            raise ValueError(f"matrix is not {side} triangular")
        on = rows == cols
        if not unit_diagonal:
            diag = np.zeros(n)
            diag[rows[on]] = vals[on]
            zero = np.flatnonzero(diag == 0.0)
            if zero.size:
                i = int(zero[0] if lower else zero[-1])
                raise ZeroDivisionError(f"zero diagonal at row {i}")

        nb = -(-n // block)
        brow = rows // block
        off = brow != cols // block
        keep = ~(off | on) if unit_diagonal else ~off
        dstack = np.zeros((nb, block, block))
        dstack[brow[keep], rows[keep] % block, cols[keep] % block] = \
            vals[keep]
        if nb:
            pad = np.arange(n - (nb - 1) * block, block)
            dstack[nb - 1, pad, pad] = 1.0
        # X·T = I (tstrf) or T·X = I (geesm); a lower non-unit or upper
        # unit block goes through its transpose to match the kernel.
        flip = lower != unit_diagonal
        inv = np.broadcast_to(np.eye(block), dstack.shape).copy()
        kernel = batched_geesm if unit_diagonal else batched_tstrf
        kernel(inv, np.ascontiguousarray(dstack.transpose(0, 2, 1))
               if flip else dstack)
        if flip:
            inv = np.ascontiguousarray(inv.transpose(0, 2, 1))

        ptr = np.zeros(nb + 1, dtype=np.int64)
        np.cumsum(np.bincount(brow[off], minlength=nb), out=ptr[1:])
        return cls(n=n, block=block, lower=bool(lower), inv=inv, ptr=ptr,
                   rib=rows[off] % block, col=cols[off], val=vals[off])

    @property
    def nblocks(self) -> int:
        """Number of sequential block steps per solve."""
        return int(self.inv.shape[0])

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``T x = b`` for ``b`` of shape ``(n,)`` or ``(n, nrhs)``.

        Column ``j`` of a 2-D solve is bit-identical to the 1-D solve
        of ``b[:, j]``.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.ndim not in (1, 2) or b.shape[0] != self.n:
            raise ValueError("right-hand side shape does not match matrix")
        b2 = b[:, None] if b.ndim == 1 else b
        nrhs, bs = b2.shape[1], self.block
        x = np.zeros((nrhs, self.nblocks * bs, 1))
        x[:, :self.n, 0] = b2.T
        lane = np.arange(nrhs, dtype=np.int64)[:, None] * bs
        ptr = self.ptr.tolist()
        steps = range(self.nblocks)
        for k in (steps if self.lower else reversed(steps)):
            lo, hi = k * bs, (k + 1) * bs
            s, e = ptr[k], ptr[k + 1]
            if e > s:
                prods = x[:, self.col[s:e], 0]
                prods *= self.val[s:e]
                x[:, lo:hi] -= np.bincount(
                    (lane + self.rib[s:e]).ravel(), weights=prods.ravel(),
                    minlength=nrhs * bs).reshape(nrhs, bs, 1)
            x[:, lo:hi] = np.matmul(self.inv[k], x[:, lo:hi])
        out = x[:, :self.n, 0].T
        return out[:, 0].copy() if b.ndim == 1 else out.copy()
