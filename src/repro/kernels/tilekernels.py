"""Tile-level task kernels: the Executor's customisable operations —
the paper's four factorisation kernels plus the two SpTRSV solve kernels.

Each kernel mutates dense tile scratch in place (the paper's kernels also
gather sparse tiles into dense staging before computing) and returns a
:class:`KernelStats` record with structure-derived flop and byte counts
for the GPU cost model.  The ``sparse`` flag selects sparse accounting —
the arithmetic itself is identical, which is what makes "Trojan Horse and
baseline produce bit-identical factors" a testable invariant.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.kernels.dense import (
    dense_getrf,
    gemm_update,
    trsm_left_col,
    trsm_lower_unit,
    trsm_upper,
)
from repro.kernels.flops import (
    gemm_flops_dense,
    getrf_flops_dense,
    getrf_flops_sparse,
    ssssm_flops_sparse,
    trsm_flops_dense,
    trsm_flops_sparse,
)

_EPS = 0.0  # structural zero threshold for post-factor patterns


@dataclass(frozen=True)
class KernelStats:
    """Work accounting for one executed kernel task.

    Attributes
    ----------
    flops:
        Floating-point operations a structure-aware kernel performs.
    bytes:
        Global-memory traffic estimate (reads + writes of the touched
        nonzeros, 8 B each, including the gather/scatter staging).
    """

    flops: int
    bytes: int


class ColumnarStats(Mapping):
    """Per-task stats as tid-indexed int64 columns.

    A read-only ``Mapping[int, KernelStats]`` over ``flops``/``bytes``
    arrays (one row per task id) and a ``recorded`` mask; the
    :class:`KernelStats` objects are built only on item access, so
    recording a factorisation's stats costs two array scatters per
    launch instead of one object per task.  Compares ``==`` to any
    mapping with the same items (a plain dict included).
    """

    __slots__ = ("flops", "bytes", "recorded")

    def __init__(self, flops: np.ndarray, nbytes: np.ndarray,
                 recorded: np.ndarray | None = None):
        self.flops = flops
        self.bytes = nbytes
        self.recorded = (np.ones(flops.size, dtype=bool) if recorded is None
                         else recorded)

    def tids(self) -> np.ndarray:
        """The recorded task ids, ascending."""
        return np.flatnonzero(self.recorded)

    def __getitem__(self, tid) -> KernelStats:
        try:
            t = operator.index(tid)
        except TypeError:
            raise KeyError(tid) from None
        if not (0 <= t < self.recorded.size and self.recorded[t]):
            raise KeyError(tid)
        return KernelStats(flops=int(self.flops[t]), bytes=int(self.bytes[t]))

    def __contains__(self, tid) -> bool:
        try:
            t = operator.index(tid)
        except TypeError:
            return False
        return 0 <= t < self.recorded.size and bool(self.recorded[t])

    def __iter__(self):
        return iter(self.tids().tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.recorded))

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarStats):
            mask = self.recorded
            return (np.array_equal(mask, other.recorded)
                    and np.array_equal(self.flops[mask], other.flops[mask])
                    and np.array_equal(self.bytes[mask], other.bytes[mask]))
        return Mapping.__eq__(self, other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"ColumnarStats({len(self)} tasks)"


def _nnz(a: np.ndarray) -> int:
    return int(np.count_nonzero(a))


def getrf_kernel(tile: np.ndarray, sparse: bool = False) -> KernelStats:
    """GETRF: factor a diagonal tile in place into packed L\\U."""
    m = tile.shape[0]
    nnz_in = _nnz(tile)
    dense_getrf(tile)
    if sparse:
        flops = getrf_flops_sparse(tile != _EPS)
        touched = _nnz(tile)
    else:
        flops = getrf_flops_dense(m)
        touched = m * m
    return KernelStats(flops=flops, bytes=8 * (nnz_in + touched))


def tstrf_kernel(tile: np.ndarray, diag: np.ndarray,
                 sparse: bool = False) -> KernelStats:
    """TSTRF: row panel ``L(i,k) = A(i,k) · U(k,k)⁻¹`` in place.

    ``diag`` is the packed LU tile of block (k,k); only its upper triangle
    is read.  One CUDA block per panel row in the paper's mapping.
    """
    nnz_in = _nnz(tile)
    trsm_upper(diag, tile)
    if sparse:
        flops = trsm_flops_sparse(_nnz(tile), np.triu(diag) != _EPS)
        touched = _nnz(tile)
    else:
        flops = trsm_flops_dense(diag.shape[0], tile.shape[0])
        touched = tile.size
    return KernelStats(flops=flops, bytes=8 * (nnz_in + touched + _nnz(diag)))


def geesm_kernel(tile: np.ndarray, diag: np.ndarray,
                 sparse: bool = False) -> KernelStats:
    """GEESM: column panel ``U(k,j) = L(k,k)⁻¹ · A(k,j)`` in place.

    Only the strictly-lower part of ``diag`` is read (unit diagonal).
    One CUDA block per panel column.
    """
    nnz_in = _nnz(tile)
    trsm_lower_unit(diag, tile)
    if sparse:
        flops = trsm_flops_sparse(_nnz(tile), np.tril(diag, -1) != _EPS)
        touched = _nnz(tile)
    else:
        flops = trsm_flops_dense(diag.shape[0], tile.shape[1])
        touched = tile.size
    return KernelStats(flops=flops, bytes=8 * (nnz_in + touched + _nnz(diag)))


def ssssm_kernel(target: np.ndarray, l_tile: np.ndarray, u_tile: np.ndarray,
                 sparse: bool = False, atomic: bool = False) -> KernelStats:
    """SSSSM: Schur update ``A(i,j) −= L(i,k) · U(k,j)`` in place.

    ``atomic`` marks that this update may race with other SSSSM tasks on
    the same target inside one batch; the reference implementation is
    sequential so the flag only affects accounting (atomic traffic counts
    the target twice, read + read-modify-write).
    """
    gemm_update(target, l_tile, u_tile)
    if sparse:
        flops = ssssm_flops_sparse(l_tile != _EPS, u_tile != _EPS)
        touched = _nnz(target) + _nnz(l_tile) + _nnz(u_tile)
    else:
        flops = gemm_flops_dense(l_tile.shape[0], l_tile.shape[1],
                                 u_tile.shape[1])
        touched = target.size + l_tile.size + u_tile.size
    extra = _nnz(target) if atomic else 0
    return KernelStats(flops=flops, bytes=8 * (touched + extra))


def _solve_read_triangle(diag: np.ndarray, lower: bool,
                         unit_diagonal: bool) -> np.ndarray:
    """The part of a diagonal tile a triangular solve actually reads."""
    if lower:
        return np.tril(diag, -1) if unit_diagonal else np.tril(diag)
    return np.triu(diag, 1) if unit_diagonal else np.triu(diag)


def sptrsv_diag_kernel(cols: np.ndarray, diag: np.ndarray,
                       lower: bool = True, unit_diagonal: bool = False,
                       sparse: bool = False) -> KernelStats:
    """SPTRSV_DIAG: solve ``T(i,i) · Y_i = Y_i`` in place.

    ``cols`` is the RHS block in column-folded layout ``(nrhs, m, 1)``;
    every column runs the identical row-sequential substitution of
    :func:`repro.kernels.dense.trsm_left_col`, which is also what the
    per-column oracle and the batched kernel execute.
    """
    nrhs, m = cols.shape[0], cols.shape[1]
    nnz_in = _nnz(cols)
    for c in range(nrhs):
        trsm_left_col(diag, cols[c], lower=lower,
                      unit_diagonal=unit_diagonal)
    if sparse:
        read = _solve_read_triangle(diag, lower, unit_diagonal)
        flops = trsm_flops_sparse(_nnz(cols), read != _EPS)
        touched = _nnz(cols)
    else:
        flops = trsm_flops_dense(m, nrhs)
        touched = cols.size
    return KernelStats(flops=flops, bytes=8 * (nnz_in + touched + _nnz(diag)))


def sptrsv_update_kernel(dest: np.ndarray, tile: np.ndarray,
                         src: np.ndarray, sparse: bool = False
                         ) -> KernelStats:
    """SPTRSV_UPDATE: ``Y_i −= T(i,k) · Y_k`` in place, column-folded.

    ``dest`` is ``(nrhs, m_i, 1)``, ``src`` is ``(nrhs, m_k, 1)``; the
    broadcast matmul runs one ``(m_i, m_k) @ (m_k, 1)`` core per column —
    the same cores as the oracle's per-column products, keeping the
    accumulation bit-identical regardless of RHS width.
    """
    dest -= np.matmul(tile[None, :, :], src)
    nrhs = dest.shape[0]
    if sparse:
        flops = 2 * _nnz(tile) * nrhs
        touched = _nnz(dest) + _nnz(tile) + _nnz(src)
    else:
        flops = gemm_flops_dense(tile.shape[0], tile.shape[1], nrhs)
        touched = dest.size + tile.size + src.size
    return KernelStats(flops=flops, bytes=8 * touched)
