"""Batched (stacked) tile kernels — the Executor's single-launch groups.

The paper's Batch stage packs many same-type tasks into one kernel
launch.  In NumPy terms that means operating on ``(B, m, n)`` stacks
instead of one ``(m, n)`` tile at a time: SSSSM groups become one
stacked ``np.matmul`` over ``(B, m, k) @ (B, k, n)``, and TSTRF/GEESM
groups run the triangular recurrence once across the whole stack with a
matching ``(B, m, m)`` stack of diagonal tiles (a multi-RHS solve over
many independent panels — grouping needs only a common *shape class*,
not a common diagonal).

Bit-identical-to-serial is a hard invariant (the same one the paper
tests for its schedulers): ``np.matmul`` over 3-D stacks executes the
identical 2-D core per slice as the per-tile kernels, and the stacked
triangular recurrences below perform literally the same
``b[r] -= l[r, :r] @ b[:r]`` / ``b[:, c] -= b[:, :c] @ u[:c, c]``
per-slice dataflow as :mod:`repro.kernels.dense`, just hoisted over the
batch axis (a 1-D operand promotes to the same ``(1, r)`` / ``(c, 1)``
core matmul performs on the explicit stacked slices).  The differential
suite (``tests/test_batched_kernels.py``) checks factors *and* per-task
:class:`~repro.kernels.tilekernels.KernelStats` to the bit.

Every function returns per-task int64 stat arrays using the exact
accounting formulas of :mod:`repro.kernels.tilekernels`, vectorized over
the batch axis — including the float ``avg``-nonzeros factor of the
sparse triangular solves, reproduced with the same operation order and
truncation.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from repro.kernels.flops import (
    gemm_flops_dense,
    trsm_flops_dense,
)

_FALSY = frozenset({"0", "false", "off", "no", ""})


def batch_kernels_enabled() -> bool:
    """Whether batched kernel groups are on (``REPRO_BATCH_KERNELS``).

    Defaults to on; set ``REPRO_BATCH_KERNELS=0`` to force the per-task
    oracle path everywhere (the differential-testing baseline).
    """
    return os.environ.get("REPRO_BATCH_KERNELS", "1").strip().lower() \
        not in _FALSY


def batch_solve_enabled() -> bool:
    """Whether the batched solve-DAG path is on (``REPRO_BATCH_SOLVE``).

    Defaults to off: factorisation results keep the seed per-column
    substitution unless the knob opts solves into the Trojan-batched
    SpTRSV pipeline.  (Contrast ``REPRO_BATCH_KERNELS``, which defaults
    on — the solve path is newer and stays opt-in.)
    """
    return os.environ.get("REPRO_BATCH_SOLVE", "0").strip().lower() \
        not in _FALSY


#: Environment knobs every mainstream BLAS reads at import time.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@contextmanager
def pinned_blas_env(threads: int = 1):
    """Pin the BLAS thread knobs in ``os.environ`` for the duration.

    This changes nothing about the *current* process (its BLAS read the
    environment when numpy was imported); it exists so processes spawned
    inside the block import numpy with a fixed thread count.  The
    multiprocess executor pins workers this way when asked: N workers
    each fanning a threaded GEMM over the same cores oversubscribes the
    host and wrecks the scaling the batch schedule buys.  Previous
    values are restored on exit, including unset ones.
    """
    saved = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(int(threads))
    try:
        yield
    finally:
        for var, val in saved.items():
            if val is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = val


def _stack_nnz(stack: np.ndarray) -> np.ndarray:
    """Per-slice nonzero counts of a ``(B, m, n)`` stack, int64."""
    return np.count_nonzero(stack, axis=(1, 2)).astype(np.int64)


def _rhs_nnz(stack: np.ndarray) -> np.ndarray:
    """Per-slice nonzero counts of a ``(B, nrhs, m, 1)`` RHS stack."""
    return np.count_nonzero(stack, axis=(1, 2, 3)).astype(np.int64)


def _zero_diagonal(dstack: np.ndarray) -> list:
    """Ascending diagonal positions that are zero in any slice of a
    ``(B, m, m)`` stack — one vectorised test instead of one per step
    of a substitution loop."""
    diag = np.diagonal(dstack, axis1=1, axis2=2)
    return np.flatnonzero((diag == 0.0).any(axis=0)).tolist()


def batched_ssssm_products(lstack: np.ndarray, ustack: np.ndarray,
                           sparse: bool = False
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stacked Schur products ``L[b] @ U[b]`` plus order-independent stats.

    Returns ``(products, flops, base_bytes_words)`` where
    ``base_bytes_words[b]`` is the part of the touched-nonzero count that
    does not depend on the target tile's post-update state (the caller
    adds the target term: once for plain updates, twice for atomic ones,
    exactly as :func:`repro.kernels.tilekernels.ssssm_kernel` counts).

    Splitting product computation from application is what makes atomic
    (same-target) updates batchable: products depend only on factor
    tiles that are final before the launch, so they can be computed in
    one stacked matmul and then applied serially in batch order —
    bit-identical to the per-task execution, including the
    intermediate-state byte accounting.
    """
    if sparse:
        # 2·Σₖ nnz(col k of L)·nnz(row k of U), per slice
        c = np.count_nonzero(lstack, axis=1).astype(np.int64)
        r = np.count_nonzero(ustack, axis=2).astype(np.int64)
        flops = 2 * np.einsum("bk,bk->b", c, r)
        base = _stack_nnz(lstack) + _stack_nnz(ustack)
    else:
        b, mi, mk = lstack.shape
        mj = ustack.shape[2]
        flops = np.full(b, gemm_flops_dense(mi, mk, mj), dtype=np.int64)
        base = np.full(b, mi * mj + mi * mk + mk * mj, dtype=np.int64)
    return np.matmul(lstack, ustack), flops, base


def batched_ssssm(tstack: np.ndarray, lstack: np.ndarray,
                  ustack: np.ndarray, sparse: bool = False
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked Schur update ``T[b] −= L[b] @ U[b]`` in place.

    Targets within one call must be distinct tiles (conflict-free
    group); same-target updates go through
    :func:`batched_ssssm_products` plus a serial ordered apply instead,
    because their byte accounting depends on the intermediate state.
    """
    prods, flops, base = batched_ssssm_products(lstack, ustack, sparse)
    tstack -= prods
    if sparse:
        base = base + _stack_nnz(tstack)
    return flops, 8 * base


def batched_geesm(bstack: np.ndarray, dstack: np.ndarray,
                  sparse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Stacked GEESM: solve ``L[b] X = B[b]`` in place for every slice,
    each against its own packed-LU diagonal tile.

    Same row-sequential forward substitution as
    :func:`repro.kernels.dense.trsm_lower_unit`, hoisted over the batch
    axis: step r is one ``(B, 1, r) @ (B, r, n)`` matmul instead of B
    separate ``(r,) @ (r, n)`` products.
    """
    m = dstack.shape[1]
    if bstack.shape[1] != m:
        raise ValueError("dimension mismatch in batched_geesm")
    nnz_in = _stack_nnz(bstack)  # bytes count actual nonzeros either way
    for r in range(1, m):
        bstack[:, r, :] -= np.matmul(dstack[:, r:r + 1, :r],
                                     bstack[:, :r, :])[:, 0, :]
    if sparse:
        avg = np.count_nonzero(np.tril(dstack, -1), axis=(1, 2)) / m
        nnz_out = _stack_nnz(bstack)
        flops = ((2 * nnz_out) * avg).astype(np.int64)
        touched = nnz_out
    else:
        b, _, n = bstack.shape
        flops = np.full(b, trsm_flops_dense(m, n), dtype=np.int64)
        touched = np.full(b, m * n, dtype=np.int64)
    return flops, 8 * (nnz_in + touched + _stack_nnz(dstack))


def batched_tstrf(bstack: np.ndarray, dstack: np.ndarray,
                  sparse: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Stacked TSTRF: solve ``X U[b] = B[b]`` in place for every slice,
    each against its own packed-LU diagonal tile.

    Same column-sequential substitution as
    :func:`repro.kernels.dense.trsm_upper`, hoisted over the batch axis.
    """
    m = dstack.shape[1]
    if bstack.shape[2] != m:
        raise ValueError("dimension mismatch in batched_tstrf")
    zero = _zero_diagonal(dstack)
    if zero:
        raise ZeroDivisionError(f"zero diagonal at column {zero[0]}")
    nnz_in = _stack_nnz(bstack)  # bytes count actual nonzeros either way
    for c in range(m):
        if c:
            bstack[:, :, c] -= np.matmul(bstack[:, :, :c],
                                         dstack[:, :c, c][:, :, None])[:, :, 0]
        bstack[:, :, c] /= dstack[:, c, c][:, None]
    if sparse:
        avg = np.count_nonzero(np.triu(dstack), axis=(1, 2)) / m
        nnz_out = _stack_nnz(bstack)
        flops = ((2 * nnz_out) * avg).astype(np.int64)
        touched = nnz_out
    else:
        b, rows, _ = bstack.shape
        flops = np.full(b, trsm_flops_dense(m, rows), dtype=np.int64)
        touched = np.full(b, rows * m, dtype=np.int64)
    return flops, 8 * (nnz_in + touched + _stack_nnz(dstack))


def batched_sptrsv_diag(bstack: np.ndarray, dstack: np.ndarray,
                        lower: bool = True, unit_diagonal: bool = False,
                        sparse: bool = False
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked SPTRSV_DIAG: solve ``T[b] · Y[b] = Y[b]`` in place.

    ``bstack`` is the column-folded ``(B, nrhs, m, 1)`` RHS stack and
    ``dstack`` the ``(B, m, m)`` diagonal tiles.  Folding keeps each
    column a ``(m, 1)`` operand, so step r is a broadcast
    ``(1, r) @ (r, 1)`` core per (slice, column) — the exact core the
    per-column oracle runs, unlike a wide ``(m, nrhs)`` solve whose
    row-times-matrix products sum in a different order.  The subtract
    and divide interleave row by row to match
    :func:`repro.kernels.dense.trsm_left_col` bit for bit on non-unit
    diagonals.
    """
    m = dstack.shape[1]
    if bstack.shape[2] != m:
        raise ValueError("dimension mismatch in batched_sptrsv_diag")
    if not unit_diagonal:
        zero = _zero_diagonal(dstack)
        if zero:
            r = zero[0] if lower else zero[-1]
            raise ZeroDivisionError(f"zero diagonal at row {r}")
    nnz_in = _rhs_nnz(bstack)
    rows = range(m) if lower else range(m - 1, -1, -1)
    for r in rows:
        if lower:
            if r:
                bstack[:, :, r, :] -= np.matmul(
                    dstack[:, None, r:r + 1, :r],
                    bstack[:, :, :r, :])[:, :, 0, :]
        elif r < m - 1:
            bstack[:, :, r, :] -= np.matmul(
                dstack[:, None, r:r + 1, r + 1:],
                bstack[:, :, r + 1:, :])[:, :, 0, :]
        if not unit_diagonal:
            bstack[:, :, r, :] /= dstack[:, r, r][:, None, None]
    if sparse:
        if lower:
            read = np.tril(dstack, -1) if unit_diagonal else np.tril(dstack)
        else:
            read = np.triu(dstack, 1) if unit_diagonal else np.triu(dstack)
        avg = np.count_nonzero(read, axis=(1, 2)) / m
        nnz_out = _rhs_nnz(bstack)
        flops = ((2 * nnz_out) * avg).astype(np.int64)
        touched = nnz_out
    else:
        b, nrhs = bstack.shape[:2]
        flops = np.full(b, trsm_flops_dense(m, nrhs), dtype=np.int64)
        touched = np.full(b, m * nrhs, dtype=np.int64)
    return flops, 8 * (nnz_in + touched + _stack_nnz(dstack))


def batched_sptrsv_update(dest_stack: np.ndarray, tstack: np.ndarray,
                          src_stack: np.ndarray, sparse: bool = False
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Stacked SPTRSV_UPDATE: ``Y_i[b] −= T[b] · Y_k[b]`` in place.

    ``dest_stack`` is ``(B, nrhs, m_i, 1)``, ``tstack`` ``(B, m_i, m_k)``
    and ``src_stack`` ``(B, nrhs, m_k, 1)``; the broadcast matmul runs
    one ``(m_i, m_k) @ (m_k, 1)`` core per (slice, column), matching the
    per-task kernel and the oracle's per-column products.  Destinations
    within one call must be distinct RHS blocks — the canonical
    accumulation chains of the solve DAG guarantee it by construction.
    """
    if tstack.shape[2] != src_stack.shape[2] \
            or tstack.shape[1] != dest_stack.shape[2]:
        raise ValueError("dimension mismatch in batched_sptrsv_update")
    dest_stack -= np.matmul(tstack[:, None, :, :], src_stack)
    b, nrhs = dest_stack.shape[:2]
    if sparse:
        flops = 2 * _stack_nnz(tstack) * nrhs
        touched = _rhs_nnz(dest_stack) + _stack_nnz(tstack) \
            + _rhs_nnz(src_stack)
    else:
        mi, mk = tstack.shape[1], tstack.shape[2]
        flops = np.full(b, gemm_flops_dense(mi, mk, nrhs), dtype=np.int64)
        touched = np.full(b, nrhs * mi + mi * mk + mk * nrhs,
                          dtype=np.int64)
    return flops, 8 * touched
