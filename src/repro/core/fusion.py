"""Schur-task fusion — the SuperLU_DIST integration detail (§3.5.1).

SuperLU's tiny supernodes explode the task count, and "the bottleneck
arises at the task aggregation stage on the CPU.  To overcome this
challenge, we aggregate all vectors of matrix U in advance, therefore all
Schur complement tasks in one supernode can be done in a relative larger
GEMM."  This module implements that transform on the task DAG: all
SSSSM(k, i, ·) updates sharing a step and a target row panel fuse into
one task whose dependencies/successors are the unions of its members'.

Fusion is a *scheduling-level* rewrite — numerically a fused task simply
executes its members, so factors are unchanged (tested).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.core.dag import TaskDAG, make_task_arrays
from repro.core.task import Task, TaskType
from repro.kernels.tilekernels import KernelStats


@dataclass
class FusionResult:
    """A fused DAG plus the member map back to the original tasks.

    Attributes
    ----------
    dag:
        The fused task DAG (new dense task ids).
    member_ptr, member_tids:
        Member CSR: ``member_tids[member_ptr[g]:member_ptr[g + 1]]`` are
        the original task ids fused task ``g`` executes, ascending
        (a singleton for unfused tasks).
    """

    dag: TaskDAG
    member_ptr: np.ndarray
    member_tids: np.ndarray

    @property
    def members(self) -> list[list[int]]:
        """``members[new_tid]``: the member CSR as lists."""
        ptr = self.member_ptr.tolist()
        tids = self.member_tids.tolist()
        return [tids[ptr[g]:ptr[g + 1]] for g in range(len(ptr) - 1)]

    def fuse_stats(self, stats: dict[int, KernelStats]) -> dict[int, KernelStats]:
        """Aggregate recorded per-task stats onto the fused ids."""
        out = {}
        for new_tid, group in enumerate(self.members):
            flops = sum(stats[t].flops for t in group)
            nbytes = sum(stats[t].bytes for t in group)
            out[new_tid] = KernelStats(flops=flops, bytes=nbytes)
        return out


def merge_schur_tasks(dag: TaskDAG) -> FusionResult:
    """Fuse SSSSM tasks per (step k, target row i) group.

    Non-SSSSM tasks are kept one-to-one.  Fused ids follow the first
    appearance of each group in task-id order; a fused task takes its
    first member's attributes except ``j`` (the smallest member's) and
    ``cols``/``nnz``/``flops_est``/``bytes_est`` (the members' sums).
    Edges are the union of the members' edges with self-loops dropped
    and duplicates collapsed, so predecessor counts stay consistent.
    """
    a = dag.task_arrays()
    n = dag.n_tasks
    ssssm = a.type_code == TaskType.SSSSM
    span = int(a.i.max()) + 1 if n else 1
    # one key per group: (k, i) for SSSSMs, the task itself otherwise
    key = np.where(ssssm, a.k * span + a.i, -1 - np.arange(n))
    _, first, inverse = np.unique(key, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    new_id = rank[inverse.reshape(-1)]
    lead = first[order]
    g = lead.size

    j = a.j[lead].copy()
    np.minimum.at(j, new_id, a.j)
    sums = []
    for column in (a.cols, a.nnz, a.flops_est, a.bytes_est):
        total = np.zeros(g, dtype=np.int64)
        np.add.at(total, new_id, column)
        sums.append(total)
    cols, nnz, flops, nbytes = sums
    arrays = make_task_arrays(
        dag.part.nblocks, a.type_code[lead], a.k[lead], a.i[lead], j,
        a.rows[lead], cols, nnz, flops, nbytes, a.owner[lead],
        a.sparse[lead], a.atomic[lead])

    indptr, indices = dag.successor_csr()
    src = new_id[np.repeat(np.arange(n), np.diff(indptr))]
    dst = new_id[indices]
    width = max(g, 1)
    edge = np.unique((src * width + dst)[src != dst])
    fused_indptr = np.zeros(g + 1, dtype=np.int64)
    np.cumsum(np.bincount(edge // width, minlength=g),
              out=fused_indptr[1:])
    fused = TaskDAG(arrays, fused_indptr, edge % width, dag.part)

    member_tids = np.argsort(new_id, kind="stable")
    member_ptr = np.zeros(g + 1, dtype=np.int64)
    np.cumsum(np.bincount(new_id, minlength=g), out=member_ptr[1:])
    return FusionResult(dag=fused, member_ptr=member_ptr,
                        member_tids=member_tids)


class _Member(NamedTuple):
    """The coordinates a tile backend reads of one original task."""

    tid: int
    type: TaskType
    k: int
    i: int
    j: int


class FusedBackend:
    """Execution backend that runs a fused task's members in sequence.

    Members are handed to the inner backend as ``(tid, type, k, i, j)``
    records read off the original DAG's columns, which is all a tile
    backend (:class:`~repro.solvers.engine.NumericBackend`) reads.
    """

    def __init__(self, inner, fusion: FusionResult, original: TaskDAG):
        self._inner = inner
        self._fusion = fusion
        a = original.task_arrays()
        types = {int(t): t for t in TaskType}
        self._type = [types[c] for c in a.type_code.tolist()]
        self._k, self._i, self._j = a.k.tolist(), a.i.tolist(), a.j.tolist()

    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Execute every member of the fused task; sum the stats."""
        ptr = self._fusion.member_ptr
        flops = 0
        nbytes = 0
        for tid in self._fusion.member_tids[ptr[task.tid]:
                                            ptr[task.tid + 1]].tolist():
            member = _Member(tid, self._type[tid], self._k[tid],
                             self._i[tid], self._j[tid])
            s = self._inner.run_task(member, atomic)
            flops += s.flops
            nbytes += s.bytes
        return KernelStats(flops=flops, bytes=nbytes)
