"""Per-task oracle of the task-DAG builder and the Schur fusion.

These are the object-graph implementations ``repro.core.dag`` and
``repro.core.fusion`` shipped before the builders went columnar: one
``add()`` per task, one ``edge()`` per edge, fusion by dict grouping
and edge-set unions.  ``tests/test_dag_columnar.py`` checks the
production builders against them bit for bit.  The code is kept
verbatim; only the DAG container differs (:class:`OracleDAG`, a plain
record of the per-task lists).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.task import Task, TaskType
from repro.kernels.flops import (
    gemm_flops_dense,
    getrf_flops_dense,
    trsm_flops_dense,
)
from repro.sparse.blocking import Partition


@dataclass
class OracleDAG:
    """The per-task DAG form: ``Task`` objects plus adjacency lists."""

    tasks: list[Task]
    pred_count: np.ndarray
    successors: list[list[int]]
    part: Partition
    _succ_csr: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False)
    _arrays: dict | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    def successor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR-style successor index ``(indptr, indices)``, built once.

        ``indices[indptr[t]:indptr[t+1]]`` are the task ids unlocked by
        completing ``t`` — the flat form the vectorized schedulers use
        for `np.subtract.at` successor decrements.
        """
        if self._succ_csr is None:
            n = self.n_tasks
            counts = np.fromiter(
                (len(s) for s in self.successors), dtype=np.int64, count=n
            )
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            total = int(indptr[-1])
            indices = np.empty(total, dtype=np.int64)
            at = 0
            for s in self.successors:
                indices[at:at + len(s)] = s
                at += len(s)
            object.__setattr__(self, "_succ_csr", (indptr, indices))
        return self._succ_csr

    def task_arrays(self) -> dict[str, np.ndarray]:
        """Column-oriented task metadata, built once per DAG: the
        ``TaskArrays`` columns by name, walked off the ``Task`` objects."""
        if self._arrays is None:
            n = self.n_tasks
            nb = self.part.nblocks
            type_code = np.fromiter((int(t.type) for t in self.tasks),
                                    dtype=np.int8, count=n)
            k = np.fromiter((t.k for t in self.tasks), np.int64, count=n)
            i = np.fromiter((t.i for t in self.tasks), np.int64, count=n)
            j = np.fromiter((t.j for t in self.tasks), np.int64, count=n)
            blocks = np.fromiter((t.cuda_blocks for t in self.tasks),
                                 np.int64, count=n)
            shmem = np.fromiter((t.shared_mem_bytes for t in self.tasks),
                                np.int64, count=n)
            flops = np.fromiter((t.flops_est for t in self.tasks),
                                np.int64, count=n)
            nbytes = np.fromiter((t.bytes_est for t in self.tasks),
                                 np.int64, count=n)
            nnz = np.fromiter((t.nnz for t in self.tasks), np.int64, count=n)
            # lazy import: repro.verify.effects is the single definition
            # of write footprints, but importing it at module top would
            # cycle through repro.verify.__init__ while repro.core is
            # still mid-import
            from repro.verify.effects import atomic_write_targets
            target = atomic_write_targets(type_code, i, j, nb)
            object.__setattr__(self, "_arrays", dict(
                type_code=type_code, k=k, i=i, j=j, distance=np.abs(i - j),
                cuda_blocks=blocks, shared_mem=shmem, flops_est=flops,
                bytes_est=nbytes, nnz=nnz, target=target,
                rows=np.fromiter((t.rows for t in self.tasks), np.int64,
                                 count=n),
                cols=np.fromiter((t.cols for t in self.tasks), np.int64,
                                 count=n),
                owner=np.fromiter((t.owner for t in self.tasks), np.int64,
                                  count=n),
                sparse=np.fromiter((t.sparse for t in self.tasks), bool,
                                   count=n),
                atomic=np.fromiter((t.atomic for t in self.tasks), bool,
                                   count=n),
            ))
        return self._arrays


def _sparse_getrf_est(m: int, nnz: int) -> int:
    density = min(1.0, nnz / max(1, m * m))
    return max(nnz, int(getrf_flops_dense(m) * density ** 1.5))


def build_block_dag(
    fill: np.ndarray,
    part: Partition,
    tile_nnz: dict[tuple[int, int], int] | None = None,
    sparse_tiles: bool = False,
    owner_of=None,
) -> OracleDAG:
    """Construct the task DAG from a block fill pattern.

    Parameters
    ----------
    fill:
        Boolean ``nb × nb`` tile map from
        :func:`repro.symbolic.block_fill`.
    part:
        The tile partition.
    tile_nnz:
        Structural nonzeros per factor tile (from the element-level fill
        split over the partition).  ``None`` treats tiles as dense.
    sparse_tiles:
        Mark tasks for sparse kernel accounting (the PanguLU substrate).
    owner_of:
        Optional ``owner_of(i, j) -> rank`` for distributed runs (2-D
        block-cyclic in :mod:`repro.cluster`).
    """
    nb = part.nblocks
    fill = np.asarray(fill, dtype=bool)
    if fill.shape != (nb, nb):
        raise ValueError("fill pattern does not match partition")
    sizes = part.sizes()

    def nnz_of(i: int, j: int) -> int:
        full = int(sizes[i]) * int(sizes[j])
        if tile_nnz is None:
            return full
        return min(full, int(tile_nnz.get((i, j), full)))

    tasks: list[Task] = []
    getrf_id: dict[int, int] = {}
    tstrf_id: dict[tuple[int, int], int] = {}
    geesm_id: dict[tuple[int, int], int] = {}

    def add(task_type: TaskType, k: int, i: int, j: int) -> int:
        tid = len(tasks)
        rows, cols = int(sizes[i]), int(sizes[j])
        nnz = nnz_of(i, j)
        mk = int(sizes[k])
        if task_type == TaskType.GETRF:
            flops = _sparse_getrf_est(rows, nnz) if sparse_tiles \
                else getrf_flops_dense(rows)
            nbytes = 8 * 2 * nnz
        elif task_type in (TaskType.TSTRF, TaskType.GEESM):
            diag_nnz = nnz_of(k, k)
            if sparse_tiles:
                flops = max(nnz, int(2 * nnz * diag_nnz / max(1, mk)))
            else:
                flops = trsm_flops_dense(mk, rows if task_type == TaskType.TSTRF
                                         else cols)
            nbytes = 8 * (2 * nnz + diag_nnz)
        else:  # SSSSM
            l_nnz = nnz_of(i, k)
            u_nnz = nnz_of(k, j)
            if sparse_tiles:
                flops = max(1, int(2 * l_nnz * u_nnz / max(1, mk)))
            else:
                flops = gemm_flops_dense(rows, mk, cols)
            nbytes = 8 * (nnz + l_nnz + u_nnz)
        tasks.append(
            Task(
                tid=tid, type=task_type, k=k, i=i, j=j,
                rows=rows, cols=cols, nnz=nnz, sparse=sparse_tiles,
                atomic=task_type == TaskType.SSSSM,
                flops_est=int(flops), bytes_est=int(nbytes),
                owner=0 if owner_of is None else int(owner_of(i, j)),
            )
        )
        return tid

    # enumerate tasks step by step
    lower_of: list[np.ndarray] = []
    upper_of: list[np.ndarray] = []
    for k in range(nb):
        getrf_id[k] = add(TaskType.GETRF, k, k, k)
        li = np.flatnonzero(fill[k + 1:, k]) + k + 1
        uj = np.flatnonzero(fill[k, k + 1:]) + k + 1
        lower_of.append(li)
        upper_of.append(uj)
        for i in li:
            tstrf_id[(int(i), k)] = add(TaskType.TSTRF, k, int(i), k)
        for j in uj:
            geesm_id[(k, int(j))] = add(TaskType.GEESM, k, k, int(j))

    ssssm_ids: list[tuple[int, int, int, int]] = []  # (tid, k, i, j)
    for k in range(nb):
        for i in lower_of[k]:
            for j in upper_of[k]:
                tid = add(TaskType.SSSSM, k, int(i), int(j))
                ssssm_ids.append((tid, k, int(i), int(j)))

    n = len(tasks)
    pred_count = np.zeros(n, dtype=np.int64)
    successors: list[list[int]] = [[] for _ in range(n)]

    def edge(a: int, b: int) -> None:
        successors[a].append(b)
        pred_count[b] += 1

    for k in range(nb):
        g = getrf_id[k]
        for i in lower_of[k]:
            edge(g, tstrf_id[(int(i), k)])
        for j in upper_of[k]:
            edge(g, geesm_id[(k, int(j))])
    for tid, k, i, j in ssssm_ids:
        edge(tstrf_id[(i, k)], tid)
        edge(geesm_id[(k, j)], tid)
        # hand-off to the tile's own factor-time operation
        if i == j:
            edge(tid, getrf_id[i])
        elif i > j:
            edge(tid, tstrf_id[(i, j)])
        else:
            edge(tid, geesm_id[(i, j)])
    return OracleDAG(tasks=tasks, pred_count=pred_count,
                     successors=successors, part=part)


@dataclass
class OracleFusion:
    """Fused DAG plus the member map back to the original tasks."""

    dag: OracleDAG
    members: list[list[int]]


def merge_schur_tasks(dag: OracleDAG) -> OracleFusion:
    """Fuse SSSSM tasks per (step k, target row i) group.

    Non-SSSSM tasks are kept one-to-one.  Duplicate edges created by the
    union are collapsed, so predecessor counts stay consistent.
    """
    group_of: dict[tuple[int, int], int] = {}
    members: list[list[int]] = []
    new_id = np.empty(dag.n_tasks, dtype=np.int64)
    new_tasks: list[Task] = []

    for task in dag.tasks:
        if task.type == TaskType.SSSSM:
            key = (task.k, task.i)
            if key in group_of:
                g = group_of[key]
                new_id[task.tid] = g
                members[g].append(task.tid)
                fused = new_tasks[g]
                fused.cols += task.cols
                fused.nnz += task.nnz
                fused.flops_est += task.flops_est
                fused.bytes_est += task.bytes_est
                fused.j = min(fused.j, task.j)
                continue
        g = len(new_tasks)
        new_id[task.tid] = g
        members.append([task.tid])
        new_tasks.append(Task(
            tid=g, type=task.type, k=task.k, i=task.i, j=task.j,
            rows=task.rows, cols=task.cols, nnz=task.nnz,
            sparse=task.sparse, atomic=task.atomic,
            flops_est=task.flops_est, bytes_est=task.bytes_est,
            owner=task.owner,
        ))
        if task.type == TaskType.SSSSM:
            group_of[(task.k, task.i)] = g

    n = len(new_tasks)
    succ_sets: list[set[int]] = [set() for _ in range(n)]
    for t in range(dag.n_tasks):
        a = int(new_id[t])
        for s in dag.successors[t]:
            b = int(new_id[s])
            if a != b:
                succ_sets[a].add(b)
    successors = [sorted(s) for s in succ_sets]
    pred_count = np.zeros(n, dtype=np.int64)
    for a in range(n):
        for b in successors[a]:
            pred_count[b] += 1
    fused_dag = OracleDAG(tasks=new_tasks, pred_count=pred_count,
                          successors=successors, part=dag.part)
    return OracleFusion(dag=fused_dag, members=members)
