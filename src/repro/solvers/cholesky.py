"""Sparse Cholesky substrate — the solver-agnosticism demonstration.

The paper argues the Trojan Horse is "independent of solver libraries".
This module proves the claim inside the reproduction by wiring a third,
structurally different factorisation — symmetric LLᵀ over lower-triangle
tiles — through the *unchanged* scheduling machinery: the same Task/DAG
types (GETRF plays POTRF, TSTRF the panel solve, SSSSM the symmetric
update), the same Prioritizer/Container/Collector/Executor, and the same
baselines.

Cholesky task semantics (lower tiles only, ``i ≥ j``):

* POTRF(k): ``A(k,k) = L(k,k)·L(k,k)ᵀ``;
* TRSM(k, i): ``L(i,k) = A(i,k)·L(k,k)⁻ᵀ``;
* SYRK/GEMM(k, i, j): ``A(i,j) −= L(i,k)·L(j,k)ᵀ`` for ``k < j ≤ i``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.baselines import make_scheduler
from repro.core.dag import TaskDAG
from repro.core.scheduler import ScheduleResult
from repro.core.task import Task, TaskType
from repro.gpusim.costmodel import GPUCostModel
from repro.gpusim.specs import GPUSpec, RTX5090
from repro.kernels.dense import dense_potrf, gemm_update, trsm_upper
from repro.kernels.flops import (
    gemm_flops_dense,
    getrf_flops_dense,
    trsm_flops_dense,
)
from repro.kernels.tilekernels import KernelStats
from repro.ordering import compute_ordering
from repro.sparse import (
    COOMatrix,
    CSRMatrix,
    permute_symmetric,
    triangular_solve,
)
from repro.sparse.blocking import Partition, split_tiles, uniform_partition
from repro.symbolic import block_fill, symbolic_fill


def build_cholesky_dag(fill: np.ndarray, part: Partition) -> TaskDAG:
    """Task DAG of a tiled LLᵀ factorisation over the lower triangle.

    Same dependency rules as LU restricted to ``i ≥ j``; the update of
    tile (i, j) at step k needs both panel tiles L(i,k) and L(j,k).
    """
    nb = part.nblocks
    fill = np.asarray(fill, dtype=bool)
    sizes = part.sizes()
    tasks: list[Task] = []
    potrf_id: dict[int, int] = {}
    trsm_id: dict[tuple[int, int], int] = {}

    def add(ttype: TaskType, k: int, i: int, j: int) -> int:
        tid = len(tasks)
        rows, cols = int(sizes[i]), int(sizes[j])
        mk = int(sizes[k])
        if ttype == TaskType.GETRF:      # POTRF
            flops = getrf_flops_dense(rows) // 2
        elif ttype == TaskType.TSTRF:    # panel TRSM
            flops = trsm_flops_dense(mk, rows)
        else:                            # symmetric update
            flops = gemm_flops_dense(rows, mk, cols)
        tasks.append(Task(tid=tid, type=ttype, k=k, i=i, j=j,
                          rows=rows, cols=cols, nnz=rows * cols,
                          atomic=ttype == TaskType.SSSSM,
                          flops_est=int(flops),
                          bytes_est=8 * 2 * rows * cols))
        return tid

    lower_of: list[np.ndarray] = []
    for k in range(nb):
        potrf_id[k] = add(TaskType.GETRF, k, k, k)
        li = np.flatnonzero(fill[k + 1:, k]) + k + 1
        lower_of.append(li)
        for i in li:
            trsm_id[(int(i), k)] = add(TaskType.TSTRF, k, int(i), k)

    update_ids: list[tuple[int, int, int, int]] = []
    for k in range(nb):
        li = lower_of[k]
        for i in li:
            for j in li[li <= i]:
                tid = add(TaskType.SSSSM, k, int(i), int(j))
                update_ids.append((tid, k, int(i), int(j)))

    succ: list[list[int]] = [[] for _ in range(len(tasks))]

    def edge(a: int, b: int) -> None:
        succ[a].append(b)

    for k in range(nb):
        for i in lower_of[k]:
            edge(potrf_id[k], trsm_id[(int(i), k)])
    for tid, k, i, j in update_ids:
        edge(trsm_id[(i, k)], tid)
        if j != i:
            edge(trsm_id[(j, k)], tid)
        if i == j:
            edge(tid, potrf_id[i])
        else:
            edge(tid, trsm_id[(i, j)])
    return TaskDAG.from_tasks(tasks, succ, part)


class CholeskyEngine:
    """Tile storage and numeric execution for LLᵀ."""

    def __init__(self, a: CSRMatrix, part: Partition):
        self.part = part
        sym_fill = block_fill(a, part)
        self.bfill = np.tril(sym_fill)
        self.dag = build_cholesky_dag(self.bfill, part)
        sizes = part.sizes()
        self.tiles: dict[tuple[int, int], np.ndarray] = {}
        for bi, bj in zip(*np.nonzero(self.bfill)):
            self.tiles[(int(bi), int(bj))] = np.zeros(
                (int(sizes[bi]), int(sizes[bj])))
        for (bi, bj), tile in split_tiles(a, part).items():
            if bi >= bj:
                self.tiles[(bi, bj)][:] = tile.to_dense()

    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Execute one Cholesky task on the tile storage."""
        if task.type == TaskType.GETRF:
            dense_potrf(self.tiles[(task.k, task.k)])
        elif task.type == TaskType.TSTRF:
            diag = self.tiles[(task.k, task.k)]
            # X·L(k,k)ᵀ = A(i,k): Lᵀ is upper triangular
            trsm_upper(np.tril(diag).T, self.tiles[(task.i, task.k)])
        else:
            li = self.tiles[(task.i, task.k)]
            lj = self.tiles[(task.j, task.k)]
            gemm_update(self.tiles[(task.i, task.j)], li, lj.T)
            if task.i == task.j:
                # symmetric diagonal update computed fully; keep symmetry
                pass
        return KernelStats(flops=task.flops_est, bytes=task.bytes_est)

    def extract_l(self) -> CSRMatrix:
        """Assemble the global lower factor L (diagonal stored)."""
        n = self.part.n
        bounds = self.part.boundaries
        ri, ci, vi = [], [], []
        for (bi, bj), tile in self.tiles.items():
            use = np.tril(tile) if bi == bj else tile
            rr, cc = np.nonzero(use)
            ri.append(rr + int(bounds[bi]))
            ci.append(cc + int(bounds[bj]))
            vi.append(use[rr, cc])
        return COOMatrix(
            (n, n), np.concatenate(ri), np.concatenate(ci),
            np.concatenate(vi),
        ).to_csr()


@dataclass
class CholeskyResult:
    """Outcome of a Cholesky factorisation run."""

    L: CSRMatrix
    perm: np.ndarray
    schedule: ScheduleResult
    dag: TaskDAG
    phase_seconds: dict[str, float]

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` via ``L Lᵀ``."""
        b = np.asarray(b, dtype=np.float64)
        pb = b[self.perm]
        y = triangular_solve(self.L, pb, lower=True)
        lt = self.L.transpose()
        z = triangular_solve(lt, y, lower=False)
        x = np.empty_like(z)
        x[self.perm] = z
        return x


class CholeskySolver:
    """Tiled sparse Cholesky under any Trojan Horse scheduler.

    Parameters
    ----------
    a:
        Symmetric positive-definite matrix (symmetry is checked).
    block_size:
        Uniform tile size.
    ordering, gpu, scheduler:
        As for the LU substrates.
    """

    def __init__(self, a: CSRMatrix, block_size: int = 32,
                 ordering: str = "mindeg", gpu: GPUSpec = RTX5090,
                 scheduler: str = "serial"):
        d = a.to_dense()
        if not np.allclose(d, d.T):
            raise ValueError("Cholesky requires a symmetric matrix")
        self.a = a
        self.block_size = block_size
        self.ordering = ordering
        self.gpu = gpu
        self.scheduler = scheduler
        self.result: CholeskyResult | None = None

    def factorize(self) -> CholeskyResult:
        """Run reorder → symbolic → scheduled numeric LLᵀ."""
        t0 = time.perf_counter()
        perm = compute_ordering(self.a, self.ordering)
        permuted = permute_symmetric(self.a, perm)
        t1 = time.perf_counter()
        part = uniform_partition(permuted.nrows, self.block_size)
        engine = CholeskyEngine(permuted, part)
        t2 = time.perf_counter()
        model = GPUCostModel(self.gpu)
        schedule = make_scheduler(self.scheduler, engine.dag, engine,
                                  model).run()
        L = engine.extract_l()
        t3 = time.perf_counter()
        self.result = CholeskyResult(
            L=L, perm=perm, schedule=schedule, dag=engine.dag,
            phase_seconds={"reorder": t1 - t0, "symbolic": t2 - t1,
                           "numeric": t3 - t2},
        )
        return self.result

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (factorises on first use)."""
        if self.result is None:
            self.factorize()
        return self.result.solve(b)
