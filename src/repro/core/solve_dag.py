"""The triangular-solve (SpTRSV) task DAG — Trojan-Horsing the solve phase.

The factorisation DAG batches GETRF/TSTRF/GEESM/SSSSM; this module gives
the *solve* phase the same treatment.  For a blocked triangular factor
``T`` and a block of right-hand sides ``Y`` (solved in place), the tasks
are:

* ``SPTRSV_DIAG(i)`` — solve RHS block ``i`` against diagonal tile
  ``T(i, i)``;
* ``SPTRSV_UPDATE(i ← k)`` — accumulate ``Y_i −= T(i, k) · Y_k``.

Dependencies:

* ``SPTRSV_UPDATE(i ← k)`` ⇐ ``SPTRSV_DIAG(k)`` (the source block must
  be solved);
* updates into one destination block form a **canonical accumulation
  chain** — ascending source order for a lower solve, descending for an
  upper solve — so the accumulation order of each RHS block is fixed by
  the DAG, not by the schedule;
* ``SPTRSV_DIAG(i)`` ⇐ the last update of block ``i``'s chain.

The chains are the static analogue of the factorisation's atomic-SSSSM
serial-apply rule: where same-target Schur updates may co-batch and
apply in batch order, same-destination RHS updates are *serialised by
construction*, which is what makes every schedule — serial, level-set,
trojan, batched or per-task — produce bit-identical solutions.  It also
means two updates of one RHS block can never legally share a batch, so
the verifier's plain write-write hazard check applies unchanged.

Task encoding: both task types write RHS block ``i``, encoded as tile
``(i, i)`` so the existing write-tile machinery (verifier, executor
conflict scan) works without change; ``k`` is the source block
(``k == i`` for DIAG); ``cols`` is the RHS count, giving the paper's
one-CUDA-block-per-column footprint for multi-RHS batching.
"""

from __future__ import annotations

import numpy as np

from repro.core.baselines import make_scheduler
from repro.core.arena import ScheduleArena
from repro.core.dag import TaskDAG
from repro.core.executor import (
    BatchRecord,
    EstimateBackend,
    ExecutionBackend,
    Executor,
)
from repro.core.scheduler import (
    PER_TASK_SCHED_US,
    ScheduleResult,
    empty_schedule_result,
)
from repro.core.task import Task, TaskType
from repro.gpusim.costmodel import GPUCostModel
from repro.kernels.flops import gemm_flops_dense, trsm_flops_dense
from repro.sparse.blocking import Partition


def solve_sources(pattern: np.ndarray, dest: int, lower: bool) -> list[int]:
    """Canonical-order source blocks updating ``dest`` (the chain order).

    Ascending for a lower solve, descending for an upper solve — the
    natural sweep direction, and the order the per-column oracle and
    every DAG schedule share.
    """
    if lower:
        return [int(s) for s in np.flatnonzero(pattern[dest, :dest])]
    srcs = np.flatnonzero(pattern[dest, dest + 1:]) + dest + 1
    return [int(s) for s in srcs[::-1]]


def build_solve_dag(
    pattern: np.ndarray,
    part: Partition,
    nrhs: int = 1,
    lower: bool = True,
    tile_nnz: dict[tuple[int, int], int] | None = None,
    sparse_tiles: bool = False,
) -> TaskDAG:
    """Construct the SpTRSV task DAG for one triangular factor.

    Parameters
    ----------
    pattern:
        Boolean ``nb × nb`` block pattern of the triangular factor
        (entries on the wrong side of the diagonal are ignored; the
        diagonal is always treated as present — a solve needs every
        diagonal tile).
    part:
        The tile partition.
    nrhs:
        Number of right-hand-side columns solved together (the multi-RHS
        width every task operates on).
    lower:
        Forward (lower) vs backward (upper) substitution.
    tile_nnz:
        Structural nonzeros per factor tile for sparse flop estimates;
        ``None`` treats tiles as dense.
    sparse_tiles:
        Mark tasks for sparse kernel accounting.
    """
    nb = part.nblocks
    pattern = np.asarray(pattern, dtype=bool)
    if pattern.shape != (nb, nb):
        raise ValueError("block pattern does not match partition")
    if nrhs < 1:
        raise ValueError("nrhs must be >= 1")
    sizes = part.sizes()

    def nnz_of(i: int, j: int) -> int:
        full = int(sizes[i]) * int(sizes[j])
        if tile_nnz is None:
            return full
        return min(full, int(tile_nnz.get((i, j), full)))

    tasks: list[Task] = []

    def add(task_type: TaskType, k: int, i: int) -> int:
        tid = len(tasks)
        m = int(sizes[i])
        mk = int(sizes[k])
        rhs_words = m * nrhs
        if task_type == TaskType.SPTRSV_DIAG:
            diag_nnz = nnz_of(i, i)
            if sparse_tiles:
                flops = max(nrhs, 2 * nrhs * diag_nnz // max(1, m))
            else:
                flops = trsm_flops_dense(m, nrhs)
            nbytes = 8 * (diag_nnz + 2 * rhs_words)
        else:  # SPTRSV_UPDATE: Y_i -= T(i,k) @ Y_k
            t_nnz = nnz_of(i, k)
            if sparse_tiles:
                flops = max(nrhs, 2 * t_nnz * nrhs)
            else:
                flops = gemm_flops_dense(m, mk, nrhs)
            nbytes = 8 * (t_nnz + mk * nrhs + 2 * rhs_words)
        tasks.append(Task(
            tid=tid, type=task_type, k=k, i=i, j=i,
            rows=m, cols=nrhs, nnz=rhs_words, sparse=sparse_tiles,
            flops_est=int(flops), bytes_est=int(nbytes),
        ))
        return tid

    diag_id = {i: add(TaskType.SPTRSV_DIAG, i, i) for i in range(nb)}

    n_updates = 0
    chains: list[tuple[int, list[int]]] = []
    for dest in range(nb):
        srcs = solve_sources(pattern, dest, lower)
        chains.append((dest, srcs))
        n_updates += len(srcs)

    successors: list[list[int]] = [[] for _ in range(nb + n_updates)]

    def edge(a: int, b: int) -> None:
        successors[a].append(b)

    for dest, srcs in chains:
        prev = None
        for src in srcs:
            tid = add(TaskType.SPTRSV_UPDATE, src, dest)
            edge(diag_id[src], tid)
            if prev is not None:
                edge(prev, tid)  # canonical accumulation chain
            prev = tid
        if prev is not None:
            edge(prev, diag_id[dest])
    return TaskDAG.from_tasks(tasks, successors, part)


class LevelSetScheduler:
    """Level-set SpTRSV baseline: level-synchronous *per-task* launches.

    The classic GPU SpTRSV strategy (Böhnlein et al. in PAPERS.md):
    compute the level sets of the dependency DAG, then run level by
    level with one kernel per task and a barrier between levels.  This
    is the per-task counterpart of :class:`LevelBatchScheduler` (which
    batches within a level) and the baseline the solve-phase benches
    compare trojan-batched execution against.
    """

    name = "levelset"

    def __init__(self, dag: TaskDAG, backend: ExecutionBackend,
                 model: GPUCostModel):
        self._dag = dag
        self._backend = backend
        self._model = model

    def run(self) -> ScheduleResult:
        """Execute the DAG level by level, one launch per task."""
        dag = self._dag
        if dag.n_tasks == 0:
            return empty_schedule_result(self.name, self._model.gpu.name, dag)
        arena = ScheduleArena(dag)
        execu = Executor(self._model, self._backend)
        batches: list[BatchRecord] = []
        one = np.empty(1, dtype=np.int64)
        t = 0.0
        for level in dag.level_schedule():
            for tid in level:
                one[0] = tid
                record = execu.run_batch_ids(one, t, arena)
                t = record.t_end
                batches.append(record)
        sched = (PER_TASK_SCHED_US * dag.n_tasks) * 1e-6
        return ScheduleResult(
            scheduler=self.name,
            device=self._model.gpu.name,
            batches=batches,
            kernel_count=len(batches),
            task_count=dag.n_tasks,
            kernel_time=t,
            sched_overhead=sched,
            total_flops=sum(b.flops for b in batches),
            counts_by_type=dag.counts_by_type(),
        )


SOLVE_SCHEDULER_NAMES = ("levelset", "serial", "levelbatch", "trojan")
"""Scheduling policies accepted for the solve DAG."""


def make_solve_scheduler(name: str, dag: TaskDAG,
                         backend: ExecutionBackend,
                         model: GPUCostModel, **kwargs):
    """Factory over the solve-phase scheduling policies.

    ``levelset`` is the solve-specific baseline; every factorisation
    scheduler (serial/levelbatch/trojan) is generic over any
    :class:`TaskDAG` and works on the solve DAG unchanged.
    """
    if name == "levelset":
        return LevelSetScheduler(dag, backend, model)
    return make_scheduler(name, dag, backend, model, **kwargs)


def compare_solve_schedulers(dag: TaskDAG, gpu,
                             schedulers=("levelset", "levelbatch", "trojan"),
                             ) -> dict:
    """Trojan-vs-level-set comparison on one solve DAG under ``gpusim``.

    Runs each policy against the structural-estimate backend and the
    given GPU's cost model; returns DAG depth (level count), per-policy
    kernel counts, mean batch sizes and simulated makespans.
    """
    model = GPUCostModel(gpu)
    out = {
        "tasks": dag.n_tasks,
        "depth": len(dag.level_schedule()),
        "schedulers": {},
    }
    for name in schedulers:
        r = make_solve_scheduler(name, dag, EstimateBackend(), model).run()
        out["schedulers"][name] = {
            "kernels": r.kernel_count,
            "mean_batch": round(r.mean_batch_size, 2),
            "makespan_ms": r.total_time * 1e3,
        }
    return out
