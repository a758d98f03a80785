"""Batch-stage Module 2: the Executor (paper §3.4, Figure 7).

Executes a heterogeneous batch as a single simulated kernel launch.  The
block→task mapping array of the paper is built verbatim: element ``t``
holds the starting CUDA-block index of task ``t``, and a CUDA block finds
its task by binary search — :class:`BlockTaskMapping` reproduces and tests
that lookup.

Numeric execution is delegated to an :class:`ExecutionBackend` so the same
Executor drives both real tile arithmetic (the solver engines) and
replay-mode scheduling studies (recorded per-task stats, no numerics).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.task import Task, TaskType
from repro.gpusim.costmodel import GPUCostModel, KernelLaunch
from repro.kernels.tilekernels import ColumnarStats, KernelStats
from repro.verify.hazards import batch_atomic_flags


class ExecutionBackend(Protocol):
    """Anything that can run one task and report its exact work."""

    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Execute (or account) one task; ``atomic`` marks an in-batch
        write conflict on the task's target tile."""
        ...


class ReplayBackend:
    """Backend that replays stats recorded by a previous numeric run.

    Enables cheap scheduling studies: factorise once numerically, then
    simulate every scheduler/GPU combination against the recorded exact
    per-task work.
    """

    def __init__(self, stats: Mapping[int, KernelStats]):
        self._stats = stats
        self._flops_arr = np.empty(0, dtype=np.int64)
        self._bytes_arr = np.empty(0, dtype=np.int64)
        self._have = np.empty(0, dtype=bool)
        # sorted-by-tid snapshot of the stats dict, built on first use
        self._tids_sorted: np.ndarray | None = None
        self._flops_by_tid: np.ndarray | None = None
        self._bytes_by_tid: np.ndarray | None = None
        self.rebuilds = 0

    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Return the recorded stats for this task id."""
        return self._stats[task.tid]

    def _ensure_arrays(self, n: int) -> None:
        """Grow the tid-indexed gather arrays to cover ``n`` tasks.

        Growth is incremental: the existing prefix is copied and only the
        stats with tids in the new ``[old, n)`` range are scattered in
        (vectorized via a one-time sorted snapshot of the stats — a
        direct row gather for :class:`ColumnarStats`), so
        several engines of different DAG sizes sharing one backend cost
        one small extension each instead of a full O(S) Python rebuild
        per size change.  ``rebuilds`` counts the extensions.
        """
        if self._flops_arr.size >= n:
            return
        if self._tids_sorted is None:
            stats = self._stats
            if isinstance(stats, ColumnarStats):
                # already tid-indexed: gather the recorded rows
                tids = stats.tids()
                self._tids_sorted = tids
                self._flops_by_tid = stats.flops[tids]
                self._bytes_by_tid = stats.bytes[tids]
            else:
                count = len(stats)
                tids = np.fromiter(stats.keys(), dtype=np.int64,
                                   count=count)
                order = np.argsort(tids)
                self._tids_sorted = tids[order]
                self._flops_by_tid = np.fromiter(
                    (s.flops for s in stats.values()), dtype=np.int64,
                    count=count)[order]
                self._bytes_by_tid = np.fromiter(
                    (s.bytes for s in stats.values()), dtype=np.int64,
                    count=count)[order]
        old = self._flops_arr.size
        flops = np.zeros(n, dtype=np.int64)
        nbytes = np.zeros(n, dtype=np.int64)
        have = np.zeros(n, dtype=bool)
        flops[:old] = self._flops_arr
        nbytes[:old] = self._bytes_arr
        have[:old] = self._have
        lo = int(np.searchsorted(self._tids_sorted, old))
        hi = int(np.searchsorted(self._tids_sorted, n))
        fresh = self._tids_sorted[lo:hi]
        flops[fresh] = self._flops_by_tid[lo:hi]
        nbytes[fresh] = self._bytes_by_tid[lo:hi]
        have[fresh] = True
        self._flops_arr = flops
        self._bytes_arr = nbytes
        self._have = have
        self.rebuilds += 1

    def stat_arrays(self, n: int) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
        """tid-indexed ``(flops, bytes, recorded)`` views over ``n`` tasks.

        The distsim arena engine uses these to precompute every
        single-task launch time in one vectorized pass; the ``recorded``
        mask lets it replicate :meth:`run_task`'s ``KeyError`` for tasks
        with no recorded stats.
        """
        self._ensure_arrays(n)
        return self._flops_arr[:n], self._bytes_arr[:n], self._have[:n]

    def batch_stats(self, tids: np.ndarray, atomic: np.ndarray,
                    arrays) -> tuple[int, int]:
        """Vectorized batch totals: one gather-sum over the stat arrays.

        Raises ``KeyError`` like :meth:`run_task` if a requested task has
        no recorded stats.
        """
        self._ensure_arrays(arrays.nnz.size)
        if not self._have[tids].all():
            missing = int(tids[~self._have[tids]][0])
            raise KeyError(missing)
        return (int(self._flops_arr[tids].sum()),
                int(self._bytes_arr[tids].sum()))


class EstimateBackend:
    """Backend that uses the structural estimates attached to each task.

    Used before any numeric run exists (e.g. pure scheduling analyses) —
    estimates come from the symbolic fill, so they are structure-exact for
    dense tiles and slightly conservative for sparse ones.
    """

    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Return the task's structural estimate as its stats."""
        extra = task.nnz * 8 if atomic else 0
        return KernelStats(flops=task.flops_est, bytes=task.bytes_est + extra)

    def batch_stats(self, tids: np.ndarray, atomic: np.ndarray,
                    arrays) -> tuple[int, int]:
        """Vectorized batch totals over the structural-estimate columns."""
        flops = int(arrays.flops_est[tids].sum())
        nbytes = int(arrays.bytes_est[tids].sum()
                     + 8 * arrays.nnz[tids[atomic]].sum())
        return flops, nbytes


@dataclass(frozen=True)
class BlockTaskMapping:
    """The paper's CUDA-block→task mapping array.

    ``starts[t]`` is the first CUDA block of task ``t``; block ``b``
    executes the task returned by :meth:`task_of_block` — a binary search,
    exactly as in the real kernel.
    """

    starts: np.ndarray
    total_blocks: int

    @classmethod
    def build(cls, tasks: list[Task]) -> "BlockTaskMapping":
        """Lay the batch's tasks out over consecutive CUDA blocks."""
        blocks = np.fromiter((t.cuda_blocks for t in tasks),
                             dtype=np.int64, count=len(tasks))
        return cls.from_blocks(blocks)

    @classmethod
    def from_blocks(cls, blocks: np.ndarray) -> "BlockTaskMapping":
        """Build the mapping from a per-task CUDA-block array (exclusive
        prefix sum — the vectorized layout)."""
        starts = np.zeros(len(blocks), dtype=np.int64)
        np.cumsum(blocks[:-1], out=starts[1:])
        return cls(starts=starts, total_blocks=int(blocks.sum()))

    def task_of_block(self, block_id: int) -> int:
        """Which task (index within the batch) does CUDA block ``block_id``
        belong to?"""
        if not 0 <= block_id < self.total_blocks:
            raise IndexError("CUDA block id outside the batch")
        return int(np.searchsorted(self.starts, block_id, side="right") - 1)


@dataclass
class BatchRecord:
    """Execution record of one batched kernel launch."""

    t_start: float
    t_end: float
    task_ids: list[int]
    n_tasks: int
    cuda_blocks: int
    flops: int
    bytes: int
    types: dict[str, int]

    @property
    def duration(self) -> float:
        """Seconds spent in this launch (overhead included)."""
        return self.t_end - self.t_start

    @property
    def gflops(self) -> float:
        """Achieved throughput of the launch."""
        return self.flops / self.duration / 1e9 if self.duration > 0 else 0.0


class Executor:
    """Runs batches through a backend and the GPU cost model."""

    def __init__(self, model: GPUCostModel, backend: ExecutionBackend):
        self._model = model
        self._backend = backend
        # reusable hazard-flag scratch, grown as needed so the hot
        # run_batch_ids path never allocates a fresh flag array per launch
        self._atomic_scratch = np.zeros(0, dtype=bool)

    def _atomic_out(self, n: int) -> np.ndarray:
        """The scratch flag buffer, grown to cover ``n`` batch members."""
        if self._atomic_scratch.size < n:
            self._atomic_scratch = np.zeros(max(n, 64), dtype=bool)
        return self._atomic_scratch

    def run_batch(self, tasks: list[Task], t_start: float) -> BatchRecord:
        """Execute ``tasks`` as one kernel starting at ``t_start``.

        SSSSM tasks sharing a target tile within the batch are flagged
        atomic (write-conflict accounting), via the shared hazard kernel
        the static verifier also uses (:mod:`repro.verify.hazards`).
        Returns the batch record with simulated start/end times.
        """
        if not tasks:
            raise ValueError("cannot launch an empty batch")
        # lazy import: repro.verify.effects imports TaskType, which
        # re-enters repro.core while it is still mid-import if
        # repro.verify loads first
        from repro.verify.effects import ATOMIC_TASK_TYPES
        # in-batch write conflicts among Schur updates: encode SSSSM
        # targets as flat tile ids (-1 = no atomic-capable target)
        n = len(tasks)
        max_j = max(t.j for t in tasks) + 1
        target = np.fromiter(
            (t.i * max_j + t.j if t.type in ATOMIC_TASK_TYPES else -1
             for t in tasks),
            dtype=np.int64, count=n)
        atomic_flags = batch_atomic_flags(target, out=self._atomic_out(n))
        mapping = BlockTaskMapping.build(tasks)
        launch = KernelLaunch()
        types = {t.name: 0 for t in TaskType}
        for idx, task in enumerate(tasks):
            stats = self._backend.run_task(task, bool(atomic_flags[idx]))
            launch.add_task(task.cuda_blocks, stats.flops, stats.bytes,
                            task.shared_mem_bytes)
            types[task.type.name] += 1
        t_end = t_start + self._model.launch_time(launch)
        return BatchRecord(
            t_start=t_start,
            t_end=t_end,
            task_ids=[t.tid for t in tasks],
            n_tasks=len(tasks),
            cuda_blocks=mapping.total_blocks,
            flops=launch.flops,
            bytes=launch.bytes,
            types=types,
        )

    def run_batch_ids(self, tids: np.ndarray, t_start: float,
                      arena) -> BatchRecord:
        """Vectorized :meth:`run_batch` over task *ids* and a
        :class:`~repro.core.arena.ScheduleArena`.

        Write-conflict detection, resource totals and the block→task
        layout all come from array operations.  Backends exposing
        ``batch_stats`` (replay/estimate) avoid the per-task call
        entirely; backends exposing ``run_batch_tasks`` (the numeric
        engine) execute the launch as batched kernel groups with the
        identical atomic flags; anything else falls back to one
        ``run_task`` call per task.
        """
        if not len(tids):
            raise ValueError("cannot launch an empty batch")
        tids = np.asarray(tids, dtype=np.int64)
        arrays = arena.arrays
        # in-batch write conflicts among Schur updates on one target tile
        # (shared hazard kernel; allocation-free via the scratch buffer)
        atomic = batch_atomic_flags(arrays.target[tids],
                                    out=self._atomic_out(tids.size))
        if hasattr(self._backend, "batch_stats"):
            flops, nbytes = self._backend.batch_stats(tids, atomic, arrays)
        elif hasattr(self._backend, "run_batch_tasks"):
            flops, nbytes = self._backend.run_batch_tasks(tids, atomic,
                                                          arrays)
        else:
            flops = 0
            nbytes = 0
            tasks = arena.dag.tasks
            for idx in range(tids.size):
                stats = self._backend.run_task(
                    tasks[int(tids[idx])], bool(atomic[idx])
                )
                flops += stats.flops
                nbytes += stats.bytes
        launch = KernelLaunch(
            cuda_blocks=int(arrays.cuda_blocks[tids].sum()),
            flops=int(flops),
            bytes=int(nbytes),
            shared_mem_bytes=int(arrays.shared_mem[tids].sum()),
            n_tasks=int(tids.size),
        )
        type_counts = np.bincount(arrays.type_code[tids],
                                  minlength=len(TaskType))
        t_end = t_start + self._model.launch_time(launch)
        return BatchRecord(
            t_start=t_start,
            t_end=t_end,
            task_ids=[int(t) for t in tids],
            n_tasks=int(tids.size),
            cuda_blocks=launch.cuda_blocks,
            flops=launch.flops,
            bytes=launch.bytes,
            types={t.name: int(type_counts[int(t)]) for t in TaskType},
        )


@dataclass(frozen=True)
class BatchPlan:
    """A scheduler's emitted batch sequence, detached from execution.

    The picklable dispatch artifact of the multiprocess executor: batch
    composition is deterministic and backend-independent (Collector
    admission reads only the static resource columns, Prioritizer
    ranking only ``cp``/``distance``), so a plan recorded against
    :class:`EstimateBackend` replays bit-identically on the numeric
    engine — in one process or many.
    """

    scheduler: str
    device: str
    batches: list[np.ndarray]
    n_tasks: int


def record_batch_plan(dag, model: GPUCostModel, scheduler: str = "trojan",
                      solve: bool = False, **sched_kwargs) -> BatchPlan:
    """Dry-run ``scheduler`` over ``dag`` and record its batch sequence.

    Runs the full Prioritizer → Collector → Executor pipeline against
    :class:`EstimateBackend` (no numerics touched) and returns the
    emitted batches as int64 task-id arrays in launch order.  ``solve``
    selects the solve-phase scheduler factory.
    """
    # lazy imports: the scheduler factories import this module
    if solve:
        from repro.core.solve_dag import make_solve_scheduler
        sched = make_solve_scheduler(scheduler, dag, EstimateBackend(),
                                     model, **sched_kwargs)
    else:
        from repro.core.baselines import make_scheduler
        sched = make_scheduler(scheduler, dag, EstimateBackend(),
                               model, **sched_kwargs)
    result = sched.run()
    batches = [np.asarray(b.task_ids, dtype=np.int64)
               for b in result.batches]
    return BatchPlan(
        scheduler=scheduler, device=result.device, batches=batches,
        n_tasks=int(sum(b.size for b in batches)),
    )
