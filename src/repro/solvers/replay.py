"""Launch replay: the refactorisation fast path's numeric phase.

A same-pattern refactorisation sees the same task DAG, and batch
composition is backend-independent (Collector admission reads only the
static resource columns, Prioritizer ranking only ``cp``/``distance``),
so every scheduler whose launches run back to back would emit exactly
the launch sequence the previous run recorded.  :class:`LaunchReplay`
re-executes that sequence on re-stamped tiles instead: no Prioritizer,
Collector, Container or ``ScheduleArena``, and each launch's kernel-group
index work (:class:`~repro.solvers.engine.LaunchPlan`) is planned once
and reused on every later step.  The simulated timeline is rebuilt from
the fresh per-launch work with the same cost model, so the returned
:class:`~repro.core.scheduler.ScheduleResult` equals a fresh scheduler
run's field for field.
"""

from __future__ import annotations

import numpy as np

from repro.core.dag import TaskDAG
from repro.core.executor import BatchRecord
from repro.core.scheduler import ScheduleResult
from repro.gpusim.costmodel import GPUCostModel, KernelLaunch
from repro.kernels.tilekernels import ColumnarStats
from repro.solvers.engine import NumericBackend
from repro.verify.hazards import batch_atomic_flags

#: Schedulers whose launches run back to back, so that a launch's
#: simulated start is the previous launch's end: their timeline can be
#: rebuilt launch by launch.  ``streams`` overlaps launches across
#: streams and keeps re-running its scheduler.
REPLAY_SCHEDULERS = frozenset({"serial", "levelbatch", "trojan"})


class LaunchReplay:
    """A recorded launch sequence, re-executable on new tile values.

    Parameters
    ----------
    schedule:
        The scheduler run to replay (a :class:`ScheduleResult` of one of
        :data:`REPLAY_SCHEDULERS` over ``sched_dag``).
    sched_dag, sched_backend:
        The DAG and backend that run was scheduled with — the engine's
        DAG and a :class:`~repro.solvers.engine.NumericBackend`, or the
        fused DAG and a :class:`~repro.core.fusion.FusedBackend`.
    backend:
        The :class:`~repro.solvers.engine.NumericBackend` recording the
        stats (``sched_backend`` itself or the one it wraps).

    Each launch runs through the backend entry the Executor used for
    it: a cached :class:`~repro.solvers.engine.LaunchPlan` when the
    backend executes launches as batched kernel groups, otherwise one
    ``run_task`` call per (fused) task.  Plans are built lazily, on the
    launch's first replay.
    """

    def __init__(self, schedule: ScheduleResult, sched_dag: TaskDAG,
                 sched_backend, backend: NumericBackend):
        arrays = sched_dag.task_arrays()
        self._dag = sched_dag
        self._sched_backend = sched_backend
        self._backend = backend
        self._template = schedule
        self._tids = [np.asarray(b.task_ids, dtype=np.int64)
                      for b in schedule.batches]
        if sum(t.size for t in self._tids) != sched_dag.n_tasks:
            raise ValueError("schedule does not cover the DAG's tasks")
        self._atomic = [batch_atomic_flags(arrays.target[t])
                        for t in self._tids]
        self._shared_mem = [int(arrays.shared_mem[t].sum())
                            for t in self._tids]
        self._plans: list = [None] * len(self._tids)

    def run(self, model: GPUCostModel
            ) -> tuple[ScheduleResult, ColumnarStats]:
        """Execute every launch in recorded order on the engine's
        current tiles; returns the rebuilt schedule and fresh stats."""
        backend = self._backend
        backend.reset()
        sched_backend = self._sched_backend
        batched = hasattr(sched_backend, "run_batch_tasks")
        arrays = self._dag.task_arrays()
        plans = self._plans
        template = self._template
        records: list[BatchRecord] = []
        t = 0.0
        for n, rec in enumerate(template.batches):
            tids = self._tids[n]
            atomic = self._atomic[n]
            if batched:
                plan = plans[n]
                if plan is None:
                    plan = plans[n] = backend.plan_batch(tids, atomic, arrays)
                flops, nbytes = backend.run_plan(plan)
            else:
                flops = nbytes = 0
                tasks = self._dag.tasks
                for idx, tid in enumerate(tids.tolist()):
                    s = sched_backend.run_task(tasks[tid], bool(atomic[idx]))
                    flops += s.flops
                    nbytes += s.bytes
            launch = KernelLaunch(
                cuda_blocks=rec.cuda_blocks, flops=int(flops),
                bytes=int(nbytes), shared_mem_bytes=self._shared_mem[n],
                n_tasks=rec.n_tasks,
            )
            t_end = t + model.launch_time(launch)
            records.append(BatchRecord(
                t_start=t, t_end=t_end, task_ids=tids.tolist(),
                n_tasks=rec.n_tasks, cuda_blocks=rec.cuda_blocks,
                flops=launch.flops, bytes=launch.bytes,
                types=dict(rec.types),
            ))
            t = t_end
        schedule = ScheduleResult(
            scheduler=template.scheduler,
            device=model.gpu.name,
            batches=records,
            kernel_count=len(records),
            task_count=template.task_count,
            kernel_time=t,
            sched_overhead=template.sched_overhead,
            total_flops=sum(b.flops for b in records),
            counts_by_type=dict(template.counts_by_type),
        )
        return schedule, backend.stats
