"""Property-based scheduler tests over random DAGs (hypothesis).

The four invariants every scheduling policy must uphold, checked on
randomly generated task DAGs (random precedence edges, random task
types, sizes and resource footprints):

1. every task executes exactly once;
2. no task starts before all of its predecessors' batches complete;
3. the Collector never exceeds the GPU's CUDA-block or shared-memory
   budget for multi-task batches (a single oversized task is allowed to
   occupy a launch alone);
4. ``task_count == sum(len(b.task_ids) for b in batches)``.

Also pins the empty-DAG no-op: scheduling zero tasks is zero batches in
zero time for every policy, not a stall assertion.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import SCHEDULER_NAMES, TaskDAG, make_scheduler
from repro.core.executor import EstimateBackend
from repro.core.staticanalysis import validate_schedule
from repro.core.task import Task, TaskType
from repro.gpusim import GPUCostModel, RTX5090
from repro.sparse import uniform_partition

NB = 8  # tile grid used for synthetic coordinates


def _random_dag(n_tasks: int, edge_prob: float, seed: int) -> TaskDAG:
    """A random DAG: edges only low→high tid, so always acyclic."""
    rng = np.random.default_rng(seed)
    tasks = []
    for tid in range(n_tasks):
        ttype = TaskType(int(rng.integers(0, 4)))
        k = int(rng.integers(0, NB))
        if ttype == TaskType.GETRF:
            i = j = k
        elif ttype == TaskType.TSTRF:
            i, j = int(rng.integers(0, NB)), k
        elif ttype == TaskType.GEESM:
            i, j = k, int(rng.integers(0, NB))
        else:
            i, j = int(rng.integers(0, NB)), int(rng.integers(0, NB))
        rows = int(rng.integers(1, 48))
        cols = int(rng.integers(1, 48))
        nnz = rows * cols
        tasks.append(Task(
            tid=tid, type=ttype, k=k, i=i, j=j,
            rows=rows, cols=cols, nnz=nnz,
            flops_est=int(rng.integers(1, 10_000)),
            bytes_est=int(rng.integers(8, 100_000)),
        ))
    successors = [[] for _ in range(n_tasks)]
    for u in range(n_tasks):
        for v in range(u + 1, n_tasks):
            if rng.random() < edge_prob:
                successors[u].append(v)
    return TaskDAG.from_tasks(tasks, successors,
                              uniform_partition(NB * 16, 16))


dag_params = st.tuples(
    st.integers(min_value=1, max_value=40),       # n_tasks
    st.floats(min_value=0.0, max_value=0.5),      # edge probability
    st.integers(min_value=0, max_value=2**31 - 1) # rng seed
)


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
@settings(max_examples=25, deadline=None)
@given(params=dag_params)
def test_scheduler_invariants(name, params):
    n_tasks, edge_prob, seed = params
    dag = _random_dag(n_tasks, edge_prob, seed)
    dag.validate()
    gpu = RTX5090
    result = make_scheduler(
        name, dag, EstimateBackend(), GPUCostModel(gpu)
    ).run()

    # (1) + (2): exactly-once execution, precedence respected.  Tile
    # hazard checks are off: these DAGs carry random tile coordinates
    # with random edges, so tile overlap does not imply a dependency.
    validate_schedule(dag, result.batches, hazards=False)

    # (4): the accounting matches the batches
    assert result.task_count == dag.n_tasks
    assert result.task_count == sum(len(b.task_ids) for b in result.batches)
    assert result.kernel_count == len(result.batches)

    # (3): GPU budgets for every multi-task batch
    arrays = dag.task_arrays()
    for b in result.batches:
        tids = np.asarray(b.task_ids, dtype=np.int64)
        assert b.cuda_blocks == int(arrays.cuda_blocks[tids].sum())
        if len(b.task_ids) > 1:
            assert b.cuda_blocks <= gpu.max_resident_blocks, \
                "multi-task batch exceeds the CUDA-block budget"
            assert int(arrays.shared_mem[tids].sum()) \
                <= gpu.shared_mem_total_bytes, \
                "multi-task batch exceeds the shared-memory budget"

    # time axis is sane
    assert result.kernel_time >= 0.0
    assert result.sched_overhead >= 0.0
    assert all(b.t_end >= b.t_start for b in result.batches)


@given(params=dag_params)
@settings(max_examples=10, deadline=None)
def test_trojan_respects_max_batch_tasks(params):
    n_tasks, edge_prob, seed = params
    dag = _random_dag(n_tasks, edge_prob, seed)
    result = make_scheduler(
        "trojan", dag, EstimateBackend(), GPUCostModel(RTX5090),
        max_batch_tasks=3,
    ).run()
    validate_schedule(dag, result.batches, hazards=False)
    assert max(len(b.task_ids) for b in result.batches) <= 3


@pytest.mark.parametrize("name", SCHEDULER_NAMES)
def test_empty_dag_is_noop(name):
    dag = TaskDAG.from_tasks([], [], uniform_partition(NB * 16, 16))
    result = make_scheduler(
        name, dag, EstimateBackend(), GPUCostModel(RTX5090)
    ).run()
    assert result.batches == []
    assert result.kernel_count == 0
    assert result.task_count == 0
    assert result.kernel_time == 0.0
    assert result.sched_overhead == 0.0
    assert result.total_time == 0.0
    assert result.total_flops == 0
    assert result.gflops == 0.0
    assert result.mean_batch_size == 0.0
