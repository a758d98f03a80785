"""Per-layer timing of the solver pipeline, from outside the program.

The traced runs call each layer's public functions in the order
``BlockSolverBase.factorize`` / ``refactorize`` calls them and time every
call with ``perf_counter``.  Nothing inside ``repro`` is instrumented: the
spans live here, around the calls.  The split is exact, not a model:
:func:`traced_factorize` returns the same L/U bits as ``factorize()``,
which the workloads check on every traced item.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from common import check_hygiene, check_solution, shm_segments
from repro.core.analysis_cache import AnalysisCache
from repro.core.baselines import make_scheduler
from repro.core.executor import record_batch_plan
from repro.core.fusion import FusedBackend, merge_schur_tasks
from repro.core.dag import build_block_dag
from repro.gpusim.costmodel import GPUCostModel
from repro.gpusim.specs import RTX5090
from repro.ordering import compute_ordering
from repro.parallel import ParallelExecutor, WorkerCrashError
from repro.solvers import FactorizationResult, NumericBackend, NumericEngine
from repro.sparse import permute_symmetric
from repro.sparse.blocking import split_tiles, uniform_partition
from repro.symbolic import block_fill, find_supernodes, symbolic_fill
from repro.verify.plan import PlanSpec, verify_plan
from repro.verify.schedule import verify_schedule

#: Share of a traced cold item's wall time the layer spans must cover.
MIN_COVERAGE = 0.95

#: The configuration every workload factorises with: the trojan
#: scheduler, mindeg ordering, and the ``SuperLUSolver`` defaults.
SCHEDULER = "trojan"
ORDERING = "mindeg"
MAX_SUPERNODE = 32
RELAX = 1

#: Layer spans of one pipeline item, in pipeline order.  Their sum plus
#: ``other_s`` is the item's wall time.
SPANS = (
    "ordering.busy_s",
    "symbolic.busy_s",
    "core.dag.build_s",
    "core.dag.arrays_s",
    "solvers.restamp_s",
    "core.scheduler.self_s",
    "kernels.busy_s",
    "solvers.stats_s",
    "solvers.extract_s",
    "solvers.solve_1rhs_s",
    "solvers.solve_8rhs_s",
)


class _Spans:
    """Accumulates named span durations with one clock."""

    def __init__(self):
        self.s = dict.fromkeys(SPANS, 0.0)
        self._t = time.perf_counter()
        self.start = self._t

    def lap(self, name: str) -> None:
        """Charge the time since the previous lap to ``name``."""
        now = time.perf_counter()
        self.s[name] += now - self._t
        self._t = now

    def skip(self) -> None:
        """Restart the lap clock without charging anyone (the wall time
        still counts it, so it shows up in ``other_s``)."""
        self._t = time.perf_counter()

    def wall(self) -> float:
        return self._t - self.start


class _TimedBackend:
    """Execution-backend shim that times the kernel calls it forwards.

    It exposes exactly the backend methods the wrapped backend has, so
    the executor picks the same code path as without the shim.
    """

    def __init__(self, inner):
        self._inner = inner
        self.seconds = 0.0

    def run_task(self, task, atomic):
        t = time.perf_counter()
        out = self._inner.run_task(task, atomic)
        self.seconds += time.perf_counter() - t
        return out


class _TimedBatchBackend(_TimedBackend):
    def run_batch_tasks(self, tids, atomic, arrays):
        t = time.perf_counter()
        out = self._inner.run_batch_tasks(tids, atomic, arrays)
        self.seconds += time.perf_counter() - t
        return out


def timed_backend(inner) -> _TimedBackend:
    if hasattr(inner, "run_batch_tasks"):
        return _TimedBatchBackend(inner)
    return _TimedBackend(inner)


def _schedule(spans: _Spans, engine, solver: str) -> tuple:
    """Scheduler run with kernel time split out; returns
    ``(backend, schedule)``."""
    backend = NumericBackend(engine)
    model = GPUCostModel(RTX5090)
    spans.skip()
    sched_dag, sched_backend = engine.dag, backend
    if solver == "superlu":
        # SuperLUSolver's §3.5.1 Schur fusion (merge_schur=True)
        fusion = merge_schur_tasks(engine.dag)
        sched_dag = fusion.dag
        sched_backend = FusedBackend(backend, fusion, engine.dag)
        spans.lap("core.dag.build_s")
        sched_dag.task_arrays()
        sched_dag.successor_csr()
        spans.lap("core.dag.arrays_s")
    shim = timed_backend(sched_backend)
    schedule = make_scheduler(SCHEDULER, sched_dag, shim, model).run()
    spans.lap("core.scheduler.self_s")
    spans.s["core.scheduler.self_s"] -= shim.seconds
    spans.s["kernels.busy_s"] += shim.seconds
    return backend, schedule


def _finish(spans: _Spans, engine, backend, schedule, perm,
            solver) -> FactorizationResult:
    stats = backend.stats
    spans.lap("solvers.stats_s")
    L, U = engine.extract_factors()
    spans.lap("solvers.extract_s")
    return FactorizationResult(
        solver=solver, scheduler=SCHEDULER, L=L, U=U, perm=perm,
        schedule=schedule, dag=engine.dag, stats=stats,
        fill_nnz=engine.fill.nnz_lu, phase_seconds={})


def counts(result: FactorizationResult) -> dict:
    """Work counts of one factorisation (DAG, scheduler, kernels)."""
    flops = sum(s.flops for s in result.stats.values())
    nbytes = sum(s.bytes for s in result.stats.values())
    s = result.schedule
    return {
        "core.dag.tasks": result.dag.n_tasks,
        "core.dag.edges": int(result.dag.successor_csr()[0][-1]),
        "core.scheduler.launches": s.kernel_count,
        "core.scheduler.tasks": s.task_count,
        "kernels.flops": flops,
        "kernels.bytes_computed": nbytes,
    }


def traced_factorize(a, solver: str, *, block_size: int = 64, cache=None):
    """``SOLVER_REGISTRY[solver](a, ...).factorize()`` as separate timed
    public calls.  Returns ``(result, spans, engine)``.

    The analysis products are computed here and pre-seeded into
    ``cache`` (default: a fresh :class:`AnalysisCache`), so the engine
    finds them as cache hits instead of recomputing them inside its
    constructor.
    """
    spans = _Spans()
    perm = compute_ordering(a, ORDERING)
    permuted = permute_symmetric(a, perm)
    spans.lap("ordering.busy_s")
    sparse = solver == "pangulu"
    fill = symbolic_fill(permuted)
    if sparse:
        part = uniform_partition(permuted.nrows, block_size)
    else:
        part = find_supernodes(fill, max_size=MAX_SUPERNODE, relax=RELAX)
    bfill = block_fill(permuted, part)
    tile_nnz = {key: t.nnz
                for key, t in split_tiles(fill.filled, part).items()}
    spans.lap("symbolic.busy_s")
    dag = build_block_dag(bfill, part, tile_nnz, sparse_tiles=sparse)
    spans.lap("core.dag.build_s")
    dag.task_arrays()
    dag.successor_csr()
    spans.lap("core.dag.arrays_s")
    if cache is None:
        cache = AnalysisCache()
    cache.fill_for(permuted, lambda: fill)
    cache.block_analysis_for(permuted, part, sparse,
                             lambda: (bfill, tile_nnz, dag))
    spans.lap("symbolic.busy_s")
    engine = NumericEngine(permuted, part, sparse_tiles=sparse,
                           fill=None if sparse else fill, cache=cache)
    spans.lap("solvers.restamp_s")
    backend, schedule = _schedule(spans, engine, solver)
    result = _finish(spans, engine, backend, schedule, perm, solver)
    return result, spans, engine


def traced_refactorize(engine, perm, a_new, solver: str, cache=None):
    """``BlockSolverBase.refactorize(a_new)`` as separate timed public
    calls, plus the analysis-cache re-pin the server does after each
    refactorize.  Returns ``(result, spans)``.
    """
    spans = _Spans()
    permuted = permute_symmetric(a_new, perm)
    spans.lap("ordering.busy_s")
    engine.reset_values(permuted)
    spans.lap("solvers.restamp_s")
    backend, schedule = _schedule(spans, engine, solver)
    result = _finish(spans, engine, backend, schedule, perm, solver)
    if cache is not None:
        cache.fill_for(engine.a, lambda: engine.fill)
        spans.lap("symbolic.busy_s")
        cache.block_analysis_for(
            engine.a, engine.part, engine.sparse_tiles,
            lambda: (engine.bfill, engine.tile_nnz, engine.dag))
        spans.lap("core.dag.build_s")
        engine.dag.task_arrays()
        engine.dag.successor_csr()
        spans.lap("core.dag.arrays_s")
    return result, spans


def timed_solve(spans: _Spans, name: str, result, b, a, refine: int):
    """One ``FactorizationResult.solve`` call charged to span ``name``."""
    spans.skip()
    x = result.solve(b, refine=refine, a=a)
    spans.lap(name)
    return x


def verify_timings(dag, grid) -> dict:
    """Time the plan recording and the two static checks
    ``ParallelExecutor`` runs before dispatch, on ``dag``."""
    model = GPUCostModel(RTX5090)
    t0 = time.perf_counter()
    plan = record_batch_plan(dag, model, scheduler=SCHEDULER)
    t1 = time.perf_counter()
    report = verify_schedule(dag, plan.batches, gpu=RTX5090)
    t2 = time.perf_counter()
    spec = PlanSpec.from_execution(dag, grid, plan.batches)
    cert = verify_plan(spec)
    t3 = time.perf_counter()
    return {"verify.record_s": t1 - t0, "verify.schedule_s": t2 - t1,
            "verify.plan_s": t3 - t2, "ok": report.ok and cert.ok}


def same_factors(r1, r2) -> bool:
    """Bitwise equality of two factorisations' L and U."""
    return all(
        np.array_equal(getattr(m1, f), getattr(m2, f))
        for m1, m2 in ((r1.L, r2.L), (r1.U, r2.U))
        for f in ("indptr", "indices", "data"))


class Aggregate:
    """Per-item means of the layer spans, counts and extra timings of a
    traced run, plus the coverage and tracing-overhead bookkeeping."""

    def __init__(self):
        self.items = 0
        self.sums: dict[str, float] = defaultdict(float)
        self.min_coverage = 1.0
        self.last_coverage = 1.0
        self.residual_max = 0.0

    def add(self, spans: _Spans, split_wall: float, untraced_s: float,
            work: dict, residual: float, extra: dict = (),
            covered_excludes=()) -> None:
        """Record one traced item.

        ``split_wall`` is the wall time of the traced layer calls and
        ``untraced_s`` that of the same work run untraced; their
        difference is the tracing overhead.  Spans named in
        ``covered_excludes`` were timed outside ``split_wall``.
        """
        covered = sum(v for k, v in spans.s.items()
                      if k not in covered_excludes)
        self.last_coverage = covered / split_wall
        self.min_coverage = min(self.min_coverage, self.last_coverage)
        self.items += 1
        sums = self.sums
        for k, v in spans.s.items():
            sums[k] += v
        sums["other_s"] += split_wall - covered
        sums["trace.overhead_s"] += split_wall - untraced_s
        sums["trace.item_wall_s"] += split_wall
        for k, v in dict(work).items():
            sums[k] += v
        for k, v in dict(extra).items():
            sums[k] += v
        self.residual_max = max(self.residual_max, residual)

    def metrics(self) -> dict:
        n = self.items
        out = {k: v / n for k, v in self.sums.items()}
        out["core.scheduler.tasks_per_launch"] = (
            self.sums["core.scheduler.tasks"]
            / self.sums["core.scheduler.launches"])
        out["kernels.flops_per_byte"] = (self.sums["kernels.flops"]
                                         / self.sums["kernels.bytes_computed"])
        out["solvers.residual_max"] = self.residual_max
        out["trace.coverage"] = self.min_coverage
        out["trace.items"] = n
        return out


def check_coverage(tally, agg: Aggregate, label: str) -> None:
    """Count the coverage of the item just added as one check."""
    tally.op(agg.last_coverage >= MIN_COVERAGE,
             f"{label}: layer spans cover {agg.last_coverage:.3f} of the "
             f"item wall time (< {MIN_COVERAGE})")


#: Timed phases of the parallel probe, reported with their share of the
#: probe's own wall time.
PARALLEL_TIMES = ("parallel.spawn_s", "parallel.plan_s",
                  "parallel.numeric_s", "parallel.solve_s",
                  "parallel.close_s")


def parallel_probe(a, b, res_u, t_inproc: float, block_size: int, tally,
                   label: str) -> "dict | None":
    """One ``ParallelExecutor(workers=2, pin_blas=1)`` item on ``a``:
    construct → ``factorize()`` → 1-RHS ``solve()`` → ``close()``.

    ``res_u`` is the in-process pangulu factorisation of the same
    matrix and ``t_inproc`` its time to solution; the parallel L/U and
    x must match it bit for bit.  Counts the solution, the bit check and
    the hygiene check (segments unlinked, workers exited) as operations;
    a worker crash is a failed one and returns ``None``.
    """
    shm_before = shm_segments()
    pids: list[int] = []
    t0 = time.perf_counter()
    ex = ParallelExecutor(a, solver="pangulu", workers=2, pin_blas=1,
                          block_size=block_size,
                          analysis_cache=AnalysisCache())
    try:
        res_p = ex.factorize()
        pids = ex.worker_pids()
        t1 = time.perf_counter()
        x_p = ex.solve(b)
        t2 = time.perf_counter()
    except WorkerCrashError as exc:
        tally.op(False, f"{label} parallel: {exc}")
        return None
    finally:
        t3 = time.perf_counter()
        ex.close()
        t4 = time.perf_counter()
        check_hygiene(tally, shm_before, pids, f"{label} parallel")
    check_solution(tally, a, x_p, b, f"{label} parallel")
    tally.op(same_factors(res_u, res_p)
             and np.array_equal(res_u.solve(b, batch_solve=True), x_p),
             f"{label}: parallel L/U or x differ from in-process")
    ph = res_p.phase_seconds
    out = {
        "parallel.spawn_s": ph["spawn"],
        "parallel.plan_s": ph["plan"],
        "parallel.numeric_s": ph["numeric"],
        "parallel.solve_s": t2 - t1,
        "parallel.close_s": t4 - t3,
        "parallel.batches": len(res_p.batch_plan.batches),
        "parallel.messages": res_p.messages + ex.solve_messages,
        "parallel.comm_bytes": res_p.comm_bytes + ex.solve_comm_bytes,
        "parallel.inprocess_solution_s": t_inproc,
        "parallel.vs_inprocess": (t2 - t0) / t_inproc,
    }
    for k in PARALLEL_TIMES + ("parallel.inprocess_solution_s",):
        out[k[:-len("_s")] + "_share"] = out[k] / (t4 - t0)
    return out
