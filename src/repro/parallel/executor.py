"""Coordinator of the real multiprocess DAG execution.

:class:`ParallelExecutor` turns the Trojan-Horse batch schedule into
actual parallel wall-clock work: the scheduler's emitted batch sequence
(recorded backend-independently via
:func:`repro.core.executor.record_batch_plan`) is executed by N spawned
worker processes over a :class:`~repro.parallel.shmem.SharedTileArena`,
with the coordinator driving the batch frontier and barriering between
dependent batches.  Within a batch, tasks are sliced by owner-compute
rank (:meth:`~repro.cluster.grid.ProcessGrid.owner_array` of the output
tile) — the same assignment ``DistributedSimulator`` and
``PlanSpec.from_dag`` use — so atomic same-target SSSSMs co-locate on
one worker and stay in batch order, and the static message accounting
of the simulator transfers verbatim to the real run.

Safety is proved, not assumed, before anything is dispatched:

* every plan passes the ``verify.effects`` conflict scan
  (:func:`repro.verify.schedule.verify_schedule`: dependency order,
  intra-batch write/read tile hazards, completeness, cycles);
* with ``certify=True`` (default) the whole plan — DAG, owner ranks and
  the per-rank program orders the workers will actually execute — is
  certified race-free and live by
  :class:`~repro.verify.plan.PlanVerifier` first
  (:meth:`~repro.verify.plan.PlanSpec.from_execution`).

Differential contract (pinned by ``tests/test_parallel.py``): L/U and
solve vectors are bit-identical to the single-process engine for any
worker count, per-task stats match ``NumericBackend``'s exactly, and
``messages``/``comm_bytes`` equal ``DistributedSimulator``'s fault-free
accounting on the same plan.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import queue as queue_mod
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.grid import ProcessGrid
from repro.core.dag import TaskDAG
from repro.core.executor import BatchPlan, record_batch_plan
from repro.gpusim.costmodel import GPUCostModel
from repro.gpusim.specs import GPUSpec, RTX5090
from repro.kernels.batched import batch_kernels_enabled, pinned_blas_env
from repro.kernels.tilekernels import ColumnarStats, KernelStats
from repro.parallel.shmem import SharedRhsPool, SharedTileArena
from repro.parallel.worker import TaskColumns, worker_main
from repro.solvers import SOLVER_REGISTRY
from repro.solvers.sptrsv import SpTRSVContext
from repro.sparse import CSRMatrix
from repro.verify.hazards import batch_atomic_flags
from repro.verify.plan import PlanSpec, verify_plan
from repro.verify.schedule import verify_schedule


class WorkerCrashError(RuntimeError):
    """A worker died, errored, or stalled; the coordinator has already
    reaped the pool and unlinked every owned shared segment.

    Attributes
    ----------
    worker:
        Worker id (-1 when no single worker is implicated, e.g. a
        collective timeout).
    phase, batch:
        The phase id and batch index in flight (-1 when unknown).
    exitcode:
        The dead process's exit code (negative = killed by that signal),
        ``None`` for protocol errors and timeouts.
    kind:
        ``"died"``, ``"error"`` (worker raised and reported), or
        ``"timeout"``.
    """

    def __init__(self, worker: int, phase: int, batch: int,
                 exitcode=None, kind: str = "died", detail: str = ""):
        self.worker = worker
        self.phase = phase
        self.batch = batch
        self.exitcode = exitcode
        self.kind = kind
        msg = (f"worker {worker} {kind} (phase {phase}, batch {batch}, "
               f"exitcode={exitcode})")
        if detail:
            msg += "\n" + detail
        super().__init__(msg)


def message_accounting(dag: TaskDAG, owner: np.ndarray,
                       msg_scale: float = 1.0) -> tuple[int, int]:
    """Static cross-owner traffic of a DAG under an ownership map.

    Exactly the fault-free numbers ``DistributedSimulator`` reports: one
    message per cross-rank DAG edge, ``int(8 * nnz * msg_scale)`` bytes
    per message (per-producer truncation).  A pure function of
    ``(dag, owner, msg_scale)`` — the real executor and the simulator
    agree by construction, which the differential suite pins.
    """
    indptr, succ = dag.successor_csr()
    n = dag.n_tasks
    prod = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cross = owner[prod] != owner[succ]
    out_bytes = np.floor(
        8.0 * dag.task_arrays().nnz * float(msg_scale)).astype(np.int64)
    return int(np.count_nonzero(cross)), int(out_bytes[prod[cross]].sum())


@dataclass
class ParallelFactorization:
    """Everything a multiprocess factorisation produces.

    ``L``/``U``/``stats`` carry the bit-identity contract against the
    single-process engine; ``batch_plan`` and ``plan`` are the dispatch
    artifacts (the certified :class:`~repro.verify.plan.PlanSpec` is
    ``None`` when ``certify=False``); ``messages``/``comm_bytes`` are
    the owner-compute traffic the plan implies.
    """

    solver: str
    scheduler: str
    workers: int
    grid: ProcessGrid
    L: CSRMatrix
    U: CSRMatrix
    perm: np.ndarray
    stats: Mapping[int, KernelStats]
    dag: TaskDAG
    batch_plan: BatchPlan
    plan: "PlanSpec | None"
    messages: int
    comm_bytes: int
    fill_nnz: int
    phase_seconds: dict[str, float] = field(default_factory=dict)


class ParallelExecutor:
    """Coordinator/worker engine over shared-memory tile pools.

    Use as a context manager (workers and shared segments are reaped on
    exit)::

        with ParallelExecutor(a, solver="pangulu", workers=4) as ex:
            res = ex.factorize()
            x = ex.solve(b)

    Parameters
    ----------
    a:
        System matrix.
    solver:
        Substrate key in :data:`~repro.solvers.SOLVER_REGISTRY`.  For
        ``superlu`` the §3.5.1 Schur-fusion rewrite is disabled unless
        explicitly requested — fused tasks bypass the batched kernel
        groups the workers execute.
    workers:
        Worker-process count; also the rank count of the owner-compute
        :class:`~repro.cluster.grid.ProcessGrid`.
    scheduler, solve_scheduler:
        Batch-composition policies for the factor and solve phases.
    certify:
        Certify every dispatched plan with
        :class:`~repro.verify.plan.PlanVerifier` before execution.
    msg_scale:
        Message-size multiplier for the traffic accounting (matching
        ``DistributedSimulator``).
    log_dir:
        When set, each worker appends a line-buffered log to
        ``<log_dir>/worker<id>.log`` (the CI failure artifact).
    worker_timeout:
        Seconds without progress before the pool is declared hung.
    pin_blas:
        When set, workers are spawned under
        :func:`~repro.kernels.batched.pinned_blas_env` with this thread
        count (benchmarks pin to 1: N workers each fanning a threaded
        GEMM oversubscribes the host).  Default ``None`` inherits the
        coordinator's environment unchanged, so coordinator and workers
        run identically-configured kernels.
    """

    def __init__(self, a: CSRMatrix, solver: str = "pangulu",
                 workers: int = 2, *, ordering: str = "mindeg",
                 gpu: GPUSpec = RTX5090, scheduler: str = "trojan",
                 solve_scheduler: str = "trojan",
                 batch_kernels: bool | None = None, certify: bool = True,
                 msg_scale: float = 1.0, log_dir=None,
                 worker_timeout: float = 300.0, pin_blas: int | None = None,
                 **solver_kwargs):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if solver not in SOLVER_REGISTRY:
            raise ValueError(f"unknown solver {solver!r}")
        if solver == "superlu":
            solver_kwargs.setdefault("merge_schur", False)
        self.solver_name = solver
        self.workers = int(workers)
        self.gpu = gpu
        self.scheduler = scheduler
        self.solve_scheduler = solve_scheduler
        self.batch_kernels = batch_kernels
        self.certify = certify
        self.msg_scale = float(msg_scale)
        self.log_dir = log_dir
        self.worker_timeout = float(worker_timeout)
        self.pin_blas = pin_blas
        self.solver_kwargs = dict(solver_kwargs)
        self._solver = SOLVER_REGISTRY[solver](
            a, ordering=ordering, gpu=gpu, scheduler=scheduler,
            batch_kernels=batch_kernels, **solver_kwargs)
        self.grid = ProcessGrid(self.workers)
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list = []
        self._task_qs: list = []
        self._result_q = None
        self._shared: list = []
        self._solve_ctx: tuple | None = None
        self._phase_counter = 0
        self.result: ParallelFactorization | None = None
        self.solve_messages = 0
        self.solve_comm_bytes = 0
        self.phase_seconds: dict[str, float] = {}

    # ------------------------------------------------------------------
    # worker-pool lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Spawn the worker pool (idempotent; ``factorize`` calls it)."""
        if self._procs:
            return
        t0 = time.perf_counter()
        self._result_q = self._ctx.Queue()
        env = (pinned_blas_env(self.pin_blas) if self.pin_blas
               else contextlib.nullcontext())
        with env:
            for wid in range(self.workers):
                log_path = None
                if self.log_dir:
                    os.makedirs(self.log_dir, exist_ok=True)
                    log_path = os.path.join(self.log_dir,
                                            f"worker{wid}.log")
                q = self._ctx.Queue()
                proc = self._ctx.Process(
                    target=worker_main,
                    args=(wid, q, self._result_q, log_path),
                    daemon=True, name=f"repro-parallel-{wid}")
                proc.start()
                self._procs.append(proc)
                self._task_qs.append(q)
        self.phase_seconds["spawn"] = time.perf_counter() - t0

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker pool (chaos tests SIGKILL one)."""
        return [p.pid for p in self._procs]

    def close(self) -> None:
        """Graceful shutdown: drain workers, release every shared segment."""
        if self._procs:
            for q in self._task_qs:
                try:
                    q.put(("exit",))
                except (OSError, ValueError):
                    pass
            deadline = time.monotonic() + 10.0
            for proc in self._procs:
                proc.join(timeout=max(0.1, deadline - time.monotonic()))
            self._kill_pool()
        self._release_shared()

    def _kill_pool(self) -> None:
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs:
            proc.join(timeout=5.0)
        for q in self._task_qs:
            q.cancel_join_thread()
            q.close()
        if self._result_q is not None:
            self._result_q.cancel_join_thread()
            self._result_q.close()
        self._procs = []
        self._task_qs = []
        self._result_q = None

    def _release_shared(self) -> None:
        while self._shared:
            pool = self._shared.pop()
            try:
                pool.close()
            except Exception:
                pass
            try:
                pool.unlink()
            except Exception:
                pass
        self._solve_ctx = None

    def _reap(self) -> None:
        """Crash path: tear the pool down and unlink every segment."""
        self._kill_pool()
        self._release_shared()

    # ------------------------------------------------------------------
    # coordinator protocol
    # ------------------------------------------------------------------
    def _await(self, want: str, expected: int, phase: int) -> list:
        """Collect ``expected`` messages of kind ``want``, watching
        worker liveness; any crash/error/timeout reaps the pool and
        raises the structured :class:`WorkerCrashError`."""
        got: list = []
        deadline = time.monotonic() + self.worker_timeout
        while len(got) < expected:
            try:
                msg = self._result_q.get(timeout=0.2)
            except queue_mod.Empty:
                for wid, proc in enumerate(self._procs):
                    if not proc.is_alive():
                        code = proc.exitcode
                        self._reap()
                        raise WorkerCrashError(wid, phase, -1,
                                               exitcode=code, kind="died")
                if time.monotonic() > deadline:
                    self._reap()
                    raise WorkerCrashError(-1, phase, -1, kind="timeout")
                continue
            kind = msg[0]
            if kind == "error":
                _, wid, pid, bidx, detail = msg
                self._reap()
                raise WorkerCrashError(wid, pid, bidx, kind="error",
                                       detail=detail)
            if kind == want:
                got.append(msg)
        return got

    def _begin_phase(self, payload: dict) -> int:
        self._phase_counter += 1
        pid = self._phase_counter
        for q in self._task_qs:
            q.put(("phase", pid, payload))
        self._await("ready", self.workers, pid)
        return pid

    def _run_batches(self, pid: int, batches: list, arrays,
                     owner: np.ndarray, flops_out: np.ndarray,
                     nbytes_out: np.ndarray) -> None:
        """Drive the batch frontier: slice each batch by owner rank,
        dispatch the slices, barrier before the next batch.

        Atomic flags are computed over the *whole* batch (the same
        shared hazard kernel the single-process Executor uses), then
        sliced — same-target groups land on one worker by owner-compute,
        so the slice order preserves the batch's serial-apply order.
        """
        for bidx, tids in enumerate(batches):
            atomic = batch_atomic_flags(arrays.target[tids])
            owners = owner[tids]
            slices: dict[int, np.ndarray] = {}
            for r in range(self.workers):
                sel = np.flatnonzero(owners == r)
                if sel.size:
                    slices[r] = tids[sel]
                    self._task_qs[r].put(
                        ("batch", pid, bidx, tids[sel], atomic[sel]))
            for msg in self._await("done", len(slices), pid):
                _, wid, _, _, flops, nbytes = msg
                stids = slices[wid]
                flops_out[stids] = flops
                nbytes_out[stids] = nbytes

    def _checked_plan(self, dag: TaskDAG, subject: str,
                      solve: bool) -> tuple[BatchPlan, np.ndarray,
                                            "PlanSpec | None"]:
        """Record, conflict-scan, and (optionally) certify one plan."""
        model = GPUCostModel(self.gpu)
        if solve:
            plan = record_batch_plan(dag, model,
                                     scheduler=self.solve_scheduler,
                                     solve=True)
        else:
            plan = record_batch_plan(dag, model,
                                     scheduler=self._solver.scheduler,
                                     **self._solver.sched_kwargs)
        report = verify_schedule(dag, plan.batches, gpu=self.gpu,
                                 subject=subject)
        if not report.ok:
            raise RuntimeError(
                f"refusing to dispatch {subject}: "
                + "; ".join(str(v) for v in report.violations))
        arrays = dag.task_arrays()
        owner = self.grid.owner_array(arrays.i, arrays.j)
        spec = None
        if self.certify:
            spec = PlanSpec.from_execution(dag, self.grid, plan.batches,
                                           msg_scale=self.msg_scale)
            cert = verify_plan(spec, subject=subject)
            if not cert.ok:
                raise RuntimeError(
                    f"plan certification failed for {subject}: "
                    + "; ".join(str(v) for v in cert.violations))
        return plan, owner, spec

    # ------------------------------------------------------------------
    # factorisation
    # ------------------------------------------------------------------
    def factorize(self) -> ParallelFactorization:
        """Factor ``a`` across the worker pool; returns the result whose
        ``L``/``U``/``stats`` are bit-identical to the single-process
        engine's under the same solver configuration."""
        t0 = time.perf_counter()
        perm, _, engine = self._solver.prepare_engine(
            arena_factory=SharedTileArena)
        arena = engine.arena
        self._shared.append(arena)
        plan, owner, spec = self._checked_plan(
            engine.dag, f"parallel/{self.solver_name}/factor", solve=False)
        t1 = time.perf_counter()
        self.start()
        n = engine.dag.n_tasks
        arrays = engine.dag.task_arrays()
        payload = {
            "kind": "factor",
            "arena": arena.spec(),
            "columns": TaskColumns.from_arrays(arrays),
            "sparse_tiles": engine.sparse_tiles,
            "batch_kernels": engine.batch_kernels,
        }
        t2 = time.perf_counter()
        pid = self._begin_phase(payload)
        flops = np.zeros(n, dtype=np.int64)
        nbytes = np.zeros(n, dtype=np.int64)
        self._run_batches(pid, plan.batches, arrays, owner, flops, nbytes)
        t3 = time.perf_counter()
        L, U = engine.extract_factors()
        stats = ColumnarStats(flops, nbytes)
        messages, comm_bytes = message_accounting(engine.dag, owner,
                                                  self.msg_scale)
        self.phase_seconds.update(self._solver._front_seconds)
        self.phase_seconds["plan"] = t1 - t0 - sum(
            self._solver._front_seconds.values())
        self.phase_seconds["numeric"] = t3 - t2
        self.result = ParallelFactorization(
            solver=self.solver_name, scheduler=self._solver.scheduler,
            workers=self.workers, grid=self.grid,
            L=L, U=U, perm=perm, stats=stats, dag=engine.dag,
            batch_plan=plan, plan=spec,
            messages=messages, comm_bytes=comm_bytes,
            fill_nnz=engine.fill.nnz_lu,
            phase_seconds=dict(self.phase_seconds),
        )
        return self.result

    # ------------------------------------------------------------------
    # solve phase
    # ------------------------------------------------------------------
    def _solve_contexts(self) -> tuple:
        """Shared-arena (L, U) SpTRSV contexts, built once per factor —
        mirrors :meth:`FactorizationResult.solve_contexts` exactly so
        the solve bits match the single-process DAG path."""
        if self._solve_ctx is None:
            res = self.result
            part = res.dag.part
            lctx = SpTRSVContext(res.L, part, lower=True,
                                 unit_diagonal=True,
                                 arena_factory=SharedTileArena)
            uctx = SpTRSVContext(res.U, part, lower=False,
                                 arena_factory=SharedTileArena)
            self._shared.append(lctx.arena)
            self._shared.append(uctx.arena)
            self._solve_ctx = (lctx, uctx)
        return self._solve_ctx

    def _solve_one(self, ctx: SpTRSVContext, b: np.ndarray) -> np.ndarray:
        """One triangular solve phase across the pool.  Cross-owner
        x-block deliveries are the shared RHS pool itself: an UPDATE on
        one worker reads the block another worker's DIAG solved."""
        b2 = b.reshape(b.shape[0], -1) if b.ndim == 2 else b[:, None]
        rhs = SharedRhsPool(ctx.part, b2)
        self._shared.append(rhs)
        try:
            dag = ctx.dag_for(b2.shape[1])
            tri = "L" if ctx.lower else "U"
            plan, owner, _ = self._checked_plan(
                dag, f"parallel/{self.solver_name}/solve-{tri}", solve=True)
            batch_sel = (batch_kernels_enabled()
                         if self.batch_kernels is None
                         else bool(self.batch_kernels))
            payload = {
                "kind": "solve",
                "arena": ctx.arena.spec(),
                "rhs": rhs.spec(),
                "columns": TaskColumns.from_arrays(dag.task_arrays()),
                "sparse_tiles": ctx.sparse_tiles,
                "batch_kernels": batch_sel,
                "lower": ctx.lower,
                "unit_diagonal": ctx.unit_diagonal,
            }
            pid = self._begin_phase(payload)
            n = dag.n_tasks
            flops = np.zeros(n, dtype=np.int64)
            nbytes = np.zeros(n, dtype=np.int64)
            self._run_batches(pid, plan.batches, dag.task_arrays(), owner,
                              flops, nbytes)
            msgs, comm = message_accounting(dag, owner, self.msg_scale)
            self.solve_messages += msgs
            self.solve_comm_bytes += comm
            x2 = rhs.gather()
            return x2[:, 0] if b.ndim == 1 else x2
        finally:
            # on a crash _reap() already released (and unlinked) it
            if rhs in self._shared:
                self._shared.remove(rhs)
                rhs.close()
                rhs.unlink()

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` across the pool (factorises on first use).

        Applies the same permutation handling as
        :meth:`FactorizationResult.solve` with ``batch_solve=True``, so
        the returned vector is bit-identical to the single-process DAG
        solve path for any worker count.
        """
        if self.result is None:
            self.factorize()
        self.start()
        b = np.asarray(b, dtype=np.float64)
        if b.ndim > 2 or b.shape[0] != self.result.L.nrows:
            raise ValueError("right-hand side shape does not match matrix")
        lctx, uctx = self._solve_contexts()
        perm = self.result.perm
        pb = b[perm] if b.ndim == 1 else b[perm, :]
        y = self._solve_one(lctx, pb)
        z = self._solve_one(uctx, y)
        x = np.empty_like(z)
        x[perm] = z
        return x
