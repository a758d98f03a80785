"""The shared block-LU numeric engine.

Both solver substrates are expressed as block LU over a partition: tiles
live in dense scratch (the paper's kernels also stage sparse tiles
densely), the task DAG comes from the block-level symbolic fill, and the
four tile kernels perform the arithmetic.  The engine exposes an
:class:`~repro.core.executor.ExecutionBackend`, so any scheduler from
:mod:`repro.core` can drive it — and because the arithmetic per task is
fixed, every schedule produces the same factors up to floating-point
reassociation of commuting Schur updates.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.core.dag import TaskDAG, build_block_dag
from repro.core.executor import ReplayBackend
from repro.core.scheduler import ScheduleResult
from repro.core.baselines import make_scheduler
from repro.core.task import Task, TaskType
from repro.gpusim.costmodel import GPUCostModel
from repro.gpusim.specs import GPUSpec
from repro.kernels.batched import (
    batch_kernels_enabled,
    batch_solve_enabled,
    batched_geesm,
    batched_ssssm,
    batched_ssssm_products,
    batched_tstrf,
)
from repro.kernels.tilekernels import (
    ColumnarStats,
    KernelStats,
    geesm_kernel,
    getrf_kernel,
    ssssm_kernel,
    tstrf_kernel,
)
from repro.solvers.tilepool import TileArena, TileViews
from repro.sparse import COOMatrix, CSRMatrix
from repro.sparse.blocking import Partition, tile_nnz_counts
from repro.sparse.triplan import TriangularPlan
from repro.symbolic import block_fill, symbolic_fill


def _operand_tiles(code: int, k: int, i: int, j: int) -> tuple:
    """Tile coordinates one task's kernel takes, in argument order."""
    if code == int(TaskType.GETRF):
        return ((k, k),)
    if code == int(TaskType.TSTRF):
        return ((i, k), (k, k))
    if code == int(TaskType.GEESM):
        return ((k, j), (k, k))
    return ((i, j), (i, k), (k, j))


def _tile_kernel(code: int, views: list, sparse: bool,
                 atomic: bool) -> KernelStats:
    """Run one task's per-task kernel on its operand tile views."""
    if code == int(TaskType.GETRF):
        return getrf_kernel(views[0], sparse=sparse)
    if code == int(TaskType.TSTRF):
        return tstrf_kernel(views[0], views[1], sparse=sparse)
    if code == int(TaskType.GEESM):
        return geesm_kernel(views[0], views[1], sparse=sparse)
    return ssssm_kernel(views[0], views[1], views[2], sparse=sparse,
                        atomic=atomic)


@dataclass(frozen=True, eq=False)
class LaunchPlan:
    """The index work of one launch, detached from the tile values.

    Built by :func:`plan_launch`, run by :func:`execute_launch`.  A plan
    depends only on the tile layout and the launch's task ids and
    atomic flags, so one plan serves every re-execution of the launch
    on re-stamped values.  Groups are ``(class, slots)`` gathers into
    the arena's pools; ``idx`` arrays index the launch's tasks.

    Attributes
    ----------
    tids:
        The launch's task ids (rows of the per-task stat arrays).
    tasks:
        Per-task kernel calls ``(idx, code, atomic, operands)`` with
        operands as ``(class, slot)`` pairs in argument order — the
        GETRFs, or every task when batching is off or the launch holds
        one task.
    solves:
        Stacked triangular-solve groups ``(kernel, idx, cls, slots,
        diag_cls, diag_slots)``, TSTRF groups before GEESM groups.
    updates:
        Conflict-free SSSSM groups ``(idx, tcls, tslots, lcls, lslots,
        ucls, uslots)``.
    products:
        Atomic SSSSM product groups ``(idx, pos, lcls, lslots, ucls,
        uslots)``; ``pos`` are the members' places in the apply order.
    apply_idx, apply_targets:
        The atomic SSSSMs in serial apply (batch) order: their launch
        indices and target ``(class, slot)`` pairs.
    """

    tids: np.ndarray
    tasks: tuple = ()
    solves: tuple = ()
    updates: tuple = ()
    products: tuple = ()
    apply_idx: np.ndarray | None = None
    apply_targets: tuple = ()


def plan_launch(arena, tids: np.ndarray, atomic: np.ndarray, arrays, *,
                batch_kernels: bool = True) -> LaunchPlan:
    """Plan one launch's factorisation tasks on a tile arena.

    Partitions the batch by (task type, tile shape class): TSTRF and
    GEESM groups become one stacked multi-RHS triangular solve each
    (every slice against its own diagonal tile), conflict-free SSSSM
    groups one stacked ``np.matmul``, and atomic (same-target) SSSSMs
    get their products from stacked matmuls applied serially in batch
    order; only GETRF tasks (every task with ``batch_kernels`` off or a
    single-task launch) stay per-task kernel calls.  Reads only the
    arena's layout (``locate``/``slot_of``), never its values.
    """
    # a copy: the plan outlives the call, and callers reuse tid buffers
    tids = np.array(tids, dtype=np.int64)
    n = tids.size
    code = arrays.type_code[tids]
    kk = arrays.k[tids]
    ii = arrays.i[tids]
    jj = arrays.j[tids]
    if not batch_kernels or n == 1:
        straggler = np.ones(n, dtype=bool)
    else:
        straggler = code == int(TaskType.GETRF)
    tasks = []
    for idx in np.flatnonzero(straggler).tolist():
        c = int(code[idx])
        coords = _operand_tiles(c, int(kk[idx]), int(ii[idx]), int(jj[idx]))
        tasks.append((idx, c, bool(atomic[idx]),
                      tuple(arena.slot_of(bi, bj) for bi, bj in coords)))
    if straggler.all():
        return LaunchPlan(tids=tids, tasks=tuple(tasks))

    def _solve_groups(sel, row_idx, col_idx, kernel):
        """Group panel tiles by shape class; one stacked triangular
        solve per group, each slice against its own diagonal tile."""
        cls, slots = arena.locate(row_idx[sel], col_idx[sel])
        dcls, dslots = arena.locate(kk[sel], kk[sel])
        for c in np.unique(cls):
            mask = cls == c
            solves.append((kernel, sel[mask], int(c), slots[mask],
                           int(dcls[mask][0]), dslots[mask]))

    solves: list = []
    sel = np.flatnonzero(code == int(TaskType.TSTRF))
    if sel.size:
        _solve_groups(sel, ii, kk, batched_tstrf)
    sel = np.flatnonzero(code == int(TaskType.GEESM))
    if sel.size:
        _solve_groups(sel, kk, jj, batched_geesm)
    updates: list = []
    products: list = []
    apply_idx = None
    apply_targets: tuple = ()
    sel = np.flatnonzero(code == int(TaskType.SSSSM))
    if sel.size:
        tcls, tslots = arena.locate(ii[sel], jj[sel])
        lcls, lslots = arena.locate(ii[sel], kk[sel])
        ucls, uslots = arena.locate(kk[sel], jj[sel])
        # (target class, L class) pins all three tile shapes
        key = tcls * len(arena.pools) + lcls
        atom = atomic[sel]
        for kv in np.unique(key):
            mask = (key == kv) & ~atom
            if not mask.any():
                continue
            updates.append((sel[mask], int(tcls[mask][0]), tslots[mask],
                            int(lcls[mask][0]), lslots[mask],
                            int(ucls[mask][0]), uslots[mask]))
        apos = np.flatnonzero(atom)
        if apos.size:
            akey = key[apos]
            for kv in np.unique(akey):
                mask = akey == kv
                gpos = apos[mask]
                products.append((sel[gpos], np.flatnonzero(mask),
                                 int(lcls[gpos[0]]), lslots[gpos],
                                 int(ucls[gpos[0]]), uslots[gpos]))
            apply_idx = sel[apos]
            apply_targets = tuple(zip(tcls[apos].tolist(),
                                      tslots[apos].tolist()))
    return LaunchPlan(tids=tids, tasks=tuple(tasks), solves=tuple(solves),
                      updates=tuple(updates), products=tuple(products),
                      apply_idx=apply_idx, apply_targets=apply_targets)


# verify: effects(arena)
def execute_launch(arena, plan: LaunchPlan, sparse_tiles: bool
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Run a planned launch's kernels on the arena's current values.

    Returns per-task ``(flops, bytes)`` int64 arrays aligned with
    ``plan.tids``.  Stack slices run the identical 2-D kernel cores the
    per-task kernels run, so factors and stats are bit-identical to the
    per-task path; atomic SSSSMs apply their products serially in batch
    order because their byte accounting reads the intermediate target.
    """
    n = plan.tids.size
    flops = np.zeros(n, dtype=np.int64)
    nbytes = np.zeros(n, dtype=np.int64)
    sp = sparse_tiles
    pools = arena.pools
    for idx, code, atom, operands in plan.tasks:
        s = _tile_kernel(code, [pools[c][slot] for c, slot in operands],
                         sp, atom)
        flops[idx] = s.flops
        nbytes[idx] = s.bytes
    for kernel, mem, c, gslots, dc, dslots in plan.solves:
        pool = pools[c]
        stack = pool[gslots]
        f, b = kernel(stack, pools[dc][dslots], sp)
        pool[gslots] = stack
        flops[mem] = f
        nbytes[mem] = b
    for mem, tc, tslots, lc, lslots, uc, uslots in plan.updates:
        tpool = pools[tc]
        tstack = tpool[tslots]
        f, b = batched_ssssm(tstack, pools[lc][lslots], pools[uc][uslots],
                             sp)
        tpool[tslots] = tstack
        flops[mem] = f
        nbytes[mem] = b
    if plan.apply_targets:
        # atomic (same-target) updates: products in stacked matmuls per
        # group, then a serial ordered apply that replays the per-task
        # batch order — bit-identical, including the intermediate-state
        # byte accounting
        na = len(plan.apply_targets)
        prods: list = [None] * na
        base = np.zeros(na, dtype=np.int64)
        for mem, pos, lc, lslots, uc, uslots in plan.products:
            p, f, b0 = batched_ssssm_products(pools[lc][lslots],
                                              pools[uc][uslots], sp)
            flops[mem] = f
            base[pos] = b0
            for row, q in enumerate(pos.tolist()):
                prods[q] = p[row]
        tviews = [pools[c][slot] for c, slot in plan.apply_targets]
        after = np.empty(na, dtype=np.int64)
        for q, view in enumerate(tviews):
            view -= prods[q]
            after[q] = np.count_nonzero(view)
        nbytes[plan.apply_idx] = 8 * (base + (2 * after if sp else after))
    return flops, nbytes


def run_batch_on_arena(arena, tids: np.ndarray, atomic: np.ndarray, arrays,
                       *, sparse_tiles: bool = False,
                       batch_kernels: bool = True
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Execute one launch's factorisation tasks on a tile arena.

    ``execute_launch(plan_launch(...))``: the free-function form of
    :meth:`NumericEngine.run_batch_tasks`.  It needs only the arena (any
    :class:`~repro.solvers.tilepool.TileArena`, including a
    shared-memory one attached in a worker process), the batch's task
    ids, their atomic flags, and the task coordinate columns
    (``type_code``/``k``/``i``/``j``) — no engine, DAG or backend.
    ``repro.parallel`` workers call this directly, and refactorisation
    replays cached plans through :func:`execute_launch`, so every path
    runs the *identical* kernel-group code.  Returns per-task
    ``(flops, bytes)`` int64 arrays aligned with ``tids``.

    Safe because co-batched tasks are mutually independent (no DAG
    edges within a ready set), so they touch pairwise-disjoint tiles
    except for same-target SSSSMs — whose ordered serial apply replays
    exactly the per-task execution.  Factors and stats are therefore
    identical for *any* partition of a batch across processes that
    keeps same-target SSSSMs together and in batch order.
    """
    plan = plan_launch(arena, tids, atomic, arrays,
                       batch_kernels=batch_kernels)
    return execute_launch(arena, plan, sparse_tiles)


class NumericEngine:
    """Tile storage plus numeric task execution for one factorisation.

    Parameters
    ----------
    a:
        The (already permuted) matrix to factorise.
    part:
        Tile partition (uniform for PanguLU, supernodal for SuperLU).
    sparse_tiles:
        Sparse kernel accounting (PanguLU) vs dense (SuperLU).
    owner_of:
        Optional tile-ownership function for distributed runs.
    cache:
        Optional :class:`~repro.core.analysis_cache.AnalysisCache`.
        When given (and the run is single-process), the element fill,
        block fill, tile-nnz split and task DAG are looked up by the
        sparsity-pattern digest — repeated-pattern factorisations skip
        the whole symbolic analysis.  Distributed runs (``owner_of``)
        bypass the cache because tile ownership is baked into the DAG.
    batch_kernels:
        Execute conflict-free same-type task groups as stacked batched
        kernels (:mod:`repro.kernels.batched`) instead of one Python
        call per task.  ``None`` (default) reads the
        ``REPRO_BATCH_KERNELS`` environment knob (on unless ``0``).
        The per-task path stays available as the differential-testing
        oracle; both paths produce bit-identical factors and stats.
    arena_factory:
        Optional callable ``(part, bfill) -> TileArena`` used to build
        the tile storage; ``repro.parallel`` passes
        :class:`~repro.parallel.shmem.SharedTileArena` so tiles land in
        shared memory visible to worker processes.
    """

    def __init__(self, a: CSRMatrix, part: Partition,
                 sparse_tiles: bool = False, owner_of=None, fill=None,
                 cache=None, batch_kernels: bool | None = None,
                 arena_factory=None):
        if a.nrows != a.ncols:
            raise ValueError("LU factorisation requires a square matrix")
        if part.n != a.nrows:
            raise ValueError("partition does not cover the matrix")
        self.a = a
        self.part = part
        self.sparse_tiles = sparse_tiles
        use_cache = cache if owner_of is None else None
        if fill is not None:
            self.fill = fill
        elif use_cache is not None:
            self.fill = use_cache.fill_for(a, lambda: symbolic_fill(a))
        else:
            self.fill = symbolic_fill(a)

        def _block_analysis():
            bfill = block_fill(a, part)
            tile_nnz = tile_nnz_counts(self.fill.filled, part)
            dag = build_block_dag(
                bfill, part, tile_nnz,
                sparse_tiles=sparse_tiles, owner_of=owner_of,
            )
            return bfill, tile_nnz, dag

        if use_cache is not None:
            self.bfill, self.tile_nnz, self.dag = use_cache.block_analysis_for(
                a, part, sparse_tiles, _block_analysis
            )
        else:
            self.bfill, self.tile_nnz, self.dag = _block_analysis()
        self.batch_kernels = (
            batch_kernels_enabled() if batch_kernels is None
            else bool(batch_kernels)
        )
        make_arena = TileArena if arena_factory is None else arena_factory
        self.arena = make_arena(part, self.bfill)
        self.tiles = TileViews(self.arena)
        self.arena.stamp(a)

    def reset_values(self, a: CSRMatrix) -> None:
        """Re-stamp tile values for a matrix with the *same* pattern.

        The circuit-simulation workflow: device models change every
        Newton iteration but the structure (and therefore ordering,
        symbolic fill, task DAG and schedule) is fixed — re-stamping and
        re-running the numeric tasks is all that is needed.
        """
        if a.shape != self.a.shape:
            raise ValueError("refactorisation requires the same dimensions")
        if not (np.array_equal(a.indptr, self.a.indptr)
                and np.array_equal(a.indices, self.a.indices)):
            raise ValueError(
                "refactorisation requires an identical sparsity pattern"
            )
        self.a = a
        self.arena.stamp(a)

    # ------------------------------------------------------------------
    # ExecutionBackend protocol
    # ------------------------------------------------------------------
    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Execute one task's arithmetic on the tile storage."""
        sp = self.sparse_tiles
        if task.type == TaskType.GETRF:
            return getrf_kernel(self.tiles[(task.k, task.k)], sparse=sp)
        if task.type == TaskType.TSTRF:
            return tstrf_kernel(self.tiles[(task.i, task.k)],
                                self.tiles[(task.k, task.k)], sparse=sp)
        if task.type == TaskType.GEESM:
            return geesm_kernel(self.tiles[(task.k, task.j)],
                                self.tiles[(task.k, task.k)], sparse=sp)
        return ssssm_kernel(self.tiles[(task.i, task.j)],
                            self.tiles[(task.i, task.k)],
                            self.tiles[(task.k, task.j)],
                            sparse=sp, atomic=atomic)

    def run_batch_tasks(self, tids: np.ndarray, atomic: np.ndarray,
                        arrays) -> tuple[np.ndarray, np.ndarray]:
        """Execute one launch's tasks with batched kernel groups.

        Delegates to :func:`run_batch_on_arena` — the module-level form
        shared with the multiprocess workers — so both paths are one
        code path by construction.
        """
        return run_batch_on_arena(
            self.arena, tids, atomic, arrays,
            sparse_tiles=self.sparse_tiles,
            batch_kernels=self.batch_kernels,
        )

    # ------------------------------------------------------------------
    # factor extraction
    # ------------------------------------------------------------------
    def extract_factors(self, tol: float = 0.0) -> tuple[CSRMatrix, CSRMatrix]:
        """Assemble global ``L`` (unit diagonal stored) and ``U`` from the
        factored tiles, dropping numerically-zero scratch entries."""
        n = self.part.n
        bounds = self.part.boundaries
        l_rows, l_cols, l_vals = [], [], []
        u_rows, u_cols, u_vals = [], [], []
        for (bi, bj), tile in self.tiles.items():
            r0, c0 = int(bounds[bi]), int(bounds[bj])
            if bi > bj:
                rr, cc = np.nonzero(np.abs(tile) > tol)
                l_rows.append(rr + r0); l_cols.append(cc + c0)
                l_vals.append(tile[rr, cc])
            elif bi < bj:
                rr, cc = np.nonzero(np.abs(tile) > tol)
                u_rows.append(rr + r0); u_cols.append(cc + c0)
                u_vals.append(tile[rr, cc])
            else:
                low = np.tril(tile, -1)
                rr, cc = np.nonzero(np.abs(low) > tol)
                l_rows.append(rr + r0); l_cols.append(cc + c0)
                l_vals.append(low[rr, cc])
                up = np.triu(tile)
                rr, cc = np.nonzero(np.abs(up) > tol)
                u_rows.append(rr + r0); u_cols.append(cc + c0)
                u_vals.append(up[rr, cc])
        diag = np.arange(n, dtype=np.int64)
        l_rows.append(diag); l_cols.append(diag)
        l_vals.append(np.ones(n))
        L = COOMatrix((n, n), np.concatenate(l_rows), np.concatenate(l_cols),
                      np.concatenate(l_vals)).to_csr()
        U = COOMatrix(
            (n, n),
            np.concatenate(u_rows) if u_rows else np.empty(0, np.int64),
            np.concatenate(u_cols) if u_cols else np.empty(0, np.int64),
            np.concatenate(u_vals) if u_vals else np.empty(0),
        ).to_csr()
        return L, U

    # ------------------------------------------------------------------
    # solve phase
    # ------------------------------------------------------------------
    def solve(self, b: np.ndarray, scheduler: str = "trojan",
              batch_kernels: bool | None = None) -> np.ndarray:
        """Solve the *permuted* system ``L U x = b`` from the factored
        tiles through the batched SpTRSV task DAGs.

        The numeric tasks must have run (the tiles hold ``L\\U``).  This
        is the engine-level entry of the Trojan-batched solve phase;
        callers holding a :class:`FactorizationResult` should use its
        :meth:`~FactorizationResult.solve`, which also applies the
        fill-reducing permutation and honours ``REPRO_BATCH_SOLVE``.
        """
        from repro.solvers.sptrsv import SpTRSVContext

        L, U = self.extract_factors()
        lctx = SpTRSVContext(L, self.part, lower=True, unit_diagonal=True,
                             sparse_tiles=self.sparse_tiles)
        uctx = SpTRSVContext(U, self.part, lower=False,
                             sparse_tiles=self.sparse_tiles)
        y = lctx.solve(b, scheduler=scheduler,
                       batch_kernels=batch_kernels).x
        return uctx.solve(y, scheduler=scheduler,
                          batch_kernels=batch_kernels).x


class NumericBackend:
    """Backend wrapper that records exact per-task stats while executing.

    The recorded stats power :class:`~repro.core.executor.ReplayBackend`
    so scheduler/GPU sweeps never repeat the arithmetic.
    """

    def __init__(self, engine: NumericEngine):
        self._engine = engine
        self.reset()

    def reset(self) -> None:
        """Record into fresh stat columns; a :attr:`stats` taken before
        keeps the old ones."""
        n = self._engine.dag.n_tasks
        self._flops = np.zeros(n, dtype=np.int64)
        self._bytes = np.zeros(n, dtype=np.int64)
        self._recorded = np.zeros(n, dtype=bool)

    @property
    def stats(self) -> ColumnarStats:
        """Per-task stats recorded so far, as a tid-indexed columnar
        mapping (no per-task objects are built unless items are read)."""
        return ColumnarStats(self._flops, self._bytes, self._recorded)

    def run_task(self, task: Task, atomic: bool) -> KernelStats:
        """Execute numerically and record the exact stats."""
        stats = self._engine.run_task(task, atomic)
        self._flops[task.tid] = stats.flops
        self._bytes[task.tid] = stats.bytes
        self._recorded[task.tid] = True
        return stats

    def _record(self, tids: np.ndarray, flops: np.ndarray,
                nbytes: np.ndarray) -> tuple[int, int]:
        self._flops[tids] = flops
        self._bytes[tids] = nbytes
        self._recorded[tids] = True
        return int(flops.sum()), int(nbytes.sum())

    def run_batch_tasks(self, tids: np.ndarray, atomic: np.ndarray,
                        arrays) -> tuple[int, int]:
        """Execute one launch via the engine's batched kernel groups,
        recording per-task stats, and return the launch totals."""
        flops, nbytes = self._engine.run_batch_tasks(tids, atomic, arrays)
        return self._record(tids, flops, nbytes)

    def plan_batch(self, tids: np.ndarray, atomic: np.ndarray,
                   arrays) -> LaunchPlan:
        """:func:`plan_launch` of one launch on the engine's arena, in
        the engine's batching mode."""
        engine = self._engine
        return plan_launch(engine.arena, tids, atomic, arrays,
                           batch_kernels=engine.batch_kernels)

    def run_plan(self, plan: LaunchPlan) -> tuple[int, int]:
        """Execute a planned launch, recording per-task stats; returns
        the launch totals (what :meth:`run_batch_tasks` returns for the
        same launch)."""
        engine = self._engine
        flops, nbytes = execute_launch(engine.arena, plan,
                                       engine.sparse_tiles)
        return self._record(plan.tids, flops, nbytes)


class NonFiniteValuesError(ValueError):
    """A matrix or right-hand side holds a NaN or infinite value.

    Tile extraction drops NaN entries (``abs(nan) > tol`` is false), so
    a non-finite input would otherwise "factorise" into finite, wrong
    factors; a non-finite right-hand side would only surface as a NaN
    solution.  Both are rejected up front instead.
    """


def check_rhs(b, n: int) -> np.ndarray:
    """Validate a right-hand side for an ``n``-row system.

    Returns ``b`` as a float64 array.  Raises ``ValueError`` unless it
    is 1-D or 2-D with ``n`` rows, ``TypeError`` unless its dtype is
    real (floating or integer), and :class:`NonFiniteValuesError`
    naming the first non-finite entry's ``(row, col)`` (col 0 for 1-D).
    """
    b = np.asarray(b)
    if b.ndim not in (1, 2):
        raise ValueError(
            f"right-hand side must be 1-D or 2-D, got {b.ndim}-D")
    if b.shape[0] != n:
        raise ValueError(
            f"right-hand side has {b.shape[0]} rows, matrix has {n}")
    if not np.issubdtype(b.dtype, np.floating) \
            and not np.issubdtype(b.dtype, np.integer):
        raise TypeError(
            f"right-hand side dtype {b.dtype} is not real-numeric")
    b = b.astype(np.float64, copy=False)
    b2 = b[:, None] if b.ndim == 1 else b
    finite = np.isfinite(b2)
    if not finite.all():
        row, col = divmod(int(np.argmin(finite)), b2.shape[1])
        raise NonFiniteValuesError(
            f"right-hand side value at (row {row}, col {col}) is "
            f"{float(b2[row, col])!r}; the solve needs finite values")
    return b


@dataclass
class FactorizationResult:
    """Everything a factorisation run produces.

    Attributes
    ----------
    solver, scheduler:
        Human-readable provenance.
    L, U:
        Global factors (L has an explicit unit diagonal).
    perm:
        Fill-reducing permutation applied before factorisation
        (new ← old), needed by :meth:`solve`.
    schedule:
        The simulated schedule (kernel counts, timeline, GFLOPS).
    dag:
        The task DAG (replayable against other schedulers/GPUs).
    stats:
        Exact per-task work recorded during numeric execution, as a
        :class:`~repro.kernels.tilekernels.ColumnarStats` mapping.
    fill_nnz:
        Predicted nnz(L+U) from the symbolic phase.
    phase_seconds:
        Wall-clock time of the reorder/symbolic/numeric phases of *this
        process* (Figure-2 style measurement; the numeric entry is real
        compute time, not the simulated GPU time).
    """

    solver: str
    scheduler: str
    L: CSRMatrix
    U: CSRMatrix
    perm: np.ndarray
    schedule: ScheduleResult
    dag: TaskDAG
    stats: Mapping[int, KernelStats]
    fill_nnz: int
    phase_seconds: dict[str, float]
    #: cached (L, U) SpTRSV contexts for the batched solve path
    _solve_ctx: "tuple | None" = field(default=None, repr=False,
                                       compare=False)
    #: cached (L, U) blocked-substitution plans for the default path
    _solve_plan: "tuple | None" = field(default=None, repr=False,
                                        compare=False)

    def solve(self, b: np.ndarray, refine: int = 0,
              a: "CSRMatrix | None" = None,
              batch_solve: bool | None = None,
              solve_scheduler: str = "trojan") -> np.ndarray:
        """Solve ``A x = b`` with the computed factors.

        Applies the symmetric permutation: ``PAPᵀ = LU`` means
        ``x = Pᵀ (U⁻¹ L⁻¹ P b)``.

        The default path substitutes through the blocked plans of
        :meth:`solve_plans` (:class:`~repro.sparse.triplan.TriangularPlan`):
        ``⌈n/32⌉`` block steps per factor, each one folded ``bincount``
        plus one matmul by an inverted diagonal block.  The plans are
        built on the first solve and reused by every later solve and
        refinement sweep.  A 2-D ``b`` is one system per column, and
        each column of the result is bit-identical to the 1-D solve of
        that column, on both paths.

        ``b`` is validated before any work: it must be 1-D or 2-D with
        ``n`` rows (``ValueError``), of a real dtype (``TypeError``) and
        finite (:class:`NonFiniteValuesError`, naming the first
        ``(row, col)``).  A 2-D ``b`` with no columns returns an
        ``(n, 0)`` array.  A zero diagonal in ``U`` raises
        ``ZeroDivisionError`` naming the row of the permuted system.

        Parameters
        ----------
        refine:
            Number of iterative-refinement sweeps (``x += A⁻¹(b − Ax)``),
            the standard accuracy recovery step for statically-pivoted
            factorisations.  Requires ``a``.
        a:
            The original (unpermuted) matrix, needed only for refinement
            residuals.
        batch_solve:
            Run the substitutions through the batched SpTRSV task DAGs
            (:mod:`repro.solvers.sptrsv`) instead of the blocked plans —
            the simulated, schedulable form of the solve.  ``None``
            (default) reads the ``REPRO_BATCH_SOLVE`` environment knob
            (off unless set).
        solve_scheduler:
            DAG-path scheduling policy (``trojan``, ``levelset``,
            ``levelbatch``, ``serial``); ignored on the default path.
        """
        refine = int(refine)
        if refine < 0:
            raise ValueError(f"refine must be >= 0, got {refine}")
        if refine and a is None:
            raise ValueError("iterative refinement needs the original matrix")
        b = check_rhs(b, self.L.nrows)
        if b.ndim == 2 and b.shape[1] == 0:
            return np.zeros(b.shape)
        use_dag = (batch_solve_enabled() if batch_solve is None
                   else bool(batch_solve))
        if use_dag:
            def sub(rhs):
                return self._substitute_dag(rhs, solve_scheduler)
        else:
            sub = self._substitute
        x = sub(b)
        for _ in range(refine):
            from repro.sparse import matvec

            r = b - matvec(a, x)
            x = x + sub(r)
        return x

    def solve_per_column_oracle(self, b: np.ndarray, refine: int = 0,
                                a: "CSRMatrix | None" = None) -> np.ndarray:
        """Differential oracle for :meth:`solve` with ``batch_solve=True``.

        Runs the identical permutation handling and refinement loop, but
        substitutes through the tiled per-column serial path
        (:meth:`~repro.solvers.sptrsv.SpTRSVContext.solve_per_column`).
        The DAG path is bit-identical to this under every scheduler and
        batch composition — the solve-phase battery pins it.
        """
        refine = int(refine)
        if refine < 0:
            raise ValueError(f"refine must be >= 0, got {refine}")
        if refine and a is None:
            raise ValueError("iterative refinement needs the original matrix")
        b = np.asarray(b, dtype=np.float64)
        x = self._substitute_oracle(b)
        for _ in range(refine):
            from repro.sparse import matvec

            r = b - matvec(a, x)
            x = x + self._substitute_oracle(r)
        return x

    def solve_contexts(self):
        """The lazily-built ``(L, U)`` SpTRSV contexts (tile stamping and
        triangularity validation happen once per factorisation)."""
        if self._solve_ctx is None:
            from repro.solvers.sptrsv import SpTRSVContext

            part = self.dag.part
            self._solve_ctx = (
                SpTRSVContext(self.L, part, lower=True, unit_diagonal=True),
                SpTRSVContext(self.U, part, lower=False),
            )
        return self._solve_ctx

    def solve_plans(self):
        """The lazily-built ``(L, U)`` blocked-substitution plans of the
        default solve path — a pure function of ``L`` and ``U``, built
        once per factorisation."""
        if self._solve_plan is None:
            self._solve_plan = (
                TriangularPlan.from_csr(self.L, lower=True,
                                        unit_diagonal=True),
                TriangularPlan.from_csr(self.U, lower=False),
            )
        return self._solve_plan

    def drop_solve_plans(self) -> None:
        """Forget the cached plans; the next solve rebuilds them (bit
        for bit — they are a pure function of ``L`` and ``U``)."""
        self._solve_plan = None

    def _substitute(self, b: np.ndarray) -> np.ndarray:
        lplan, uplan = self.solve_plans()
        pb = b[self.perm] if b.ndim == 1 else b[self.perm, :]
        z = uplan.solve(lplan.solve(pb))
        x = np.empty_like(z)
        x[self.perm] = z
        return x

    def _substitute_dag(self, b: np.ndarray, scheduler: str) -> np.ndarray:
        lctx, uctx = self.solve_contexts()
        pb = b[self.perm] if b.ndim == 1 else b[self.perm, :]
        y = lctx.solve(pb, scheduler=scheduler).x
        z = uctx.solve(y, scheduler=scheduler).x
        x = np.empty_like(z)
        x[self.perm] = z
        return x

    def _substitute_oracle(self, b: np.ndarray) -> np.ndarray:
        lctx, uctx = self.solve_contexts()
        pb = b[self.perm] if b.ndim == 1 else b[self.perm, :]
        y = lctx.solve_per_column(pb)
        z = uctx.solve_per_column(y)
        x = np.empty_like(z)
        x[self.perm] = z
        return x

    def residuals(self, a: CSRMatrix, b: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
        """Per-column relative residuals ‖Ax − b‖₂ / ‖b‖₂ (original A).

        Returns one value per right-hand-side column (a 0-D array for
        1-D ``b``).  Convention for a zero column: when ``‖b‖₂ == 0``
        the relative residual is undefined, so the *absolute* norm
        ‖Ax‖₂ is reported for that column instead — 0.0 iff the solve
        returned the exact null solution, never a spurious ``inf``.
        """
        from repro.sparse import matvec

        b = np.asarray(b, dtype=np.float64)
        r = matvec(a, x) - b
        norm_r = np.linalg.norm(r, axis=0)
        norm_b = np.linalg.norm(b, axis=0)
        return np.where(norm_b > 0, norm_r / np.where(norm_b > 0, norm_b, 1.0),
                        norm_r)

    def residual(self, a: CSRMatrix, b: np.ndarray, x: np.ndarray) -> float:
        """Scalar residual summary against the *original* A.

        For 1-D ``b`` this is the relative residual ‖Ax − b‖₂ / ‖b‖₂;
        for 2-D ``b`` it is the **maximum** of the per-column relative
        residuals (:meth:`residuals`) — a Frobenius-collapsed scalar
        would let one bad column hide behind many good ones.  The
        zero-``b`` convention of :meth:`residuals` applies (absolute
        norm for zero columns).
        """
        return float(np.max(self.residuals(a, b, x)))


def scale_stats(stats: Mapping[int, KernelStats],
                flop_factor: float,
                byte_factor: float | None = None) -> dict[int, KernelStats]:
    """Extrapolate recorded per-task work to a larger problem scale.

    The analogues factorised here use tiles ~8× smaller per dimension than
    the paper's (block 64 vs 512, supernode 32 vs 256), so per-task work
    is ~512× smaller.  Benches that study the *compute-dominated* regime
    (Table 7) replay schedules against stats scaled by that documented
    factor: the DAG, batch composition and task counts stay real; only the
    per-task flop/byte magnitudes are extrapolated (DESIGN.md §3).

    Parameters
    ----------
    stats:
        Recorded per-task stats.
    flop_factor:
        Multiplier on flops (cubic in the linear tile-scale deficit).
    byte_factor:
        Multiplier on bytes; defaults to ``flop_factor ** (2/3)``
        (quadratic in the linear scale).
    """
    if flop_factor <= 0:
        raise ValueError("flop_factor must be positive")
    bf = flop_factor ** (2.0 / 3.0) if byte_factor is None else byte_factor
    return {
        tid: KernelStats(flops=int(s.flops * flop_factor),
                         bytes=int(s.bytes * bf))
        for tid, s in stats.items()
    }


def resimulate(result: FactorizationResult, scheduler: str,
               gpu: GPUSpec, stats: Mapping[int, KernelStats] | None = None,
               merge_schur: bool = False, **kwargs) -> ScheduleResult:
    """Re-run only the *schedule* of a finished factorisation.

    Uses the recorded exact per-task stats, so sweeping schedulers and
    GPU models costs microseconds per task instead of repeating the
    numerics — the benches for Figures 9–12 are built on this.

    Parameters
    ----------
    stats:
        Optional replacement per-task stats (e.g. from
        :func:`scale_stats`); defaults to the run's recorded stats.
    merge_schur:
        Apply the §3.5.1 Schur-fusion rewrite before scheduling (the
        SuperLU + Trojan Horse integration).
    """
    from repro.core.fusion import merge_schur_tasks

    model = GPUCostModel(gpu)
    use_stats = stats if stats is not None else result.stats
    dag = result.dag
    if merge_schur:
        fusion = merge_schur_tasks(dag)
        dag = fusion.dag
        use_stats = fusion.fuse_stats(use_stats)
    backend = ReplayBackend(use_stats)
    sched = make_scheduler(scheduler, dag, backend, model, **kwargs)
    return sched.run()
