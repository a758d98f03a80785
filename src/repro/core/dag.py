"""The numeric-factorisation task DAG.

Built from the block-level fill pattern: one GETRF per diagonal tile, one
TSTRF/GEESM per off-diagonal factor tile, one SSSSM per (k, i, j) panel
pair.  Dependencies follow §2.3 of the paper:

* GETRF(k) ⇐ every SSSSM(·, k, k);
* TSTRF(k, i) ⇐ GETRF(k) and every SSSSM(·, i, k);
* GEESM(k, j) ⇐ GETRF(k) and every SSSSM(·, k, j);
* SSSSM(k, i, j) ⇐ TSTRF(k, i) and GEESM(k, j).

SSSSM tasks sharing a target tile but coming from different steps ``k``
are mutually order-independent — they may run in the same batch with
atomic accumulation (the 9S0/9S1 example of Figure 4).

The DAG itself is immutable at run time: schedulers copy the predecessor
counters, so one DAG serves every scheduler variant and GPU model in an
experiment.  Its stored form is columnar (:class:`TaskArrays` plus a
successor CSR); ``Task`` objects are a lazily built view.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from repro.core.task import _SHARED_MEM_CAP_BYTES, Task, TaskType
from repro.kernels.flops import getrf_flops_dense
from repro.sparse.blocking import Partition


@dataclass(frozen=True)
class TaskArrays:
    """Column-oriented task metadata: the stored form of a task DAG.

    One row per task.  Every consumer on the scheduling, numeric and
    simulation paths reads these columns; :class:`~repro.core.task.Task`
    objects are only a lazily built view of them
    (:attr:`TaskDAG.tasks`).  Build with :func:`make_task_arrays`, which
    derives the resource columns from the coordinates and tile shape.

    Attributes
    ----------
    type_code:
        ``TaskType`` as int8.
    k, i, j:
        Elimination step and tile coordinates.
    distance:
        ``|i - j|`` — the Prioritizer's diagonal-distance metric.
    cuda_blocks, shared_mem:
        Per-task Executor resource footprint.
    flops_est, bytes_est, nnz:
        Structural work estimates.
    target:
        Output-tile id ``i * nblocks + j`` for SSSSM tasks, ``-1``
        otherwise — used for vectorized in-batch write-conflict
        detection.
    rows, cols:
        Output-tile dimensions.
    owner:
        Owning rank in distributed runs (0 otherwise).
    sparse, atomic:
        The per-task sparse-accounting and atomic-accumulation flags.
    """

    type_code: np.ndarray
    k: np.ndarray
    i: np.ndarray
    j: np.ndarray
    distance: np.ndarray
    cuda_blocks: np.ndarray
    shared_mem: np.ndarray
    flops_est: np.ndarray
    bytes_est: np.ndarray
    nnz: np.ndarray
    target: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    owner: np.ndarray
    sparse: np.ndarray
    atomic: np.ndarray

    def freeze(self) -> None:
        """Mark every column read-only."""
        for f in fields(self):
            getattr(self, f.name).flags.writeable = False


def make_task_arrays(nb: int, type_code, k, i, j, rows, cols, nnz,
                     flops_est, bytes_est, owner, sparse,
                     atomic) -> TaskArrays:
    """Assemble :class:`TaskArrays` from the base columns.

    ``distance``, ``cuda_blocks``, ``shared_mem`` and ``target`` are
    derived here, as array forms of the :class:`~repro.core.task.Task`
    properties of the same names (the paper's Figure-7 CUDA-block
    mapping).
    """
    type_code = np.asarray(type_code, dtype=np.int8)
    k, i, j, rows, cols, nnz, flops_est, bytes_est, owner = (
        np.asarray(c, dtype=np.int64) for c in
        (k, i, j, rows, cols, nnz, flops_est, bytes_est, owner))
    tstrf = type_code == TaskType.TSTRF
    cuda_blocks = np.maximum(1, np.where(tstrf, rows, cols))
    vector = 8 * np.where(tstrf, cols, rows)
    shared_mem = np.where(vector > _SHARED_MEM_CAP_BYTES, 0,
                          cuda_blocks * vector)
    # lazy import: repro.verify.effects is the single definition
    # of write footprints, but importing it at module top would
    # cycle through repro.verify.__init__ while repro.core is
    # still mid-import
    from repro.verify.effects import atomic_write_targets
    return TaskArrays(
        type_code=type_code, k=k, i=i, j=j, distance=np.abs(i - j),
        cuda_blocks=cuda_blocks, shared_mem=shared_mem,
        flops_est=flops_est, bytes_est=bytes_est, nnz=nnz,
        target=atomic_write_targets(type_code, i, j, nb),
        rows=rows, cols=cols, owner=owner,
        sparse=np.asarray(sparse, dtype=bool),
        atomic=np.asarray(atomic, dtype=bool),
    )


def _gather_csr(indptr: np.ndarray, indices: np.ndarray,
                tids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``indices[indptr[t]:indptr[t+1]]`` for every ``t``.

    Returns ``(gathered, counts)`` where ``counts[q]`` is the slice
    length of ``tids[q]`` — the multi-slice gather that replaces the
    per-task successor loops.
    """
    counts = indptr[tids + 1] - indptr[tids]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), counts
    ends = np.cumsum(counts)
    pos = (np.arange(total, dtype=np.int64)
           - np.repeat(ends - counts, counts)
           + np.repeat(indptr[tids], counts))
    return indices[pos], counts


_TASK_TYPES = {int(t): t for t in TaskType}


class TaskDAG:
    """Immutable task graph: task columns plus a successor CSR.

    The stored form is :class:`TaskArrays` and the CSR
    ``(indptr, indices)``; ``indices[indptr[t]:indptr[t+1]]`` are the
    tasks unlocked by completing ``t``, ascending.  All of them — and
    ``pred_count`` — are read-only: one DAG is shared by every
    scheduler run, GPU model and analysis-cache hit, so a consumer that
    tried to write one would corrupt all later users.  Schedulers copy
    ``pred_count`` for their live counters.

    :attr:`tasks` and :attr:`successors` are per-object views for the
    callers that want them (the reference scheduler, distsim, PaStiX,
    the CPU baselines, tests); they are built on first access and
    cached.  Construct from per-task objects with :meth:`from_tasks`.

    Attributes
    ----------
    arrays:
        The task columns.
    pred_count:
        Number of predecessors per task (int64).
    part:
        The tile partition the DAG was built over.
    """

    def __init__(self, arrays: TaskArrays, indptr: np.ndarray,
                 indices: np.ndarray, part: Partition):
        n = int(arrays.type_code.size)
        if indptr.shape != (n + 1,) or int(indptr[-1]) != indices.size:
            raise ValueError("successor CSR does not match the task count")
        self.arrays = arrays
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.pred_count = np.bincount(self.indices, minlength=n).astype(
            np.int64, copy=False)
        self.part = part
        self._freeze()
        self._tasks: tuple[Task, ...] | None = None
        self._successors: tuple[tuple[int, ...], ...] | None = None
        self._cp_cache: np.ndarray | None = None
        self._levels_cache: list | None = None

    def _freeze(self) -> None:
        self.arrays.freeze()
        for arr in (self.pred_count, self.indptr, self.indices):
            arr.flags.writeable = False

    def __getstate__(self) -> dict:
        # the object views are rebuilt on demand, not pickled
        state = dict(self.__dict__)
        state["_tasks"] = state["_successors"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._freeze()

    @classmethod
    def from_tasks(cls, tasks, successors, part: Partition) -> "TaskDAG":
        """Build a DAG from per-task objects and adjacency lists.

        ``tasks[t].tid`` must equal ``t``; ``successors[t]`` lists the
        tasks unlocked by ``t`` (the CSR keeps the given order).
        """
        n = len(tasks)
        if any(t.tid != pos for pos, t in enumerate(tasks)):
            raise ValueError("task ids must equal their positions")
        if len(successors) != n:
            raise ValueError("one successor list per task is required")

        def col(attr, dtype=np.int64):
            return np.fromiter((getattr(t, attr) for t in tasks), dtype,
                               count=n)

        arrays = make_task_arrays(
            part.nblocks,
            np.fromiter((int(t.type) for t in tasks), np.int8, count=n),
            col("k"), col("i"), col("j"), col("rows"), col("cols"),
            col("nnz"), col("flops_est"), col("bytes_est"), col("owner"),
            col("sparse", bool), col("atomic", bool))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.fromiter((len(s) for s in successors), np.int64,
                              count=n), out=indptr[1:])
        indices = np.fromiter(itertools.chain.from_iterable(successors),
                              np.int64, count=int(indptr[-1]))
        return cls(arrays, indptr, indices, part)

    @property
    def n_tasks(self) -> int:
        """Total number of tasks."""
        return int(self.pred_count.size)

    @property
    def tasks(self) -> tuple[Task, ...]:
        """All tasks as :class:`~repro.core.task.Task` objects, indexed
        by ``tid`` — a view of the columns, built on first access."""
        if self._tasks is None:
            a = self.arrays
            types = [_TASK_TYPES[c] for c in a.type_code.tolist()]
            self._tasks = tuple(map(
                Task, range(self.n_tasks), types, a.k.tolist(),
                a.i.tolist(), a.j.tolist(), a.rows.tolist(),
                a.cols.tolist(), a.nnz.tolist(), a.sparse.tolist(),
                a.atomic.tolist(), a.flops_est.tolist(),
                a.bytes_est.tolist(), a.owner.tolist()))
        return self._tasks

    @property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """``successors[tid]``: the task ids unlocked by completing
        ``tid`` — a view of the CSR, built on first access."""
        if self._successors is None:
            ptr = self.indptr.tolist()
            idx = self.indices.tolist()
            self._successors = tuple(
                tuple(idx[ptr[t]:ptr[t + 1]]) for t in range(self.n_tasks))
        return self._successors

    def initial_ready(self) -> list[int]:
        """Task ids with no predecessors."""
        return np.flatnonzero(self.pred_count == 0).tolist()

    def successor_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The successor CSR ``(indptr, indices)`` (read-only arrays) —
        the flat form the vectorized schedulers use for
        ``np.subtract.at`` successor decrements."""
        return self.indptr, self.indices

    def gather_successors(self, tids: np.ndarray) -> np.ndarray:
        """All successors of ``tids`` concatenated (duplicates kept)."""
        out, _ = _gather_csr(self.indptr, self.indices,
                             np.asarray(tids, np.int64))
        return out

    def task_arrays(self) -> TaskArrays:
        """The task columns (read-only arrays)."""
        return self.arrays

    def counts_by_type(self) -> dict[str, int]:
        """Task counts keyed by kernel-type name."""
        counts = np.bincount(self.arrays.type_code,
                             minlength=len(TaskType)).tolist()
        return {t.name: counts[int(t)] for t in TaskType}

    def total_flops_est(self) -> int:
        """Sum of structural flop estimates over all tasks."""
        return int(self.arrays.flops_est.sum())

    def validate(self) -> None:
        """Structural sanity: acyclic and every task reachable.

        Runs a full Kahn peel; raises ``AssertionError`` on a cycle.
        Intended for tests, not hot paths.
        """
        seen = sum(f.size for f in self._peel_levels(check=False))
        if seen != self.n_tasks:
            raise AssertionError(
                f"task DAG has a cycle or orphan: peeled {seen}/{self.n_tasks}"
            )

    def _peel_levels(self, check: bool = True) -> list[np.ndarray]:
        if self._levels_cache is not None:
            levels = self._levels_cache
        else:
            indptr, indices = self.successor_csr()
            indeg = self.pred_count.copy()
            frontier = np.flatnonzero(indeg == 0)
            levels = []
            while frontier.size:
                levels.append(frontier)
                succ, _ = _gather_csr(indptr, indices, frontier)
                np.subtract.at(indeg, succ, 1)
                frontier = np.unique(succ[indeg[succ] == 0])
            # cache only complete peels: a cyclic DAG's partial peel
            # must stay recomputable so validate() keeps reporting it
            if sum(f.size for f in levels) == self.n_tasks:
                self._levels_cache = levels
        if check and sum(f.size for f in levels) != self.n_tasks:
            raise AssertionError("level schedule did not cover the DAG")
        return levels

    def level_schedule(self) -> list[np.ndarray]:
        """Peel the DAG level by level (the Figure-3 static analysis).

        Level ``d`` holds every task whose longest chain of predecessors
        has length ``d``; its width is the number of tasks executable in
        parallel at time step ``d``.  Tasks within a level are in
        ascending id order.  Computed once and cached (the DAG is
        immutable); treat the returned arrays as read-only.
        """
        return self._peel_levels(check=True)

    def critical_path_lengths(self) -> np.ndarray:
        """Longest path (in tasks) from each task to any sink, inclusive.

        The Prioritizer uses this to decide which ready tasks sit on the
        critical path.  Unit task weights: the metric ranks *dependency
        depth*, which is what throttles parallelism.  Computed once and
        cached (the DAG is immutable); treat the returned array as
        read-only.
        """
        if self._cp_cache is None:
            indptr, indices = self.successor_csr()
            cp = np.ones(self.n_tasks, dtype=np.int64)
            # every successor of a level-d task sits in a level > d, so a
            # reverse sweep over the levels sees all successors resolved
            for level in reversed(self._peel_levels(check=True)):
                succ, counts = _gather_csr(indptr, indices, level)
                if not succ.size:
                    continue
                owners = np.repeat(np.arange(level.size), counts)
                best = np.zeros(level.size, dtype=np.int64)
                np.maximum.at(best, owners, cp[succ])
                cp[level] = 1 + best
            self._cp_cache = cp
        return self._cp_cache

    def is_verified_acyclic(self) -> bool:
        """Cheap acyclicity witness: a cached critical-path labeling
        exists, meaning a full Kahn peel already covered every task.

        ``False`` only means "not proven yet" — the static verifier uses
        this to skip re-peeling DAGs a scheduler has already processed.
        """
        return self._cp_cache is not None


def _sparse_getrf_est(m: int, nnz: int) -> int:
    density = min(1.0, nnz / max(1, m * m))
    return max(nnz, int(getrf_flops_dense(m) * density ** 1.5))


def _tile_nnz_matrix(tile_nnz, sizes: np.ndarray) -> np.ndarray:
    """``nnz[i, j]`` as the estimates use it: ``tile_nnz[(i, j)]``
    capped at the tile's area, the full area for absent tiles."""
    nnz = np.multiply.outer(sizes, sizes)
    if not tile_nnz:
        return nnz
    nb = sizes.size
    keys = np.fromiter(itertools.chain.from_iterable(tile_nnz.keys()),
                       np.int64, count=2 * len(tile_nnz)).reshape(-1, 2)
    vals = np.fromiter(tile_nnz.values(), np.int64, count=len(tile_nnz))
    r, c = keys[:, 0], keys[:, 1]
    inside = (r >= 0) & (r < nb) & (c >= 0) & (c < nb)
    r, c, vals = r[inside], c[inside], vals[inside]
    nnz[r, c] = np.minimum(nnz[r, c], vals)
    return nnz


def build_block_dag(
    fill: np.ndarray,
    part: Partition,
    tile_nnz: dict[tuple[int, int], int] | None = None,
    sparse_tiles: bool = False,
    owner_of=None,
) -> TaskDAG:
    """Construct the task DAG from a block fill pattern.

    Tasks are numbered step by step — GETRF(k), then step ``k``'s
    TSTRFs and GEESMs in ascending tile order — followed by every SSSSM
    in ``(k, i, j)`` order.  The whole DAG is built as arrays: each step
    ``k`` contributes the product ``lower_of[k] × upper_of[k]`` of its
    panel tiles as SSSSMs, the estimates are array expressions, and the
    edges go straight into the successor CSR.

    Parameters
    ----------
    fill:
        Boolean ``nb × nb`` tile map from
        :func:`repro.symbolic.block_fill`.  It must be closed under
        elimination (every SSSSM target tile present).
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
    sizes = part.sizes().astype(np.int64)
    nnz_of = _tile_nnz_matrix(tile_nnz, sizes)

    # step k's panel tiles: TSTRF (i, k) for i in lower_of[k] and GEESM
    # (k, j) for j in upper_of[k], listed k-major and ascending
    lk, li = np.nonzero(np.tril(fill, -1).T)
    uk, uj = np.nonzero(np.triu(fill, 1))
    nl = np.bincount(lk, minlength=nb)
    nu = np.bincount(uk, minlength=nb)
    step_size = 1 + nl + nu
    getrf = np.cumsum(step_size) - step_size
    tstrf = getrf[lk] + 1 + np.arange(lk.size) - (np.cumsum(nl) - nl)[lk]
    u_start = np.cumsum(nu) - nu
    geesm = getrf[uk] + 1 + nl[uk] + np.arange(uk.size) - u_start[uk]
    n_factor = nb + lk.size + uk.size

    # SSSSM(k, i, j): every TSTRF (i, k) pairs with each GEESM (k, j)
    reps = nu[lk]
    n_ssssm = int(reps.sum())
    lpos = np.repeat(np.arange(lk.size), reps)
    run_start = np.cumsum(reps) - reps
    upos = (np.repeat(u_start[lk] - run_start, reps)
            + np.arange(n_ssssm, dtype=np.int64))
    ssssm = n_factor + np.arange(n_ssssm, dtype=np.int64)
    n = n_factor + n_ssssm

    type_code = np.empty(n, dtype=np.int8)
    k = np.empty(n, dtype=np.int64)
    i = np.empty(n, dtype=np.int64)
    j = np.empty(n, dtype=np.int64)
    steps = np.arange(nb, dtype=np.int64)
    for tids, code, kk, ii, jj in (
            (getrf, TaskType.GETRF, steps, steps, steps),
            (tstrf, TaskType.TSTRF, lk, li, lk),
            (geesm, TaskType.GEESM, uk, uk, uj),
            (ssssm, TaskType.SSSSM, lk[lpos], li[lpos], uj[upos])):
        type_code[tids] = code
        k[tids] = kk
        i[tids] = ii
        j[tids] = jj

    # The sparse estimates divide in float64 like Python's int / int:
    # exact while the products stay below 2 ** 53 (tiles under ~6900
    # rows, since nnz <= rows * cols).
    rows, cols, mk = sizes[i], sizes[j], sizes[k]
    nnz = nnz_of[i, j]
    flops = np.empty(n, dtype=np.int64)
    nbytes = np.empty(n, dtype=np.int64)
    # GETRF: scalar, so the sparse estimate's density ** 1.5 stays exact
    m_list = sizes.tolist()
    if sparse_tiles:
        flops[getrf] = [_sparse_getrf_est(m, z) for m, z in
                        zip(m_list, nnz_of.diagonal().tolist())]
    else:
        dense = {m: getrf_flops_dense(m) for m in set(m_list)}
        flops[getrf] = [dense[m] for m in m_list]
    nbytes[getrf] = 16 * nnz[getrf]
    # TSTRF / GEESM: triangular solves against the step's diagonal tile
    panel = np.concatenate([tstrf, geesm])
    p_nnz, p_mk = nnz[panel], mk[panel]
    diag_nnz = nnz_of[k[panel], k[panel]]
    if sparse_tiles:
        flops[panel] = np.maximum(
            p_nnz, (2 * p_nnz * diag_nnz / np.maximum(1, p_mk)
                    ).astype(np.int64))
    else:
        width = np.where(type_code[panel] == TaskType.TSTRF,
                         rows[panel], cols[panel])
        flops[panel] = p_mk * p_mk * width  # trsm_flops_dense(mk, width)
    nbytes[panel] = 8 * (2 * p_nnz + diag_nnz)
    # SSSSM: Schur update from the L (i, k) and U (k, j) panels
    s_k, s_i, s_j = k[n_factor:], i[n_factor:], j[n_factor:]
    l_nnz, u_nnz = nnz_of[s_i, s_k], nnz_of[s_k, s_j]
    s_mk = mk[n_factor:]
    if sparse_tiles:
        flops[n_factor:] = np.maximum(
            1, (2 * l_nnz * u_nnz / np.maximum(1, s_mk)).astype(np.int64))
    else:
        # gemm_flops_dense(rows, mk, cols)
        flops[n_factor:] = 2 * rows[n_factor:] * s_mk * cols[n_factor:]
    nbytes[n_factor:] = 8 * (nnz[n_factor:] + l_nnz + u_nnz)

    if owner_of is None:
        owner = np.zeros(n, dtype=np.int64)
    else:
        tiles, inverse = np.unique(i * nb + j, return_inverse=True)
        owner = np.fromiter(
            (int(owner_of(*divmod(t, nb))) for t in tiles.tolist()),
            np.int64, count=tiles.size)[inverse]

    # the factor task owning each tile: GETRF on the diagonal, TSTRF
    # below it, GEESM above it — each SSSSM hands off to its target's
    factor_of = np.full((nb, nb), -1, dtype=np.int64)
    factor_of[steps, steps] = getrf
    factor_of[li, lk] = tstrf
    factor_of[uk, uj] = geesm
    handoff = factor_of[s_i, s_j]
    if (handoff < 0).any():
        bad = int(np.argmax(handoff < 0))
        raise ValueError(
            f"fill pattern is not closed under elimination: SSSSM "
            f"(k={int(s_k[bad])}) targets tile ({int(s_i[bad])}, "
            f"{int(s_j[bad])}), which is not in the pattern")
    src = np.concatenate([getrf[lk], getrf[uk], tstrf[lpos], geesm[upos],
                          ssssm])
    dst = np.concatenate([tstrf, geesm, ssssm, ssssm, handoff])
    # successor CSR, ascending within each task's row
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    arrays = make_task_arrays(
        nb, type_code, k, i, j, rows, cols, nnz, flops, nbytes, owner,
        np.full(n, bool(sparse_tiles)), type_code == TaskType.SSSSM)
    return TaskDAG(arrays, indptr, dst[np.lexsort((dst, src))], part)
