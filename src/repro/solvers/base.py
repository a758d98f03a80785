"""Shared front-end machinery for the solver substrates."""

from __future__ import annotations

import time

import numpy as np

from repro.core.analysis_cache import DEFAULT_ANALYSIS_CACHE, AnalysisCache
from repro.core.baselines import make_scheduler
from repro.gpusim.costmodel import GPUCostModel
from repro.gpusim.specs import GPUSpec, RTX5090
from repro.ordering import compute_ordering
from repro.solvers.engine import (
    FactorizationResult,
    NonFiniteValuesError,
    NumericBackend,
    NumericEngine,
)
from repro.solvers.replay import REPLAY_SCHEDULERS, LaunchReplay
from repro.sparse import CSRMatrix, permute_symmetric
from repro.sparse.blocking import Partition


def check_finite(a: CSRMatrix) -> None:
    """Raise :class:`NonFiniteValuesError` naming the first stored
    non-finite entry's global ``(row, col)``."""
    finite = np.isfinite(a.data)
    if finite.all():
        return
    pos = int(np.argmin(finite))
    row = int(np.searchsorted(a.indptr, pos, side="right")) - 1
    col = int(a.indices[pos])
    raise NonFiniteValuesError(
        f"matrix value at (row {row}, col {col}) is {a.data[pos]!r}; "
        "factorisation needs finite values")


class EmptyMatrixError(ValueError):
    """The matrix has no rows or no columns: there is no system to
    factorise (the partitioners cannot cut an empty range)."""


def check_nonempty(a: CSRMatrix) -> None:
    """Raise :class:`EmptyMatrixError` naming the shape of a matrix
    with no rows or no columns."""
    if a.nrows == 0 or a.ncols == 0:
        raise EmptyMatrixError(
            f"matrix shape {a.nrows}x{a.ncols} is empty; factorisation "
            "needs at least one row and one column")


class BlockSolverBase:
    """Template for the GPU solver substrates.

    Subclasses define :meth:`_build_partition` (supernodal vs uniform) and
    the defaults (`tile sparsity`, baseline scheduler name).

    Parameters
    ----------
    a:
        The system matrix.
    ordering:
        Fill-reducing ordering name (see
        :data:`repro.ordering.ORDERING_METHODS`).
    gpu:
        Simulated device (default RTX 5090, the paper's Figure-8 card).
    scheduler:
        Scheduling policy: the substrate's baseline, ``"trojan"`` for the
        paper's strategy, ``"streams"``/``"levelbatch"`` for ablations.
    analysis_cache:
        Pattern-keyed memo for the symbolic analysis.  ``"default"``
        (the default) shares the process-wide
        :data:`~repro.core.analysis_cache.DEFAULT_ANALYSIS_CACHE`;
        pass an :class:`~repro.core.analysis_cache.AnalysisCache` for an
        isolated cache, or ``None`` to disable caching entirely.
    batch_kernels:
        Batched kernel groups in the numeric launches (stacked GEMMs and
        multi-RHS triangular solves; see
        :meth:`repro.solvers.engine.NumericEngine.run_batch_tasks`).
        ``None`` (default) reads the ``REPRO_BATCH_KERNELS`` environment
        knob (on unless ``0``); the factors and recorded stats are
        bit-identical either way.
    """

    solver_name = "block-lu"
    sparse_tiles = False
    default_scheduler = "serial"

    def __init__(self, a: CSRMatrix, ordering: str = "mindeg",
                 gpu: GPUSpec = RTX5090, scheduler: str | None = None,
                 analysis_cache: "AnalysisCache | str | None" = "default",
                 batch_kernels: bool | None = None,
                 **sched_kwargs):
        self.a = a
        self.ordering = ordering
        self.gpu = gpu
        self.scheduler = scheduler or self.default_scheduler
        self.analysis_cache = (DEFAULT_ANALYSIS_CACHE
                               if analysis_cache == "default"
                               else analysis_cache)
        self.batch_kernels = batch_kernels
        self.sched_kwargs = sched_kwargs
        self.result: FactorizationResult | None = None
        self._replay: LaunchReplay | None = None

    # ------------------------------------------------------------------
    def _build_partition(self, permuted: CSRMatrix):
        """Return ``(partition, fill_or_None)``.

        Substrates that already ran the element-level symbolic analysis
        (the supernodal one) hand the fill to the engine so it is not
        recomputed.
        """
        raise NotImplementedError

    def _cached_fill(self, permuted: CSRMatrix):
        """Element-level fill of the permuted matrix, via the cache.

        Substrates whose partition derives from the fill (the supernodal
        one) call this before the engine exists, so repeated patterns
        skip even the pre-partition analysis.
        """
        from repro.symbolic import symbolic_fill

        if self.analysis_cache is None:
            return symbolic_fill(permuted)
        return self.analysis_cache.fill_for(
            permuted, lambda: symbolic_fill(permuted)
        )

    def _make_scheduler(self, dag, backend, model):
        """Instantiate the scheduling policy (hook for substrates with
        policies outside the generic factory, e.g. PaStiX's dmdas)."""
        return make_scheduler(self.scheduler, dag, backend, model,
                              **self.sched_kwargs)

    def _prepare_schedule(self, engine, backend):
        """Optionally rewrite the DAG before scheduling (hook for the
        SuperLU §3.5.1 Schur-fusion integration).  Returns the DAG and
        backend the scheduler should use."""
        return engine.dag, backend

    def _run_scheduler(self, engine):
        """Schedule and execute the numeric phase on ``engine``'s tiles;
        returns ``(schedule, stats)``."""
        backend = NumericBackend(engine)
        sched_dag, sched_backend = self._prepare_schedule(engine, backend)
        schedule = self._make_scheduler(sched_dag, sched_backend,
                                        GPUCostModel(self.gpu)).run()
        return schedule, backend.stats

    # ------------------------------------------------------------------
    def prepare_engine(self, arena_factory=None
                       ) -> tuple[np.ndarray, CSRMatrix, NumericEngine]:
        """Run the reorder + symbolic front-end and build the engine.

        Returns ``(perm, permuted, engine)`` and records them on the
        solver.  :meth:`factorize` calls this and then schedules the
        numeric phase in-process; ``repro.parallel`` calls it with
        ``arena_factory=SharedTileArena`` so the same front-end feeds a
        multiprocess numeric phase on shared tiles.  Raises
        :class:`EmptyMatrixError` for a matrix with no rows or columns
        and :class:`NonFiniteValuesError` if a value is NaN or infinite.
        """
        check_nonempty(self.a)
        check_finite(self.a)
        t0 = time.perf_counter()
        perm = compute_ordering(self.a, self.ordering)
        permuted = permute_symmetric(self.a, perm)
        t1 = time.perf_counter()
        part, fill = self._build_partition(permuted)
        engine = NumericEngine(permuted, part, sparse_tiles=self.sparse_tiles,
                               fill=fill, cache=self.analysis_cache,
                               batch_kernels=self.batch_kernels,
                               arena_factory=arena_factory)
        self._engine = engine
        self._replay = None
        self._perm = perm
        self._front_seconds = {"reorder": t1 - t0,
                               "symbolic": time.perf_counter() - t1}
        return perm, permuted, engine

    def factorize(self) -> FactorizationResult:
        """Run all three phases (Figure 1) and return the result.

        Reordering and symbolic run on the "CPU" (measured wall-clock);
        the numeric phase executes real tile arithmetic while the
        scheduler records the simulated GPU timeline.
        """
        perm, _, engine = self.prepare_engine()
        t2 = time.perf_counter()
        schedule, stats = self._run_scheduler(engine)
        L, U = engine.extract_factors()
        t3 = time.perf_counter()
        self.result = FactorizationResult(
            solver=self.solver_name,
            scheduler=self.scheduler,
            L=L, U=U, perm=perm,
            schedule=schedule,
            dag=engine.dag,
            stats=stats,
            fill_nnz=engine.fill.nnz_lu,
            phase_seconds={
                "reorder": self._front_seconds["reorder"],
                "symbolic": self._front_seconds["symbolic"],
                "numeric": t3 - t2,
            },
        )
        return self.result

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` (factorises on first use)."""
        if self.result is None:
            self.factorize()
        return self.result.solve(b)

    def refactorize(self, a_new: CSRMatrix) -> FactorizationResult:
        """Numeric-only refactorisation for a same-pattern matrix.

        Reuses the ordering, symbolic analysis, tile allocation and task
        DAG of the previous :meth:`factorize` call — the KLU-style fast
        path circuit simulators rely on (values change every Newton step,
        structure never does).  After re-stamping the tiles it replays
        the recorded launches of the previous result's schedule instead
        of re-running the scheduler: batch composition does not depend
        on the values, so the factors, stats and rebuilt
        :class:`~repro.core.scheduler.ScheduleResult` are bit-identical
        to a fresh scheduler run (see :mod:`repro.solvers.replay`).
        Replay does not apply to ``streams`` (its launches overlap across
        streams) or to substrate-specific policies such as PaStiX's
        ``dmdas``; those re-run their scheduler.

        Raises :class:`NonFiniteValuesError` (before touching the tiles)
        if a value is NaN or infinite.  If the numeric phase fails (a
        zero pivot), :attr:`result` keeps the previous factorisation.
        The previous result's substitution plans are dropped first (it
        rebuilds them if it solves again), so a Newton loop never holds
        two plan pairs at the refactorisation's memory peak.
        """
        if self.result is None:
            raise RuntimeError("call factorize() before refactorize()")
        check_finite(a_new)
        self.result.drop_solve_plans()
        t0 = time.perf_counter()
        permuted = permute_symmetric(a_new, self._perm)
        engine = self._engine
        engine.reset_values(permuted)
        if self.scheduler in REPLAY_SCHEDULERS:
            if self._replay is None:
                backend = NumericBackend(engine)
                sched_dag, sched_backend = self._prepare_schedule(engine,
                                                                  backend)
                self._replay = LaunchReplay(self.result.schedule, sched_dag,
                                            sched_backend, backend)
            schedule, stats = self._replay.run(GPUCostModel(self.gpu))
        else:
            schedule, stats = self._run_scheduler(engine)
        L, U = engine.extract_factors()
        t1 = time.perf_counter()
        self.a = a_new
        self.result = FactorizationResult(
            solver=self.solver_name,
            scheduler=self.scheduler,
            L=L, U=U, perm=self._perm,
            schedule=schedule,
            dag=engine.dag,
            stats=stats,
            fill_nnz=engine.fill.nnz_lu,
            phase_seconds={"reorder": 0.0, "symbolic": 0.0,
                           "numeric": t1 - t0},
        )
        return self.result
