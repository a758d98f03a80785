"""Differential suite: batched kernel groups vs the per-task oracle.

The batched execution path (``REPRO_BATCH_KERNELS``, stacked GEMMs and
multi-RHS triangular solves over the pooled tile arena) must be
indistinguishable from the per-task path in everything except speed:
bit-identical L/U factors, identical per-task ``KernelStats``, and
identical per-launch batch records — across dense and sparse tiles,
ragged shape classes, single-task groups and atomic write conflicts.
"""

import types

import numpy as np
import pytest

from repro.core.arena import ScheduleArena
from repro.core.executor import Executor, ReplayBackend
from repro.core.task import TaskType
from repro.gpusim import GPUCostModel, RTX5090
from repro.kernels.batched import batch_kernels_enabled
from repro.kernels.tilekernels import ColumnarStats, KernelStats
from repro.matrices import circuit_like, poisson2d, tridiagonal
from repro.ordering import compute_ordering
from repro.solvers import (
    NumericBackend,
    NumericEngine,
    PanguLUSolver,
    SuperLUSolver,
    TileArena,
    TileViews,
)
from repro.sparse import permute_symmetric, uniform_partition


def _assert_same_csr(x, y):
    assert np.array_equal(x.indptr, y.indptr)
    assert np.array_equal(x.indices, y.indices)
    assert np.array_equal(x.data, y.data)


def _assert_same_run(on, off):
    """Factors, per-task stats and per-launch records must match bitwise."""
    _assert_same_csr(on.L, off.L)
    _assert_same_csr(on.U, off.U)
    assert on.stats == off.stats
    batches_on = [(b.flops, b.bytes, b.n_tasks, b.task_ids)
                  for b in on.schedule.batches]
    batches_off = [(b.flops, b.bytes, b.n_tasks, b.task_ids)
                   for b in off.schedule.batches]
    assert batches_on == batches_off


def _pair(solver_cls, a, **kwargs):
    on = solver_cls(a, batch_kernels=True, analysis_cache=None,
                    **kwargs).factorize()
    off = solver_cls(a, batch_kernels=False, analysis_cache=None,
                     **kwargs).factorize()
    return on, off


class TestDifferentialFactorisation:
    @pytest.mark.parametrize("scheduler", ["trojan", "levelbatch", "serial"])
    @pytest.mark.parametrize("block", [8, 16])
    def test_pangulu_sparse_tiles(self, scheduler, block):
        a = poisson2d(12)
        on, off = _pair(PanguLUSolver, a, block_size=block,
                        scheduler=scheduler)
        _assert_same_run(on, off)

    @pytest.mark.parametrize("scheduler", ["trojan", "levelbatch"])
    def test_pangulu_circuit_matrix(self, scheduler):
        a = circuit_like(180, seed=3)
        on, off = _pair(PanguLUSolver, a, block_size=16, scheduler=scheduler)
        _assert_same_run(on, off)

    @pytest.mark.parametrize("merge_schur", [False, True])
    def test_superlu_dense_tiles(self, merge_schur):
        a = poisson2d(12)
        on, off = _pair(SuperLUSolver, a, merge_schur=merge_schur,
                        scheduler="trojan", max_supernode=8)
        _assert_same_run(on, off)

    def test_ragged_shape_classes(self):
        # n = 81 with block 8: the trailing 1-wide block forces ragged
        # TSTRF/GEESM/SSSSM groups alongside the full 8x8 classes
        a = poisson2d(9)
        on, off = _pair(PanguLUSolver, a, block_size=8, scheduler="trojan")
        _assert_same_run(on, off)

    def test_single_task_groups(self):
        # tridiagonal with tiny blocks: most launches hold one task, the
        # short-circuit path
        a = tridiagonal(6)
        on, off = _pair(PanguLUSolver, a, block_size=2, scheduler="trojan")
        _assert_same_run(on, off)

    def test_solutions_match(self, rng):
        a = poisson2d(12)
        b = rng.standard_normal(a.nrows)
        on, off = _pair(PanguLUSolver, a, block_size=16, scheduler="trojan")
        assert np.array_equal(on.solve(b), off.solve(b))


def _factor_with_conflict_batch(batch_kernels: bool):
    """Drive an engine so every Schur update of the last diagonal tile
    lands in ONE launch — a genuine in-batch write conflict (atomic)."""
    a = poisson2d(8)
    perm = compute_ordering(a, "mindeg")
    permuted = permute_symmetric(a, perm)
    part = uniform_partition(a.nrows, 8)
    engine = NumericEngine(permuted, part, sparse_tiles=True,
                           batch_kernels=batch_kernels)
    backend = NumericBackend(engine)
    execu = Executor(GPUCostModel(RTX5090), backend)
    arena = ScheduleArena(engine.dag)
    arrays = arena.arrays
    last = part.nblocks - 1
    conflict = np.flatnonzero(
        (arrays.type_code == int(TaskType.SSSSM))
        & (arrays.i == last) & (arrays.j == last)
    )
    assert conflict.size >= 2, "test matrix must produce a real conflict"
    deferred = set(conflict.tolist())
    deferred.update(np.flatnonzero(
        (arrays.type_code == int(TaskType.GETRF)) & (arrays.k == last)
    ).tolist())
    ready = set(arena.initial_ready().tolist())
    records = []
    while True:
        torun = sorted(ready - deferred)
        if not torun:
            break
        for tid in torun:
            batch = np.array([tid], dtype=np.int64)
            records.append(execu.run_batch_ids(batch, 0.0, arena))
            ready.discard(tid)
            ready.update(arena.complete(batch).tolist())
    assert set(conflict.tolist()) <= ready, "conflict SSSSMs must be co-ready"
    batch = np.sort(conflict)
    records.append(execu.run_batch_ids(batch, 0.0, arena))
    ready.difference_update(batch.tolist())
    ready.update(arena.complete(batch).tolist())
    for tid in sorted(ready):
        one = np.array([tid], dtype=np.int64)
        records.append(execu.run_batch_ids(one, 0.0, arena))
        arena.complete(one)
    return engine, backend, records


class TestAtomicConflicts:
    def test_conflict_batch_is_bit_identical(self):
        eng_on, back_on, rec_on = _factor_with_conflict_batch(True)
        eng_off, back_off, rec_off = _factor_with_conflict_batch(False)
        l_on, u_on = eng_on.extract_factors()
        l_off, u_off = eng_off.extract_factors()
        _assert_same_csr(l_on, l_off)
        _assert_same_csr(u_on, u_off)
        assert back_on.stats == back_off.stats
        assert [(r.flops, r.bytes, r.task_ids) for r in rec_on] \
            == [(r.flops, r.bytes, r.task_ids) for r in rec_off]

    def test_atomic_accounting_charges_extra_bytes(self):
        # the conflict launch must cost more bytes than the same tasks
        # would serially (atomic reads the target once more per task)
        engine, backend, _ = _factor_with_conflict_batch(True)
        serial = PanguLUSolver(poisson2d(8), block_size=8,
                               scheduler="serial",
                               analysis_cache=None).factorize()
        assert sum(s.bytes for s in backend.stats.values()) \
            > sum(s.bytes for s in serial.stats.values())


class TestKnob:
    def test_env_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_KERNELS", "0")
        assert not batch_kernels_enabled()
        engine = NumericEngine(tridiagonal(6), uniform_partition(6, 2))
        assert engine.batch_kernels is False

    def test_env_default_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH_KERNELS", raising=False)
        assert batch_kernels_enabled()
        engine = NumericEngine(tridiagonal(6), uniform_partition(6, 2))
        assert engine.batch_kernels is True

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH_KERNELS", "1")
        engine = NumericEngine(tridiagonal(6), uniform_partition(6, 2),
                               batch_kernels=False)
        assert engine.batch_kernels is False


class TestTileArena:
    def test_views_match_block_fill(self):
        engine = NumericEngine(poisson2d(8), uniform_partition(64, 8))
        bi, bj = np.nonzero(engine.bfill)
        assert set(zip(bi.tolist(), bj.tolist())) == set(engine.tiles)
        assert len(engine.tiles) == int(engine.bfill.sum())
        assert isinstance(engine.tiles, TileViews)

    def test_missing_tile_raises(self):
        engine = NumericEngine(poisson2d(8), uniform_partition(64, 8))
        missing = next(
            (int(i), int(j)) for i, j in np.ndindex(*engine.bfill.shape)
            if not engine.bfill[i, j]
        )
        with pytest.raises(KeyError):
            engine.tiles[missing]
        assert missing not in engine.tiles
        assert "nope" not in engine.tiles

    def test_stamp_outside_fill_raises(self):
        a = tridiagonal(6)
        part = uniform_partition(6, 2)
        diag_only = np.eye(part.nblocks, dtype=bool)
        arena = TileArena(part, diag_only)
        with pytest.raises(AssertionError, match="outside predicted"):
            arena.stamp(a)

    def test_restamp_matches_fresh_engine(self):
        a = poisson2d(8)
        engine = NumericEngine(a, uniform_partition(64, 8))
        scaled = type(a)(a.shape, a.indptr.copy(), a.indices.copy(),
                         a.data * 2.0)
        engine.reset_values(scaled)
        fresh = NumericEngine(scaled, uniform_partition(64, 8))
        for key in fresh.tiles:
            assert np.array_equal(engine.tiles[key], fresh.tiles[key])

    def test_views_are_writable_pool_storage(self):
        engine = NumericEngine(poisson2d(8), uniform_partition(64, 8))
        key = next(iter(engine.tiles))
        engine.tiles[key][0, 0] = 123.0
        cls, slot = engine.arena.locate(np.array([key[0]]),
                                        np.array([key[1]]))
        assert engine.arena.pools[int(cls[0])][int(slot[0])][0, 0] == 123.0


class TestReplayRebuild:
    @staticmethod
    def _backend(n_tasks=100):
        stats = {tid: KernelStats(flops=tid + 1, bytes=10 * tid + 1)
                 for tid in range(n_tasks)}
        return ReplayBackend(stats), stats

    def test_shared_backend_does_not_thrash(self):
        # two engines of different DAG sizes alternating on one backend:
        # the gather arrays grow once per size increase, never shrink or
        # rebuild on the way back down
        backend, stats = self._backend(100)
        small = types.SimpleNamespace(nnz=np.zeros(40))
        large = types.SimpleNamespace(nnz=np.zeros(100))
        tids_small = np.arange(10, dtype=np.int64)
        tids_large = np.arange(90, 100, dtype=np.int64)
        atomic = np.zeros(10, dtype=bool)
        for _ in range(5):
            backend.batch_stats(tids_small, atomic, small)
            backend.batch_stats(tids_large, atomic, large)
        assert backend.rebuilds == 2  # one per distinct growth, not 10

    def test_incremental_growth_is_correct(self):
        backend, stats = self._backend(100)
        atomic = np.zeros(5, dtype=bool)
        for size in (20, 60, 100):
            arrays = types.SimpleNamespace(nnz=np.zeros(size))
            tids = np.arange(size - 5, size, dtype=np.int64)
            flops, nbytes = backend.batch_stats(tids, atomic, arrays)
            assert flops == sum(stats[int(t)].flops for t in tids)
            assert nbytes == sum(stats[int(t)].bytes for t in tids)
        assert backend.rebuilds == 3

    def test_missing_tid_still_raises(self):
        backend, _ = self._backend(10)
        arrays = types.SimpleNamespace(nnz=np.zeros(20))
        with pytest.raises(KeyError):
            backend.batch_stats(np.array([15]), np.zeros(1, dtype=bool),
                                arrays)


class _NoItemAccess(ColumnarStats):
    """Columnar stats that fail on per-item access."""

    def __getitem__(self, tid):
        raise AssertionError("ReplayBackend built per-task objects")


class TestReplayRebuildColumnar(TestReplayRebuild):
    """The same growth contract over :class:`ColumnarStats`, gathered
    from the columns without building per-task objects."""

    @staticmethod
    def _backend(n_tasks=100):
        stats = {tid: KernelStats(flops=tid + 1, bytes=10 * tid + 1)
                 for tid in range(n_tasks)}
        tids = np.arange(n_tasks, dtype=np.int64)
        return ReplayBackend(_NoItemAccess(tids + 1, 10 * tids + 1)), stats

    def test_columnar_holes_are_missing(self):
        flops = np.arange(8, dtype=np.int64)
        recorded = np.ones(8, dtype=bool)
        recorded[5] = False
        backend = ReplayBackend(_NoItemAccess(flops, 2 * flops, recorded))
        arrays = types.SimpleNamespace(nnz=np.zeros(8))
        atomic = np.zeros(2, dtype=bool)
        assert backend.batch_stats(np.array([3, 6]), atomic, arrays) == (9, 18)
        with pytest.raises(KeyError):
            backend.batch_stats(np.array([4, 5]), atomic, arrays)


class TestColumnarStats:
    def test_mapping_contract(self):
        flops = np.array([5, 6, 7], dtype=np.int64)
        nbytes = np.array([50, 60, 70], dtype=np.int64)
        stats = ColumnarStats(flops, nbytes, np.array([True, False, True]))
        plain = {0: KernelStats(5, 50), 2: KernelStats(7, 70)}
        assert stats == plain and plain == stats
        assert stats != {0: KernelStats(5, 50)}
        assert len(stats) == 2 and list(stats) == [0, 2]
        assert 2 in stats and 1 not in stats and -1 not in stats
        assert np.int64(2) in stats and "x" not in stats
        assert stats[np.int64(2)] == KernelStats(7, 70)
        for bad in (1, 3, -1, "x"):
            with pytest.raises(KeyError):
                stats[bad]

    def test_columnar_equality_ignores_unrecorded_rows(self):
        rec = np.array([True, False])
        a = ColumnarStats(np.array([1, 2]), np.array([3, 4]), rec)
        b = ColumnarStats(np.array([1, 9]), np.array([3, 9]), rec.copy())
        assert a == b
        assert a != ColumnarStats(np.array([1, 2]), np.array([3, 4]))

    def test_solver_stats_are_columnar_and_scale(self):
        from repro.solvers import scale_stats

        run = PanguLUSolver(poisson2d(8), block_size=16).factorize()
        assert isinstance(run.stats, ColumnarStats)
        assert len(run.stats) == run.dag.n_tasks
        scaled = scale_stats(run.stats, 8.0, byte_factor=2.0)
        for tid, s in run.stats.items():
            assert scaled[tid] == KernelStats(8 * s.flops, 2 * s.bytes)
