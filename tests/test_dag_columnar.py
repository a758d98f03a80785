"""Differential battery for the columnar DAG builder and Schur fusion.

``build_block_dag`` and ``merge_schur_tasks`` build their DAGs as
arrays; the per-task implementations they replaced live on as oracles
in ``tests/oracles/dag_builder.py``.  Every case here checks, bit for
bit: each ``TaskArrays`` column and its dtype, ``pred_count``, the
successor CSR, the materialised ``Task`` objects and successor lists,
and, after fusion, the same again plus the member lists.

The file also covers the guarantees the columnar form brings: the
arrays a DAG exposes are read-only (cache hits are shared), and the
PanguLU cold path and refactorize replay build no ``Task`` objects.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import matrices
from repro.cluster.grid import ProcessGrid
from repro.core.analysis_cache import AnalysisCache
from repro.core.dag import build_block_dag
from repro.core.fusion import merge_schur_tasks
from repro.core.task import Task
from repro.ordering import compute_ordering
from repro.solvers import PanguLUSolver, SuperLUSolver
from repro.solvers.engine import NumericEngine
from repro.sparse import CSRMatrix, permute_symmetric
from repro.sparse.blocking import (split_tiles, tile_nnz_counts,
                                   uniform_partition)
from repro.symbolic import block_fill, find_supernodes, symbolic_fill
from tests.oracles import dag_builder as oracle


def assert_same_dag(dag, want) -> None:
    """``dag`` (columnar) equals ``want`` (an oracle DAG) bit for bit."""
    arrays = dag.task_arrays()
    want_arrays = want.task_arrays()
    assert {f.name for f in fields(arrays)} == set(want_arrays)
    for name, col in want_arrays.items():
        got = getattr(arrays, name)
        assert got.dtype == col.dtype, name
        assert np.array_equal(got, col), name
    assert dag.pred_count.dtype == want.pred_count.dtype
    assert np.array_equal(dag.pred_count, want.pred_count)
    for got, col in zip(dag.successor_csr(), want.successor_csr()):
        assert got.dtype == col.dtype
        assert np.array_equal(got, col)
    assert list(dag.tasks) == want.tasks
    assert [list(s) for s in dag.successors] == want.successors


def check_builders(bfill, part, tile_nnz=None, sparse=False,
                   owner_of=None) -> None:
    dag = build_block_dag(bfill, part, tile_nnz, sparse_tiles=sparse,
                          owner_of=owner_of)
    want = oracle.build_block_dag(bfill, part, tile_nnz,
                                  sparse_tiles=sparse, owner_of=owner_of)
    assert_same_dag(dag, want)
    fused = merge_schur_tasks(dag)
    want_fused = oracle.merge_schur_tasks(want)
    assert_same_dag(fused.dag, want_fused.dag)
    assert fused.members == want_fused.members


def split_tile_nnz(filled, part) -> dict:
    """The tile-nnz dict the engine used to build via ``split_tiles``."""
    return {key: t.nnz for key, t in split_tiles(filled, part).items()}


def analysis(a, solver: str, block_size: int = 16):
    """The engine's block-analysis inputs for ``a``: ``(bfill, part,
    tile_nnz, sparse)`` after mindeg ordering."""
    permuted = permute_symmetric(a, compute_ordering(a, "mindeg"))
    fill = symbolic_fill(permuted)
    if solver == "pangulu":
        part = uniform_partition(permuted.nrows, block_size)
    else:
        part = find_supernodes(fill, max_size=32, relax=1)
    tile_nnz = tile_nnz_counts(fill.filled, part)
    assert tile_nnz == split_tile_nnz(fill.filled, part)
    return block_fill(permuted, part), part, tile_nnz, solver == "pangulu"


# the golden-schedule configurations (repro.verify.golden): dense tiles
GOLDEN = [
    (matrices.circuit_like(180, seed=2), 12, True),
    (matrices.poisson2d(16), 8, False),
    (matrices.circuit_like(240, seed=7), 16, True),
]

# the four cold_mix generator families, at sizes inside its ranges
FAMILIES = {
    "poisson2d": lambda: matrices.poisson2d(22, 21),
    "poisson3d": lambda: matrices.poisson3d(8, 8, 7),
    "circuit_like": lambda: matrices.circuit_like(390, seed=31),
    "cage_like": lambda: matrices.cage_like(410, seed=47),
}


class TestAgainstOracle:
    @pytest.mark.parametrize("case", range(len(GOLDEN)))
    def test_golden_configs(self, case):
        a, bs, sparse = GOLDEN[case]
        b = permute_symmetric(a, compute_ordering(a, "mindeg"))
        part = uniform_partition(a.nrows, bs)
        check_builders(block_fill(b, part), part, sparse=sparse)

    @pytest.mark.parametrize("solver", ["pangulu", "superlu"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_cold_mix_families(self, family, solver):
        bfill, part, tile_nnz, sparse = analysis(FAMILIES[family](), solver)
        check_builders(bfill, part, tile_nnz, sparse)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_dense_tiles(self, sparse):
        bfill, part, _, _ = analysis(matrices.circuit_like(200, seed=4),
                                     "pangulu", block_size=12)
        check_builders(bfill, part, None, sparse)

    @pytest.mark.parametrize("nb", [1, 2])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_one_and_two_blocks(self, nb, sparse):
        a = matrices.poisson2d(4)
        bfill, part, tile_nnz, _ = analysis(a, "pangulu",
                                            block_size=16 // nb)
        assert part.nblocks == nb
        check_builders(bfill, part, tile_nnz, sparse)

    def test_owner_of(self):
        bfill, part, tile_nnz, sparse = analysis(
            matrices.circuit_like(300, seed=9), "pangulu", block_size=24)
        grid = ProcessGrid(6)
        check_builders(bfill, part, tile_nnz, sparse, owner_of=grid.owner)
        dag = build_block_dag(bfill, part, tile_nnz, owner_of=grid.owner)
        assert len(set(dag.task_arrays().owner.tolist())) > 1

    def test_tile_nnz_outside_pattern_and_zero(self):
        bfill, part, tile_nnz, _ = analysis(matrices.poisson2d(12),
                                            "pangulu", block_size=8)
        odd = dict(tile_nnz)
        odd[(0, 0)] = 0
        odd[(part.nblocks + 3, 0)] = 5
        check_builders(bfill, part, odd, True)

    def test_engine_tile_nnz_matches_split_tiles(self):
        a = matrices.cage_like(200, seed=3)
        a = permute_symmetric(a, compute_ordering(a, "mindeg"))
        part = uniform_partition(a.nrows, 16)
        engine = NumericEngine(a, part, sparse_tiles=True)
        assert engine.tile_nnz == split_tile_nnz(engine.fill.filled, part)

    def test_open_pattern_rejected(self):
        part = uniform_partition(12, 4)
        fill = np.eye(3, dtype=bool)
        fill[2, 0] = fill[0, 1] = True  # SSSSM(0, 2, 1) has no target
        with pytest.raises(ValueError, match="not closed"):
            build_block_dag(fill, part)


@st.composite
def block_patterns(draw):
    """A random square sparsity pattern with a full diagonal, a block
    size and a sparse-accounting flag."""
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    density = draw(st.floats(0.0, 0.3))
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density) | np.eye(n, dtype=bool)
    block_size = draw(st.integers(1, max(1, n // 2 + 1)))
    return CSRMatrix.from_dense(dense.astype(float)), block_size, \
        draw(st.booleans())


class TestProperty:
    @given(block_patterns())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_block_patterns(self, case):
        a, block_size, sparse = case
        part = uniform_partition(a.nrows, block_size)
        filled = symbolic_fill(a).filled
        tile_nnz = tile_nnz_counts(filled, part)
        assert tile_nnz == split_tile_nnz(filled, part)
        check_builders(block_fill(a, part), part, tile_nnz, sparse)


class TestFrozenArrays:
    def _cache_hit_dag(self):
        a = matrices.circuit_like(150, seed=5)
        cache = AnalysisCache()
        first = PanguLUSolver(a, block_size=16, analysis_cache=cache,
                              scheduler="trojan").factorize()
        second = PanguLUSolver(a, block_size=16, analysis_cache=cache,
                               scheduler="trojan").factorize()
        assert second.dag is first.dag
        assert cache.stats()["hits"] >= 1
        return second.dag

    def test_cache_hit_arrays_are_read_only(self):
        dag = self._cache_hit_dag()
        arrays = dag.task_arrays()
        exposed = [getattr(arrays, f.name) for f in fields(arrays)]
        exposed += [dag.pred_count, *dag.successor_csr()]
        for arr in exposed:
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]

    def test_fused_and_unpickled_dags_stay_frozen(self):
        import pickle

        dag = self._cache_hit_dag()
        for other in (merge_schur_tasks(dag).dag,
                      pickle.loads(pickle.dumps(dag))):
            assert not other.task_arrays().flops_est.flags.writeable
            assert not other.pred_count.flags.writeable
            assert not other.successor_csr()[1].flags.writeable


class TestNoTaskObjectsOnHotPaths:
    @pytest.fixture
    def task_count(self, monkeypatch):
        calls = []
        init = Task.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Task, "__init__", counting)
        return calls

    def test_pangulu_cold_and_refactorize(self, task_count):
        a = matrices.poisson2d(14)
        solver = PanguLUSolver(a, block_size=16, scheduler="trojan",
                               analysis_cache=AnalysisCache())
        solver.factorize()
        solver.refactorize(a)
        assert len(task_count) == 0

    def test_superlu_cold_builds_only_fused_views(self, task_count):
        a = matrices.poisson2d(14)
        result = SuperLUSolver(a, scheduler="trojan",
                               analysis_cache=AnalysisCache()).factorize()
        fused_tasks = result.schedule.task_count
        assert fused_tasks < result.dag.n_tasks
        assert 0 < len(task_count) <= fused_tasks
