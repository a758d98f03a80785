"""Tests for value-only refactorisation (the circuit fast path).

The replay battery pins the fast path's contract: refactorize replays
the previous schedule's recorded launches instead of re-running the
scheduler, and the result — L/U bits, per-task stats and every
``ScheduleResult`` field — equals a fresh scheduler run on the same
values, for every substrate, back-to-back scheduler and batching mode.
CI runs this file with ``REPRO_BATCH_KERNELS`` off and on.
"""

import dataclasses
import types

import numpy as np
import pytest

from repro.core.analysis_cache import AnalysisCache
from repro.core.baselines import make_scheduler
from repro.core.dag import TaskDAG
from repro.core.scheduler import ScheduleResult
from repro.gpusim.costmodel import GPUCostModel
from repro.gpusim.specs import RTX5090
from repro.kernels.tilekernels import ColumnarStats
from repro.matrices import circuit_like, poisson2d
from repro.solvers import NumericBackend, PanguLUSolver, SuperLUSolver
from repro.solvers.base import EmptyMatrixError, NonFiniteValuesError
from repro.solvers.replay import REPLAY_SCHEDULERS, LaunchReplay
from repro.sparse import CSRMatrix, matvec, permute_symmetric
from repro.sparse.blocking import uniform_partition


def _same_pattern_new_values(a: CSRMatrix, rng) -> CSRMatrix:
    out = a.copy()
    rows = np.repeat(np.arange(a.nrows), a.row_lengths())
    off = rows != a.indices
    out.data[off] = rng.standard_normal(int(off.sum())) * 0.5
    # keep the diagonal dominant so the pivot-free path stays valid
    offsum = np.bincount(rows[off], weights=np.abs(out.data[off]),
                         minlength=a.nrows)
    out.data[~off] = 2.0 * offsum[rows[~off]] + 1.0
    return out


class TestRefactorize:
    def test_correct_factors_and_solve(self, rng):
        a = circuit_like(120, seed=3)
        solver = PanguLUSolver(a, block_size=16, scheduler="trojan")
        solver.factorize()
        a2 = _same_pattern_new_values(a, rng)
        result = solver.refactorize(a2)
        x_true = rng.standard_normal(a2.nrows)
        b = matvec(a2, x_true)
        x = result.solve(b)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-10

    def test_matches_full_factorize(self, rng):
        a = poisson2d(10)
        a2 = _same_pattern_new_values(a, rng)
        fast = PanguLUSolver(a, block_size=16)
        fast.factorize()
        r_fast = fast.refactorize(a2)
        r_full = PanguLUSolver(a2, block_size=16).factorize()
        assert np.allclose(r_fast.L.to_dense(), r_full.L.to_dense())
        assert np.allclose(r_fast.U.to_dense(), r_full.U.to_dense())

    def test_skips_reorder_and_symbolic(self, rng):
        a = circuit_like(100, seed=5)
        solver = PanguLUSolver(a, block_size=16)
        solver.factorize()
        r = solver.refactorize(_same_pattern_new_values(a, rng))
        assert r.phase_seconds["reorder"] == 0.0
        assert r.phase_seconds["symbolic"] == 0.0

    def test_requires_prior_factorize(self):
        solver = PanguLUSolver(poisson2d(8), block_size=16)
        with pytest.raises(RuntimeError):
            solver.refactorize(poisson2d(8))

    def test_rejects_different_pattern(self):
        solver = PanguLUSolver(poisson2d(8), block_size=16)
        solver.factorize()
        with pytest.raises(ValueError):
            solver.refactorize(circuit_like(64, seed=1))

    def test_rejects_different_size(self):
        solver = PanguLUSolver(poisson2d(8), block_size=16)
        solver.factorize()
        with pytest.raises(ValueError):
            solver.refactorize(poisson2d(9))

    def test_superlu_fused_refactorize(self, rng):
        a = circuit_like(90, seed=7)
        solver = SuperLUSolver(a, max_supernode=8, scheduler="trojan")
        solver.factorize()
        a2 = _same_pattern_new_values(a, rng)
        r = solver.refactorize(a2)
        b = rng.standard_normal(a2.nrows)
        x = r.solve(b)
        assert r.residual(a2, b, x) < 1e-10

    def test_repeated_refactorisations(self, rng):
        a = circuit_like(80, seed=9)
        solver = PanguLUSolver(a, block_size=16)
        solver.factorize()
        for step in range(3):
            a = _same_pattern_new_values(a, rng)
            r = solver.refactorize(a)
            b = rng.standard_normal(a.nrows)
            assert r.residual(a, b, r.solve(b)) < 1e-10


# ----------------------------------------------------------------------
# launch replay: a replayed refactorize is bit-identical to a fresh
# scheduler run on the same values
# ----------------------------------------------------------------------
SUBSTRATES = {
    "pangulu": lambda a, **kw: PanguLUSolver(a, block_size=16, **kw),
    "superlu-merge": lambda a, **kw: SuperLUSolver(
        a, max_supernode=8, merge_schur=True, **kw),
    "superlu-nomerge": lambda a, **kw: SuperLUSolver(
        a, max_supernode=8, merge_schur=False, **kw),
}


def _make(substrate, a, scheduler, batch_kernels=None):
    return SUBSTRATES[substrate](a, scheduler=scheduler,
                                 analysis_cache=AnalysisCache(),
                                 batch_kernels=batch_kernels)


def assert_same_factorization(got, want):
    """L/U bits, per-task stats and every schedule field agree."""
    for m1, m2 in ((got.L, want.L), (got.U, want.U)):
        for f in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(m1, f), getattr(m2, f)), f
    assert got.stats == want.stats
    assert dict(got.stats.items()) == dict(want.stats.items())
    s1, s2 = got.schedule, want.schedule
    for f in dataclasses.fields(ScheduleResult):
        if f.name != "batches":
            assert getattr(s1, f.name) == getattr(s2, f.name), f.name
    assert len(s1.batches) == len(s2.batches)
    for b1, b2 in zip(s1.batches, s2.batches):
        assert dataclasses.asdict(b1) == dataclasses.asdict(b2)
    assert s1 == s2


def _no_scheduler(*args, **kwargs):
    raise AssertionError("refactorize re-ran the scheduler")


class TestLaunchReplay:
    @pytest.mark.parametrize("batch_kernels", [False, True])
    @pytest.mark.parametrize("scheduler", ["serial", "levelbatch", "trojan"])
    @pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
    def test_replay_bit_identical_to_scheduler_run(
            self, substrate, scheduler, batch_kernels, rng):
        a = circuit_like(90, seed=7)
        solver = _make(substrate, a, scheduler, batch_kernels)
        solver.factorize()
        assert scheduler in REPLAY_SCHEDULERS
        solver._make_scheduler = _no_scheduler
        for _ in range(3):
            a_k = _same_pattern_new_values(a, rng)
            got = solver.refactorize(a_k)
            want = _make(substrate, a_k, scheduler,
                         batch_kernels).factorize()
            assert_same_factorization(got, want)
            assert isinstance(got.stats, ColumnarStats)

    @pytest.mark.parametrize("substrate", sorted(SUBSTRATES))
    def test_streams_reruns_its_scheduler(self, substrate, rng):
        a = circuit_like(90, seed=7)
        solver = _make(substrate, a, "streams")
        solver.factorize()
        for _ in range(2):
            a_k = _same_pattern_new_values(a, rng)
            got = solver.refactorize(a_k)
            assert solver._replay is None
            assert_same_factorization(
                got, _make(substrate, a_k, "streams").factorize())

    @pytest.mark.parametrize("scheduler", ["serial", "levelbatch", "trojan"])
    def test_empty_dag(self, scheduler):
        dag = TaskDAG.from_tasks([], [], uniform_partition(32, 16))
        backend = NumericBackend(types.SimpleNamespace(dag=dag))
        model = GPUCostModel(RTX5090)
        want = make_scheduler(scheduler, dag, backend, model).run()
        got, stats = LaunchReplay(want, dag, backend, backend).run(model)
        assert got == want
        assert got.batches == [] and got.kernel_time == 0.0
        assert stats == {} and len(stats) == 0

    def test_schedule_must_cover_dag(self):
        a = circuit_like(60, seed=2)
        solver = _make("pangulu", a, "trojan")
        res = solver.factorize()
        short = dataclasses.replace(res.schedule,
                                    batches=res.schedule.batches[:-1])
        backend = NumericBackend(solver._engine)
        with pytest.raises(ValueError, match="cover"):
            LaunchReplay(short, res.dag, backend, backend)

    def test_plans_are_kept_on_the_solver_not_the_dag(self, rng):
        a = circuit_like(90, seed=7)
        cache = AnalysisCache()
        solver = PanguLUSolver(a, block_size=16, scheduler="trojan",
                               analysis_cache=cache)
        res = solver.factorize()
        assert solver._replay is None  # a cold factorize keeps nothing
        fields_before = set(vars(res.dag))
        solver.refactorize(_same_pattern_new_values(a, rng))
        assert solver._replay is not None
        assert set(vars(res.dag)) == fields_before
        # a second solver on the cache-shared DAG replays independently
        other = PanguLUSolver(a, block_size=16, scheduler="trojan",
                              analysis_cache=cache)
        other.factorize()
        assert other._engine.dag is solver._engine.dag
        a_k = _same_pattern_new_values(a, rng)
        assert_same_factorization(other.refactorize(a_k),
                                  solver.refactorize(a_k))

    def test_new_factorize_drops_replay_state(self, rng):
        a = circuit_like(90, seed=7)
        solver = _make("pangulu", a, "trojan")
        solver.factorize()
        solver.refactorize(_same_pattern_new_values(a, rng))
        solver.factorize()
        assert solver._replay is None

    def test_earlier_results_keep_their_stats(self, rng):
        a = circuit_like(90, seed=7)
        solver = _make("pangulu", a, "trojan")
        r0 = solver.factorize()
        r1 = solver.refactorize(_same_pattern_new_values(a, rng))
        snap0, snap1 = dict(r0.stats.items()), dict(r1.stats.items())
        solver.refactorize(_same_pattern_new_values(a, rng))
        assert dict(r0.stats.items()) == snap0
        assert dict(r1.stats.items()) == snap1


# ----------------------------------------------------------------------
# non-finite values and failed refactorisations
# ----------------------------------------------------------------------
def _late_zero_pivot(perm, a):
    """``a`` with one diagonal zeroed whose pivot stays exactly zero.

    Picks the last permuted row with no earlier neighbour in either
    direction: no elimination step updates its diagonal, so the GETRF
    of its tile meets the zero late in the factorisation.
    """
    p = permute_symmetric(a, perm)
    rows = np.repeat(np.arange(p.nrows), p.row_lengths())
    earlier = np.zeros(p.nrows, dtype=bool)
    earlier[rows[p.indices < rows]] = True
    earlier[p.indices[p.indices > rows]] = True
    orig = int(perm[np.flatnonzero(~earlier)[-1]])
    lo, hi = a.indptr[orig], a.indptr[orig + 1]
    out = a.copy()
    out.data[lo + int(np.flatnonzero(a.indices[lo:hi] == orig)[0])] = 0.0
    return out


def _count_kernel_calls(backend):
    """Count a backend's per-launch and per-task kernel entries."""
    calls = []
    for name in ("run_plan", "run_task"):
        inner = getattr(backend, name)

        def counted(*args, _inner=inner):
            calls.append(1)
            return _inner(*args)

        setattr(backend, name, counted)
    return calls


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refactorize_rejects_and_names_entry(self, bad, rng):
        a = circuit_like(120, seed=3)
        solver = PanguLUSolver(a, block_size=16, scheduler="trojan")
        before = solver.factorize()
        a2 = _same_pattern_new_values(a, rng)
        pos = 57
        row = int(np.searchsorted(a2.indptr, pos, side="right")) - 1
        col = int(a2.indices[pos])
        a2.data[pos] = bad
        with pytest.raises(NonFiniteValuesError,
                           match=rf"\(row {row}, col {col}\)"):
            solver.refactorize(a2)
        assert solver.result is before
        b = rng.standard_normal(a.nrows)
        assert before.residual(a, b, solver.result.solve(b)) < 1e-10
        # the session is still usable
        a3 = _same_pattern_new_values(a, rng)
        assert_same_factorization(
            solver.refactorize(a3),
            PanguLUSolver(a3, block_size=16, scheduler="trojan").factorize())

    def test_factorize_rejects(self):
        a = poisson2d(8)
        a.data[-1] = np.nan
        with pytest.raises(ValueError, match="row 63, col 63"):
            SuperLUSolver(a).factorize()


class TestEmptyMatrix:
    @pytest.mark.parametrize("cls", [PanguLUSolver, SuperLUSolver])
    def test_factorize_rejects_and_names_shape(self, cls):
        a = CSRMatrix((0, 0), np.zeros(1, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0))
        with pytest.raises(EmptyMatrixError, match="shape 0x0"):
            cls(a).factorize()
        with pytest.raises(ValueError):
            cls(a).prepare_engine()


class TestFailedRefactorize:
    @pytest.mark.parametrize("substrate,scheduler", [
        ("pangulu", "trojan"), ("pangulu", "levelbatch"),
        ("superlu-merge", "trojan"), ("superlu-nomerge", "serial")])
    def test_zero_pivot_leaves_no_stale_state(self, substrate, scheduler,
                                              rng):
        a = circuit_like(120, seed=3)
        solver = _make(substrate, a, scheduler)
        solver.factorize()
        a1 = _same_pattern_new_values(a, rng)
        r1 = solver.refactorize(a1)
        snap = dict(r1.stats.items())
        bad = _late_zero_pivot(r1.perm, a1)
        calls = _count_kernel_calls(solver._replay._backend)
        with pytest.raises(ZeroDivisionError, match="zero pivot"):
            solver.refactorize(bad)
        assert len(calls) > 1  # it failed mid-replay
        # the previous factorisation is untouched and still solves
        assert solver.result is r1
        assert dict(r1.stats.items()) == snap
        b = rng.standard_normal(a.nrows)
        assert r1.residual(a1, b, solver.result.solve(b)) < 1e-10
        # the next good refactorize is a fresh factorize, bit for bit
        a2 = _same_pattern_new_values(a, rng)
        assert_same_factorization(solver.refactorize(a2),
                                  _make(substrate, a2, scheduler).factorize())
