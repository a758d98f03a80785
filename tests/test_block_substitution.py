"""Tests for the default solve path: blocked substitution with inverted
diagonal blocks (:class:`repro.sparse.TriangularPlan`).

The row-by-row :func:`~repro.sparse.triangular_solve` stays the oracle.
The plan runs different arithmetic (an inverse-times-vector per block
instead of one divide per row), so it is compared to a tight tolerance,
not bit for bit.  What *is* bitwise is column-equivariance: every
right-hand-side column runs the same cores in the same order, so column
``j`` of a 2-D solve equals the 1-D solve of that column.  Tests of the
default path pass ``batch_solve=False`` so they hold whatever
``REPRO_BATCH_SOLVE`` says (CI runs this file with it off and on).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import matrices
from repro.core.analysis_cache import AnalysisCache
from repro.kernels.batched import (
    batched_sptrsv_diag,
    batched_tstrf,
)
from repro.serve import BackgroundServer, ServerError, SolverClient
from repro.solvers import (
    FactorizationResult,
    NonFiniteValuesError,
    PanguLUSolver,
    SuperLUSolver,
)
from repro.sparse import (
    SOLVE_BLOCK,
    CSRMatrix,
    TriangularPlan,
    matvec,
    triangular_solve,
)

SOLVERS = {"pangulu": (PanguLUSolver, {"block_size": 16}),
           "superlu": (SuperLUSolver, {})}

#: The four ``cold_mix`` generator families at the low end of its sizes.
FAMILIES = {
    "poisson2d": lambda: matrices.poisson2d(22, 20),
    "poisson3d": lambda: matrices.poisson3d(8, 8, 7),
    "circuit_like": lambda: matrices.circuit_like(380, seed=4),
    "cage_like": lambda: matrices.cage_like(380, seed=4),
}

_CACHE: dict = {}


def _factored(family: str, solver: str):
    key = (family, solver)
    if key not in _CACHE:
        a = FAMILIES[family]()
        cls, kw = SOLVERS[solver]
        _CACHE[key] = (a, cls(a, scheduler="trojan",
                              analysis_cache=AnalysisCache(),
                              **kw).factorize())
    return _CACHE[key]


def _per_row_solve(res: FactorizationResult, b: np.ndarray) -> np.ndarray:
    """The previous default: the row-by-row substitution pair."""
    pb = b[res.perm]
    z = triangular_solve(res.U, triangular_solve(res.L, pb, lower=True),
                         lower=False)
    x = np.empty_like(z)
    x[res.perm] = z
    return x


def _rebuilt(res: FactorizationResult) -> FactorizationResult:
    """The same factorisation constructed by hand from its fields."""
    return FactorizationResult(
        solver=res.solver, scheduler=res.scheduler, L=res.L, U=res.U,
        perm=res.perm, schedule=res.schedule, dag=res.dag,
        stats=res.stats, fill_nnz=res.fill_nnz,
        phase_seconds=res.phase_seconds)


def random_triangular(n: int, density: float, seed: int, lower: bool,
                      unit_diagonal: bool) -> CSRMatrix:
    """A random sparse triangular matrix with a safely nonzero diagonal
    (stored even when the solve treats it as unit).  Off-diagonal values
    shrink with the expected row count, keeping the matrix diagonally
    dominant: a random triangular matrix with O(1) entries has a
    condition number growing like 2^n, and comparing two substitution
    orders on it would measure that, not the solver."""
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < density) * rng.standard_normal((n, n)) \
        / (1.0 + density * n)
    dense = np.tril(dense, -1) if lower else np.triu(dense, 1)
    diag = np.where(rng.random(n) < 0.5, -1.0, 1.0) * rng.uniform(1, 2, n)
    np.fill_diagonal(dense, 1.0 if unit_diagonal else diag)
    return CSRMatrix.from_dense(dense)


def _scaled(a: CSRMatrix, seed: int, span: float = 4.0) -> CSRMatrix:
    """``Dr A Dc`` with row and column scales spread over 10^±span."""
    rng = np.random.default_rng(seed)
    dr = 10.0 ** rng.uniform(-span, span, a.nrows)
    dc = 10.0 ** rng.uniform(-span, span, a.ncols)
    rows = np.repeat(np.arange(a.nrows), a.row_lengths())
    return CSRMatrix(a.shape, a.indptr, a.indices,
                     a.data * dr[rows] * dc[a.indices])


# ----------------------------------------------------------------------
class TestAgainstPerRowPath:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_factors_and_solve_match(self, family, solver):
        a, res = _factored(family, solver)
        lplan, uplan = res.solve_plans()
        rng = np.random.default_rng(0)
        for b in (rng.standard_normal(a.nrows),
                  rng.standard_normal((a.nrows, 8))):
            for plan, tri, lower in ((lplan, res.L, True),
                                     (uplan, res.U, False)):
                got = plan.solve(b)
                want = triangular_solve(tri, b, lower=lower)
                assert got.shape == want.shape
                err = np.linalg.norm(got - want) / np.linalg.norm(want)
                assert err < 1e-12, f"{family}/{solver} lower={lower}"
            x = res.solve(b, batch_solve=False)
            x_row = _per_row_solve(res, b)
            assert np.linalg.norm(x - x_row) / np.linalg.norm(x_row) < 1e-12
            assert res.residual(a, b, x) < 1e-12

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("family", ["poisson2d", "circuit_like"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_on_badly_scaled_matrices(self, family, solver, seed):
        """Within 5x of the per-row path, before and after one
        refinement sweep.  The check is on 8 columns because the ratio
        of two single-vector residuals is a heavy-tailed sample; the
        per-column maximum is what :meth:`residual` reports."""
        a = _scaled(FAMILIES[family](), seed)
        cls, kw = SOLVERS[solver]
        res = cls(a, scheduler="trojan", analysis_cache=AnalysisCache(),
                  **kw).factorize()
        b = np.random.default_rng(seed).standard_normal((a.nrows, 8))
        x_row = _per_row_solve(res, b)
        x = res.solve(b, batch_solve=False)
        assert res.residual(a, b, x) <= 5 * res.residual(a, b, x_row)
        x_row1 = x_row + _per_row_solve(res, b - matvec(a, x_row))
        x1 = res.solve(b, refine=1, a=a, batch_solve=False)
        assert res.residual(a, b, x1) <= 5 * res.residual(a, b, x_row1)


# ----------------------------------------------------------------------
class TestPlan:
    @given(n=st.integers(1, 3 * SOLVE_BLOCK + 5),
           nrhs=st.integers(1, 32),
           lower=st.booleans(), unit=st.booleans(),
           density=st.sampled_from([0.0, 0.1, 0.5]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_column_equivariant_bitwise(self, n, nrhs, lower, unit,
                                        density, seed):
        tri = random_triangular(n, density, seed, lower, unit)
        plan = TriangularPlan.from_csr(tri, lower=lower,
                                       unit_diagonal=unit)
        b = np.random.default_rng(seed + 1).standard_normal((n, nrhs))
        x = plan.solve(b)
        for j in range(nrhs):
            assert np.array_equal(x[:, j], plan.solve(b[:, j]))
        order = np.random.default_rng(seed + 2).permutation(nrhs)
        assert np.array_equal(plan.solve(b[:, order]), x[:, order])
        want = triangular_solve(tri, b, lower=lower, unit_diagonal=unit)
        np.testing.assert_allclose(x, want, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 5, SOLVE_BLOCK, SOLVE_BLOCK + 1, 70])
    def test_block_count_and_padding(self, n):
        tri = random_triangular(n, 0.3, n, lower=False,
                                unit_diagonal=False)
        plan = TriangularPlan.from_csr(tri, lower=False)
        assert plan.nblocks == -(-n // SOLVE_BLOCK)
        assert plan.inv.shape == (plan.nblocks, SOLVE_BLOCK, SOLVE_BLOCK)
        pad = plan.nblocks * SOLVE_BLOCK - n
        if pad:
            np.testing.assert_array_equal(plan.inv[-1, -pad:, -pad:],
                                          np.eye(pad))
        assert plan.rib.dtype == np.int32 and plan.col.dtype == np.int32

    def test_wrong_side_entries_raise(self):
        tri = random_triangular(40, 0.3, 0, lower=True, unit_diagonal=False)
        with pytest.raises(ValueError, match="not upper triangular"):
            TriangularPlan.from_csr(tri, lower=False)
        with pytest.raises(ValueError, match="not lower triangular"):
            TriangularPlan.from_csr(tri.transpose(), lower=True)

    @pytest.mark.parametrize("lower", [True, False])
    def test_zero_diagonal_names_row_in_substitution_order(self, lower):
        dense = np.diag(np.arange(1.0, 71.0))
        dense[[9, 50], [9, 50]] = 0.0
        tri = CSRMatrix.from_dense(dense + (np.tril(np.ones((70, 70)), -1)
                                            if lower else 0.0))
        row = 9 if lower else 50
        for solve in (lambda: TriangularPlan.from_csr(tri, lower=lower),
                      lambda: triangular_solve(tri, np.ones(70),
                                               lower=lower)):
            with pytest.raises(ZeroDivisionError,
                               match=f"zero diagonal at row {row}$"):
                solve()


# ----------------------------------------------------------------------
class TestFactorizationResult:
    def test_zero_u_diagonal_names_global_row(self):
        a, res = _factored("circuit_like", "pangulu")
        u = res.U.copy()
        rows = np.repeat(np.arange(u.nrows), u.row_lengths())
        for i in (7, 200):
            u.data[(rows == i) & (u.indices == i)] = 0.0
        bad = dataclasses.replace(_rebuilt(res), U=u)
        b = np.ones(a.nrows)
        with pytest.raises(ZeroDivisionError,
                           match="zero diagonal at row 200$"):
            bad.solve(b, batch_solve=False)
        assert bad._solve_plan is None  # nothing half-built is cached
        with pytest.raises(ZeroDivisionError,
                           match="zero diagonal at row 200$"):
            triangular_solve(u, b, lower=False)

    def test_plan_built_once_and_reused(self, monkeypatch):
        a, res = _factored("poisson2d", "superlu")
        res = _rebuilt(res)
        built = []
        inner = TriangularPlan.from_csr.__func__

        def counting(cls, *args, **kwargs):
            built.append(kwargs.get("lower"))
            return inner(cls, *args, **kwargs)

        monkeypatch.setattr(TriangularPlan, "from_csr",
                            classmethod(counting))
        b = np.random.default_rng(0).standard_normal((a.nrows, 3))
        res.solve(b[:, 0], batch_solve=False)
        plans = res.solve_plans()
        res.solve(b, refine=2, a=a, batch_solve=False)
        res.solve(b[:, 1], refine=1, a=a, batch_solve=False)
        assert built == [True, False]
        assert res.solve_plans() is plans

    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_hand_built_result_solves_bit_identically(self, solver):
        a, res = _factored("cage_like", solver)
        b = np.random.default_rng(1).standard_normal((a.nrows, 4))
        kw = {"refine": 1, "a": a, "batch_solve": False}
        assert np.array_equal(_rebuilt(res).solve(b, **kw),
                              res.solve(b, **kw))

    @pytest.mark.parametrize("refine", [0, 1])
    def test_default_2d_solve_is_column_equivariant(self, refine):
        a, res = _factored("poisson3d", "pangulu")
        b = np.random.default_rng(2).standard_normal((a.nrows, 5))
        x = res.solve(b, refine=refine, a=a, batch_solve=False)
        for j in range(5):
            assert np.array_equal(
                x[:, j], res.solve(b[:, j], refine=refine, a=a,
                                   batch_solve=False))

    def test_refactorize_gets_a_fresh_plan(self):
        a = matrices.circuit_like(150, seed=8)
        solver = PanguLUSolver(a, block_size=16)
        r1 = solver.factorize()
        b = np.ones(a.nrows)
        x1 = r1.solve(b, batch_solve=False)
        a2 = a.copy()
        a2.data *= 1.5
        r2 = solver.refactorize(a2)
        assert r2._solve_plan is None
        assert r2.residual(a2, b, r2.solve(b, batch_solve=False)) < 1e-12
        # the replaced result let its plans go and rebuilds the same ones
        assert r1._solve_plan is None
        assert np.array_equal(r1.solve(b, batch_solve=False), x1)


# ----------------------------------------------------------------------
class TestRhsValidation:
    @pytest.fixture(scope="class")
    def system(self):
        return _factored("circuit_like", "superlu")

    @pytest.mark.parametrize("batch_solve", [False, True])
    def test_bad_shapes_and_dtypes(self, system, batch_solve):
        a, res = system
        n = a.nrows
        cases = [
            (np.ones((n, 2, 1)), ValueError,
             "right-hand side must be 1-D or 2-D, got 3-D"),
            (np.ones(n + 1), ValueError,
             f"right-hand side has {n + 1} rows, matrix has {n}"),
            (np.ones(n, dtype=complex), TypeError,
             "right-hand side dtype complex128 is not real-numeric"),
            (np.ones(n, dtype=bool), TypeError,
             "right-hand side dtype bool is not real-numeric"),
        ]
        for b, exc, msg in cases:
            with pytest.raises(exc, match=msg):
                res.solve(b, batch_solve=batch_solve)

    @pytest.mark.parametrize("batch_solve", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_names_row_and_col(self, system, batch_solve, bad):
        a, res = system
        b = np.ones((a.nrows, 3))
        b[17, 2] = bad
        b[40, 0] = bad
        with pytest.raises(NonFiniteValuesError,
                           match=r"\(row 17, col 2\)"):
            res.solve(b, batch_solve=batch_solve)
        with pytest.raises(NonFiniteValuesError,
                           match=r"\(row 40, col 0\)"):
            res.solve(b[:, 0], refine=1, a=a, batch_solve=batch_solve)

    @pytest.mark.parametrize("batch_solve", [False, True])
    def test_zero_columns_and_integer_rhs(self, system, batch_solve):
        a, res = system
        x0 = res.solve(np.empty((a.nrows, 0)), batch_solve=batch_solve)
        assert x0.shape == (a.nrows, 0) and x0.dtype == np.float64
        ints = np.arange(a.nrows) % 5
        assert np.array_equal(
            res.solve(ints, batch_solve=batch_solve),
            res.solve(ints.astype(float), batch_solve=batch_solve))

    @pytest.mark.parametrize("batch_solve", [False, True])
    def test_served_non_finite_rhs_is_bad_request(self, batch_solve):
        a = matrices.circuit_like(120, seed=11)
        b = np.random.default_rng(3).standard_normal(a.nrows)
        with BackgroundServer() as bg:
            with SolverClient(bg.host, bg.port) as client:
                session = client.factorize(a, solver="pangulu",
                                           block_size=16)["session"]
                x0 = client.solve(session, b, batch_solve=batch_solve)
                bad = np.column_stack([b, b])
                bad[33, 1] = np.nan
                with pytest.raises(ServerError) as exc:
                    client.solve(session, bad, batch_solve=batch_solve)
                assert exc.value.code == "BAD_REQUEST"
                assert "(row 33, col 1)" in str(exc.value)
                with pytest.raises(ServerError) as exc:
                    client.solve(session, np.ones((a.nrows, 1, 1)))
                assert exc.value.code == "BAD_REQUEST"
                assert np.array_equal(
                    client.solve(session, b, batch_solve=batch_solve), x0)
        fresh = PanguLUSolver(a, block_size=16,
                              scheduler="trojan").factorize()
        assert np.array_equal(x0, fresh.solve(b, batch_solve=batch_solve))


# ----------------------------------------------------------------------
class TestZeroDiagonalHoist:
    """The stacked kernels test the diagonal once, before the loop, and
    name the first zero in loop order (what the in-loop test named)."""

    @staticmethod
    def _stack(zeros):
        rng = np.random.default_rng(5)
        d = np.triu(rng.standard_normal((3, 6, 6))) \
            + 4 * np.eye(6)[None]
        for s, c in zeros:
            d[s, c, c] = 0.0
        return d

    def test_tstrf_names_first_column(self):
        d = self._stack([(2, 4), (0, 1)])
        b = np.ones((3, 5, 6))
        with pytest.raises(ZeroDivisionError,
                           match="zero diagonal at column 1$"):
            batched_tstrf(b, d)

    @pytest.mark.parametrize("lower,row", [(True, 1), (False, 4)])
    def test_sptrsv_diag_names_first_row_in_loop_order(self, lower, row):
        d = self._stack([(2, 4), (0, 1)])
        d = d if not lower else np.ascontiguousarray(d.transpose(0, 2, 1))
        b = np.ones((3, 2, 6, 1))
        with pytest.raises(ZeroDivisionError,
                           match=f"zero diagonal at row {row}$"):
            batched_sptrsv_diag(b, d, lower=lower)
        batched_sptrsv_diag(b, d, lower=lower, unit_diagonal=True)
