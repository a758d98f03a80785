"""Solve-phase microbench: the default solve path and the solve DAG.

Two comparisons on the same factorisation, single- and multi-RHS, each
timing both triangular solves (L then U):

* **Default path vs per-row pair.**  ``FactorizationResult.solve``
  substitutes through blocked plans with inverted diagonal blocks
  (:class:`repro.sparse.TriangularPlan`, ``⌈n/32⌉`` steps per factor);
  the previous default was the row-by-row ``triangular_solve`` pair
  (``n`` steps per factor).  This is the path users get, so it is the
  baseline any solve-phase claim is measured against.  The plan build
  (once per factorisation) is reported separately.
* **Trojan-batched solve DAG vs level-set per-task.**  The solve-phase
  Trojan-Horse claim: running the solve DAG with the trojan scheduler
  and stacked kernel groups beats the classic level-set schedule
  executed one task at a time, with bit-identical solutions.  The DAG
  path exists to model and drive distribution (the simulator and
  ``repro.parallel``); it is several times slower than the default
  path in-process, and the table shows that too.

Writes a machine-readable summary to ``benchmarks/results/``
(``BENCH_sptrsv.json``, with ``cpu_count``) so the CI smoke job can
upload it as an artifact.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

import numpy as np

from repro.analysis import format_table
from repro.core.solve_dag import compare_solve_schedulers
from repro.gpusim import RTX5090
from repro.matrices import poisson2d
from repro.solvers import FactorizationResult, PanguLUSolver
from repro.sparse import triangular_solve

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _best(fn, reps):
    """Best-of-``reps`` wall time of ``fn()``, plus its last result."""
    best = math.inf
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def _unpermute(res, z):
    x = np.empty_like(z)
    x[res.perm, :] = z
    return x


def _dag_seconds(res, b, scheduler, batch_kernels, reps=3):
    """Both triangular solves through the solve DAG."""
    lctx, uctx = res.solve_contexts()
    pb = b[res.perm, :]

    def run():
        y = lctx.solve(pb, scheduler=scheduler,
                       batch_kernels=batch_kernels).x
        return _unpermute(res, uctx.solve(y, scheduler=scheduler,
                                          batch_kernels=batch_kernels).x)
    return _best(run, reps)


def _per_row_seconds(res, b, reps=3):
    """Both triangular solves through the row-by-row recurrence."""
    pb = b[res.perm, :]

    def run():
        y = triangular_solve(res.L, pb, lower=True)
        return _unpermute(res, triangular_solve(res.U, y, lower=False))
    return _best(run, reps)


def _plan_build_seconds(res, reps=3):
    """Building the (L, U) plan pair on a fresh result."""
    def run():
        fresh = FactorizationResult(
            solver=res.solver, scheduler=res.scheduler, L=res.L, U=res.U,
            perm=res.perm, schedule=res.schedule, dag=res.dag,
            stats=res.stats, fill_nnz=res.fill_nnz,
            phase_seconds=res.phase_seconds)
        return fresh.solve_plans()
    return _best(run, reps)[0]


def test_sptrsv_batch(emit, benchmark):
    nx = max(12, int(round(24 * math.sqrt(BENCH_SCALE))))
    a = poisson2d(nx)
    res = PanguLUSolver(a, block_size=8, scheduler="trojan").factorize()
    lctx, uctx = res.solve_contexts()
    rng = np.random.default_rng(0)
    build_s = _plan_build_seconds(res)

    rows = []
    entries = []
    for nrhs in (1, 32):
        b = rng.standard_normal((a.nrows, nrhs))
        n_tasks = (lctx.dag_for(nrhs).n_tasks
                   + uctx.dag_for(nrhs).n_tasks)
        # warm-up: builds both DAGs, the schedule caches and the plans
        _dag_seconds(res, b, "trojan", True, reps=1)
        res.solve(b)
        default_s, x_default = _best(lambda: res.solve(b), 5)
        row_s, x_row = _per_row_seconds(res, b)
        batch_s, x_batch = _dag_seconds(res, b, "trojan", True)
        level_s, x_level = _dag_seconds(res, b, "levelset", False)
        assert np.array_equal(x_batch, x_level), \
            f"trojan-batched x diverges from level-set at nrhs={nrhs}"
        np.testing.assert_allclose(x_default, x_row, rtol=1e-10,
                                   atol=1e-12)
        assert all(np.array_equal(x_default[:, j], res.solve(b[:, j]))
                   for j in range(nrhs)), \
            f"default path is not column-equivariant at nrhs={nrhs}"
        sim = compare_solve_schedulers(lctx.dag_for(nrhs), RTX5090)
        label = f"poisson2d({nx}) nrhs={nrhs}"
        rows.append([label, "default (blocked plan)", default_s * 1e3,
                     round(row_s / default_s, 2)])
        rows.append([label, "per-row CSR pair", row_s * 1e3, 1.0])
        rows.append([label, "trojan-batched DAG", batch_s * 1e3,
                     round(row_s / batch_s, 2)])
        rows.append([label, f"level-set per-task DAG ({n_tasks} tasks)",
                     level_s * 1e3, round(row_s / level_s, 2)])
        entries.append({
            "config": f"poisson2d({nx}) b8 nrhs={nrhs}",
            "nrhs": nrhs,
            "n_tasks": n_tasks,
            "default_plan_seconds": default_s,
            "per_row_csr_seconds": row_s,
            "default_speedup_vs_per_row": row_s / default_s,
            "levelset_pertask_seconds": level_s,
            "trojan_batch_seconds": batch_s,
            "speedup": level_s / batch_s,
            "sim_depth": sim["depth"],
            "sim_makespan_ms": {name: s["makespan_ms"]
                                for name, s in sim["schedulers"].items()},
        })

    emit("sptrsv_batch", format_table(
        ["config", "path", "L+U solve (ms)", "vs per-row"],
        rows,
        title=f"SpTRSV wall time, L + U solves (plan build "
              f"{build_s * 1e3:.2f} ms once per factorisation; "
              f"cpu_count {os.cpu_count()})",
    ))

    summary = {
        "configs": entries,
        "speedup": entries[-1]["speedup"],  # the multi-RHS config
        "default_speedup_vs_per_row": min(
            e["default_speedup_vs_per_row"] for e in entries),
        "plan_build_seconds": build_s,
        "cpu_count": os.cpu_count(),
        "bench_scale": BENCH_SCALE,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sptrsv.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")

    for e in entries:
        assert e["default_speedup_vs_per_row"] >= 2.0, \
            f"default solve only {e['default_speedup_vs_per_row']:.2f}x " \
            f"over the per-row CSR pair at nrhs={e['nrhs']}"
    # acceptance bar binds at full scale: shrunken matrices leave too
    # few tasks per level to amortise the stacked-kernel bookkeeping
    if BENCH_SCALE >= 1.0:
        assert entries[-1]["speedup"] >= 1.5, \
            f"trojan-batched SpTRSV only {entries[-1]['speedup']:.2f}x " \
            f"over level-set per-task at nrhs={entries[-1]['nrhs']}"

    benchmark.pedantic(
        lambda: res.solve(rng.standard_normal((a.nrows, 32))),
        rounds=1, iterations=1)
