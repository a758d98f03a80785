"""``cold_mix``: a seeded stream of patterns nobody has analysed yet.

Each round draws one matrix from each of four generator families at a
seeded size, factorises each with both substrates (pangulu block 16 and
superlu, ``scheduler="trojan"``, an empty ``AnalysisCache`` per item)
and solves one right-hand side with one refinement sweep.  Every layer
from ordering to extraction does real work; the solve does little.
"""

from __future__ import annotations

import time

import numpy as np

import layers
from common import (SETUP_REPS, Tally, check_solution, import_seconds,
                    median, pct, rel_residual, self_peak_rss_mb,
                    timed_rounds)
from repro import matrices
from repro.cluster.grid import ProcessGrid
from repro.core.analysis_cache import AnalysisCache
from repro.solvers import SOLVER_REGISTRY

#: Per-layer metrics of layers this workload never reaches (reported 0).
OFF_PATH = ("serve.",)

#: The round's item the traced run also factorises with the 2-worker
#: ``ParallelExecutor`` (the parallel layers' probe).
PROBE = ("poisson3d", "pangulu")

#: Generator family -> inclusive range the seed draws one dimension
#: from (the grid families fix the others, see :func:`_matrix`).  The
#: ranges are narrow so that runs with different seeds do alike work.
SIZES = {
    "poisson2d": (20, 24),
    "poisson3d": (7, 9),
    "circuit_like": (380, 420),
    "cage_like": (380, 420),
}
SOLVER_KW = {"pangulu": {"block_size": 16}, "superlu": {}}
BLOCK_RHS = 8


def _matrix(kind: str, size: int, gseed: int):
    if kind == "poisson2d":
        return matrices.poisson2d(22, size)
    if kind == "poisson3d":
        return matrices.poisson3d(8, 8, size)
    if kind == "circuit_like":
        return matrices.circuit_like(size, seed=gseed)
    return matrices.cage_like(size, seed=gseed)


def rounds(seed: int):
    """Endless seeded rounds of ``(label, kind, solver, a, b, B)`` items:
    every family once per round, each factorised by both substrates, in
    a seeded order."""
    rng = np.random.default_rng([seed, 1])
    while True:
        items = []
        for kind, (lo, hi) in SIZES.items():
            size = int(rng.integers(lo, hi + 1))
            a = _matrix(kind, size, int(rng.integers(2 ** 31)))
            b = rng.standard_normal(a.nrows)
            block = rng.standard_normal((a.nrows, BLOCK_RHS))
            for solver in SOLVER_KW:
                items.append((f"{kind}(n={a.nrows})/{solver}", kind, solver,
                              a, b, block))
        yield [items[i] for i in rng.permutation(len(items))]


def solve_item(solver: str, a, b):
    """The user path: construct, ``factorize()``, ``solve(refine=1)``.
    Returns ``(result, x, item_seconds, solve_seconds)``."""
    t0 = time.perf_counter()
    s = SOLVER_REGISTRY[solver](a, scheduler="trojan",
                                analysis_cache=AnalysisCache(),
                                **SOLVER_KW[solver])
    res = s.factorize()
    t1 = time.perf_counter()
    x = res.solve(b, refine=1, a=a)
    t2 = time.perf_counter()
    return res, x, t2 - t0, t2 - t1


def _setup(root, seed: int) -> float:
    """Imports (fresh interpreter), input generation and one warm-up
    item per substrate, repeated; returns the median."""
    reps = []
    for _ in range(SETUP_REPS):
        t = time.perf_counter()
        next(rounds(seed))
        a = matrices.poisson2d(10)
        for solver in SOLVER_KW:
            solve_item(solver, a, np.ones(a.nrows))
        elapsed = time.perf_counter() - t
        reps.append(elapsed + import_seconds(root))
    return median(reps)


def run(root, *, seed: int, seconds: float, trace: bool, tally: Tally
        ) -> dict:
    setup_s = _setup(root, seed)
    if trace:
        return _run_traced(seed, seconds, tally)
    item_s, solve_s = [], []
    for label, _, solver, a, b, _ in timed_rounds(seconds, rounds(seed)):
        _, x, t_item, t_solve = solve_item(solver, a, b)
        check_solution(tally, a, x, b, label)
        item_s.append(t_item)
        solve_s.append(t_solve)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": self_peak_rss_mb(),
        "time_to_solution_s_p50": median(item_s),
        "time_to_solution_s_p90": pct(item_s, 90),
        "solve_ms_p50": median(solve_s) * 1e3,
        "solve_ms_p90": pct(solve_s, 90) * 1e3,
        "solutions_per_s": len(item_s) / sum(item_s),
    }


def _run_traced(seed: int, seconds: float, tally: Tally) -> dict:
    """Each item runs untraced, then as timed layer calls; the two must
    agree bit for bit and the layers must cover >= 95% of the wall.
    Once per round the ``PROBE`` item also runs on the 2-worker
    ``ParallelExecutor``, which must agree with it bit for bit."""
    agg = layers.Aggregate()
    grid = ProcessGrid(2)
    probes = []
    for label, kind, solver, a, b, block in timed_rounds(seconds,
                                                         rounds(seed)):
        res_u, x_u, t_item, _ = solve_item(solver, a, b)
        check_solution(tally, a, x_u, b, label)
        res_t, spans, engine = layers.traced_factorize(
            a, solver, **SOLVER_KW[solver])
        x_t = layers.timed_solve(spans, "solvers.solve_1rhs_s", res_t,
                                 b, a, refine=1)
        wall = spans.wall()
        tally.op(layers.same_factors(res_u, res_t)
                 and np.array_equal(x_u, x_t),
                 f"{label}: traced factors or x differ from untraced")
        t = time.perf_counter()
        xb = res_t.solve(block)
        spans.s["solvers.solve_8rhs_s"] = time.perf_counter() - t
        res8 = check_solution(tally, a, xb, block, f"{label} 8-rhs")
        vt = layers.verify_timings(engine.dag, grid)
        tally.op(vt.pop("ok"), f"{label}: plan verification failed")
        agg.add(spans, wall, t_item, layers.counts(res_t),
                max(rel_residual(a, x_t, b), res8), extra=vt,
                covered_excludes=("solvers.solve_8rhs_s",))
        layers.check_coverage(tally, agg, label)
        if (kind, solver) == PROBE:
            probe = layers.parallel_probe(
                a, b, res_u, t_item, SOLVER_KW[solver]["block_size"],
                tally, label)
            if probe is not None:
                probes.append(probe)
    out = agg.metrics()
    for key in (probes[0] if probes else ()):
        out[key] = sum(p[key] for p in probes) / len(probes)
    return out
