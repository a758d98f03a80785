"""Serving-path bench: the resident solver server's amortisation claims.

Boots an in-process :class:`~repro.serve.BackgroundServer` and drives
the Newton-loop traffic shape (same pattern, new values every step):

* **refactorise fast path** — warm value-only refactorisations against
  the cold first factorisation (ordering + symbolic paid once), with the
  shared analysis-cache hit rate the fast path sustains;
* **micro-batched throughput** — a pipelined burst of same-session
  solves folding into multi-RHS SpTRSV launches, with requests/sec and
  the server's own p50/p99 latency percentiles.

Writes ``benchmarks/results/BENCH_serve.json`` for the CI serve job.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import time

import numpy as np

from repro.analysis import format_table
from repro.matrices import circuit_like
from repro.serve import BackgroundServer, SolverClient
from repro.sparse import matvec

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Newton steps in the refactorise loop.  Each warm step re-pins the
#: pattern's two analysis products as cache hits, so the loop must be
#: long enough for the hit rate to clear 0.9 over the cold misses.
NEWTON_STEPS = 14

#: Pipelined same-session solves in the throughput burst.
BURST = 32


def _newton_values(a, rng):
    """Same pattern, new values, diagonally dominant."""
    out = a.copy()
    rows = np.repeat(np.arange(a.nrows), a.row_lengths())
    off = rows != a.indices
    out.data[off] = rng.standard_normal(int(off.sum())) * 0.5
    offsum = np.bincount(rows[off], weights=np.abs(out.data[off]),
                         minlength=a.nrows)
    out.data[~off] = 2.0 * offsum[rows[~off]] + 1.0
    return out


def test_serve_throughput(emit, benchmark):
    n = max(150, int(round(300 * math.sqrt(BENCH_SCALE))))
    a = circuit_like(n, seed=7)
    rng = np.random.default_rng(0)

    with BackgroundServer(batch_window=0.01, max_inflight=4) as bg:
        with SolverClient(bg.host, bg.port) as client:
            # -- cold factorize: ordering + symbolic + numeric ---------
            info = client.factorize(a, solver="pangulu", block_size=16,
                                    scheduler="trojan")
            session = info["session"]
            cold_s = info["seconds"]

            # -- Newton loop: value-only refactorise + one solve -------
            refac_s = []
            for _ in range(NEWTON_STEPS):
                a2 = _newton_values(a, rng)
                step = client.refactorize(session, data=a2.data)
                assert step["fast_path"] is True
                refac_s.append(step["seconds"])
                b = matvec(a2, rng.standard_normal(n))
                x = client.solve(session, b, refine=1)
                assert np.all(np.isfinite(x))
            mean_refac_s = float(np.mean(refac_s))

            # -- pipelined micro-batched solve burst -------------------
            bs = [rng.standard_normal(n) for _ in range(BURST)]
            t0 = time.perf_counter()
            xs = client.solve_many(session, bs, batch_solve=True)
            burst_wall_s = time.perf_counter() - t0
            assert len(xs) == BURST

            stats = client.stats()

    cache = stats["analysis_cache"]
    solve_lat = stats["metrics"]["latency"]["solve"]["total"]
    batching = stats["metrics"]["batching"]
    fastpath_speedup = cold_s / mean_refac_s
    requests_per_s = BURST / burst_wall_s

    emit("serve_throughput", format_table(
        ["metric", "value"],
        [
            ["matrix", f"circuit_like({n})"],
            ["cpu count", os.cpu_count()],
            ["cold factorize (ms)", cold_s * 1e3],
            ["refactorise mean (ms)", mean_refac_s * 1e3],
            ["fast-path speedup", round(fastpath_speedup, 2)],
            ["analysis-cache hit rate", round(cache["hit_rate"], 3)],
            ["burst requests/sec", round(requests_per_s, 1)],
            ["solve p50 (ms)", round(solve_lat["p50_ms"], 2)],
            ["solve p99 (ms)", round(solve_lat["p99_ms"], 2)],
            ["batch launches", batching["launches"]],
            ["batch mean occupancy", round(batching["mean_requests"], 2)],
        ],
        title="Solver server: refactorise fast path and micro-batched "
              "solve throughput",
    ))

    summary = {
        "matrix": f"circuit_like({n})",
        "newton_steps": NEWTON_STEPS,
        "burst": BURST,
        "cold_factorize_ms": cold_s * 1e3,
        "refactorize_mean_ms": mean_refac_s * 1e3,
        "fastpath_speedup": fastpath_speedup,
        "analysis_cache": cache,
        "requests_per_sec": requests_per_s,
        "solve_p50_ms": solve_lat["p50_ms"],
        "solve_p99_ms": solve_lat["p99_ms"],
        "batching": batching,
        "bench_scale": BENCH_SCALE,
        "cpu_count": os.cpu_count(),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_serve.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")

    # the amortisation claims: warm refactorise skips ordering+symbolic
    # entirely, and warm traffic keeps the shared analysis cache hot
    assert fastpath_speedup >= 2.0, \
        f"refactorise fast path only {fastpath_speedup:.2f}x over cold " \
        f"factorize"
    assert cache["hit_rate"] >= 0.9, \
        f"analysis-cache hit rate {cache['hit_rate']:.3f} < 0.9 on the " \
        f"Newton loop"
    assert batching["launches"] >= 1
    assert batching["max_requests"] >= 2, "burst never folded"
    # generous latency ceiling — catches pathological serialisation, not
    # machine noise
    assert solve_lat["p99_ms"] < 5000.0

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
