"""``serve_newton``: Newton steps against resident server sessions.

The server runs in its own process (``python -m repro serve --port 0
--max-inflight 2``).  Two closed-loop clients, one thread each, own one
session each on ``circuit_like(400)`` (pangulu block 16).  A step is a
value-only ``refactorize`` plus a 1-RHS ``solve(refine=1)`` (the Newton
step), then one 8-column block solve.  The sessions' cold factorize is
set-up; after it the analysis layers only hit the cache.
"""

from __future__ import annotations

import queue
import re
import subprocess
import sys
import threading
import time
import traceback

import numpy as np

import layers
from common import (SETUP_REPS, Tally, check_hygiene, child_env, median,
                    pct, peak_rss_mb, rel_residual, RESIDUAL_TOL,
                    shm_segments)
from repro import matrices
from repro.cluster.grid import ProcessGrid
from repro.core.analysis_cache import AnalysisCache
from repro.serve import ServerError, SolverClient
from repro.solvers import SOLVER_REGISTRY
from repro.sparse import CSRMatrix

OFF_PATH = ("parallel.",)

N = 400
BLOCK = 16
BLOCK_RHS = 8
CLIENTS = 2
#: Newton steps per op a run must carry, so that ten lie beyond p90.
MIN_SAMPLES = 100
#: Relative size of the seeded per-step value changes.
JITTER = 0.05
#: Newton steps of client 0 replayed in-process by the traced run.
REPLAY_STEPS = 8
BOOT_TIMEOUT = 60.0
_READY = re.compile(r"server on ([\d.]+):(\d+)")


def session_matrix(seed: int, client: int):
    rng = np.random.default_rng([seed, 2, client])
    return matrices.circuit_like(N, seed=int(rng.integers(2 ** 31)))


def newton_steps(seed: int, client: int, a, stream: int = 3):
    """Endless seeded ``(a_k, b, B)`` steps: same pattern as ``a``,
    values jittered by up to ``JITTER``, fresh right-hand sides."""
    rng = np.random.default_rng([seed, stream, client])
    while True:
        data = a.data * (1.0 + JITTER * rng.uniform(-1.0, 1.0, a.nnz))
        yield (CSRMatrix(a.shape, a.indptr, a.indices, data),
               rng.standard_normal(a.nrows),
               rng.standard_normal((a.nrows, BLOCK_RHS)))


class Server:
    """``python -m repro serve`` in a child process."""

    def __init__(self, root):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--max-inflight", "2"],
            cwd=root, env=child_env(root), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True)
        self.lines: queue.Queue = queue.Queue()
        self.log: list[str] = []
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + BOOT_TIMEOUT
        while True:
            try:
                line = self.lines.get(timeout=max(0.0, deadline
                                                  - time.monotonic()))
            except queue.Empty:
                self.kill()
                raise RuntimeError("server did not come up: "
                                   + "".join(self.log[-20:]))
            if line is None:
                self.kill()
                raise RuntimeError("server exited at boot: "
                                   + "".join(self.log[-20:]))
            m = _READY.search(line)
            if m:
                self.host, self.port = m.group(1), int(m.group(2))
                return

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self.log.append(line)
            self.lines.put(line)
        self.lines.put(None)

    def client(self) -> SolverClient:
        return SolverClient(self.host, self.port, timeout=60.0)

    def stop(self) -> int:
        """Ask the server to exit and wait for it; returns its exit
        code (the process is killed if it does not exit in time)."""
        try:
            with self.client() as c:
                c.shutdown()
        except (OSError, ServerError):
            pass
        try:
            code = self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            code = None
        self._reader.join(timeout=10)
        return code

    def kill(self) -> None:
        self.proc.kill()
        self.proc.wait(timeout=30)
        self._reader.join(timeout=10)


def _open_sessions(server: Server, mats) -> tuple[list, list]:
    clients, sessions = [], []
    for a in mats:
        c = server.client()
        clients.append(c)
        sessions.append(c.factorize(a, solver="pangulu",
                                    block_size=BLOCK)["session"])
    return clients, sessions


def _close(tally: Tally, server: Server, clients, shm_before, what) -> None:
    for c in clients:
        c.close()
    code = server.stop()
    tally.op(code == 0, f"{what}: server exit code {code}")
    check_hygiene(tally, shm_before, [server.proc.pid], what)


def _setup(root, seed: int, mats, tally: Tally, shm_before):
    """Boot the server, open both sessions (cold factorize) and run one
    warm-up Newton step per client — ``SETUP_REPS`` times, keeping the
    last server.  Returns ``(median seconds, server, clients,
    sessions)``."""
    reps = []
    for rep in range(SETUP_REPS):
        t = time.perf_counter()
        server = Server(root)
        clients, sessions = _open_sessions(server, mats)
        for c, (client, sess, a) in enumerate(zip(clients, sessions, mats)):
            a_k, b, block = next(newton_steps(seed, c, a, stream=4))
            client.refactorize(sess, data=a_k.data)
            client.solve(sess, b, refine=1)
            client.solve(sess, block)
        reps.append(time.perf_counter() - t)
        if rep < SETUP_REPS - 1:
            _close(tally, server, clients, shm_before, "setup server")
    return median(reps), server, clients, sessions


class _ClientLoop(threading.Thread):
    """One closed-loop client: the next step starts when the previous
    one has answered.  Records latencies and check outcomes; the main
    thread counts them (the tally is not thread-safe)."""

    def __init__(self, idx, client, session, steps, stop_at, shared,
                 keep: int):
        super().__init__(daemon=True)
        self.idx, self.client, self.session = idx, client, session
        self.steps, self.stop_at, self.shared = steps, stop_at, shared
        self.keep = keep
        self.newton_s: list[float] = []
        self.refactor_s: list[float] = []
        self.block_s: list[float] = []
        self.checks: list[tuple[bool, str]] = []
        self.kept: list = []

    def _more(self) -> bool:
        now = time.perf_counter()
        soft, hard = self.stop_at
        with self.shared["lock"]:
            short = self.shared["steps"] < MIN_SAMPLES
        return now < soft or (short and now < hard)

    def run(self) -> None:
        try:
            self._loop()
        except Exception:  # noqa: BLE001 — reported as a failed op
            self.checks.append((False, f"client {self.idx}: "
                                       + traceback.format_exc()))

    def _loop(self) -> None:
        sess, c = self.session, self.client
        while self._more():
            a_k, b, block = next(self.steps)
            k = len(self.newton_s)
            try:
                t0 = time.perf_counter()
                c.refactorize(sess, data=a_k.data)
                t1 = time.perf_counter()
                x = c.solve(sess, b, refine=1)
                t2 = time.perf_counter()
                xb = c.solve(sess, block)
                t3 = time.perf_counter()
            except ServerError as exc:
                self.checks.append((False, f"client {self.idx}: {exc}"))
                continue
            except OSError as exc:
                self.checks.append((False, f"client {self.idx}: {exc!r}"))
                return
            self.newton_s.append(t2 - t0)
            self.refactor_s.append(t1 - t0)
            self.block_s.append(t3 - t2)
            with self.shared["lock"]:
                self.shared["steps"] += 1
            for what, rhs, sol in (("step", b, x), ("block", block, xb)):
                res = rel_residual(a_k, sol, rhs)
                self.checks.append((
                    bool(res <= RESIDUAL_TOL),
                    f"client {self.idx} {what} {k}: residual {res:.3e}"))
            if k < self.keep:
                self.kept.append((a_k, b, block, x, xb))


def run(root, *, seed: int, seconds: float, trace: bool, tally: Tally
        ) -> dict:
    shm_before = shm_segments()
    mats = [session_matrix(seed, c) for c in range(CLIENTS)]
    setup_s, server, clients, sessions = _setup(root, seed, mats, tally,
                                                shm_before)
    try:
        t0 = time.perf_counter()
        shared = {"lock": threading.Lock(), "steps": 0}
        loops = [
            _ClientLoop(c, clients[c], sessions[c],
                        newton_steps(seed, c, mats[c]),
                        (t0 + seconds, t0 + 2 * seconds), shared,
                        keep=REPLAY_STEPS if trace and c == 0 else 0)
            for c in range(CLIENTS)]
        for loop in loops:
            loop.start()
        for loop in loops:
            loop.join(timeout=2 * seconds + 120)
            tally.op(not loop.is_alive(), f"client {loop.idx} hung")
        wall = time.perf_counter() - t0
        stats = clients[0].stats()
        server_rss = peak_rss_mb(server.proc.pid)
    finally:
        _close(tally, server, clients, shm_before, "server")
    for loop in loops:
        for ok, what in loop.checks:
            tally.op(ok, what)
    newton = [t for loop in loops for t in loop.newton_s]
    block = [t for loop in loops for t in loop.block_s]
    tally.op(len(newton) >= MIN_SAMPLES,
             f"only {len(newton)} Newton steps (< {MIN_SAMPLES})")
    if not newton:
        raise SystemExit("error: no Newton step completed")
    if not trace:
        return {
            "setup_s": setup_s,
            "peak_rss_mb": server_rss,
            "time_to_solution_s_p50": median(newton),
            "time_to_solution_s_p90": pct(newton, 90),
            "solve_ms_p50": median(block) * 1e3,
            "solve_ms_p90": pct(block, 90) * 1e3,
            "solutions_per_s": len(newton) / wall,
        }
    refactor_ms = median([t for loop in loops for t in loop.refactor_s])
    out = _server_layers(stats, refactor_ms * 1e3)
    out.update(_replay(mats[0], loops[0].kept, tally))
    return out


def _server_layers(stats: dict, client_refactor_ms: float) -> dict:
    """Per-layer numbers from the server's ``stats`` op."""
    m = stats["metrics"]
    ref, sol = m["latency"]["refactorize"], m["latency"]["solve"]
    return {
        "serve.refactorize.queue_ms_p50": ref["queue"]["p50_ms"],
        "serve.refactorize.queue_ms_p90": ref["queue"]["p90_ms"],
        "serve.solve.queue_ms_p50": sol["queue"]["p50_ms"],
        "serve.solve.queue_ms_p90": sol["queue"]["p90_ms"],
        "serve.refactorize.execute_ms_p50": ref["execute"]["p50_ms"],
        "serve.solve.execute_ms_p50": sol["execute"]["p50_ms"],
        "serve.wire_ms_p50": client_refactor_ms - ref["total"]["p50_ms"],
        "serve.analysis_cache_hit_rate": stats["analysis_cache"]["hit_rate"],
        "serve.session_hit_rate": m["session_cache"]["hit_rate"],
        "serve.batch_launches": m["batching"]["launches"],
        "serve.rejections": sum(m["rejections"].values()),
        "serve.errors": sum(m["errors"].values()),
    }


def _replay(a, kept, tally: Tally) -> dict:
    """Replay client 0's first Newton steps in-process, untraced through
    ``refactorize()`` and traced through its public steps; both must
    reproduce the server's solutions bit for bit."""
    cache = AnalysisCache()
    res0, _, engine = layers.traced_factorize(a, "pangulu",
                                                 block_size=BLOCK,
                                                 cache=cache)
    solver = SOLVER_REGISTRY["pangulu"](a, block_size=BLOCK,
                                        scheduler="trojan",
                                        analysis_cache=AnalysisCache())
    solver.factorize()
    agg = layers.Aggregate()
    for k, (a_k, b, block, x_srv, xb_srv) in enumerate(kept):
        t = time.perf_counter()
        res_u = solver.refactorize(a_k)
        x_u = res_u.solve(b, refine=1, a=a_k)
        xb_u = res_u.solve(block)
        t_untraced = time.perf_counter() - t
        res_t, spans = layers.traced_refactorize(engine, res0.perm, a_k,
                                                 "pangulu", cache=cache)
        x_t = layers.timed_solve(spans, "solvers.solve_1rhs_s", res_t, b,
                                 a_k, refine=1)
        xb_t = layers.timed_solve(spans, "solvers.solve_8rhs_s", res_t,
                                  block, a_k, refine=0)
        wall = spans.wall()
        same = (layers.same_factors(res_u, res_t)
                and all(np.array_equal(p, q) for p, q in
                        ((x_u, x_t), (x_u, x_srv), (xb_u, xb_t),
                         (xb_u, xb_srv))))
        tally.op(same, f"replay step {k}: server, untraced and traced "
                       "results differ")
        agg.add(spans, wall, t_untraced, layers.counts(res_t),
                max(rel_residual(a_k, x_t, b),
                    rel_residual(a_k, xb_t, block)))
    out = agg.metrics()
    vt = layers.verify_timings(engine.dag, ProcessGrid(2))
    tally.op(vt.pop("ok"), "session plan verification failed")
    out.update(vt)
    return out
