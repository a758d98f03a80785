"""Factorisation-as-a-service: the long-lived asyncio solver server.

The paper's thesis is amortisation — aggregate small irregular work and
batch it so fixed costs are paid once.  This server is the serving-side
analogue: one resident process amortises the *symbolic analysis* (the
shared thread-safe :class:`~repro.core.analysis_cache.AnalysisCache`),
the *tile storage* (each session's factor tiles stay stamped in the
pooled :class:`~repro.solvers.tilepool.TileArena`), and the *kernel
batching* (same-pattern solve requests arriving within a small window
fold into one multi-RHS SpTRSV launch) across requests instead of
across tasks.

Request model
-------------
Sessions are pattern-keyed: a ``factorize`` whose (pattern, solver
config) matches a resident session takes the refactorise fast path —
re-stamp tiles and replay the recorded launches of the session's last
schedule, skipping ordering, symbolic analysis and the scheduler (the
``streams`` scheduler, whose launches overlap, re-runs instead) — which
is the Newton-loop traffic shape of ``examples/circuit_simulation.py``.
An empty (0×0) matrix or a NaN or infinite value is a ``BAD_REQUEST``
that leaves the session as it was (the wire protocol already refuses
empty shapes before the solver sees them).
``solve`` requests hit the session's warm, lazily-built substitution
plans (SpTRSV contexts on the DAG path); a right-hand side of the wrong
shape or dtype, or with a NaN or infinite value, is a ``BAD_REQUEST``
too.
Admission control (a max-inflight bound over a bounded queue, plus
per-request deadlines honoured while queued) turns overload into fast
``OVERLOADED``/``DEADLINE`` rejections instead of collapse.

Execution model
---------------
The event loop never runs numerics: admitted work executes in worker
threads (``asyncio.to_thread``) while a per-session asyncio lock
serialises same-session mutations.  Different sessions factorise and
solve concurrently; the GIL-bound interpreter still overlaps the NumPy
kernels' C time.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time

import numpy as np

from repro.core.analysis_cache import AnalysisCache, pattern_digest
from repro.kernels.batched import batch_solve_enabled
from repro.ordering import compute_ordering
from repro.serve.metrics import ServerMetrics
from repro.serve.protocol import (
    ProtocolError,
    csr_from_arrays,
    pack_message,
    read_message,
)
from repro.solvers import SOLVER_REGISTRY
from repro.solvers.base import EmptyMatrixError, NonFiniteValuesError
from repro.solvers.engine import NumericEngine, check_rhs
from repro.solvers.sptrsv import fold_rhs, unfold_rhs
from repro.sparse import CSRMatrix, permute_symmetric

#: ops that skip admission control (cheap, metadata-only)
_UNGATED_OPS = ("ping", "stats", "shutdown")


class ServeError(Exception):
    """A request-level failure with a stable wire code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class _Session:
    """One resident (pattern, solver-config) factorisation."""

    def __init__(self, key: str, solver, a: CSRMatrix):
        self.key = key
        self.solver = solver
        self.a = a
        self.lock = asyncio.Lock()
        self.factorizes = 1
        self.refactorizes = 0
        self.solves = 0
        self.last_used = time.perf_counter()

    def touch(self) -> None:
        """Mark the session recently used (defers TTL/LRU eviction)."""
        self.last_used = time.perf_counter()

    @property
    def result(self):
        return self.solver.result


@contextlib.contextmanager
def _bad_values_rejected():
    """Report an empty matrix or non-finite matrix values as
    ``BAD_REQUEST``: the solver rejects them before touching any session
    state."""
    try:
        yield
    except (EmptyMatrixError, NonFiniteValuesError) as exc:
        raise ServeError("BAD_REQUEST", str(exc)) from exc


def _solver_options(header: dict) -> tuple[str, dict]:
    """Validated solver construction options from a request header."""
    name = header.get("solver", "pangulu")
    if name not in SOLVER_REGISTRY:
        raise ServeError("BAD_REQUEST",
                         f"unknown solver {name!r} "
                         f"(available: {sorted(SOLVER_REGISTRY)})")
    opts = {"ordering": header.get("ordering", "mindeg"),
            "scheduler": header.get("scheduler", "trojan")}
    if header.get("block_size") is not None:
        if name != "pangulu":
            raise ServeError("BAD_REQUEST",
                             "block_size applies to the pangulu solver")
        opts["block_size"] = int(header["block_size"])
    return name, opts


def _session_key(a: CSRMatrix, solver: str, opts: dict) -> str:
    """Pattern digest + solver config — the session identity."""
    cfg = ":".join(f"{k}={opts[k]}" for k in sorted(opts))
    return f"{pattern_digest(a)}:{solver}:{cfg}"


class SolverServer:
    """The long-lived solver service.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    max_inflight:
        Admitted numeric requests executing concurrently; everything
        beyond waits in the admission queue.
    max_queue:
        Bound on the admission queue; requests arriving with the queue
        full are rejected ``OVERLOADED`` immediately (backpressure).
    batch_window:
        Seconds a foldable solve request waits for same-session company
        before its micro-batched launch flushes.
    micro_batch:
        Fold same-session DAG-path solves into one multi-RHS launch.
        Default-path solves run solo: that path is bitwise
        column-equivariant too, but with one session per client nothing
        would fold and the window would only add latency.
    cache_capacity:
        Entries in the shared pattern-keyed analysis cache.
    default_deadline_ms:
        Deadline applied to requests that do not carry their own.
    session_ttl:
        Seconds a warm session may sit idle before eviction (``None``
        keeps sessions forever).  Evicted sessions release their tile
        arenas; a later same-pattern ``factorize`` simply rebuilds.
    max_sessions:
        Resident-session cap; inserting beyond it evicts the
        least-recently-used idle session (``None`` = unbounded).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 max_inflight: int = 4, max_queue: int = 64,
                 batch_window: float = 0.002, micro_batch: bool = True,
                 cache_capacity: int = 32,
                 default_deadline_ms: float | None = None,
                 session_ttl: float | None = None,
                 max_sessions: int | None = None):
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if session_ttl is not None and session_ttl <= 0:
            raise ValueError("session_ttl must be positive")
        if max_sessions is not None and max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.host = host
        self.port = port
        self.max_inflight = int(max_inflight)
        self.max_queue = int(max_queue)
        self.batch_window = float(batch_window)
        self.micro_batch = bool(micro_batch)
        self.default_deadline_ms = default_deadline_ms
        self.session_ttl = session_ttl
        self.max_sessions = max_sessions
        self.cache = AnalysisCache(capacity=cache_capacity)
        self.metrics = ServerMetrics()
        self.sessions: dict[str, _Session] = {}
        self._sem: asyncio.Semaphore | None = None
        self._queued = 0
        self._pending: dict[tuple, list] = {}
        self._creation_locks: dict[str, asyncio.Lock] = {}
        self._server: asyncio.base_events.Server | None = None
        self._stop = None
        self._started = time.perf_counter()
        self._conn_tasks: set[asyncio.Task] = set()
        self._conn_writers: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._sem = asyncio.Semaphore(self.max_inflight)
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.perf_counter()

    async def serve_until_stopped(self) -> None:
        """Block until a ``shutdown`` request (or :meth:`stop`)."""
        await self._stop.wait()
        await self._close()

    def stop(self) -> None:
        """Request shutdown (safe from the server's own event loop)."""
        self._stop.set()

    async def _close(self) -> None:
        """Stop listening and drain open connections cleanly.

        Closing each client transport unblocks its handler's pending
        read with EOF, so handlers exit normally instead of being
        cancelled mid-write by event-loop teardown."""
        self._server.close()
        await self._server.wait_closed()
        for writer in list(self._conn_writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)

    # ------------------------------------------------------------------
    # connection plumbing
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader, writer) -> None:
        wlock = asyncio.Lock()
        inflight: set[asyncio.Task] = set()
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                try:
                    header, arrays = await read_message(reader)
                except (EOFError, ConnectionResetError,
                        asyncio.IncompleteReadError):
                    break
                except ProtocolError as exc:
                    await self._write(writer, wlock,
                                      {"ok": False, "id": None,
                                       "error": "PROTOCOL",
                                       "message": str(exc)}, {})
                    break
                task = asyncio.create_task(
                    self._serve_one(header, arrays, writer, wlock))
                inflight.add(task)
                task.add_done_callback(inflight.discard)
        finally:
            self._conn_writers.discard(writer)
            if inflight:
                await asyncio.gather(*inflight, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._conn_tasks.discard(task)

    async def _write(self, writer, wlock, header: dict, arrays: dict) -> None:
        async with wlock:
            try:
                writer.write(pack_message(header, arrays))
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # client went away; nothing left to deliver

    async def _serve_one(self, header, arrays, writer, wlock) -> None:
        op = header.get("op", "<missing>")
        rid = header.get("id")
        t0 = time.perf_counter()
        self.metrics.request(op)
        resp_arrays: dict = {}
        try:
            resp, resp_arrays = await self._dispatch(op, header, arrays, t0)
            resp = {"ok": True, "id": rid, **resp}
        except ServeError as exc:
            self.metrics.error(op)
            resp = {"ok": False, "id": rid, "error": exc.code,
                    "message": str(exc)}
        except Exception as exc:  # noqa: BLE001 — the connection survives
            self.metrics.error(op)
            resp = {"ok": False, "id": rid, "error": "INTERNAL",
                    "message": f"{type(exc).__name__}: {exc}"}
        self.metrics.observe(op, "total", time.perf_counter() - t0)
        await self._write(writer, wlock, resp, resp_arrays)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def _deadline_of(self, header: dict, t0: float) -> float | None:
        """Absolute admission deadline (perf_counter seconds) or None."""
        ms = header.get("deadline_ms", self.default_deadline_ms)
        if ms is None:
            return None
        ms = float(ms)
        if ms <= 0:
            raise ServeError("BAD_REQUEST", "deadline_ms must be positive")
        return t0 + ms / 1e3

    async def _admit(self, op: str, deadline: float | None) -> float:
        """Wait for an execution slot; returns the queue wait in seconds.

        Enforces the queue bound (immediate ``OVERLOADED``) and the
        request deadline *while queued* (``DEADLINE``): once admitted, a
        request runs to completion — killing half-done numeric work
        would leave a session's tiles in an undefined state.
        """
        if self._queued >= self.max_queue:
            self.metrics.rejection("overloaded")
            raise ServeError("OVERLOADED",
                             f"admission queue full ({self.max_queue})")
        self._queued += 1
        self.metrics.queue_enter()
        t0 = time.perf_counter()
        try:
            timeout = None if deadline is None else deadline - t0
            if timeout is not None and timeout <= 0:
                self.metrics.rejection("deadline")
                raise ServeError("DEADLINE", "deadline expired while queued")
            try:
                await asyncio.wait_for(self._sem.acquire(), timeout)
            except asyncio.TimeoutError:
                self.metrics.rejection("deadline")
                raise ServeError("DEADLINE",
                                 "deadline expired while queued") from None
        finally:
            self._queued -= 1
            self.metrics.queue_exit()
        wait = time.perf_counter() - t0
        self.metrics.observe(op, "queue", wait)
        return wait

    async def _run_admitted(self, op: str, header: dict, t0: float,
                            session: "_Session | None", fn):
        """Admission → (session lock) → worker thread → release."""
        await self._admit(op, self._deadline_of(header, t0))
        t1 = time.perf_counter()
        try:
            if session is not None:
                async with session.lock:
                    out = await asyncio.to_thread(fn)
            else:
                out = await asyncio.to_thread(fn)
        finally:
            self._sem.release()
        self.metrics.observe(op, "execute", time.perf_counter() - t1)
        return out

    # ------------------------------------------------------------------
    # session eviction
    # ------------------------------------------------------------------
    def _evict(self, session: "_Session", reason: str) -> None:
        self.sessions.pop(session.key, None)
        self._creation_locks.pop(session.key, None)
        self.metrics.session_evicted(reason)

    def _evict_idle(self) -> None:
        """TTL sweep: drop sessions idle past ``session_ttl``.

        Runs at dispatch time (O(sessions), no timers to leak).  A
        session whose lock is held is mid-request — skipped; it is
        re-examined on the next sweep with a fresh ``last_used``.
        """
        if self.session_ttl is None or not self.sessions:
            return
        cutoff = time.perf_counter() - self.session_ttl
        for session in [s for s in self.sessions.values()
                        if s.last_used < cutoff]:
            if not session.lock.locked():
                self._evict(session, "ttl")

    def _enforce_session_cap(self) -> None:
        """LRU sweep after an insert: shed beyond ``max_sessions``.

        Locked (mid-request) sessions are never shed, so the cap can be
        transiently exceeded while every resident session is executing.
        """
        if self.max_sessions is None:
            return
        excess = len(self.sessions) - self.max_sessions
        if excess <= 0:
            return
        for session in sorted(self.sessions.values(),
                              key=lambda s: s.last_used):
            if excess <= 0:
                break
            if not session.lock.locked():
                self._evict(session, "lru")
                excess -= 1

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, op, header, arrays, t0):
        self._evict_idle()
        if op == "ping":
            return {}, {}
        if op == "stats":
            return self._op_stats(), {}
        if op == "shutdown":
            self._stop.set()
            return {}, {}
        if op == "analyze":
            return await self._op_analyze(header, arrays, t0)
        if op == "factorize":
            return await self._op_factorize(header, arrays, t0)
        if op == "refactorize":
            return await self._op_refactorize(header, arrays, t0)
        if op == "solve":
            return await self._op_solve(header, arrays, t0)
        raise ServeError("BAD_REQUEST", f"unknown op {op!r}")

    # -- analyze -------------------------------------------------------
    async def _op_analyze(self, header, arrays, t0):
        """Warm the analysis cache for a pattern without factorising.

        Values are optional — the symbolic products depend only on the
        pattern, so ordering, element fill, block fill and the task DAG
        are computed (through the shared cache) on a ones-valued stand-in
        and every later same-pattern ``factorize`` starts warm.
        """
        if "data" not in arrays and "indices" in arrays:
            arrays = dict(arrays)
            arrays["data"] = np.ones(arrays["indices"].size)
        a = self._matrix_of(header, arrays)
        solver_name, opts = _solver_options(header)
        key = _session_key(a, solver_name, opts)

        def work():
            cls = SOLVER_REGISTRY[solver_name]
            solver = cls(a, analysis_cache=self.cache,
                         **{k: v for k, v in opts.items()
                            if k != "scheduler"})
            perm = compute_ordering(a, solver.ordering)
            permuted = permute_symmetric(a, perm)
            part, fill = solver._build_partition(permuted)
            engine = NumericEngine(permuted, part,
                                   sparse_tiles=solver.sparse_tiles,
                                   fill=fill, cache=self.cache)
            return engine.fill.nnz_lu, engine.dag.n_tasks

        fill_nnz, n_tasks = await self._run_admitted(
            "analyze", header, t0, None, work)
        return {"session": key, "n": a.nrows, "nnz": a.nnz,
                "fill_nnz": int(fill_nnz), "tasks": int(n_tasks),
                "analysis_cache": self.cache.stats()}, {}

    # -- factorize / refactorize ---------------------------------------
    def _matrix_of(self, header, arrays) -> CSRMatrix:
        try:
            return csr_from_arrays(header, arrays)
        except ProtocolError as exc:
            raise ServeError("BAD_REQUEST", str(exc)) from exc

    async def _op_factorize(self, header, arrays, t0):
        a = self._matrix_of(header, arrays)
        solver_name, opts = _solver_options(header)
        key = _session_key(a, solver_name, opts)
        allow_fast = bool(header.get("fast_path", True))
        lock = self._creation_locks.setdefault(key, asyncio.Lock())
        async with lock:
            session = self.sessions.get(key)
            if session is not None and allow_fast:
                self.metrics.session_lookup(hit=True)
                session.touch()
                return await self._refactorize_into(
                    session, a, header, t0, op="factorize", fast_path=True)
            self.metrics.session_lookup(hit=False)

            def work():
                cls = SOLVER_REGISTRY[solver_name]
                solver = cls(a, analysis_cache=self.cache, **opts)
                t = time.perf_counter()
                with _bad_values_rejected():
                    solver.factorize()
                return solver, time.perf_counter() - t

            solver, seconds = await self._run_admitted(
                "factorize", header, t0, None, work)
            session = _Session(key, solver, a)
            self.sessions[key] = session
            self._enforce_session_cap()
        return self._factor_response(session, seconds, fast_path=False), {}

    async def _op_refactorize(self, header, arrays, t0):
        session = self._session_of(header)
        if "indptr" in arrays:
            a = self._matrix_of(header, arrays)
        elif "data" in arrays:
            data = arrays["data"]
            if data.ndim != 1 or data.size != session.a.nnz:
                raise ServeError("BAD_REQUEST",
                                 "data-only refactorize must carry one "
                                 "value per stored nonzero")
            a = CSRMatrix(session.a.shape, session.a.indptr,
                          session.a.indices, data)
        else:
            raise ServeError("BAD_REQUEST",
                             "refactorize needs a matrix or a data array")
        return await self._refactorize_into(session, a, header, t0,
                                            op="refactorize",
                                            fast_path=True)

    async def _refactorize_into(self, session, a, header, t0, op, fast_path):
        if a.shape != session.a.shape or not (
                np.array_equal(a.indptr, session.a.indptr)
                and np.array_equal(a.indices, session.a.indices)):
            raise ServeError("PATTERN_MISMATCH",
                             "matrix pattern differs from the session's")

        def work():
            t = time.perf_counter()
            with _bad_values_rejected():
                session.solver.refactorize(a)
            # Re-pin the session's analysis products in the shared
            # cache: warm traffic keeps its pattern LRU-fresh (cold
            # patterns are evicted first) and, if the entry was ever
            # evicted, the still-live triple is re-inserted for free.
            engine = session.solver._engine
            self.cache.fill_for(engine.a, lambda: engine.fill)
            self.cache.block_analysis_for(
                engine.a, engine.part, engine.sparse_tiles,
                lambda: (engine.bfill, engine.tile_nnz, engine.dag))
            return time.perf_counter() - t

        seconds = await self._run_admitted(op, header, t0, session, work)
        session.a = a
        session.refactorizes += 1
        session.touch()
        return self._factor_response(session, seconds, fast_path), {}

    def _factor_response(self, session, seconds, fast_path):
        res = session.result
        s = res.schedule
        return {
            "session": session.key,
            "fast_path": bool(fast_path),
            "n": session.a.nrows,
            "nnz": session.a.nnz,
            "fill_nnz": int(res.fill_nnz),
            "seconds": seconds,
            "phase_seconds": dict(res.phase_seconds),
            "schedule": {"tasks": s.task_count, "kernels": s.kernel_count,
                         "sim_time_ms": s.total_time * 1e3,
                         "gflops": s.gflops},
        }

    def _session_of(self, header) -> _Session:
        key = header.get("session")
        session = self.sessions.get(key)
        if session is None:
            self.metrics.session_lookup(hit=False)
            raise ServeError("UNKNOWN_SESSION",
                             f"no resident session {key!r} — factorize "
                             "first")
        self.metrics.session_lookup(hit=True)
        session.touch()
        return session

    # -- solve ---------------------------------------------------------
    async def _op_solve(self, header, arrays, t0):
        session = self._session_of(header)
        b = arrays.get("b")
        if b is None:
            raise ServeError("BAD_REQUEST", "solve needs an array 'b'")
        try:
            # the solver's own check, run before a fold group can form
            check_rhs(b, session.a.nrows)
        except (ValueError, TypeError) as exc:
            raise ServeError("BAD_REQUEST", str(exc)) from exc
        refine = int(header.get("refine", 0))
        if refine < 0:
            raise ServeError("BAD_REQUEST", "refine must be >= 0")
        scheduler = header.get("solve_scheduler", "trojan")
        batch_solve = header.get("batch_solve")
        use_dag = (batch_solve_enabled() if batch_solve is None
                   else bool(batch_solve))
        if self.micro_batch and use_dag:
            x, folded = await self._solve_batched(
                session, b, refine, scheduler, header, t0)
        else:
            def work():
                session.solves += 1
                return session.result.solve(
                    b, refine=refine, a=session.a, batch_solve=use_dag,
                    solve_scheduler=scheduler)

            x = await self._run_admitted("solve", header, t0, session, work)
            folded = 1
        return ({"session": session.key, "nrhs": 1 if b.ndim == 1
                 else b.shape[1], "refine": refine, "batched_with": folded,
                 "path": "dag" if use_dag else "csr"}, {"x": x})

    async def _solve_batched(self, session, b, refine, scheduler,
                             header, t0):
        """Enqueue into the session's fold group and await the launch.

        The first request of a group arms a flush ``batch_window``
        seconds out; everything that joins the group before the flush
        shares one multi-RHS DAG solve.  Folding is bit-safe because
        the DAG path is bitwise column-equivariant, and refinement
        folds too: 2-D :func:`~repro.sparse.ops.matvec` is bitwise
        column-equivariant as well (the frontline bug this PR fixed).
        """
        loop = asyncio.get_running_loop()
        key = (session.key, refine, scheduler)
        fut = loop.create_future()
        group = self._pending.get(key)
        entry = (fut, b, self._deadline_of(header, t0))
        if group is None:
            self._pending[key] = [entry]
            loop.call_later(
                self.batch_window,
                lambda: asyncio.ensure_future(self._flush(key, session)))
        else:
            group.append(entry)
        return await fut

    async def _flush(self, key, session) -> None:
        group = self._pending.pop(key, None)
        if not group:
            return
        _, refine, scheduler = key
        try:
            await self._admit("solve", None)
        except ServeError as exc:
            for fut, _, _ in group:
                if not fut.done():
                    fut.set_exception(exc)
            return
        try:
            now = time.perf_counter()
            live = []
            for fut, b, deadline in group:
                if deadline is not None and now > deadline:
                    self.metrics.rejection("deadline")
                    fut.set_exception(ServeError(
                        "DEADLINE", "deadline expired while queued"))
                else:
                    live.append((fut, b))
            if not live:
                return
            folded, splits = fold_rhs([b for _, b in live])
            t1 = time.perf_counter()

            def work():
                session.solves += len(live)
                return session.result.solve(
                    folded, refine=refine, a=session.a, batch_solve=True,
                    solve_scheduler=scheduler)

            async with session.lock:
                x2 = await asyncio.to_thread(work)
            self.metrics.observe("solve", "execute",
                                 time.perf_counter() - t1)
            self.metrics.batch(requests=len(live),
                               columns=folded.shape[1])
            for (fut, _), x in zip(live, unfold_rhs(x2, splits)):
                if not fut.done():
                    fut.set_result((x, len(live)))
        except Exception as exc:  # noqa: BLE001 — fail the waiters, not the loop
            for fut, *_ in group:
                if not fut.done():
                    fut.set_exception(exc)
        finally:
            self._sem.release()

    # -- stats ---------------------------------------------------------
    def _op_stats(self) -> dict:
        return {
            "uptime_s": time.perf_counter() - self._started,
            "metrics": self.metrics.snapshot(),
            "analysis_cache": self.cache.stats(),
            "config": {"max_inflight": self.max_inflight,
                       "max_queue": self.max_queue,
                       "batch_window": self.batch_window,
                       "micro_batch": self.micro_batch,
                       "session_ttl": self.session_ttl,
                       "max_sessions": self.max_sessions},
            "sessions": [
                {"session": s.key, "n": s.a.nrows, "nnz": s.a.nnz,
                 "solver": s.solver.solver_name,
                 "refactorizes": s.refactorizes, "solves": s.solves,
                 "idle_s": time.perf_counter() - s.last_used}
                for s in self.sessions.values()
            ],
        }


class BackgroundServer:
    """A :class:`SolverServer` on its own event-loop thread.

    The shape tests, benches and the CI gate use: start in-process,
    read ``host``/``port``, drive it with the synchronous client, stop.

    >>> with BackgroundServer(max_inflight=2) as bg:
    ...     client = SolverClient(bg.host, bg.port)
    """

    def __init__(self, **server_kwargs):
        self._kwargs = server_kwargs
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._error: BaseException | None = None
        self.server: SolverServer | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self.server = SolverServer(**self._kwargs)
        self._loop = asyncio.get_running_loop()
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_stopped()

    def start(self) -> "BackgroundServer":
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if self.server is None or self._loop is None:
            raise RuntimeError("server failed to start within 30s")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.stop)
        self._thread.join(timeout=30.0)

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
