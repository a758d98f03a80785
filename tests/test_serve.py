"""Tests for the factorisation-as-a-service stack (``repro.serve``).

Covers the wire protocol, the RHS fold/unfold primitives, admission
control (max-inflight bound, queue overflow, queued-deadline expiry),
the micro-batching path, and — the differential contract — that a
server ``refactorize + solve`` round-trip is *bit-identical* to a fresh
in-process ``factorize + solve`` for the same (pattern, values, b),
across the CSR and DAG solve paths and micro-batched vs solo requests.
"""

from __future__ import annotations

import asyncio
import io
import time

import numpy as np
import pytest

from repro.matrices import circuit_like, poisson2d
from repro.serve import (
    BackgroundServer,
    ProtocolError,
    ServeError,
    ServerError,
    SolverClient,
    pack_message,
    read_message_sync,
)
from repro.serve.metrics import ServerMetrics
from repro.serve.server import SolverServer
from repro.solvers import PanguLUSolver, fold_rhs, unfold_rhs
from repro.sparse import CSRMatrix, matvec
from tests.test_refactorize import (
    _late_zero_pivot,
    assert_same_factorization,
)


def _newton_values(a, rng):
    """Same pattern, new values, diagonally dominant (refactorisable)."""
    out = a.copy()
    rows = np.repeat(np.arange(a.nrows), a.row_lengths())
    off = rows != a.indices
    out.data[off] = rng.standard_normal(int(off.sum())) * 0.5
    offsum = np.bincount(rows[off], weights=np.abs(out.data[off]),
                         minlength=a.nrows)
    out.data[~off] = 2.0 * offsum[rows[~off]] + 1.0
    return out


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip(self):
        header = {"op": "solve", "id": 7, "refine": 2}
        arrays = {"b": np.arange(12.0).reshape(3, 4),
                  "idx": np.array([1, 2, 3], dtype=np.int64)}
        wire = pack_message(header, arrays)
        got_h, got_a = read_message_sync(io.BytesIO(wire))
        assert got_h == header
        assert np.array_equal(got_a["b"], arrays["b"])
        assert got_a["b"].dtype == np.float64
        assert np.array_equal(got_a["idx"], arrays["idx"])

    def test_two_messages_on_one_stream(self):
        wire = pack_message({"id": 1}) + pack_message(
            {"id": 2}, {"x": np.ones(3)})
        fh = io.BytesIO(wire)
        h1, a1 = read_message_sync(fh)
        h2, a2 = read_message_sync(fh)
        assert h1["id"] == 1 and not a1
        assert h2["id"] == 2 and a2["x"].shape == (3,)

    def test_eof_raises(self):
        with pytest.raises(EOFError):
            read_message_sync(io.BytesIO(b""))
        truncated = pack_message({"id": 1}, {"x": np.ones(4)})[:-8]
        with pytest.raises(EOFError):
            read_message_sync(io.BytesIO(truncated))

    def test_rejects_non_wire_dtype(self):
        with pytest.raises(ProtocolError):
            pack_message({}, {"x": np.array(["a", "b"])})

    def test_rejects_hostile_header(self):
        bad = pack_message({"ok": True}).replace(b'"arrays":[]',
                                                 b'"arrays":{}')
        with pytest.raises(ProtocolError):
            read_message_sync(io.BytesIO(bad))


# ----------------------------------------------------------------------
# fold / unfold
# ----------------------------------------------------------------------
class TestFoldRhs:
    def test_roundtrip_shapes(self, rng):
        bs = [rng.standard_normal(9), rng.standard_normal((9, 3)),
              rng.standard_normal((9, 1))]
        folded, splits = fold_rhs(bs)
        assert folded.shape == (9, 5)
        out = unfold_rhs(folded, splits)
        for orig, got in zip(bs, out):
            assert got.shape == orig.shape
            assert np.array_equal(got, orig)

    def test_rejects_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            fold_rhs([rng.standard_normal(4), rng.standard_normal(5)])
        with pytest.raises(ValueError):
            fold_rhs([])
        with pytest.raises(ValueError):
            fold_rhs([rng.standard_normal((2, 2, 2))])

    def test_unfold_must_cover(self, rng):
        folded, splits = fold_rhs([rng.standard_normal(4)])
        with pytest.raises(ValueError):
            unfold_rhs(np.hstack([folded, folded]), splits)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_snapshot_shapes(self):
        m = ServerMetrics()
        m.request("solve")
        m.observe("solve", "total", 0.010)
        m.observe("solve", "total", 0.030)
        m.batch(requests=3, columns=5)
        m.session_lookup(hit=True)
        m.session_lookup(hit=False)
        m.rejection("deadline")
        snap = m.snapshot()
        assert snap["requests"] == {"solve": 1}
        lat = snap["latency"]["solve"]["total"]
        assert lat["count"] == 2
        assert 10.0 <= lat["p50_ms"] <= 30.0
        assert snap["batching"]["mean_requests"] == 3.0
        assert snap["session_cache"]["hit_rate"] == 0.5
        assert snap["rejections"] == {"deadline": 1}

    def test_queue_gauge(self):
        m = ServerMetrics()
        m.queue_enter()
        m.queue_enter()
        m.queue_exit()
        snap = m.snapshot()
        assert snap["queue"] == {"depth": 1, "peak": 2}


# ----------------------------------------------------------------------
# admission control (no wire needed — exercised on the server object)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_deadline_and_overload(self):
        async def scenario():
            s = SolverServer(max_inflight=1, max_queue=1)
            await s.start()
            try:
                await s._admit("solve", None)  # occupy the only slot
                with pytest.raises(ServeError) as exc:
                    await s._admit("solve", time.perf_counter() + 0.02)
                assert exc.value.code == "DEADLINE"
                waiter = asyncio.create_task(s._admit("solve", None))
                await asyncio.sleep(0.01)  # waiter now fills the queue
                with pytest.raises(ServeError) as exc:
                    await s._admit("solve", None)
                assert exc.value.code == "OVERLOADED"
                s._sem.release()
                await waiter
                s._sem.release()
            finally:
                s.stop()
                await s._close()
            return s.metrics.snapshot()

        snap = asyncio.run(scenario())
        assert snap["rejections"] == {"deadline": 1, "overloaded": 1}
        assert snap["queue"]["depth"] == 0

    def test_expired_deadline_rejected_before_waiting(self):
        async def scenario():
            s = SolverServer(max_inflight=1)
            await s.start()
            try:
                with pytest.raises(ServeError) as exc:
                    await s._admit("solve", time.perf_counter() - 1.0)
                assert exc.value.code == "DEADLINE"
            finally:
                s.stop()
                await s._close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# server round trips
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def served():
    """One background server + client + factorised session per module."""
    a = circuit_like(140, seed=7)
    with BackgroundServer(batch_window=0.05) as bg:
        with SolverClient(bg.host, bg.port) as client:
            info = client.factorize(a, solver="pangulu", block_size=16,
                                    scheduler="trojan")
            yield bg, client, a, info["session"]


class TestServerOps:
    def test_ping_and_stats(self, served):
        _, client, _, session = served
        assert client.ping()
        stats = client.stats()
        assert stats["config"]["micro_batch"] is True
        assert any(s["session"] == session for s in stats["sessions"])

    def test_analyze_primes_cache(self, served):
        _, client, a, _ = served
        info = client.analyze(a, solver="pangulu", block_size=16)
        assert info["fill_nnz"] > a.nnz
        assert info["tasks"] > 0

    def test_warm_factorize_takes_fast_path(self, served):
        _, client, a, session = served
        info = client.factorize(a, solver="pangulu", block_size=16,
                                scheduler="trojan")
        assert info["fast_path"] is True
        assert info["session"] == session
        assert info["phase_seconds"]["reorder"] == 0.0

    def test_solve_matches_truth(self, served, rng):
        _, client, a, session = served
        x_true = rng.standard_normal(a.nrows)
        b = matvec(a, x_true)
        x = client.solve(session, b, refine=1)
        assert np.linalg.norm(x - x_true) < 1e-10 * np.linalg.norm(x_true)

    def test_unknown_session_and_bad_requests(self, served, rng):
        _, client, a, session = served
        with pytest.raises(ServerError) as exc:
            client.solve("no-such-session", rng.standard_normal(a.nrows))
        assert exc.value.code == "UNKNOWN_SESSION"
        with pytest.raises(ServerError) as exc:
            client.solve(session, rng.standard_normal(a.nrows + 1))
        assert exc.value.code == "BAD_REQUEST"
        with pytest.raises(ServerError) as exc:
            client.solve(session, rng.standard_normal(a.nrows), refine=-1)
        assert exc.value.code == "BAD_REQUEST"
        with pytest.raises(ServerError) as exc:
            client.refactorize(session, data=np.ones(3))
        assert exc.value.code == "BAD_REQUEST"

    def test_pattern_mismatch_rejected(self, served):
        _, client, a, session = served
        other = poisson2d(12)
        with pytest.raises(ServerError) as exc:
            client.refactorize(session, a=other)
        assert exc.value.code == "PATTERN_MISMATCH"

    def test_micro_batch_folds_pipelined_solves(self, served, rng):
        _, client, a, session = served
        before = client.stats()["metrics"]["batching"]["launches"]
        bs = [rng.standard_normal(a.nrows) for _ in range(4)]
        xs = client.solve_many(session, bs, batch_solve=True)
        after = client.stats()["metrics"]["batching"]
        assert after["launches"] > before
        assert after["max_requests"] >= 2
        assert after["max_columns"] >= after["max_requests"]
        run = PanguLUSolver(a, block_size=16, scheduler="trojan").factorize()
        for b, x in zip(bs, xs):
            assert np.array_equal(x, run.solve(b, batch_solve=True))


# ----------------------------------------------------------------------
# the differential contract (pinned across solve paths and batching)
# ----------------------------------------------------------------------
class TestServerDifferential:
    @pytest.mark.parametrize("batch_solve", [False, True, None])
    @pytest.mark.parametrize("refine", [0, 1])
    def test_refactorize_solve_bit_identical_to_in_process(
            self, batch_solve, refine, rng):
        """Server ``refactorize + solve`` ≡ fresh ``factorize + solve``.

        ``batch_solve=None`` exercises whatever ``REPRO_BATCH_SOLVE``
        says (the CI matrix runs this file with the knob off and on);
        solo requests and pipelined micro-batched requests must both
        return the exact bits of an in-process solve on a fresh
        factorisation of the same (pattern, values).
        """
        a = circuit_like(120, seed=11)
        a2 = _newton_values(a, rng)
        bs = [rng.standard_normal(a.nrows),
              rng.standard_normal((a.nrows, 3))]
        with BackgroundServer(batch_window=0.05) as bg:
            with SolverClient(bg.host, bg.port) as client:
                info = client.factorize(a, solver="pangulu", block_size=16,
                                        scheduler="trojan")
                session = info["session"]
                client.refactorize(session, data=a2.data)
                solo = [client.solve(session, b, refine=refine,
                                     batch_solve=batch_solve)
                        for b in bs]
                piped = client.solve_many(session, bs, refine=refine,
                                          batch_solve=batch_solve)
        fresh = PanguLUSolver(a2, block_size=16,
                              scheduler="trojan").factorize()
        for b, x_solo, x_piped in zip(bs, solo, piped):
            expect = fresh.solve(b, refine=refine, a=a2,
                                 batch_solve=batch_solve)
            assert np.array_equal(x_solo, expect)
            assert np.array_equal(x_piped, expect)
            assert np.all(np.isfinite(expect))


# ----------------------------------------------------------------------
# bad values and failed refactorisations leave the session usable
# ----------------------------------------------------------------------
class TestServerBadValues:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_are_bad_requests(self, bad, rng):
        a = circuit_like(120, seed=11)
        b = rng.standard_normal(a.nrows)
        a_bad = _newton_values(a, rng)
        a_bad.data[40] = bad
        row = int(np.searchsorted(a_bad.indptr, 40, side="right")) - 1
        col = int(a_bad.indices[40])
        with BackgroundServer() as bg:
            with SolverClient(bg.host, bg.port) as client:
                with pytest.raises(ServerError) as exc:
                    client.factorize(a_bad, solver="pangulu", block_size=16)
                assert exc.value.code == "BAD_REQUEST"
                assert f"(row {row}, col {col})" in str(exc.value)
                assert client.stats()["sessions"] == []
                session = client.factorize(a, solver="pangulu",
                                           block_size=16)["session"]
                x0 = client.solve(session, b)
                for request in (
                        lambda: client.refactorize(session, data=a_bad.data),
                        lambda: client.refactorize(session, a=a_bad),
                        lambda: client.factorize(a_bad, solver="pangulu",
                                                 block_size=16)):
                    with pytest.raises(ServerError) as exc:
                        request()
                    assert exc.value.code == "BAD_REQUEST"
                    assert np.array_equal(client.solve(session, b), x0)
                a2 = _newton_values(a, rng)
                client.refactorize(session, data=a2.data)
                x2 = client.solve(session, b)
        fresh = PanguLUSolver(a2, block_size=16,
                              scheduler="trojan").factorize()
        assert np.array_equal(x2, fresh.solve(b))

    def test_empty_matrix_is_bad_request(self):
        a = CSRMatrix((0, 0), np.zeros(1, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0))
        with BackgroundServer() as bg:
            with SolverClient(bg.host, bg.port) as client:
                for solver in ("pangulu", "superlu"):
                    for request in (client.factorize, client.analyze):
                        with pytest.raises(ServerError) as exc:
                            request(a, solver=solver)
                        assert exc.value.code == "BAD_REQUEST"
                        assert "[0, 0]" in str(exc.value)
                assert client.stats()["sessions"] == []

    def test_failed_refactorize_leaves_no_stale_state(self, rng):
        """A zero pivot mid-replay fails the request; the session keeps
        solving the previous values and the next good refactorize is
        bit-identical to a fresh in-process factorize."""
        a = circuit_like(120, seed=3)
        a1 = _newton_values(a, rng)
        b = rng.standard_normal(a.nrows)
        with BackgroundServer() as bg:
            with SolverClient(bg.host, bg.port) as client:
                session = client.factorize(a, solver="pangulu",
                                           block_size=16)["session"]
                client.refactorize(session, data=a1.data)
                solver = bg.server.sessions[session].solver
                r1 = solver.result
                bad = _late_zero_pivot(r1.perm, a1)
                with pytest.raises(ServerError) as exc:
                    client.refactorize(session, data=bad.data)
                assert "zero pivot" in str(exc.value)
                assert solver.result is r1
                x1 = client.solve(session, b, refine=1)
                a2 = _newton_values(a, rng)
                client.refactorize(session, data=a2.data)
                x2 = client.solve(session, b, refine=1)
                r2 = solver.result
        expect1 = PanguLUSolver(a1, block_size=16,
                                scheduler="trojan").factorize()
        assert np.array_equal(x1, expect1.solve(b, refine=1, a=a1))
        fresh = PanguLUSolver(a2, block_size=16,
                              scheduler="trojan").factorize()
        assert_same_factorization(r2, fresh)
        assert np.array_equal(x2, fresh.solve(b, refine=1, a=a2))


# ----------------------------------------------------------------------
# warm-session eviction (TTL + LRU cap)
# ----------------------------------------------------------------------
class TestSessionEviction:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="session_ttl"):
            SolverServer(session_ttl=0)
        with pytest.raises(ValueError, match="max_sessions"):
            SolverServer(max_sessions=0)

    def test_lru_cap_evicts_and_refactorizes_cleanly(self, rng):
        """An LRU-displaced session is gone but rebuilds correctly."""
        a = circuit_like(100, seed=3)
        other = poisson2d(10)
        with BackgroundServer(batch_window=0.01, max_sessions=1) as bg:
            with SolverClient(bg.host, bg.port) as client:
                s1 = client.factorize(a, solver="pangulu",
                                      block_size=16)["session"]
                s2 = client.factorize(other, solver="pangulu",
                                      block_size=16)["session"]
                stats = client.stats()
                resident = [s["session"] for s in stats["sessions"]]
                assert resident == [s2]
                evictions = stats["metrics"]["session_cache"]["evictions"]
                assert evictions.get("lru") == 1
                with pytest.raises(ServerError) as exc:
                    client.solve(s1, rng.standard_normal(a.nrows))
                assert exc.value.code == "UNKNOWN_SESSION"
                # the evicted pattern re-factorizes from scratch and
                # solves to full accuracy — nothing stale survived
                info = client.factorize(a, solver="pangulu", block_size=16)
                assert info["session"] == s1
                assert info["fast_path"] is False
                x_true = rng.standard_normal(a.nrows)
                x = client.solve(s1, matvec(a, x_true), refine=1)
                assert (np.linalg.norm(x - x_true)
                        < 1e-10 * np.linalg.norm(x_true))

    def test_ttl_evicts_idle_sessions(self, rng):
        a = circuit_like(80, seed=5)
        with BackgroundServer(batch_window=0.01, session_ttl=0.2) as bg:
            with SolverClient(bg.host, bg.port) as client:
                s = client.factorize(a, solver="pangulu",
                                     block_size=16)["session"]
                assert client.stats()["config"]["session_ttl"] == 0.2
                time.sleep(0.4)
                stats = client.stats()  # the stats dispatch runs the sweep
                assert stats["sessions"] == []
                ev = stats["metrics"]["session_cache"]["evictions"]
                assert ev.get("ttl") == 1
                with pytest.raises(ServerError) as exc:
                    client.solve(s, rng.standard_normal(a.nrows))
                assert exc.value.code == "UNKNOWN_SESSION"
                info = client.factorize(a, solver="pangulu", block_size=16)
                assert info["fast_path"] is False
                x_true = rng.standard_normal(a.nrows)
                x = client.solve(s, matvec(a, x_true), refine=1)
                assert (np.linalg.norm(x - x_true)
                        < 1e-10 * np.linalg.norm(x_true))

    def test_touch_defers_ttl(self):
        """Steady traffic keeps a session resident past its TTL."""
        a = circuit_like(80, seed=9)
        with BackgroundServer(batch_window=0.01, session_ttl=0.5) as bg:
            with SolverClient(bg.host, bg.port) as client:
                s = client.factorize(a, solver="pangulu",
                                     block_size=16)["session"]
                for _ in range(4):
                    time.sleep(0.2)
                    client.refactorize(s, data=a.data)
                stats = client.stats()
                assert [x["session"] for x in stats["sessions"]] == [s]
                assert not stats["metrics"]["session_cache"]["evictions"]
