"""Helpers shared by the workloads: failure tally, percentiles, process
memory, shared-memory leak checks and the environment record."""

from __future__ import annotations

import ctypes
import gc
import hashlib
import multiprocessing
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

#: Relative residual every returned solution must meet against its A.
RESIDUAL_TOL = 1e-10

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 3


class Tally:
    """Operations attempted and failed; each failure goes to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok: bool = True, what: str = "") -> bool:
        """Count one operation; ``ok=False`` counts it failed too."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr, flush=True)
        return ok


def pct(values, q: float) -> float:
    """Percentile ``q`` (0-100) of ``values`` (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50)


def rel_residual(a, x, b) -> float:
    """Largest per-column ‖Ax − b‖₂ / ‖b‖₂ against the matrix ``a``."""
    from repro.sparse import matvec

    r = matvec(a, x) - b
    return float(np.max(np.linalg.norm(r, axis=0)
                        / np.linalg.norm(b, axis=0)))


def check_solution(tally: Tally, a, x, b, what: str) -> float:
    """Count one solution check; a residual above the tolerance (or a
    non-finite one) is a failed operation."""
    res = rel_residual(a, x, b)
    tally.op(bool(res <= RESIDUAL_TOL),
             f"{what}: relative residual {res:.3e} > {RESIDUAL_TOL:g}")
    return res


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live process, 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def pid_alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def shm_segments() -> set[str]:
    """Names of the ``multiprocessing.shared_memory`` segments present."""
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def check_hygiene(tally: Tally, shm_before: set[str], pids, what: str
                  ) -> None:
    """Count one hygiene check: every segment created since
    ``shm_before`` is gone and every process in ``pids`` has exited."""
    leaked = sorted(shm_segments() - shm_before)
    alive = [p for p in pids if pid_alive(p)]
    tally.op(not leaked and not alive,
             f"{what}: leaked shm {leaked}, live pids {alive}")


def child_env(root: Path) -> dict:
    """Environment for a child Python process: this one's (BLAS already
    pinned) plus ``PYTHONPATH`` pointing at the checkout's sources."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def import_seconds(root: Path) -> float:
    """Wall time of a fresh interpreter importing the packages the
    workloads use (a repeatable stand-in for this process's imports)."""
    t = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c",
         "import numpy, repro.solvers, repro.serve, repro.parallel"],
        cwd=root, env=child_env(root), check=True, timeout=120)
    return time.perf_counter() - t


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = root / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(root: Path) -> str:
    """SHA-1 over the program's sources, for checkouts without git."""
    h = hashlib.sha1()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def env_record(root: Path, seed: int, workload: str, blas_vars) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": {v: os.environ.get(v) for v in blas_vars},
        "git_commit": _git_commit(root),
        "source_sha1": source_digest(root),
    }


def timed_rounds(seconds: float, rounds):
    """Yield whole rounds from ``rounds``, as many as brings the elapsed
    time closest to ``seconds`` (at least one).  Whole rounds keep the
    input mix of every run balanced; garbage from one item is collected
    before the next, outside any timed region."""
    t0 = time.perf_counter()
    done = 0
    for rnd in rounds:
        for item in rnd:
            gc.collect()
            yield item
        done += 1
        elapsed = time.perf_counter() - t0
        if abs(elapsed + elapsed / done - seconds) >= abs(elapsed - seconds):
            return


#: ``prctl`` option that makes orphaned descendants re-parent to us.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of this process's orphaned descendants, so that
    :func:`stop_children` can wait for grandchildren too (best effort:
    a no-op where ``prctl`` is unavailable)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Joins ``multiprocessing`` children, stops the shared-memory resource
    tracker (which otherwise outlives this process until it notices the
    closed pipe), then waits for any other child, killing whichever is
    still running at ``timeout``.
    """
    deadline = time.monotonic() + timeout
    for proc in multiprocessing.active_children():
        proc.join(max(0.1, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join()
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    while True:
        pids = _child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            if not done and time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        time.sleep(0.01)
