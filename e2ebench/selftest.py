"""Self-test of the benchmark at tiny scale.

Run from the repository root::

    python3 e2ebench/selftest.py

Checks ``BENCHMARK.json`` against the benchmark's output contract, then
runs every workload untraced and traced on shrunken inputs and asserts
that every metric ``BENCHMARK.json`` names is printed with its unit,
that the result line has exactly the contract's keys, that no
operation failed and that no process the run started is left.  Last, it copies only ``BENCHMARK.json`` and this
directory into a scratch directory and checks that the benchmark
refuses to run there (no program sources) without printing a result.
Exits non-zero on the first failed check.
"""

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS knobs before numpy loads)
from common import _child_pids  # noqa: E402

ROOT = run.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Module constant overrides that shrink each workload's inputs.
TINY = {
    "cold_mix": {"SIZES": {"poisson2d": (6, 8), "poisson3d": (4, 5),
                           "circuit_like": (60, 80),
                           "cage_like": (60, 80)}},
    "serve_newton": {"N": 80, "MIN_SAMPLES": 4, "REPLAY_STEPS": 2},
}


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, sorted(spec)
    names = [w["name"] for w in spec["workloads"]]
    assert 2 <= len(names) <= 8 and set(names) == set(TINY), names
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200, w
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = [m["name"] for m in metrics] + names
    assert len(set(all_names)) == len(all_names), "duplicate names"
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}, m
        assert 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in metrics:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher"), m
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" \
        and setup[0]["better"] == "lower", setup
    assert 1 <= spec["run_seconds"] <= 60
    print(f"spec ok: {len(spec['end_to_end'])} end-to-end and "
          f"{len(spec['per_layer'])} per-layer metrics")


def run_tiny(spec: dict, workload: str, trace: int) -> None:
    module = __import__(workload)
    for name, value in TINY[workload].items():
        setattr(module, name, value)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "0",
                         "--seconds", "1", "--trace", str(trace)])
    assert code == 0, code
    assert not _child_pids(), f"processes left running: {_child_pids()}"
    result = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    assert list(got) == [m["name"] for m in want], sorted(got)
    for m in want:
        entry = got[m["name"]]
        assert entry["unit"] == m["unit"], (m, entry)
        assert math.isfinite(entry["value"]), (m, entry)
        if not trace:
            assert entry["value"] > 0, (m, entry)
    print(f"{workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} ops, 0 failed")


def check_refuses_without_program() -> None:
    scratch = ROOT / ".e2ebench_selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        scratch.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", scratch)
        shutil.copytree(HERE, scratch / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload",
             "cold_mix", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert proc.returncode != 0, proc.returncode
    assert '"correct"' not in proc.stdout, proc.stdout
    print(f"without program sources: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    run._import_program()
    for workload in TINY:
        for trace in (0, 1):
            run_tiny(spec, workload, trace)
    check_refuses_without_program()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
