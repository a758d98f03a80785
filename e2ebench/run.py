"""End-to-end benchmark of the solver: one seeded command per workload.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload cold_mix --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
same seed with per-layer timing around the calls into each layer.  The
metric names and units come from ``BENCHMARK.json``; every metric is
printed as ``name value unit`` and the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See ``e2ebench/README.md`` for the workloads and the metric map.
"""

import os
import sys

#: BLAS/OpenMP thread knobs, pinned before numpy is imported here and
#: inherited by the server subprocess and the parallel workers.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the
    program from there, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: program sources not found under {src}")
    sys.path.insert(0, str(src))
    import repro
    from repro.kernels.batched import BLAS_THREAD_VARS as program_vars

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"error: imported repro from {repro.__file__}")
    missing = set(program_vars) - set(BLAS_THREAD_VARS)
    if missing:
        raise SystemExit(f"error: BLAS knobs not pinned: {sorted(missing)}")


def _select(spec: dict, metrics: dict, trace: bool, off_path=()) -> dict:
    """The metrics ``BENCHMARK.json`` names for this mode, with units.

    A per-layer name ending in ``_share`` is the matching ``_s`` metric
    divided by the traced item wall time.  Per-layer metrics of layers
    the workload never reaches (names starting with one of
    ``off_path``) are reported as 0; any other missing metric is an
    error.
    """
    def value_of(name):
        if name in metrics:
            return metrics[name]
        if trace and name.startswith(tuple(off_path)):
            return 0.0
        if trace and name.endswith("_share"):
            base = value_of(name[:-len("_share")] + "_s")
            return base / metrics["trace.item_wall_s"]
        raise SystemExit(f"error: workload did not measure {name}")

    out = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = float(value_of(m["name"]))
        if not math.isfinite(value):
            raise SystemExit(f"error: metric {m['name']} is {value}")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        raise SystemExit(f"error: unknown workload {args.workload!r} "
                         f"(choose from {workloads})")
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    _import_program()
    sys.path.insert(0, str(HERE))
    from common import Tally, adopt_orphans, env_record, stop_children

    module = importlib.import_module(args.workload)
    record = env_record(ROOT, args.seed, args.workload, BLAS_THREAD_VARS)
    record["trace"] = args.trace
    print("env " + json.dumps(record, sort_keys=True), flush=True)
    tally = Tally()
    # Every way out, a termination signal included, stops and waits for
    # the processes the run started before this one exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    adopt_orphans()
    try:
        metrics = module.run(ROOT, seed=args.seed, seconds=args.seconds,
                             trace=bool(args.trace), tally=tally)
    finally:
        stop_children()
    out = _select(spec, metrics, bool(args.trace),
                  getattr(module, "OFF_PATH", ()))
    for name, m in out.items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"{'ops_attempted':<40} {tally.attempted:>16d} count")
    print(f"{'ops_failed':<40} {tally.failed:>16d} count")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
