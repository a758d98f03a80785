"""Solver substrates: the libraries the Trojan Horse integrates into.

* :class:`~repro.solvers.superlu.SuperLUSolver` — supernodal, dense
  panels, tiny tasks (SuperLU_DIST analogue);
* :class:`~repro.solvers.pangulu.PanguLUSolver` — regular 2-D sparse
  blocks, larger tasks (PanguLU analogue);
* :class:`~repro.solvers.pastix.PaStiXSolver` — runtime-system baseline
  ('dmdas'-style dynamic list scheduling on StarPU, per-task launches);
* :mod:`~repro.solvers.cpu` — SuperLU-CPU and MUMPS-style cost models for
  the Table-7 comparison.

All share one verified numeric engine (:mod:`repro.solvers.engine`), so
every scheduler variant produces the same factors — the paper's
"total floating-point operations remain unchanged" invariant is testable
directly.
"""

from repro.solvers.engine import (
    NumericEngine,
    NumericBackend,
    FactorizationResult,
    resimulate,
    scale_stats,
)
from repro.solvers.tilepool import TileArena, TileViews
from repro.solvers.base import EmptyMatrixError, NonFiniteValuesError
from repro.solvers.sptrsv import (
    RhsPool,
    SolveResult,
    SpTRSVContext,
    SpTRSVEngine,
    fold_rhs,
    sptrsv_solve,
    unfold_rhs,
)
from repro.solvers.cpu import cpu_makespan
from repro.solvers.superlu import SuperLUSolver
from repro.solvers.pangulu import PanguLUSolver
from repro.solvers.pastix import PaStiXSolver
from repro.solvers.cpu import CPUSolver, CPUSolverResult
from repro.solvers.cholesky import CholeskySolver, CholeskyResult

#: Name → solver-class registry; the CLI and the sweep runner address
#: substrates by these keys so work items stay picklable (a key string
#: crosses process boundaries, a class reference need not).
SOLVER_REGISTRY = {
    "pangulu": PanguLUSolver,
    "superlu": SuperLUSolver,
    "pastix": PaStiXSolver,
    "cholesky": CholeskySolver,
}

__all__ = [
    "NumericEngine",
    "NumericBackend",
    "TileArena",
    "TileViews",
    "RhsPool",
    "SolveResult",
    "SpTRSVContext",
    "SpTRSVEngine",
    "fold_rhs",
    "sptrsv_solve",
    "unfold_rhs",
    "FactorizationResult",
    "EmptyMatrixError",
    "NonFiniteValuesError",
    "resimulate",
    "scale_stats",
    "cpu_makespan",
    "SuperLUSolver",
    "PanguLUSolver",
    "PaStiXSolver",
    "CPUSolver",
    "CPUSolverResult",
    "CholeskySolver",
    "CholeskyResult",
    "SOLVER_REGISTRY",
]
