"""Blended atomistic/continuum chain models with goal-oriented error bounds.

The package solves a harmonic NN/NNN chain pinned to substrate wells with
one defect bond, replaces far-field regions by their local continuum
counterpart, and estimates the modeling error committed in the defect
opening.  ``adaptivity.run_adaptive`` grows the exactly-treated region until
the estimated error meets a tolerance.
"""

from .adaptivity import (
    AdaptConfig,
    AdaptTrace,
    FixedKResult,
    fixed_k_run,
    fixed_k_runs,
    mark_atoms,
    run_adaptive,
)
from .banded import BandedFactor, BandedSpdMatrix, NotPositiveDefiniteError
from .estimators import (
    DualPair,
    EstimatorReport,
    Reference,
    estimate,
    estimate_stack,
    exact_goal_error,
    exact_goal_errors,
    solve_dual_pair,
    solve_stacks,
)
from .model import (
    ChainParams,
    LinearSystem,
    Partition,
    QuadraticModel,
    assemble,
    interval_partition,
    make_partition,
    reduce_system,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "AdaptTrace",
    "BandedFactor",
    "BandedSpdMatrix",
    "ChainParams",
    "DualPair",
    "EstimatorReport",
    "FixedKResult",
    "LinearSystem",
    "NotPositiveDefiniteError",
    "Partition",
    "QuadraticModel",
    "Reference",
    "assemble",
    "estimate",
    "estimate_stack",
    "exact_goal_error",
    "exact_goal_errors",
    "fixed_k_run",
    "fixed_k_runs",
    "interval_partition",
    "make_partition",
    "mark_atoms",
    "reduce_system",
    "run_adaptive",
    "solve_dual_pair",
    "solve_stacks",
    "__version__",
]
