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
    mark_atoms,
    run_adaptive,
)
from .banded import BandedFactor, BandedSpdMatrix, NotPositiveDefiniteError
from .estimators import (
    DualPair,
    EstimatorReport,
    Reference,
    estimate,
    exact_goal_error,
    lemma1_check,
    reference,
    solve_dual_pair,
)
from .model import (
    ChainParams,
    LinearSystem,
    Partition,
    QuadraticModel,
    assemble,
    energy_direct,
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
    "energy_direct",
    "estimate",
    "exact_goal_error",
    "fixed_k_run",
    "interval_partition",
    "lemma1_check",
    "make_partition",
    "mark_atoms",
    "reduce_system",
    "reference",
    "run_adaptive",
    "solve_dual_pair",
    "__version__",
]
