"""Adaptive growth of the atomistic region driven by the local indicators.

The loop keeps a global tolerance ``tau_gl`` and a moving local threshold
``tau_at``.  Each pass solves the blended model on the current partition,
stops if the sharp estimate ``eta1`` is already below ``tau_gl``, and
otherwise divides ``tau_at`` by ``tau_div``, with no new solve, until it
flags a free atom outside the region: every atom whose local indicator (its
own residual term plus half of each adjacent bond term) reaches it switches
to atomistic treatment and never switches back.

A pass costs what the region's core costs, whatever the chain length: the
blended solves run on the core (see ``estimators``), and so does marking,
which forms the indicators on the core's atoms and bounds those of the
continuum exterior past it in closed form, evaluating only the exterior
atoms whose bound reaches the threshold.  No pass reads an array over the
window.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .banded import Array
from .estimators import (
    EstimatorReport,
    estimate,
    estimate_stack,
    exact_goal_errors,
    solve_dual_pair,
    solve_stacks,
)
from .model import ChainParams, Partition, interval_partition


@dataclass(frozen=True)
class AdaptConfig:
    """Loop controls; ``symmetrize`` widens every mark set to a symmetric
    interval around the defect, ``use_gamma`` picks the balanced bond split
    for the marking indicator: the plain one marks by the unit the springs
    are given in (see README), the balanced one does not."""

    tau_gl: float
    tau_div: float = 10.0
    max_iterations: int = 50
    symmetrize: bool = False
    use_gamma: bool = False

    def __post_init__(self):
        # NaN fails every comparison, so "not (lo < x < hi)" rejects it too
        if not (0.0 < self.tau_gl < math.inf):
            raise ValueError(f"tau_gl must be positive and finite, got {self.tau_gl}")
        if not (1.0 < self.tau_div < math.inf):
            raise ValueError(f"tau_div must exceed 1 and be finite, got {self.tau_div}")
        n = self.max_iterations
        if not (isinstance(n, numbers.Integral) and n >= 1):
            raise ValueError(f"max_iterations must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class IterationRecord:
    """One solve of the loop: the active threshold, the region it ran on,
    the half-size of the window its report is listed on (the solve itself
    runs on the window's core, see ``estimators``), and the global estimate
    it produced."""

    iteration: int
    k: int | None
    n_atomistic: int
    m_window: int
    tau_at: float
    eta1: float
    eta2: float


@dataclass(frozen=True)
class AdaptTrace:
    """Full history of one adaptive run.

    ``status`` is "converged" (eta1 met tau_gl), "stalled" (no threshold
    down to 0.0 grows the region), or "max-iterations".
    """

    m: int
    config: AdaptConfig
    records: tuple[IterationRecord, ...]
    status: str
    final_atomistic: Array = field(repr=False)

    @property
    def final_eta1(self) -> float:
        return self.records[-1].eta1

    def as_dict(self) -> dict:
        iterations = [asdict(r) for r in self.records]
        return {"m": self.m, "status": self.status, "iterations": iterations}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())


def mark_atoms(report: EstimatorReport, tau_at: float) -> Array:
    """Atom ids whose local indicator reaches the threshold: those of
    ``report.free_ids()`` where ``report.eta2_total()`` does, found on the
    core without forming either."""
    return report.marked(tau_at)


def _interval_k(atoms: Array) -> int | None:
    """Half-width K if the set is exactly -K+1 .. K, else None."""
    if atoms.size == 0:
        return 0
    k = int(atoms.max())
    if atoms[0] == -k + 1 and atoms.size == 2 * k:
        return k
    return None


def _threshold(config: AdaptConfig, it: int) -> float:
    """tau_gl / tau_div^it, 0.0 once the power overflows."""
    try:
        return config.tau_gl / config.tau_div**it
    except OverflowError:
        return 0.0


def run_adaptive(params: ChainParams, config: AdaptConfig) -> AdaptTrace:
    """Grow the atomistic region until eta1 drops below tau_gl.

    A solve rebuilds the atomistic reference only when the growing region
    outgrows its window (see ``solve_stacks``), and marking reads the
    core's arrays alone (see ``mark_atoms``).
    """
    atoms = np.empty(0, dtype=int)
    records: list[IterationRecord] = []
    status = "max-iterations"
    level, tau_at = 0, config.tau_gl  # tau_gl / tau_div^level marked the region
    for it in range(1, config.max_iterations + 1):
        # union1d and arange keep the ids sorted, unique and on the chain
        part = Partition(atomistic=atoms)
        pair = solve_dual_pair(params, part)
        report = estimate(pair, use_gamma=config.use_gamma)
        records.append(
            IterationRecord(
                iteration=it,
                k=_interval_k(atoms),
                n_atomistic=int(atoms.size),
                m_window=report.m_window,
                tau_at=tau_at,
                eta1=report.eta1,
                eta2=report.eta2,
            )
        )
        if report.eta1 <= config.tau_gl:
            status = "converged"
            break
        # no new solve until a threshold marks an atom outside the region
        grown = atoms
        while grown.size == atoms.size and atoms.size < 2 * params.m - 4 and tau_at > 0.0:
            level += 1
            tau_at = _threshold(config, level)
            grown = np.union1d(atoms, mark_atoms(report, tau_at))
        if grown.size == atoms.size:
            status = "stalled"
            break
        if config.symmetrize:
            k = int(np.max(np.maximum(grown, 1 - grown)))
            grown = np.arange(-k + 1, k + 1)
        atoms = grown
    return AdaptTrace(
        m=params.m,
        config=config,
        records=tuple(records),
        status=status,
        final_atomistic=atoms,
    )


@dataclass(frozen=True)
class FixedKResult:
    """Estimates (and optionally the exact error) on the interval region
    -K+1 .. K."""

    m: int
    k: int
    report: EstimatorReport
    q_error: float | None

    @property
    def abs_q_error(self) -> float | None:
        return None if self.q_error is None else abs(self.q_error)

    def efficiency(self, value: float) -> float | None:
        if self.q_error in (None, 0.0):
            return None
        return value / abs(self.q_error)


def fixed_k_runs(
    params: ChainParams, ks, want_exact: bool = True, use_gamma: bool = False
) -> list[FixedKResult]:
    """Estimates on the fixed interval regions of half-widths ``ks``, in
    order; regions that share a window are solved as one stack."""
    results: list[FixedKResult | None] = [None] * len(ks)
    parts = [interval_partition(params, k) for k in ks]
    for rows, pair in solve_stacks(params, parts):
        reports = estimate_stack(pair, use_gamma=use_gamma)
        q_errors = [None] * len(rows)
        if want_exact:
            q_errors = exact_goal_errors(pair).tolist()
        for i, report, q_error in zip(rows, reports, q_errors):
            results[i] = FixedKResult(params.m, ks[i], report, q_error)
    return results


def fixed_k_run(
    params: ChainParams, k: int, want_exact: bool = True, use_gamma: bool = False
) -> FixedKResult:
    """One estimate on the fixed interval region of half-width K (the
    one-region case of ``fixed_k_runs``)."""
    return fixed_k_runs(params, [k], want_exact, use_gamma)[0]
