"""Harmonic chain with a substrate potential and one defect bond.

The chain has ``2M`` atoms labelled ``-M+1 .. M``, coupled by
nearest-neighbour (NN) springs ``k1`` and next-nearest-neighbour (NNN)
springs ``k2``, and pinned to substrate wells by a quadratic on-site term
``k0``.  Atoms with label ``<= 0`` sit in wells ``(i - 1) a0``, atoms with
label ``>= 1`` in wells ``i a0``, so the well spacing jumps by one ``a0``
between atoms 0 and 1: that gap is the defect the error estimators track.

The blended (ac) model has the quadratic energy

    E(y) = 1/2 (y - a)^T D^T E D (y - a) + 1/2 (y - b)^T K (y - b)

with the bond difference map ``D``, a tridiagonal interaction matrix ``E``
on bonds, and a diagonal misfit matrix ``K``.  Atoms a partition flags
atomistic keep the exact NN/NNN interactions; the others use the local
Cauchy-Born density ``k12 = k1 + 4 k2`` instead of the nonlocal NNN
coupling.  The atomistic model is the blend that flags every atom.

Index conventions used throughout: an atom id ``i`` maps to array position
``i + M - 1``; bond ``i`` connects atoms ``i`` and ``i + 1`` and maps to the
same array position.  Boundary conditions clamp the two outermost atoms on
each side, so the free unknowns are atoms ``-M+3 .. M-2``.

Every field the estimators need decays exponentially away from the defect
and the atomistic region, so solves run on a centred ``window`` chain: the
same springs at a half-size that leaves the slowest decay below
``WINDOW_EPS`` at its clamped ends.  The whole chain is the window's
degenerate case.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import banded
from .banded import Array, BandedSpdMatrix

# truncation level of the window: the slowest decaying field falls below this
# fraction of its size at the atomistic region by the window's clamped ends
WINDOW_EPS = 1e-40


def _default_bc(m: int, a0: float) -> tuple[float, float, float, float]:
    """Clamped positions at the wells of the four outermost atoms."""
    return (-m * a0, (-m + 1) * a0, (m - 1) * a0, m * a0)


@dataclass(frozen=True)
class ChainParams:
    """Chain size, spring constants, and clamped boundary positions.

    ``bc`` holds the prescribed positions of atoms ``(-M+1, -M+2, M-1, M)``.
    The default stretches the chain by one extra spacing, which is what
    forces a dislocation into the interior.
    """

    m: int
    k0: float = 1.0
    k1: float = 2.0
    k2: float = 2.0
    a0: float = 1.0
    bc: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.m < 3:
            raise ValueError(f"m must be >= 3, got {self.m}")
        springs = (self.k0, self.k1, self.k2)
        if not (
            all(map(math.isfinite, springs))
            and self.k0 > 0
            and self.k1 > 0
            and self.k2 >= 0
        ):
            raise ValueError(
                f"spring constants must be finite with k0 > 0, k1 > 0, k2 >= 0, "
                f"got {springs}"
            )
        if not (math.isfinite(self.a0) and self.a0 > 0):
            raise ValueError(f"a0 must be positive and finite, got {self.a0}")
        if self.bc is None:
            object.__setattr__(self, "bc", _default_bc(self.m, self.a0))
        # a tuple of floats, so equal positions give equal, hashable params
        object.__setattr__(self, "bc", tuple(map(float, self.bc)))
        if len(self.bc) != 4:
            raise ValueError("bc must give positions for the 4 clamped atoms")
        if not all(map(math.isfinite, self.bc)):
            raise ValueError(f"bc positions must be finite, got {self.bc}")

    @property
    def k12(self) -> float:
        """Cauchy-Born NN density equivalent to the NN+NNN pair."""
        return self.k1 + 4.0 * self.k2

    @property
    def n_atoms(self) -> int:
        return 2 * self.m

    @property
    def n_bonds(self) -> int:
        return 2 * self.m - 1

    @property
    def n_free(self) -> int:
        return 2 * self.m - 4


def atom_ids(params: ChainParams) -> Array:
    """All atom labels -M+1 .. M in order."""
    return np.arange(-params.m + 1, params.m + 1)


def lattice_sites(params: ChainParams) -> Array:
    """Reference positions a_i = i a0 (bond stretch is measured from these)."""
    return atom_ids(params) * params.a0


def well_positions(params: ChainParams, ids: Array | None = None) -> Array:
    """Substrate well centers: (i-1) a0 left of the defect, i a0 right of it."""
    if ids is None:
        ids = atom_ids(params)
    ids = np.asarray(ids)
    return (ids - (ids <= 0)) * params.a0


@dataclass(frozen=True)
class Partition:
    """Atom ids treated atomistically, sorted; every other atom is continuum."""

    atomistic: Array


def make_partition(params: ChainParams, atomistic=()) -> Partition:
    """Validate and build a partition.

    ``atomistic`` lists atom ids treated exactly; everything else is
    continuum.
    """
    lo, hi = -params.m + 1, params.m
    ids = np.asarray(list(atomistic))
    if ids.dtype.kind not in "iu":
        ids = ids.astype(float)
        whole = np.isfinite(ids) & (ids == np.round(ids))
        if not whole.all():
            bad = ids[~whole][0]
            raise ValueError(f"atomistic atom ids must be integers, got {bad}")
    if ids.size and (ids.min() < lo or ids.max() > hi):
        bad = ids.min() if ids.min() < lo else ids.max()
        raise ValueError(f"atomistic atom {int(bad)} outside chain range [{lo}, {hi}]")
    return Partition(atomistic=np.unique(ids.astype(int)))


def _flags(params: ChainParams, part: Partition) -> Array:
    """Per-atom atomistic flags on the chain ``params`` describes."""
    m, ids = params.m, part.atomistic
    if ids.size and (ids[0] < -m + 1 or ids[-1] > m):
        raise ValueError(f"partition reaches past the chain of half-size {m}")
    da = np.zeros(2 * m, dtype=bool)
    da[ids + m - 1] = True
    return da


def _decay_exponent(params: ChainParams) -> float:
    """Smallest phi with every field decaying like exp(-phi |i|) or faster.

    A root lam = exp(-phi) of lam + 1/lam = 2 + t decays the slower the
    smaller t is.  The atomistic pentadiagonal symbol has s = 2 + t solving
    k2 s^2 + k1 s = k0 + 2 k1 + 4 k2, so t = 2 k0 / (k12 + sqrt(k12^2 + 4 k0
    k2)): stable at k2 = 0 (t = k0/k1) and never above the Cauchy-Born
    far field's t = k0/k12, so it is the slower of the two.  The bond matrix
    E_a that the projection P inverts has t = k1/k2, slower still only when
    k0 > 4 k1 + 2 k1^2/k2.
    """
    k0, k1, k2, k12 = params.k0, params.k1, params.k2, params.k12
    t = 2.0 * k0 / (k12 + math.sqrt(k12 * k12 + 4.0 * k0 * k2))
    if k2 > 0.0:
        t = min(t, k1 / k2)
    return 2.0 * math.asinh(0.5 * math.sqrt(t))


def window(params: ChainParams, part: Partition) -> ChainParams:
    """The centred chain every solve on this partition runs on.

    Half-size ``min(M, 2**ceil(log2(span + w)))`` (at least 4, so the
    window is a chain with the defect free) with ``span`` the largest
    |atom id| of the atomistic region and ``w = ceil(ln eps / ln lam)``
    the distance over which the slowest decay falls below ``WINDOW_EPS``;
    rounding up to a power of two lets a growing region keep its window.
    The window clamps its ends at the wells, which is where the chain's
    own atoms sit that far out, so a chain with a non-default ``bc``
    (boundary layers at both ends) is its own window.
    """
    if params.bc != _default_bc(params.m, params.a0):
        return params
    ids = part.atomistic
    span = int(max(-ids[0], ids[-1])) if ids.size else 0
    w = math.ceil(math.log(1.0 / WINDOW_EPS) / _decay_exponent(params))
    m_w = max(4, 1 << (span + w - 1).bit_length())
    if m_w >= params.m:
        return params
    return ChainParams(
        m=m_w, k0=params.k0, k1=params.k1, k2=params.k2, a0=params.a0
    )


def interval_partition(params: ChainParams, k: int) -> Partition:
    """Partition with atoms -K+1 .. K atomistic (K = 0: none)."""
    if k < 0 or k > params.m - 2:
        raise ValueError(f"k must be in [0, {params.m - 2}], got {k}")
    return make_partition(params, atomistic=range(-k + 1, k + 1))


@dataclass(frozen=True)
class QuadraticModel:
    """Assembled quadratic energy 1/2|D(y-a)|_E^2 + 1/2|y-b|_K^2.

    ``ids`` labels the degrees of freedom by atom id.
    """

    ids: Array
    e_mat: BandedSpdMatrix
    k_mat: BandedSpdMatrix
    a_eq: Array
    b_eq: Array

    @property
    def n_points(self) -> int:
        return len(self.ids)


def d_apply(model: QuadraticModel, v: Array) -> Array:
    """Bond difference map: row j is v[j+1] - v[j]."""
    return np.diff(v)


def dt_apply(model: QuadraticModel, w: Array) -> Array:
    """Adjoint of d_apply."""
    out = np.zeros(model.n_points)
    out[:-1] -= w
    out[1:] += w
    return out


def _nn_bond_bands(params: ChainParams, da: Array) -> BandedSpdMatrix:
    """Bond interaction matrix for the full chain given atomistic flags.

    Per-bond NN stiffness blends k1 (atomistic side) with the Cauchy-Born
    k12 (continuum side); NNN pairs couple neighbouring bonds only where an
    atomistic atom participates.  Pairs that would reach past a chain end
    are dropped entirely.
    """
    k1, k2, k12 = params.k1, params.k2, params.k12
    nb = len(da) - 1
    dc = 1.0 - da
    bands = banded.zeros_like_band(nb, 1)
    diag = bands[0]
    diag += 0.5 * k12 * (dc[:-1] + dc[1:]) + 0.5 * k1 * (da[:-1] + da[1:])
    pair = da[0 : nb - 1] + da[2 : nb + 1]  # NNN pair over bonds (p, p+1)
    diag[1:] += 0.5 * k2 * pair
    diag[:-1] += 0.5 * k2 * pair
    bands[1, : nb - 1] = 0.5 * k2 * pair
    return BandedSpdMatrix(bands)


def _misfit_diag_bands(params: ChainParams, da: Array) -> BandedSpdMatrix:
    """On-site misfit matrix for the full chain.

    Interior atoms carry the full k0.  A continuum atom at a chain end only
    bounds one bond, so it carries half weight, consistent with the
    bond-by-bond continuum misfit of the blended energy.
    """
    n = len(da)
    bands = banded.zeros_like_band(n, 0)
    bands[0] = params.k0
    for p in (0, n - 1):
        if not da[p]:
            bands[0, p] = 0.5 * params.k0
    return BandedSpdMatrix(bands)


def assemble(params: ChainParams, part: Partition) -> QuadraticModel:
    """Build the model blended by the partition's flags on the chain
    ``params`` describes (the window, for the estimators)."""
    ids = atom_ids(params)
    da = _flags(params, part).astype(float)
    return QuadraticModel(
        ids=ids,
        e_mat=_nn_bond_bands(params, da),
        k_mat=_misfit_diag_bands(params, da),
        a_eq=ids * params.a0,
        b_eq=well_positions(params, ids),
    )


def stiffness_bands(model: QuadraticModel) -> BandedSpdMatrix:
    """Full Hessian D^T E D + K as a pentadiagonal band matrix."""
    n = model.n_points
    ed = model.e_mat.bands[0]
    eo = model.e_mat.bands[1, : n - 2]

    bands = banded.zeros_like_band(n, 2)
    diag, off1, off2 = bands[0], bands[1, : n - 1], bands[2, : n - 2]
    diag[:-1] += ed
    diag[1:] += ed
    diag[1:-1] -= 2.0 * eo
    off1 -= ed
    off1[1:] += eo
    off1[:-1] += eo
    off2 -= eo

    diag += model.k_mat.bands[0]
    return BandedSpdMatrix(bands)


@dataclass(frozen=True)
class LinearSystem:
    """Reduced equilibrium system on the free (unclamped) degrees of freedom.

    The unknowns are the well-relative displacements ``u = y - b``, which is
    the numerically quiet way to solve (positions are O(M a0) while the
    physics lives at O(a0)); ``rhs_wells`` is their load.  ``lift`` is the
    full-length displacement vector holding the clamped atoms' offsets from
    their wells and zeros elsewhere.
    """

    mat: BandedSpdMatrix
    rhs_wells: Array
    wells_free: Array
    lift: Array
    free_index: Array


def reduce_system(params: ChainParams, model: QuadraticModel) -> LinearSystem:
    """Clamp the two outermost atoms on each side and form the free system."""
    n = model.n_points
    if n < 6:
        raise ValueError("need at least 6 points to have free unknowns")
    full = stiffness_bands(model)
    bands = banded.zeros_like_band(n - 4, 2)
    bands[0] = full.bands[0][2:-2]
    bands[1, : n - 5] = full.bands[1][2 : n - 3]
    bands[2, : n - 6] = full.bands[2][2 : n - 4]
    mat = BandedSpdMatrix(bands)

    clamped = [0, 1, -2, -1]
    lift = np.zeros(n)
    lift[clamped] = np.subtract(params.bc, model.b_eq[clamped])
    # -J^T [D^T E D (lift + b - a) + K lift]: the load of y = u + b on u
    w = d_apply(model, lift + model.b_eq - model.a_eq)
    f_full = -(
        dt_apply(model, banded.matvec(model.e_mat, w))
        + banded.matvec(model.k_mat, lift)
    )

    return LinearSystem(
        mat=mat,
        rhs_wells=f_full[2:-2],
        wells_free=model.b_eq[2:-2],
        lift=lift,
        free_index=model.ids[2:-2],
    )
