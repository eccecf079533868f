"""Harmonic chain with a substrate potential and one defect bond.

The chain has ``2M`` atoms labelled ``-M+1 .. M``, coupled by
nearest-neighbour (NN) springs ``k1`` and next-nearest-neighbour (NNN)
springs ``k2``, and pinned to substrate wells by a quadratic on-site term
``k0``.  Atoms with label ``<= 0`` sit in wells ``(i - 1) a0``, atoms with
label ``>= 1`` in wells ``i a0``, so the well spacing jumps by one ``a0``
between atoms 0 and 1: that gap is the defect the error estimators track.

Two model flavors share one quadratic-energy shape on the full chain

    E(y) = 1/2 (y - a)^T D^T E D (y - a) + 1/2 (y - b)^T K (y - b)

with the bond difference map ``D``, a tridiagonal interaction matrix ``E``
on bonds, and a diagonal misfit matrix ``K``:

* ``atomistic``  - exact NN/NNN interactions everywhere,
* ``ac``         - atoms flagged continuum use the local Cauchy-Born
                   density ``k12 = k1 + 4 k2`` instead of the nonlocal NNN
                   coupling; atoms flagged atomistic keep the exact model.

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
import warnings
from dataclasses import dataclass

import numpy as np

from . import banded
from .banded import Array, BandedSpdMatrix

FLAVORS = ("atomistic", "ac")

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
        elif len(self.bc) != 4:
            raise ValueError("bc must give positions for the 4 clamped atoms")
        elif not all(map(math.isfinite, self.bc)):
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
    m = params.m
    lo, hi = -m + 1, m
    atom_arr = np.unique(np.asarray(list(atomistic), dtype=int))
    if atom_arr.size and (atom_arr[0] < lo or atom_arr[-1] > hi):
        bad = atom_arr[0] if atom_arr[0] < lo else atom_arr[-1]
        raise ValueError(f"atomistic atom {bad} outside chain range [{lo}, {hi}]")
    return Partition(atomistic=atom_arr)


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

    flavor: str
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


def assemble(params: ChainParams, part: Partition, flavor: str) -> QuadraticModel:
    """Build the quadratic model of the requested flavor.

    ``atomistic`` ignores the partition; ``ac`` blends by its flags on the
    chain ``params`` describes (the window, for the estimators).
    """
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    ids = atom_ids(params)
    if flavor == "atomistic":
        da = np.ones(2 * params.m)
    else:
        da = _flags(params, part).astype(float)
    return QuadraticModel(
        flavor=flavor,
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

    ``rhs`` is the load for absolute positions; ``rhs_wells`` is the same
    load rewritten for well-relative displacements ``u = y - b``, which is
    the numerically quiet way to solve (positions are O(M a0) while the
    physics lives at O(a0)).  ``lift`` is the full-length vector holding the
    clamped boundary positions and zeros elsewhere.
    """

    flavor: str
    mat: BandedSpdMatrix
    rhs: Array
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

    lift = np.zeros(n)
    lift[[0, 1, -2, -1]] = params.bc

    def load(shift: Array) -> Array:
        w = d_apply(model, shift)
        t = dt_apply(model, banded.matvec(model.e_mat, w))
        return t

    # absolute-position load: -J^T [D^T E D (lift - a) + K (lift - b)]
    f_full = -(load(lift - model.a_eq) + banded.matvec(model.k_mat, lift - model.b_eq))
    # well-relative load: substitute y = u + b and keep u as the unknown
    w_bc = np.zeros(n)
    for p in (0, 1, -2, -1):
        w_bc[p] = lift[p] - model.b_eq[p]
    fw_full = -(load(w_bc + model.b_eq - model.a_eq) + banded.matvec(model.k_mat, w_bc))

    return LinearSystem(
        flavor=model.flavor,
        mat=mat,
        rhs=f_full[2:-2],
        rhs_wells=fw_full[2:-2],
        wells_free=model.b_eq[2:-2],
        lift=lift,
        free_index=model.ids[2:-2],
    )


def solve_displacements(system: LinearSystem) -> Array:
    """Equilibrium displacements from the wells on the free points."""
    return banded.factor_solve(system.mat, system.rhs_wells)


def solve_positions(system: LinearSystem) -> Array:
    """Equilibrium absolute positions on the free points."""
    return solve_displacements(system) + system.wells_free


def _check_wells(params: ChainParams, u: Array, what: str) -> None:
    off = np.abs(u) > 0.5 * params.a0
    if off.any():
        warnings.warn(
            f"{int(off.sum())} {what} sit more than a0/2 from their assigned "
            f"wells; the harmonic well model is questionable there",
            stacklevel=3,
        )


def _energy_atomistic(params: ChainParams, y: Array) -> float:
    k0, k1, k2, a0 = params.k0, params.k1, params.k2, params.a0
    u = y - well_positions(params)
    nn = y[1:] - y[:-1] - a0
    nnn = y[2:] - y[:-2] - 2.0 * a0
    return float(
        0.5 * k1 * np.dot(nn, nn)
        + 0.5 * k2 * np.dot(nnn, nnn)
        + 0.5 * k0 * np.dot(u, u)
    )


def _energy_blended(params: ChainParams, part: Partition, y: Array) -> float:
    """Energy of the ac flavor by walking the bonds of the full chain.

    Atomistic atoms contribute their exact per-atom NN/NNN/misfit share
    (quarter weights on the bonds and spans they end).  A continuum bond
    contributes the Cauchy-Born stretch energy plus half the misfit of
    both end atoms; an interface bond contributes half a Cauchy-Born bond
    energy and half the misfit of its continuum end.
    """
    k0, k2, a0, k12 = params.k0, params.k2, params.a0, params.k12
    quarter_k1 = 0.25 * params.k1
    n = 2 * params.m
    da = _flags(params, part)
    stretch = np.diff(y) - a0
    u = y - well_positions(params)

    at_lo, at_hi = da[:-1], da[1:]
    cont_bond = ~at_lo & ~at_hi
    iface = at_lo ^ at_hi

    phi = 0.5 * k12 * stretch**2
    total = float(phi[cont_bond].sum() + 0.5 * phi[iface].sum())

    # continuum misfit, half an atom per bond end
    p = np.flatnonzero(cont_bond)
    total += 0.25 * k0 * float(np.dot(u[p], u[p]) + np.dot(u[p + 1], u[p + 1]))
    p = np.flatnonzero(iface)
    cont_end = np.where(at_lo[p], p + 1, p)
    total += 0.25 * k0 * float(np.dot(u[cont_end], u[cont_end]))

    # exact share of the atomistic atoms
    ja = np.flatnonzero(da)
    for j in ja:
        if j - 1 >= 0:
            total += quarter_k1 * stretch[j - 1] ** 2
        if j <= n - 2:
            total += quarter_k1 * stretch[j] ** 2
        if j - 2 >= 0:
            span = y[j] - y[j - 2] - 2.0 * a0
            total += 0.25 * k2 * span * span
        if j + 2 <= n - 1:
            span = y[j + 2] - y[j] - 2.0 * a0
            total += 0.25 * k2 * span * span
    total += 0.5 * k0 * float(np.dot(u[ja], u[ja]))
    return total


def energy_direct(
    params: ChainParams,
    part: Partition,
    flavor: str,
    y: Array,
    check_wells: bool = True,
) -> float:
    """Total energy evaluated term by term, bypassing the assembled matrices.

    This is the bookkeeping route the matrix assembly must agree with
    (``1/2 (y-a)^T D^T E D (y-a) + 1/2 (y-b)^T K (y-b)`` matches it to
    round-off); keeping both routes makes each one testable against the
    other.
    """
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
    y = np.asarray(y, dtype=float)
    if len(y) != 2 * params.m:
        raise ValueError(f"expected {2 * params.m} atom positions, got {len(y)}")
    if check_wells:
        _check_wells(params, y - well_positions(params), "atoms")
    if flavor == "atomistic":
        return _energy_atomistic(params, y)
    return _energy_blended(params, part, y)


def energy_matrix(params: ChainParams, model: QuadraticModel, y: Array) -> float:
    """Same energy through the assembled bands (cross-check for the above)."""
    y = np.asarray(y, dtype=float)
    w = d_apply(model, y - model.a_eq)
    v = y - model.b_eq
    return 0.5 * float(
        np.dot(w, banded.matvec(model.e_mat, w))
        + np.dot(v, banded.matvec(model.k_mat, v))
    )
