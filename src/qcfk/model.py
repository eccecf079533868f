"""Harmonic chain with a substrate potential and one defect bond.

The chain has ``2M`` atoms labelled ``-M+1 .. M``, coupled by
nearest-neighbour (NN) springs ``k1`` and next-nearest-neighbour (NNN)
springs ``k2``, and pinned to substrate wells by a quadratic on-site term
``k0``.  Atoms with label ``<= 0`` sit in wells ``(i - 1) a0``, atoms with
label ``>= 1`` in wells ``i a0``, so the well spacing jumps by one ``a0``
between atoms 0 and 1: that gap is the defect the error estimators track.

The blended (ac) model has the quadratic energy

    E(y) = 1/2 (y - a)^T D^T E D (y - a) + k0/2 |y - b|^2

with the bond difference map ``D`` and a tridiagonal interaction matrix
``E`` on bonds, up to a constant: a continuum atom at a chain end bounds
one bond and carries half the misfit, but the chain ends are clamped.
Atoms a partition flags atomistic keep the exact NN/NNN interactions; the
others use the local Cauchy-Born density ``k12 = k1 + 4 k2`` instead of
the nonlocal NNN coupling.  The atomistic model is the blend that flags
every atom.

Index conventions used throughout: an atom id ``i`` maps to array position
``i + M - 1``; bond ``i`` connects atoms ``i`` and ``i + 1`` and maps to the
same array position.  Boundary conditions clamp the two outermost atoms on
each side, so the free unknowns are atoms ``-M+3 .. M-2``.

Every field the estimators need decays exponentially away from the defect
and the atomistic region, by the roots of ``ChainParams.roots``, so solves
run on a centred window chain: the same springs at a half-size that leaves
the slowest decay below ``WINDOW_EPS`` at its clamped ends: the frame
outputs are reported on.
The whole chain is the window's degenerate case.  The work runs on its
shorter core, the continuum exterior in closed form.  ``sizes`` gives
both half-sizes of a partition.

The estimators build every system, blended or atomistic, from three
pieces: the bond matrix of the flags (all of them set for the atomistic
one), ``stiffness_bands`` and the loads of ``load_bonds``.  ``assemble``
and ``reduce_system`` put the same pieces into a model and its reduced
system, for a partition or a stack of them, which the tests check against.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from collections.abc import Sequence

import numpy as np

from . import banded
from ._record import frozen
from .banded import Array, BandedSpdMatrix

# truncation level of the window: the slowest decaying field falls below this
# fraction of its size at the atomistic region by the window's clamped ends
WINDOW_EPS = 1e-40
# clamps this many ulps of M a0 from the wells count as the default ones
_BC_ULPS = 4
# slowest decay exponent the closed-form exterior resolves (see ``sizes``)
_PHI_MIN = 1e-10
# atoms the core of a window keeps past the padded span (see ``sizes``)
_CORE_MARGIN = 5
# largest lattice spacing: the lower bounds square products that grow like
# a0^3, which must stay well inside the float range
A0_MAX = 1e50
# largest energy scale max(k0, k1, k2, k2^2/k1) a0^2: the squared norms of
# the residuals and projections grow with it and must stay inside the floats
ENERGY_MAX = 1e300
# largest k2 / k1: stiffer next-nearest springs leave the atomistic system
# too ill-conditioned to factor or to bound (the sandwich fails from about
# 3e14 on short chains, and M_a loses definiteness in floats from 1e16)
K2_K1_MAX = 1e12


def _default_bc(m: int, a0: float) -> tuple[float, float, float, float]:
    """Clamped positions at the wells of the four outermost atoms."""
    return (-m * a0, (-m + 1) * a0, (m - 1) * a0, m * a0)


def _decaying_root(t: float) -> tuple[float, float]:
    """The root z < 1 of z + 1/z = 2 + 2t and 1 - z, formed without
    cancelling as z nears 1 (z = 0 where t overflows)."""
    r = math.sqrt(t) * math.sqrt(2.0 + t)
    z = 1.0 / (1.0 + t + r)
    return z, 1.0 - z if z < 0.5 else (t + r) * z


@frozen
class DecayRoots:
    """The decaying roots of a chain's symbols (``ChainParams.roots``):
    ``mu`` of the far field's, mu + 1/mu = 2 + k0/k12; ``lam`` of E_a's, k2
    lam^2 + (k1 + 2 k2) lam + k2 = 0; ``z1`` and ``z2`` of M_a's, k0 + (2 -
    s)(k1 + 2 k2 + k2 s) with s = z + 1/z: z1 + 1/z1 = 2 + 2 k0 / (D + k1 +
    4 k2) and z2 = -4 k2 / (k1 + D + sqrt((k1 + D)^2 - 16 k2^2)), with ``d``
    = D = sqrt(k12^2 + 4 k2 k0).  ``q`` = 1 - mu and ``q1`` = 1 - z1 keep
    their digits as mu and z1 near 1.  All but mu take the springs per
    ``unit``, the power of two next above k12, so no square leaves the
    floats.  Past the floats mu is 0 where k0/k12 is, and z1 and z2 are 0
    and D inf where k0 per unit is."""

    mu: float
    q: float
    lam: float
    z1: float
    q1: float
    z2: float
    d: float
    unit: float


@frozen
class ChainParams:
    """Chain size, spring constants, and clamped boundary positions.

    ``bc`` holds the prescribed positions of atoms ``(-M+1, -M+2, M-1, M)``.
    The default, ``None``, clamps them at their wells (``clamps``), which
    stretches the chain by one extra spacing and so forces a dislocation
    into the interior; it follows ``m`` and ``a0`` through
    ``dataclasses.replace``.  Inputs whose results would leave the floats
    are rejected here: ``a0`` above ``A0_MAX``, ``k2/k1`` above
    ``K2_K1_MAX``, an energy scale above ``ENERGY_MAX``, and clamps whose
    offset from their wells passes either limit in place of ``a0``.  A
    k0/k12 past the floats is kept: ``roots`` takes its limit.
    """

    m: int
    k0: float = 1.0
    k1: float = 2.0
    k2: float = 2.0
    a0: float = 1.0
    bc: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got {self.m!r}")
        if self.m < 3:
            raise ValueError(f"m must be >= 3, got {self.m}")
        springs = (self.k0, self.k1, self.k2)
        if not (
            all(map(math.isfinite, springs))
            and self.k0 > 0
            and self.k1 > 0
            and self.k2 >= 0
            and math.isfinite(2.0 * self.k12 + self.k0)
        ):
            raise ValueError(
                f"spring constants must be finite with k0 > 0, k1 > 0, k2 >= 0 and the "
                f"largest stiffness entry 2 (k1 + 4 k2) + k0 at most the largest float, "
                f"{np.finfo(float).max:g}, got {springs}"
            )
        if self.k2 > K2_K1_MAX * self.k1:
            raise ValueError(
                f"k2/k1 must be at most K2_K1_MAX = {K2_K1_MAX:g}, got "
                f"k1 = {self.k1}, k2 = {self.k2}"
            )
        if not 0 < self.a0 <= A0_MAX:
            raise ValueError(
                f"a0 must be positive and at most {A0_MAX:g}, got {self.a0}"
            )
        stiffest = max(*springs, self.k2 * (self.k2 / self.k1))
        if stiffest * self.a0 * self.a0 > ENERGY_MAX:
            raise ValueError(
                f"the energy scale max(k0, k1, k2, k2^2/k1) a0^2 must be at most "
                f"ENERGY_MAX = {ENERGY_MAX:g}, got springs {springs} and a0 = {self.a0}"
            )
        # Python numbers, so equal params compute the same bits and numpy
        # integers cannot overflow the exact sums over the chain
        object.__setattr__(self, "m", operator.index(self.m))
        for name in ("k0", "k1", "k2", "a0"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.bc is not None:
            # a tuple of floats, so equal positions give equal, hashable params
            object.__setattr__(self, "bc", tuple(map(float, self.bc)))
            if len(self.bc) != 4:
                raise ValueError("bc must give positions for the 4 clamped atoms")
            # an offset from the wells scales the solution as a0 does, and so
            # has a0's limits; a nan or inf position passes neither
            lim = min(A0_MAX, math.sqrt(ENERGY_MAX / stiffest))
            if not all(abs(b - w) <= lim for b, w in zip(self.bc, _default_bc(self.m, self.a0))):
                raise ValueError(f"bc must lie within {lim:g} of the wells, got {self.bc}")

    @property
    def clamps(self) -> tuple[float, float, float, float]:
        """Positions of the four clamped atoms: ``bc``, or their wells."""
        return _default_bc(self.m, self.a0) if self.bc is None else self.bc

    @property
    def k12(self) -> float:
        """Cauchy-Born NN density equivalent to the NN+NNN pair."""
        return self.k1 + 4.0 * self.k2

    @functools.cached_property
    def roots(self) -> DecayRoots:
        """The chain's ``DecayRoots``, formed once and here alone."""
        unit = math.ldexp(1.0, math.frexp(self.k12)[1])
        k0, k1, k2 = self.k0 / unit, self.k1 / unit, self.k2 / unit
        mu, q = _decaying_root(0.5 * self.k0 / self.k12)
        lam = -2.0 * k2 / (k1 + 2.0 * k2 + math.sqrt(k1 * (k1 + 4.0 * k2)))
        if k0 == math.inf:  # and so D and t: their limit
            return DecayRoots(mu, q, lam, 0.0, 1.0, -0.0, math.inf, unit)
        k12 = k1 + 4.0 * k2
        d = math.sqrt(k12 * k12 + 4.0 * k2 * k0)
        z1, q1 = _decaying_root(k0 / (d + k1 + 4.0 * k2))
        kd = k1 + d
        z2 = -4.0 * k2 / (kd + math.sqrt((kd - 4.0 * k2) * (kd + 4.0 * k2)))
        return DecayRoots(mu, q, lam, z1, q1, z2, d, unit)

    @functools.cached_property
    def _decay_width(self) -> int:
        """``w`` of ``sizes``, or ``m`` for a chain that is its own window:
        the chain's alone, so formed once."""
        m, tol = self.m, _BC_ULPS * math.ulp(self.m * self.a0)
        if any(abs(b - d) > tol for b, d in zip(self.clamps, _default_bc(m, self.a0))):
            return m
        # the slowest root z: M_a's z1 (never faster than mu) or E_a's lam;
        # both 0 leave one atom.  Near 1, phi = -ln z1 is taken from q1.  A
        # decay too slow to resolve reaches past any chain: below _PHI_MIN
        # the exterior's fold k12 mu cancels the core's edge diagonal to a
        # relative round-off of about eps / phi, and at 1e-16 to nothing
        r = self.roots
        z = max(r.z1, abs(r.lam))
        if not z:
            return 1
        phi = -math.log1p(-r.q1) if z == r.z1 > 0.5 else -math.log(z)
        return math.ceil(math.log(1.0 / WINDOW_EPS) / phi) if phi > _PHI_MIN else m

    @property
    def n_atoms(self) -> int:
        return 2 * self.m


def atom_ids(params: ChainParams) -> Array:
    """All atom labels -M+1 .. M in order."""
    return np.arange(-params.m + 1, params.m + 1)


def well_positions(params: ChainParams, ids: Array | None = None) -> Array:
    """Substrate well centers: (i-1) a0 left of the defect, i a0 right of it."""
    if ids is None:
        ids = atom_ids(params)
    ids = np.asarray(ids)
    return (ids - (ids <= 0)) * params.a0


@frozen
class Partition:
    """Atom ids treated atomistically, sorted; every other atom is continuum."""

    atomistic: Array


def make_partition(params: ChainParams, atomistic=()) -> Partition:
    """Validate and build a partition.

    ``atomistic`` lists atom ids treated exactly; everything else is
    continuum.
    """
    lo, hi = -params.m + 1, params.m
    items = list(atomistic)
    # numpy reads a boolean among integers as 0 or 1, so each is looked at
    if any(isinstance(a, (bool, np.bool_)) for a in items):
        raise ValueError("atomistic must list atom ids, got booleans (a mask?)")
    ids = np.asarray(items)
    if ids.dtype.kind not in "iu":
        ids = ids.astype(float)
        whole = np.isfinite(ids) & (ids == np.round(ids))
        if not whole.all():
            bad = ids[~whole][0]
            raise ValueError(f"atomistic atom ids must be integers, got {bad}")
    if ids.size and (ids.min() < lo or ids.max() > hi):
        bad = ids.min() if ids.min() < lo else ids.max()
        raise ValueError(f"atomistic atom {int(bad)} outside chain range [{lo}, {hi}]")
    return Partition(np.unique(ids.astype(int)))


def _flags(params: ChainParams, part: Partition | Sequence[Partition]) -> Array:
    """Per-atom atomistic flags on the chain ``params`` describes, one row
    per partition when given a sequence of them."""
    parts = [part] if isinstance(part, Partition) else part
    m = params.m
    da = np.zeros((len(parts), 2 * m), dtype=bool)
    for row, p in zip(da, parts):
        ids = p.atomistic
        if ids.size and (ids[0] < -m + 1 or ids[-1] > m):
            raise ValueError(f"partition reaches past the chain of half-size {m}")
        row[ids + (m - 1)] = True
    return da[0] if isinstance(part, Partition) else da


def sizes(
    params: ChainParams, part: Partition | Sequence[Partition]
) -> tuple[int, int] | list[tuple[int, int]]:
    """(m_window, m_core): the half-sizes of the centred chains every solve
    on the partition runs on, one pair per partition of a sequence.

    The window is ``min(M, w + pad)``: over ``w = ceil(ln eps / ln z)`` the
    slowest root z = max(z1, |lam|) of ``roots`` falls below ``WINDOW_EPS``,
    and ``pad = 2**max(6, ceil(log2 span))`` is the largest |atom id| of
    the region rounded up.  Only the span is padded, so a growing region
    rebuilds its window O(log K) times, and the floor of 64 gives every
    region of the paper's K <= 50 sweeps one window.  The window clamps its
    ends at the wells, where the chain's own atoms sit that far out, so a
    chain whose clamps lie more than ``_BC_ULPS`` ulps of ``M a0`` from the
    wells (boundary layers at both ends) is its own window, and so is one
    whose decay is too slow to resolve (-ln z at most ``_PHI_MIN``).

    The solves and products run on the core, the continuum exterior folded
    into its edge diagonals.  Rows past a free edge atom c are pure continuum,
    coupled to c by -k12 alone, when atoms c-2 .. c+1 are (NNN pairs reach
    two atoms).  The region may hold -pad, as ids run -M+1 .. M, so the
    first free atom -m+3 must be -pad-2: m = pad + 5.  A chain that is its
    own window, or no longer than its core, is solved whole.
    """
    parts = [part] if isinstance(part, Partition) else part
    m, w = params.m, params._decay_width
    out = []
    for p in parts:
        span = int(max(-p.atomistic[0], p.atomistic[-1])) if p.atomistic.size else 0
        pad = 1 << max(6, (span - 1).bit_length())
        out.append((w + pad, pad + min(w, _CORE_MARGIN)) if w + pad < m else (m, m))
    return out[0] if isinstance(part, Partition) else out


def _resized(params: ChainParams, m: int) -> ChainParams:
    """The chain ``params`` at half-size ``m`` (at least 3) with its clamps
    at the wells: the window or core of a chain (see ``sizes``).  Springs
    and spacing are valid already, so they are not checked again."""
    out = object.__new__(ChainParams)
    vars(out).update(
        m=m, k0=params.k0, k1=params.k1, k2=params.k2, a0=params.a0, bc=None
    )
    return out


def interval_partition(params: ChainParams, k: int) -> Partition:
    """Partition with atoms -K+1 .. K atomistic (K = 0: none)."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 0 or k > params.m - 2:
        raise ValueError(f"k must be in [0, {params.m - 2}], got {k}")
    k = operator.index(k)
    return Partition(np.arange(-k + 1, k + 1))


# ``QuadraticModel``, ``assemble``, ``LinearSystem`` and ``reduce_system``
# build no solve of the estimators; the tests' oracles use them, and the
# benchmark's tracer (perfbench/spans.py) wraps ``assemble`` and
# ``reduce_system`` by name, so they stay until it no longer does.
@frozen
class QuadraticModel:
    """Assembled quadratic energy 1/2|D(y-a)|_E^2 + k0/2 |y-b|^2.

    ``ids`` labels the degrees of freedom by atom id.  A stack of models
    (one per partition of a sequence) stacks ``e_mat``.
    """

    ids: Array
    e_mat: BandedSpdMatrix
    a_eq: Array
    b_eq: Array

    @property
    def n_points(self) -> int:
        return len(self.ids)


def d_apply(v: Array) -> Array:
    """Bond difference map: entry j is v[j+1] - v[j], over the last axis."""
    return np.subtract(v[..., 1:], v[..., :-1])


def dt_apply(w: Array) -> Array:
    """Adjoint of d_apply, over the last axis."""
    out = np.zeros(w.shape[:-1] + (w.shape[-1] + 1,))
    out[..., :-1] -= w
    out[..., 1:] += w
    return out


def _nn_bond_bands(params: ChainParams, da: Array) -> BandedSpdMatrix:
    """Bond interaction matrix for the full chain given atomistic flags
    ``da`` (booleans, a stack of rows for a stack of matrices).

    Per-bond NN stiffness blends k1 (atomistic side) with the Cauchy-Born
    k12 (continuum side); NNN pairs couple neighbouring bonds only where an
    atomistic atom participates.  Pairs that would reach past a chain end
    are dropped entirely.  Each entry is a count of atomistic atoms times
    the spring halves, so the counts pick it from the three values it can
    take, each formed as k12/2 (continuum atoms) + k1/2 (atomistic ones)
    or as k2/2 times the count; the diagonal then adds the pairs on its
    left and on its right, in that order.
    """
    h12, h1, h2 = 0.5 * params.k12, 0.5 * params.k1, 0.5 * params.k2
    f = da.view(np.int8)
    nb = f.shape[-1] - 1
    bands = np.zeros(f.shape[:-1] + (2, nb))
    diag, pair = bands[..., 0, :], bands[..., 1, : nb - 1]
    values = np.array([h12 * 2.0 + h1 * 0.0, h12 * 1.0 + h1 * 1.0, h12 * 0.0 + h1 * 2.0])
    values.take(f[..., :-1] + f[..., 1:], out=diag, mode="clip")
    # NNN pair over bonds (p, p+1)
    values = np.array([0.0 * h2, 1.0 * h2, 2.0 * h2])
    values.take(f[..., : nb - 1] + f[..., 2:], out=pair, mode="clip")
    diag[..., 1:] += pair
    diag[..., :-1] += pair
    return BandedSpdMatrix(bands)


def assemble(
    params: ChainParams, part: Partition | Sequence[Partition]
) -> QuadraticModel:
    """Build the model blended by the partition's flags on the chain
    ``params`` describes (the window, for the estimators); a sequence of
    partitions gives the stack of their models."""
    ids = atom_ids(params)
    return QuadraticModel(
        ids=ids,
        e_mat=_nn_bond_bands(params, _flags(params, part)),
        a_eq=ids * params.a0,
        b_eq=well_positions(params, ids),
    )


def stiffness_bands(params: ChainParams, e_mat: BandedSpdMatrix) -> BandedSpdMatrix:
    """Hessian D^T E D + k0 I of the bond matrix ``e_mat`` (a stack of them
    gives a stack) on the free atoms, the two clamped ones at each end
    dropped, as a pentadiagonal band matrix.

    Atom i couples to bonds i-1 and i: its diagonal is (E_(i-1,i-1) +
    E_(i,i)) - 2 E_(i,i-1) + k0, the next atom's entry (E_(i-1,i) - E_(i,i))
    + E_(i+1,i) and the one after -E_(i+1,i).  Couplings of the last free
    atoms to the clamped ones are unused band slots, left zero.
    """
    ed = e_mat.bands[..., 0, :]
    eo = e_mat.bands[..., 1, :]
    nf = ed.shape[-1] - 3
    bands = np.zeros(ed.shape[:-1] + (3, nf))
    diag, off1, off2 = bands[..., 0, :], bands[..., 1, : nf - 1], bands[..., 2, : nf - 2]
    np.add(ed[..., 1 : nf + 1], ed[..., 2 : nf + 2], out=diag)
    diag -= 2.0 * eo[..., 1 : nf + 1]
    diag += params.k0
    np.subtract(eo[..., 1 : nf], ed[..., 2 : nf + 1], out=off1)
    off1 += eo[..., 2 : nf + 1]
    np.subtract(0.0, eo[..., 2:nf], out=off2)
    return BandedSpdMatrix(bands)


def load_bonds(params: ChainParams, lift: Array) -> Array:
    """The bond differences of lift + b - a: those of the clamps' offsets
    ``lift`` from their wells, plus a0 across the defect bond, whose wells
    are 2 a0 apart.  Exact, where differencing the positions would round on
    every bond of a spacing that is not a power of two."""
    w = d_apply(lift)
    w[params.m - 1] += params.a0
    return w


@frozen
class LinearSystem:
    """Reduced equilibrium system on the free (unclamped) degrees of freedom.

    The unknowns are the well-relative displacements ``u = y - b``, which is
    the numerically quiet way to solve (positions are O(M a0) while the
    physics lives at O(a0)); ``rhs_wells`` is their load.  ``lift`` is the
    full-length displacement vector holding the clamped atoms' offsets from
    their wells and zeros elsewhere.  The system of a stacked model stacks
    ``mat`` and ``rhs_wells``.
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
    clamped = [0, 1, -2, -1]
    lift = np.zeros(n)
    lift[clamped] = np.subtract(params.clamps, model.b_eq[clamped])
    # -J^T D^T E D (lift + b - a): the load of y = u + b on u (the misfit
    # k0 lift lives on the clamped atoms only)
    f_full = -dt_apply(banded.matvec(model.e_mat, load_bonds(params, lift)))

    return LinearSystem(
        mat=stiffness_bands(params, model.e_mat),
        rhs_wells=f_full[..., 2:-2],
        wells_free=model.b_eq[2:-2],
        lift=lift,
        free_index=model.ids[2:-2],
    )
