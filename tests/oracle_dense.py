"""Dense, derivative-based reference constructions for small chains.

The production code assembles band matrices directly, and its atomistic
model is the blend that flags every atom.  The helpers here rebuild the
same objects a completely different way: ``energy_direct`` walks the
energy term by term, with a separate formula for each of the two model
flavors (``"atomistic"``, exact NN/NNN everywhere, and ``"ac"``, blended by
the partition), reduced systems come from its finite differences (the
energies are quadratic, so central differences with step 1 are exact up to
round-off), and solves use plain dense numpy.  Agreement between the two
routes validates both.  The exact primal/dual errors and the perturbation
identity of the estimators live here too; the library keeps only
``exact_goal_error``, which the exact CLI modes report.
"""

import warnings

import numpy as np

from qcfk import banded
from qcfk.banded import BandedSpdMatrix
from qcfk.estimators import DualPair, _project, solve_dual_pair
from qcfk.model import (
    ChainParams,
    LinearSystem,
    Partition,
    QuadraticModel,
    _flags,
    assemble,
    atom_ids,
    d_apply,
    dt_apply,
    make_partition,
    well_positions,
)

Array = np.ndarray
FLAVORS = ("atomistic", "ac")


def flavor_partition(params: ChainParams, part: Partition, flavor: str) -> Partition:
    """The partition that assembles the model ``flavor`` names: the atomistic
    one flags every atom, the blended one is ``part``."""
    return make_partition(params, atom_ids(params)) if flavor == "atomistic" else part


def clamped_energy(params: ChainParams, part: Partition, flavor: str):
    """Energy as a function of the free coordinates only."""
    n = 2 * params.m
    lift = np.zeros(n)
    lift[[0, 1, -2, -1]] = params.bc

    def ener(y_free: Array) -> float:
        y = lift.copy()
        y[2:-2] = y_free
        return energy_direct(params, part, flavor, y, check_wells=False)

    return ener, n - 4


def dense_system(params: ChainParams, part: Partition, flavor: str):
    """Reduced stiffness and load by exact finite differences of the energy.

    For a quadratic E the Hessian entry H_ij equals
    (E(h e_i + h e_j) - E(h e_i) - E(h e_j) + E(0)) / h^2 for any h, and the
    gradient at 0 is the usual central difference; h = 1 keeps everything at
    O(1) so round-off stays near machine precision.
    """
    ener, nf = clamped_energy(params, part, flavor)
    h = 1.0
    e0 = ener(np.zeros(nf))
    single = np.empty(nf)
    grad = np.empty(nf)
    for i in range(nf):
        e = np.zeros(nf)
        e[i] = h
        single[i] = ener(e)
        grad[i] = (single[i] - ener(-e)) / (2.0 * h)
    hess = np.empty((nf, nf))
    for i in range(nf):
        for j in range(i, nf):
            e = np.zeros(nf)
            e[i] += h
            e[j] += h
            hess[i, j] = hess[j, i] = (ener(e) - single[i] - single[j] + e0) / h**2
    return hess, -grad


def dense_solve(params: ChainParams, part: Partition, flavor: str) -> Array:
    hess, load = dense_system(params, part, flavor)
    return np.linalg.solve(hess, load)


def fd_gradient(fun, y: Array, h: float = 1.0) -> Array:
    """Central-difference gradient (exact for quadratics at any h)."""
    out = np.empty(len(y))
    for i in range(len(y)):
        e = np.zeros(len(y))
        e[i] = h
        out[i] = (fun(y + e) - fun(y - e)) / (2.0 * h)
    return out


def random_partition(rng, params: ChainParams) -> Partition:
    """Random valid partition: an interval or scattered atomistic flags."""
    m = params.m
    if rng.integers(0, 2) == 0:
        k = int(rng.integers(0, m - 1))
        return make_partition(params, atomistic=range(-k + 1, k + 1))
    ids = np.arange(-m + 1, m + 1)
    return make_partition(params, atomistic=ids[rng.random(2 * m) < 0.3])


def random_point(rng, n: int, wells: Array, spread: float = 0.3) -> Array:
    """Configuration near the wells (inside the harmonic well range)."""
    return wells + rng.uniform(-spread, spread, n)


def to_dense(a: BandedSpdMatrix) -> Array:
    """Expand to a full symmetric matrix (small problems and tests only)."""
    n = a.n
    out = np.zeros((n, n))
    for d in range(min(a.bandwidth, n - 1) + 1):
        vals = a.bands[d, : n - d]
        idx = np.arange(n - d)
        out[idx + d, idx] = vals
        out[idx, idx + d] = vals
    return out


def factor_solve(a: BandedSpdMatrix, rhs: Array) -> Array:
    """One-shot factor + solve."""
    return banded.solve(banded.factor(a), rhs)


def solve_displacements(system: LinearSystem) -> Array:
    """Equilibrium displacements from the wells on the free points."""
    return factor_solve(system.mat, system.rhs_wells)


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


def dual_errors(pair: DualPair) -> tuple[Array, Array]:
    """Exact primal and dual errors via residual-driven atomistic solves."""
    fa = pair.ref.ma_factor
    return banded.solve(fa, pair.residual_primal), banded.solve(fa, pair.residual_dual)


def lemma1_check(
    params: ChainParams, part: Partition, alpha: float, beta: float
) -> float:
    """Residual of the perturbation identity, scaled by the lhs magnitude.

    Checks M (alpha e + beta e_hat) = -J^T D^T E_a P D [alpha (y + lift - a)
    + beta g] on the free atoms; exact solves on both sides make this a
    strict consistency test of the assembled operators (expect ~1e-9 or
    smaller after scaling).
    """
    pair = solve_dual_pair(params, part)
    ref = pair.ref
    e, e_hat = dual_errors(pair)
    lhs = banded.matvec(ref.system.mat, alpha * e + beta * e_hat)
    eac = assemble(ref.window, part).e_mat
    pz = _project(ref.ea_factor, eac, alpha * pair.z_y + beta * pair.z_g)
    w = banded.matvec(ref.model.e_mat, pz)
    rhs = -dt_apply(ref.model, w)[2:-2]
    scale = float(np.max(np.abs(lhs)))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(np.abs(lhs - rhs))) / scale
