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
identity of the estimators live here too, with the goal vector on a
window's free atoms they solve against; the library keeps only the exact
goal error, which the exact CLI modes report, and takes its Q(e) as the
atomistic dual solution times the residual.  So do the direct
forms of the estimator products that the library takes from the model
difference instead: the projection z - E_a^{-1} E_ac z, the E_a norm and
the M_a products by matvec, and the lower parallelogram terms in the
paper's form at the stationary theta (``theta_lower_terms``), which the
library takes in closed Schur form.  The library keeps its fields on the
core and takes the exterior in closed form; ``window`` extends them over
the window, and ``window_pair`` is the blended solve and every product
over the whole window, with its truncated exterior, that the library's
core path must reproduce.  ``on_window`` extends a field over the window
from the exterior profiles, and ``window_indicators`` forms the eta2 split
and ``window_marks`` the marked set there, the way the report states them.
``atomistic`` assembles the window's atomistic model and system, which the
library never builds.
"""

import warnings
from typing import NamedTuple

import numpy as np

from qcfk import banded
from qcfk.banded import BandedFactor, BandedSpdMatrix, rowdot
from qcfk.estimators import (
    _MIRROR,
    DualPair,
    EstimatorReport,
    Reference,
    _profiles,
    _reference,
    solve_dual_pair,
)
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
    reduce_system,
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
    lift[[0, 1, -2, -1]] = params.clamps

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


def misfit(params: ChainParams, part: Partition, flavor: str) -> Array:
    """On-site misfit weights K of the model ``flavor`` names, per atom of
    the whole chain: k0, but half of it on a continuum chain-end atom,
    which bounds only one bond.  The library pins every atom with k0: the
    chain ends are clamped, so their weight never reaches a solve."""
    at_end = _flags(params, flavor_partition(params, part, flavor))[[0, -1]]
    k = np.full(2 * params.m, params.k0)
    k[[0, -1]] = np.where(at_end, 1.0, 0.5) * params.k0
    return k


def energy_matrix(params: ChainParams, part: Partition, flavor: str, y: Array) -> float:
    """Same energy through the assembled bond matrix and ``misfit``
    (cross-check for the above)."""
    model = assemble(params, flavor_partition(params, part, flavor))
    y = np.asarray(y, dtype=float)
    w = d_apply(y - model.a_eq)
    v = y - model.b_eq
    return 0.5 * float(
        np.dot(w, banded.matvec(model.e_mat, w))
        + np.dot(v, misfit(params, part, flavor) * v)
    )


def goal_vector(free_index: Array) -> Array:
    """Load vector of Q(y) = y_1 - y_0 on the free atoms."""
    q = np.zeros(len(free_index))
    q[np.searchsorted(free_index, 0)] = -1.0
    q[np.searchsorted(free_index, 1)] = 1.0
    return q


def atomistic(ref: Reference) -> tuple[QuadraticModel, LinearSystem]:
    """The atomistic model of the window of ``ref`` and its reduced system
    ``M_a``, assembled."""
    win = ref.window
    amodel = assemble(win, Partition(atomistic=atom_ids(win)))
    return amodel, reduce_system(win, amodel)


def goal(ref: Reference) -> Array:
    """The goal vector on the free atoms of the window of ``ref``."""
    return goal_vector(atom_ids(ref.window)[2:-2])


def ediff(pair: DualPair) -> BandedSpdMatrix:
    """E_a - E_ac on the window, one band matrix per row of the pair."""
    eac = assemble(pair.ref.window, pair.parts).e_mat
    return BandedSpdMatrix(atomistic(pair.ref)[0].e_mat.bands - eac.bands)


# field -> (the field whose edge values scale its exterior, its exterior
# profile, its exterior coordinates)
EXTERIOR = {
    "u_free": ("u_free", "dec", 4),
    "g_free": ("g_free", "dec", 4),
    "residual_primal": ("u_free", "res", 4),
    "residual_dual": ("g_free", "res", 4),
    "ez_y": ("u_free", "rho", 2),
    "ez_g": ("g_free", "rho", 2),
    "pz_y": ("u_free", "pi", 2),
    "pz_g": ("g_free", "pi", 2),
}


def tails(ref: Reference) -> dict[str, Array]:
    """The exterior profiles per unit edge value over the window, (left,
    right) in window order: ``dec`` (u) and ``res`` (the residual) on the
    free atoms past the core's own, ``rho``, ``pi`` and ``h`` on the
    exterior bonds."""
    atoms, right = _profiles(ref, ref.off)
    atoms = np.array([atoms[:, ::-1], atoms]).transpose(1, 0, 2)
    left = right[:, ::-1] * _MIRROR
    bonds = np.array([left, right]).transpose(1, 0, 2)
    return dict(dec=atoms[0], res=atoms[1], rho=bonds[0], pi=bonds[1], h=bonds[2])


def on_window(pair: DualPair, name: str, rows=slice(None)) -> Array:
    """The per-atom or per-bond field ``name`` of a pair's ``rows``, over
    the window's free atoms or bonds: the core's values with the exterior
    in closed form on both sides."""
    src, profile, n_ext = EXTERIOR[name]
    profiles = tails(pair.ref)
    core = getattr(pair, name)[rows, :-n_ext]
    ext = getattr(pair, src)[rows, -4::2, None] * profiles[profile]
    if profile == "pi":  # less the core's end values times h
        ext -= core[..., :: core.shape[-1] - 1, None] * profiles["h"]
    return np.concatenate([ext[..., 0, :], core, ext[..., 1, :]], axis=-1)


def window(pair: DualPair, name: str) -> Array:
    """A field of the pair over the window, one row per region; ``y_free``
    is u plus the wells."""
    if name == "y_free":
        return on_window(pair, "u_free") + well_positions(pair.ref.window)[2:-2]
    return on_window(pair, name)


def window_indicators(report: EstimatorReport) -> tuple[Array, Array]:
    """The eta2 split of a report over the window, from the fields extended
    over it: |g R(y)| per free atom, and per bond the gamma-weighted halves
    |P z_y . ez_y| and |P z_g . ez_g|."""
    pair, row, gamma = report.indicators
    rows = slice(row, row + 1)
    g, r, pzy, ezy, pzg, ezg = (
        on_window(pair, name, rows)[0]
        for name in ("g_free", "residual_primal", "pz_y", "ez_y", "pz_g", "ez_g")
    )
    return np.abs(g * r), 0.5 * gamma * np.abs(pzy * ezy) + 0.5 / gamma * np.abs(pzg * ezg)


def window_marks(report: EstimatorReport, tau: float) -> Array:
    """The window's free atoms whose total of ``window_indicators``, its own
    term and half of each adjacent bond's, reaches ``tau``."""
    at, el = window_indicators(report)
    total = at + 0.5 * (el[1:-2] + el[2:-1])
    return report.free_ids()[total >= tau]


def bond_differences(ref: Reference, u: Array, g: Array) -> Array:
    """Bond difference vectors of primal and dual solutions on the window's
    free atoms, lifted to the whole window: z_y of y - a (clamped atoms at
    their positions) and z_g of g (zero on clamped atoms), stacked on a new
    leading axis."""
    lifted = np.zeros((2,) + u.shape[:-1] + (2 * ref.window.m,))
    lifted[0] = atomistic(ref)[1].lift
    lifted[0, ..., 2:-2] = u
    lifted[1, ..., 2:-2] = g
    z = d_apply(lifted)
    # b - a is -a0 left of the defect and 0 right of it: a jump of a0 across
    # bond 0, taken apart from u so that no u below one ulp of a0 is lost
    z[0, ..., atom_ids(ref.window)[:-1] == 0] += ref.params.a0
    return z


def z_y(pair: DualPair) -> Array:
    """Bond differences of the primal solution y - a, one row per region."""
    return bond_differences(pair.ref, window(pair, "u_free"), window(pair, "g_free"))[0]


def z_g(pair: DualPair) -> Array:
    """Bond differences of the dual solution g, one row per region."""
    return bond_differences(pair.ref, window(pair, "u_free"), window(pair, "g_free"))[1]


def project(ea_factor: BandedFactor, eac: BandedSpdMatrix, z: Array) -> Array:
    """P z = z - E_a^{-1} E_ac z on bond difference vectors, row by row."""
    ecz = banded.matvec(eac, z)
    pz = banded.solve(ea_factor, ecz.reshape(-1, ecz.shape[-1]).T).T.reshape(z.shape)
    return z - pz


def enorm(a: BandedSpdMatrix, v: Array) -> Array:
    """Energy norm of each row of v, with A v by matvec."""
    return banded.norm(a, v, banded.matvec(a, v))


def quad_form(a: BandedSpdMatrix, v: Array) -> Array:
    """v^T A v for each row of v, by matvec."""
    return banded.rowdot(v, banded.matvec(a, v))


def projections(pair: DualPair) -> tuple[Array, Array]:
    """P z_y and P z_g by the direct projection, one row per region."""
    eac = assemble(pair.ref.window, pair.parts).e_mat
    ea_factor = banded.factor(atomistic(pair.ref)[0].e_mat)
    return tuple(project(ea_factor, eac, z) for z in (z_y(pair), z_g(pair)))


def ma_products(pair: DualPair) -> tuple[Array, Array, Array]:
    """(y . M_a y over the whole chain, g . M_a y, g . M_a g) by matvec,
    one value per region."""
    mat = atomistic(pair.ref)[1].mat
    y, g = window(pair, "y_free"), window(pair, "g_free")
    my, mg = banded.matvec(mat, y), banded.matvec(mat, g)
    ymy = banded.rowdot(y, my) + pair.ref.ymy_far
    return ymy, banded.rowdot(g, my), banded.rowdot(g, mg)


def theta_lower_terms(pair: DualPair, sigma: float) -> tuple[float, float]:
    """The + and - lower parallelogram terms of the first row in the paper's
    form: r . v / ||v||_{M_a} at v = y + theta g, with r = sigma R(y) +/-
    sigma^-1 R_hat(g) and theta the stationary point of that ratio, every
    M_a product by matvec.  Signed; the library reports the magnitude."""
    ymy, gmy, gmg = (float(x[0]) for x in ma_products(pair))
    y, g = window(pair, "y_free")[0], window(pair, "g_free")[0]
    res_y, res_g = (window(pair, n)[0] for n in ("residual_primal", "residual_dual"))
    lows = []
    for sign in (1.0, -1.0):
        r = sigma * res_y + sign / sigma * res_g
        a, b = float(np.dot(r, y)), float(np.dot(r, g))
        theta = (a * gmy - b * ymy) / (b * gmy - a * gmg)
        nv2 = ymy + 2.0 * theta * gmy + theta * theta * gmg
        lows.append(float(np.dot(r, y + theta * g)) / np.sqrt(nv2))
    return lows[0], lows[1]


def dual_errors(pair: DualPair) -> tuple[Array, Array]:
    """Exact primal and dual errors via residual-driven atomistic solves,
    one row per region."""
    fa = pair.ref.ma_factor
    return tuple(
        banded.solve(fa, window(pair, name).T).T
        for name in ("residual_primal", "residual_dual")
    )


class LemmaCheck(NamedTuple):
    """``ratio`` is the mismatch over max|lhs|; ``floor`` is eps max|E_ac z|,
    the round-off of forming the rhs, which the mismatch falls to once the
    model error (and with it max|lhs|) vanishes."""

    ratio: float
    mismatch: float
    floor: float


def lemma1_check(
    params: ChainParams, part: Partition, alpha: float, beta: float
) -> LemmaCheck:
    """Residual of the perturbation identity, absolute and scaled by the lhs
    magnitude.

    Checks M (alpha e + beta e_hat) = -J^T D^T E_a P D [alpha (y + lift - a)
    + beta g] on the free atoms; exact solves on both sides make this a
    strict consistency test of the assembled operators (expect a ratio of
    ~1e-9 or smaller while the model error is well above round-off).
    """
    pair = solve_dual_pair(params, part)
    ref = pair.ref
    amodel, asys = atomistic(ref)
    e, e_hat = (x[0] for x in dual_errors(pair))
    lhs = banded.matvec(asys.mat, alpha * e + beta * e_hat)
    eac = assemble(ref.window, part).e_mat
    z = alpha * z_y(pair)[0] + beta * z_g(pair)[0]
    pz = project(banded.factor(amodel.e_mat), eac, z)
    w = banded.matvec(amodel.e_mat, pz)
    rhs = -dt_apply(w)[2:-2]
    mismatch = float(np.max(np.abs(lhs - rhs)))
    floor = float(np.finfo(float).eps * np.max(np.abs(banded.matvec(eac, z))))
    scale = float(np.max(np.abs(lhs)))
    if scale == 0.0:
        scale = 1.0
    return LemmaCheck(mismatch / scale, mismatch, floor)


def window_pair(ref: Reference, parts) -> DualPair:
    """The pair of the regions ``parts`` with every blended solve over the
    whole window of ``ref``, clamped at its ends, and every product from
    the model difference on the window, as the library forms them on the
    core.  Its reference takes the window as its own core, so every field
    lives on the window and the library estimates it as it is."""
    amodel, asys = atomistic(ref)
    acmodel = assemble(ref.window, parts)
    acsys = reduce_system(ref.window, acmodel)
    diff = BandedSpdMatrix(amodel.e_mat.bands - acmodel.e_mat.bands)
    q = goal(ref)
    u, g = np.empty((2, len(parts), len(q)))
    for i in range(len(parts)):
        mat = BandedSpdMatrix(acsys.mat.bands[i])
        loads = np.column_stack([acsys.rhs_wells[i], q])
        u[i], g[i] = factor_solve(mat, loads).T
    y = u + acsys.wells_free
    ez = banded.matvec(diff, bond_differences(ref, u, g))
    res = -dt_apply(ez)[..., 2:-2]
    ea_factor = banded.factor(amodel.e_mat)
    pz = banded.solve(ea_factor, ez.reshape(-1, ez.shape[-1]).T)
    pz = pz.T.reshape(ez.shape)
    nrm = banded.norm(amodel.e_mat, pz, ez)
    my = asys.rhs_wells + banded.matvec(asys.mat, asys.wells_free) - res[0]
    # no exterior: every exterior coordinate is zero
    ext = np.zeros((len(parts), 4))
    return DualPair(
        ref=_reference(ref.params, ref.window.m, ref.window.m),
        parts=tuple(parts),
        u_free=np.hstack([u, ext]),
        g_free=np.hstack([g, ext]),
        residual_primal=np.hstack([res[0], ext]),
        residual_dual=np.hstack([res[1], ext]),
        ez_y=np.hstack([ez[0], ext[:, :2]]),
        ez_g=np.hstack([ez[1], ext[:, :2]]),
        pz_y=np.hstack([pz[0], ext[:, :2]]),
        pz_g=np.hstack([pz[1], ext[:, :2]]),
        npy=nrm[0],
        npg=nrm[1],
        ymy=rowdot(y, my) + ref.ymy_far,
        gmy=rowdot(g, my),
        gmg=rowdot(g, q - res[1]),
        differs=(diff.bands != 0.0).any(axis=(-2, -1)),
    )
