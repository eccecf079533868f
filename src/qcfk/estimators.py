"""Goal-oriented bounds for the atomistic-vs-blended modeling error.

The goal functional is the defect opening Q(y) = y_1 - y_0.  For the primal
solution ``y`` of the blended (ac) model and a dual solution ``g`` of the
same model loaded with Q, the error e = y_exact - y of the goal satisfies

    Q(e) = g . R(y) + e_hat^T M e,

where R(y) = f - M y is the atomistic residual of the blended solution and
e_hat the dual error.  The second term is not computable, but it can be
bracketed by parallelogram combinations of one projected quantity: with
P = I - E_a^{-1} E_ac acting on bond difference vectors, both model errors
satisfy  M (alpha e + beta e_hat) = -J^T D^T E_a P D [alpha (y - a) + beta g]
(taken on the free atoms), which makes ||P z||_{E_a} computable for any
combination z of the primal and dual difference vectors.  Everything in
this module is built from those pieces:

* ``eta1``   - sandwich of Q(e) between computable lower/upper parallelogram
               bounds, reported as one error magnitude,
* ``eta2``   - the cruder product bound |g . R| + ||P z_y|| ||P z_g||, which
               splits into per-atom and per-bond indicators that drive the
               adaptive refinement.

The scalars sigma (relative scaling of primal vs dual) and theta (shift of
the test point along the dual direction) are chosen at their optimal values;
degenerate optima fall back to safe values and set a flag on the report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import banded, model
from .banded import Array, BandedFactor, BandedSpdMatrix
from .model import ChainParams, LinearSystem, Partition, QuadraticModel

# dimensionless cutoffs deciding when an optimum is too flat to trust
_DEGENERATE_REL = 1e-14


@dataclass
class DualPair:
    """Primal/dual blended solutions plus everything the estimators reuse.

    ``y_free`` are absolute positions on the free atoms, ``u_free`` the same
    solution measured from the wells (the internally solved form).  The
    residuals are those of the atomistic operator applied to the blended
    solutions.  ``e`` and ``e_hat`` stay None unless the exact-error oracle
    routines fill them in.
    """

    params: ChainParams
    part: Partition
    asys: LinearSystem
    acsys: LinearSystem
    ea: BandedSpdMatrix
    ea_factor: BandedFactor
    ediff: BandedSpdMatrix
    amodel: QuadraticModel
    y_free: Array
    u_free: Array
    g_free: Array
    goal: Array
    residual_primal: Array
    residual_dual: Array
    z_y: Array
    z_g: Array
    pz_y: Array
    pz_g: Array
    npy: float
    npg: float
    e: Array | None = None
    e_hat: Array | None = None
    # cached M-inner products of (y, g) used by the theta optimisation
    _my: Array = field(default=None, repr=False)
    _mg: Array = field(default=None, repr=False)


def goal_vector(params: ChainParams, free_index: Array) -> Array:
    """Load vector of Q(y) = y_1 - y_0 on the free atoms."""
    q = np.zeros(len(free_index))
    q[np.searchsorted(free_index, 0)] = -1.0
    q[np.searchsorted(free_index, 1)] = 1.0
    return q


def _project(ea_factor: BandedFactor, eac: BandedSpdMatrix, z: Array) -> Array:
    """P z = z - E_a^{-1} E_ac z on bond difference vectors.

    P annihilates differences the two models treat identically, so P z is
    supported near the atomistic/continuum interfaces.
    """
    return z - banded.solve(ea_factor, banded.matvec(eac, z))


def solve_dual_pair(params: ChainParams, part: Partition) -> DualPair:
    """Solve the blended primal and dual problems and prepare estimator data.

    One Cholesky factorization serves both solves.  The atomistic system is
    assembled (matrix and load) but never solved here; production estimates
    only ever solve the blended model.
    """
    amodel = model.assemble(params, part, "atomistic")
    acmodel = model.assemble(params, part, "ac")
    asys = model.reduce_system(params, amodel)
    acsys = model.reduce_system(params, acmodel)

    f_ac = banded.factor(acsys.mat)
    u = banded.solve(f_ac, acsys.rhs_wells)
    q = goal_vector(params, acsys.free_index)
    g = banded.solve(f_ac, q)
    y = u + acsys.wells_free

    # atomistic residuals of the blended solutions, formed in well-relative
    # variables so the O(M a0) position offsets never enter the arithmetic
    res_y = asys.rhs_wells - banded.matvec(asys.mat, u)
    res_g = q - banded.matvec(asys.mat, g)

    # bond difference vectors of the lifted solutions
    n = amodel.n_points
    u_full = np.zeros(n)
    u_full[2:-2] = u
    for p in (0, 1, -2, -1):
        u_full[p] = asys.lift[p] - amodel.b_eq[p]
    z_y = model.d_apply(amodel, u_full + (amodel.b_eq - amodel.a_eq))
    g_full = np.zeros(n)
    g_full[2:-2] = g
    z_g = model.d_apply(amodel, g_full)

    ea = amodel.e_mat
    eac = acmodel.e_mat
    ediff = BandedSpdMatrix(ea.bands - eac.bands)
    ea_factor = banded.factor(ea)
    pz_y = _project(ea_factor, eac, z_y)
    pz_g = _project(ea_factor, eac, z_g)

    return DualPair(
        params=params,
        part=part,
        asys=asys,
        acsys=acsys,
        ea=ea,
        ea_factor=ea_factor,
        ediff=ediff,
        amodel=amodel,
        y_free=y,
        u_free=u,
        g_free=g,
        goal=q,
        residual_primal=res_y,
        residual_dual=res_g,
        z_y=z_y,
        z_g=z_g,
        pz_y=pz_y,
        pz_g=pz_g,
        npy=banded.norm(ea, pz_y),
        npg=banded.norm(ea, pz_g),
    )


def first_term(pair: DualPair) -> float:
    """Computable part g . R(y) of the goal error identity."""
    return float(np.dot(pair.g_free, pair.residual_primal))


def sigma_opt(pair: DualPair) -> float | None:
    """Balance scalar sqrt(||P z_g|| / ||P z_y||); None when either norm vanishes.

    This sigma minimises the upper parallelogram bound; scaling is the only
    thing it affects, so any positive value would still give valid bounds.
    """
    scale = max(pair.npy, pair.npg)
    if scale == 0.0 or min(pair.npy, pair.npg) <= _DEGENERATE_REL * scale:
        return None
    return float(np.sqrt(pair.npg / pair.npy))


def residual_combo(pair: DualPair, sigma: float, sign: int) -> Array:
    """Weighted residual sigma R(y) +/- sigma^-1 R_hat(g)."""
    return sigma * pair.residual_primal + (sign / sigma) * pair.residual_dual


def eta_upp(pair: DualPair, sigma: float, sign: int) -> float:
    """Upper parallelogram term ||sigma P z_y +/- sigma^-1 P z_g||_{E_a}."""
    return banded.norm(pair.ea, sigma * pair.pz_y + (sign / sigma) * pair.pz_g)


def _m_products(pair: DualPair) -> tuple[Array, Array]:
    if pair._my is None:
        pair._my = banded.matvec(pair.asys.mat, pair.y_free)
        pair._mg = banded.matvec(pair.asys.mat, pair.g_free)
    return pair._my, pair._mg


def theta_opt(pair: DualPair, r: Array) -> tuple[float, bool]:
    """Stationary point of the lower-bound ratio over test points y + theta g.

    Returns (theta, degenerate).  The optimum solves a 2x2 rational
    condition in the M-inner products of y and g; when its denominator
    vanishes the ratio is flat in theta and 0 is as good as any value.
    """
    my, mg = _m_products(pair)
    a = float(np.dot(r, pair.y_free))
    b = float(np.dot(r, pair.g_free))
    c = float(np.dot(pair.y_free, my))
    d = float(np.dot(pair.g_free, my))
    f = float(np.dot(pair.g_free, mg))
    den = b * d - a * f
    scale = abs(b * d) + abs(a * f)
    if scale == 0.0 or abs(den) <= _DEGENERATE_REL * scale:
        return 0.0, True
    return (a * d - b * c) / den, False


def eta_low(pair: DualPair, r: Array, theta: float) -> float:
    """Lower parallelogram term r . v0 / ||v0||_M at v0 = y + theta g.

    Unlike eta_upp this may come out negative; the sandwich bounds square a
    clamped copy while the headline eta1 squares the raw value.
    """
    my, mg = _m_products(pair)
    v0 = pair.y_free + theta * pair.g_free
    nv2 = float(np.dot(pair.y_free, my)) + 2.0 * theta * float(
        np.dot(pair.g_free, my)
    ) + theta * theta * float(np.dot(pair.g_free, mg))
    if nv2 <= 0.0:
        return 0.0
    return float(np.dot(v0, r)) / float(np.sqrt(nv2))


@dataclass(frozen=True)
class EstimatorReport:
    """Everything one primal/dual estimate produces.

    ``bound_low <= Q(e) <= bound_high`` is the guaranteed sandwich (its
    lower terms are clamped at zero before squaring); ``eta1`` is the raw
    max-magnitude version of the same two expressions, which is what the
    sharp efficiency numbers quote.  ``eta2_at`` is indexed by free atom
    (-M+3 .. M-2) and ``eta2_el`` by bond (-M+1 .. M-1).
    """

    m: int
    eta1: float
    eta2: float
    first_term: float
    sigma_bar: float | None
    theta_plus: float
    theta_minus: float
    eta_upp_plus: float
    eta_upp_minus: float
    eta_low_plus: float
    eta_low_minus: float
    bound_low: float
    bound_high: float
    eta2_at: Array
    eta2_el: Array
    eta2_weighted: float | None
    flags: tuple[str, ...]

    def eta2_total(self) -> Array:
        """Per-free-atom indicator: own at-term plus half of each adjacent bond."""
        el = self.eta2_el
        return self.eta2_at + 0.5 * (el[1:-2] + el[2:-1])

    def as_dict(self) -> dict:
        out = {
            "m": self.m,
            "eta1": self.eta1,
            "eta2": self.eta2,
            "first_term": self.first_term,
            "sigma_bar": self.sigma_bar,
            "theta_plus": self.theta_plus,
            "theta_minus": self.theta_minus,
            "eta_upp_plus": self.eta_upp_plus,
            "eta_upp_minus": self.eta_upp_minus,
            "eta_low_plus": self.eta_low_plus,
            "eta_low_minus": self.eta_low_minus,
            "bound_low": self.bound_low,
            "bound_high": self.bound_high,
            "eta2_weighted": self.eta2_weighted,
            "flags": list(self.flags),
            "eta2_at": self.eta2_at.tolist(),
            "eta2_el": self.eta2_el.tolist(),
        }
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @staticmethod
    def from_dict(d: dict) -> "EstimatorReport":
        return EstimatorReport(
            m=d["m"],
            eta1=d["eta1"],
            eta2=d["eta2"],
            first_term=d["first_term"],
            sigma_bar=d["sigma_bar"],
            theta_plus=d["theta_plus"],
            theta_minus=d["theta_minus"],
            eta_upp_plus=d["eta_upp_plus"],
            eta_upp_minus=d["eta_upp_minus"],
            eta_low_plus=d["eta_low_plus"],
            eta_low_minus=d["eta_low_minus"],
            bound_low=d["bound_low"],
            bound_high=d["bound_high"],
            eta2_weighted=d["eta2_weighted"],
            flags=tuple(d["flags"]),
            eta2_at=np.asarray(d["eta2_at"], dtype=float),
            eta2_el=np.asarray(d["eta2_el"], dtype=float),
        )


def eta2_parts(pair: DualPair, use_gamma: bool = False):
    """Global product bound plus its per-atom / per-bond split.

    The bond terms use the identity ||P z||_{E_a}^2 = sum_i (P z)_i
    ((E_a - E_ac) z)_i, so the plain split sums to (||P z_y||^2 +
    ||P z_g||^2) / 2.  With ``use_gamma`` the two halves are reweighted by
    gamma = npg / npy, which leaves the global value at the product
    npy * npg but balances the two series locally.
    """
    flags = []
    ft = first_term(pair)
    value = abs(ft) + pair.npy * pair.npg
    at = np.abs(pair.g_free * pair.residual_primal)
    ely = pair.pz_y * banded.matvec(pair.ediff, pair.z_y)
    elg = pair.pz_g * banded.matvec(pair.ediff, pair.z_g)
    if use_gamma:
        scale = max(pair.npy, pair.npg)
        if scale == 0.0 or min(pair.npy, pair.npg) <= _DEGENERATE_REL * scale:
            gamma = 1.0
            flags.append("gamma-degenerate")
        else:
            gamma = pair.npg / pair.npy
        el = 0.5 * gamma * np.abs(ely) + 0.5 / gamma * np.abs(elg)
        weighted = abs(ft) + 0.5 * gamma * pair.npy**2 + 0.5 / gamma * pair.npg**2
    else:
        el = 0.5 * np.abs(ely) + 0.5 * np.abs(elg)
        weighted = None
    return value, at, el, weighted, flags


def estimate(pair: DualPair, use_gamma: bool = False) -> EstimatorReport:
    """Run the full eta1 + eta2 pipeline on a solved primal/dual pair."""
    flags: list[str] = []
    ft = first_term(pair)
    sigma = sigma_opt(pair)
    if sigma is None:
        flags.append("sigma-degenerate")
        theta_p = theta_m = 0.0
        upp_p = upp_m = low_p = low_m = 0.0
        bound_low = bound_high = ft
        value1 = abs(ft)
    else:
        r_p = residual_combo(pair, sigma, +1)
        r_m = residual_combo(pair, sigma, -1)
        theta_p, deg_p = theta_opt(pair, r_p)
        theta_m, deg_m = theta_opt(pair, r_m)
        if deg_p:
            flags.append("theta-plus-degenerate")
        if deg_m:
            flags.append("theta-minus-degenerate")
        upp_p = eta_upp(pair, sigma, +1)
        upp_m = eta_upp(pair, sigma, -1)
        low_p = eta_low(pair, r_p, theta_p)
        low_m = eta_low(pair, r_m, theta_m)
        if low_p < 0.0 or low_m < 0.0:
            flags.append("lower-bound-clamped")
        bound_low = ft + 0.25 * max(low_p, 0.0) ** 2 - 0.25 * upp_m**2
        bound_high = ft + 0.25 * upp_p**2 - 0.25 * max(low_m, 0.0) ** 2
        value1 = max(
            abs(ft + 0.25 * low_p**2 - 0.25 * upp_m**2),
            abs(ft + 0.25 * upp_p**2 - 0.25 * low_m**2),
        )
    value2, at, el, weighted, flags2 = eta2_parts(pair, use_gamma)
    flags.extend(flags2)
    return EstimatorReport(
        m=pair.params.m,
        eta1=value1,
        eta2=value2,
        first_term=ft,
        sigma_bar=sigma,
        theta_plus=theta_p,
        theta_minus=theta_m,
        eta_upp_plus=upp_p,
        eta_upp_minus=upp_m,
        eta_low_plus=low_p,
        eta_low_minus=low_m,
        bound_low=bound_low,
        bound_high=bound_high,
        eta2_at=at,
        eta2_el=el,
        eta2_weighted=weighted,
        flags=tuple(flags),
    )


def eta1(pair: DualPair) -> float:
    """Headline sharp estimate |Q(e)| ~ eta1."""
    return estimate(pair).eta1


def eta2(pair: DualPair, use_gamma: bool = False) -> float:
    """Headline product bound |Q(e)| <= eta2."""
    value, _, _, _, _ = eta2_parts(pair, use_gamma)
    return value


def exact_goal_error(
    params: ChainParams, part: Partition, pair: DualPair | None = None
) -> tuple[float, Array]:
    """Solve the atomistic reference problem and return (Q(e), e).

    This is the oracle the estimators are judged against; production runs
    never need it.  The error solves M_a e = r directly with the primal
    residual as right-hand side, which is algebraically the same as
    subtracting the two displacement fields but keeps full relative
    accuracy when e is many orders smaller than the displacements.  When
    a pair is passed in, its ``e`` field is filled.
    """
    if pair is None:
        pair = solve_dual_pair(params, part)
    e = banded.factor_solve(pair.asys.mat, pair.residual_primal)
    pair.e = e
    return float(np.dot(pair.goal, e)), e


def dual_errors(pair: DualPair) -> tuple[Array, Array]:
    """Exact primal and dual errors via residual-driven atomistic solves."""
    f_a = banded.factor(pair.asys.mat)
    if pair.e is None:
        pair.e = banded.solve(f_a, pair.residual_primal)
    pair.e_hat = banded.solve(f_a, pair.residual_dual)
    return pair.e, pair.e_hat


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
    e, e_hat = dual_errors(pair)
    lhs = banded.matvec(pair.asys.mat, alpha * e + beta * e_hat)
    eac = model.assemble(params, part, "ac").e_mat
    pz = _project(pair.ea_factor, eac, alpha * pair.z_y + beta * pair.z_g)
    w = banded.matvec(pair.ea, pz)
    rhs = -model.dt_apply(pair.amodel, w)[2:-2]
    scale = float(np.max(np.abs(lhs)))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(np.abs(lhs - rhs))) / scale
