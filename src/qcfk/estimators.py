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

All solves run on the partition's ``model.window`` chain.  Every vector
here decays away from the defect and the atomistic region, so its products
are local to the window, with one exception: y . M_a y grows like M^3
through the wells b.  Its far-field part is summed in closed form
(``Reference.ymy_far``), so the estimates are those of the whole chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

import numpy as np

from . import banded, model
from .banded import Array, BandedFactor, BandedSpdMatrix
from .model import ChainParams, LinearSystem, Partition, QuadraticModel

# dimensionless cutoffs deciding when an optimum is too flat to trust
_DEGENERATE_REL = 1e-14


@dataclass(frozen=True)
class Reference:
    """Everything that depends on the window but not on the partition.

    ``params`` is the chain, ``window`` the chain actually solved (see
    ``model.window``).  On the window: the atomistic model and its reduced
    system ``M_a``, the Cholesky factors of the bond matrix ``E_a`` (for
    the projection P) and of ``M_a`` (for the exact-error oracles), and the
    goal vector on the free atoms.  ``ymy_far`` is what y . M_a y over the
    chain adds to the same product over the window.  Every blended solve
    whose partition has this window shares the reference.
    """

    params: ChainParams
    window: ChainParams
    model: QuadraticModel
    system: LinearSystem
    ea_factor: BandedFactor
    ma_factor: BandedFactor
    goal: Array
    ymy_far: float


@dataclass(frozen=True)
class DualPair:
    """Primal/dual blended solutions plus everything the estimators reuse.

    ``y_free`` are absolute positions on the free atoms, ``u_free`` the same
    solution measured from the wells (the internally solved form).  The
    residuals are those of the atomistic operator applied to the blended
    solutions, formed from the model difference ``ediff = E_a - E_ac``.
    ``my`` and ``mg`` are ``M_a y`` and ``M_a g``, and ``ymy`` is y . M_a y
    over the whole chain.  Arrays live on the window's free atoms/bonds.
    """

    ref: Reference
    eac: BandedSpdMatrix
    ediff: BandedSpdMatrix
    y_free: Array
    u_free: Array
    g_free: Array
    residual_primal: Array
    residual_dual: Array
    z_y: Array
    z_g: Array
    pz_y: Array
    pz_g: Array
    npy: float
    npg: float
    my: Array
    mg: Array
    ymy: float


def goal_vector(params: ChainParams, free_index: Array) -> Array:
    """Load vector of Q(y) = y_1 - y_0 on the free atoms."""
    q = np.zeros(len(free_index))
    q[np.searchsorted(free_index, 0)] = -1.0
    q[np.searchsorted(free_index, 1)] = 1.0
    return q


def _wells_ymy(params: ChainParams) -> tuple[int, int]:
    """b . M_a b on the free atoms as exact integer coefficients of k0 a0^2
    and (k1 + 2 k2) a0^2.

    With s = M - 2 the free wells are +-a0 .. +-s a0, so the misfit part is
    k0 a0^2 2 sum_{j<=s} j^2.  The bond differences of b, clamped atoms set
    to zero, are a0 on every inner bond, 2 a0 across the defect and -s a0
    next to each clamp; their E_a form is (k1 + 2 k2) a0^2 (2s^2 + 2s + 2)
    (the k2 cross terms cancel for s >= 2).
    """
    s = params.m - 2
    return s * (s + 1) * (2 * s + 1) // 3, 2 * s * s + 2 * s + 2


def reference(params: ChainParams, part: Partition | None = None) -> Reference:
    """Assemble, reduce and factor the atomistic model of the partition's
    window (the window of an all-continuum partition when none is given)."""
    if part is None:
        part = model.make_partition(params)
    win = model.window(params, part)
    # the atomistic flavor ignores the partition
    amodel = model.assemble(win, None, "atomistic")
    asys = model.reduce_system(win, amodel)
    ymy_far = 0.0
    if win is not params:
        # beyond the window u vanishes and y = b; the window's own clamp rows
        # are part of both closed forms, so the difference is exact (up to
        # the coupling of the window's edge u, below WINDOW_EPS)
        (m0, mb), (w0, wb) = _wells_ymy(params), _wells_ymy(win)
        ymy_far = params.a0**2 * (
            params.k0 * (m0 - w0) + (params.k1 + 2.0 * params.k2) * (mb - wb)
        )
    return Reference(
        params=params,
        window=win,
        model=amodel,
        system=asys,
        ea_factor=banded.factor(amodel.e_mat),
        ma_factor=banded.factor(asys.mat),
        goal=goal_vector(win, asys.free_index),
        ymy_far=ymy_far,
    )


def _project(ea_factor: BandedFactor, eac: BandedSpdMatrix, z: Array) -> Array:
    """P z = z - E_a^{-1} E_ac z on bond difference vectors.

    P annihilates differences the two models treat identically, so P z is
    supported near the atomistic/continuum interfaces.
    """
    return z - banded.solve(ea_factor, banded.matvec(eac, z))


def solve_dual_pair(
    params: ChainParams, part: Partition, ref: Reference | None = None
) -> DualPair:
    """Solve the blended primal and dual problems and prepare estimator data.

    One Cholesky factorization serves both solves.  ``ref`` is an atomistic
    reference of this chain; it is rebuilt here when not given or when its
    window is not the partition's, so the result depends on (params, part)
    alone.  It is never solved here, production estimates only ever solve
    the blended model.
    """
    if ref is not None and ref.params != params:
        raise ValueError(f"reference was built for {ref.params}, not {params}")
    if ref is None or ref.window != model.window(params, part):
        ref = reference(params, part)
    amodel = ref.model
    acmodel = model.assemble(ref.window, part, "ac")
    acsys = model.reduce_system(ref.window, acmodel)

    f_ac = banded.factor(acsys.mat)
    u = banded.solve(f_ac, acsys.rhs_wells)
    g = banded.solve(f_ac, ref.goal)
    y = u + acsys.wells_free

    # bond difference vectors of the lifted solutions
    n = amodel.n_points
    u_full = np.zeros(n)
    u_full[2:-2] = u
    for p in (0, 1, -2, -1):
        u_full[p] = acsys.lift[p] - amodel.b_eq[p]
    z_y = model.d_apply(amodel, u_full + (amodel.b_eq - amodel.a_eq))
    g_full = np.zeros(n)
    g_full[2:-2] = g
    z_g = model.d_apply(amodel, g_full)

    ea = amodel.e_mat
    eac = acmodel.e_mat
    ediff = BandedSpdMatrix(ea.bands - eac.bands)

    # atomistic residuals of the blended solutions.  Since the blended
    # equations f_ac - M_ac u = 0 and q - M_ac g = 0 hold exactly, f_a - M_a u
    # equals -J^T D^T (E_a - E_ac) z_y and q - M_a g equals -J^T D^T
    # (E_a - E_ac) z_g (the misfit matrices differ only on clamped atoms).
    # This form never sees the blended solve's backward error, and E_a - E_ac
    # is exactly zero inside the window, so the residuals keep full relative
    # accuracy however small the modeling error is.
    res_y = -model.dt_apply(amodel, banded.matvec(ediff, z_y))[2:-2]
    res_g = -model.dt_apply(amodel, banded.matvec(ediff, z_g))[2:-2]

    pz_y = _project(ref.ea_factor, eac, z_y)
    pz_g = _project(ref.ea_factor, eac, z_g)
    my = banded.matvec(ref.system.mat, y)

    return DualPair(
        ref=ref,
        eac=eac,
        ediff=ediff,
        y_free=y,
        u_free=u,
        g_free=g,
        residual_primal=res_y,
        residual_dual=res_g,
        z_y=z_y,
        z_g=z_g,
        pz_y=pz_y,
        pz_g=pz_g,
        npy=banded.norm(ea, pz_y),
        npg=banded.norm(ea, pz_g),
        my=my,
        mg=banded.matvec(ref.system.mat, g),
        ymy=float(np.dot(y, my)) + ref.ymy_far,
    )


def first_term(pair: DualPair) -> float:
    """Computable part g . R(y) of the goal error identity."""
    return float(np.dot(pair.g_free, pair.residual_primal))


def _norms_degenerate(pair: DualPair) -> bool:
    """True when either projected norm vanishes next to the other."""
    scale = max(pair.npy, pair.npg)
    return scale == 0.0 or min(pair.npy, pair.npg) <= _DEGENERATE_REL * scale


def sigma_opt(pair: DualPair) -> float | None:
    """Balance scalar sqrt(||P z_g|| / ||P z_y||); None when either norm vanishes.

    This sigma minimises the upper parallelogram bound; scaling is the only
    thing it affects, so any positive value would still give valid bounds.
    """
    if _norms_degenerate(pair):
        return None
    return float(np.sqrt(pair.npg / pair.npy))


def residual_combo(pair: DualPair, sigma: float, sign: int) -> Array:
    """Weighted residual sigma R(y) +/- sigma^-1 R_hat(g)."""
    return sigma * pair.residual_primal + (sign / sigma) * pair.residual_dual


def eta_upp(pair: DualPair, sigma: float, sign: int) -> float:
    """Upper parallelogram term ||sigma P z_y +/- sigma^-1 P z_g||_{E_a}."""
    combo = sigma * pair.pz_y + (sign / sigma) * pair.pz_g
    return banded.norm(pair.ref.model.e_mat, combo)


def theta_opt(pair: DualPair, r: Array) -> tuple[float, bool]:
    """Stationary point of the lower-bound ratio over test points y + theta g.

    Returns (theta, degenerate).  The optimum solves a 2x2 rational
    condition in the M-inner products of y and g; when its denominator
    vanishes the ratio is flat in theta and 0 is as good as any value.
    """
    a = float(np.dot(r, pair.y_free))
    b = float(np.dot(r, pair.g_free))
    c = pair.ymy
    d = float(np.dot(pair.g_free, pair.my))
    f = float(np.dot(pair.g_free, pair.mg))
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
    v0 = pair.y_free + theta * pair.g_free
    nv2 = pair.ymy + 2.0 * theta * float(
        np.dot(pair.g_free, pair.my)
    ) + theta * theta * float(np.dot(pair.g_free, pair.mg))
    if nv2 <= 0.0:
        return 0.0
    return float(np.dot(v0, r)) / float(np.sqrt(nv2))


@dataclass(frozen=True)
class EstimatorReport:
    """Everything one primal/dual estimate produces.

    ``bound_low <= Q(e) <= bound_high`` is the guaranteed sandwich (its
    lower terms are clamped at zero before squaring); ``eta1`` is the raw
    max-magnitude version of the same two expressions, which is what the
    sharp efficiency numbers quote.  ``m`` is the chain's half-size and
    ``m_window`` that of the window it was solved on: ``eta2_at`` is indexed
    by free atom of the window (``free_ids``, -m_window+3 .. m_window-2) and
    ``eta2_el`` by bond (-m_window+1 .. m_window-1).
    """

    m: int
    m_window: int
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
    eta2_weighted: float | None
    flags: tuple[str, ...]
    eta2_at: Array
    eta2_el: Array

    def free_ids(self) -> Array:
        """Atom ids of ``eta2_at`` and ``eta2_total``."""
        return np.arange(-self.m_window + 3, self.m_window - 1)

    def eta2_total(self) -> Array:
        """Per-free-atom indicator: own at-term plus half of each adjacent bond."""
        el = self.eta2_el
        return self.eta2_at + 0.5 * (el[1:-2] + el[2:-1])

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(
            flags=list(self.flags),
            eta2_at=self.eta2_at.tolist(),
            eta2_el=self.eta2_el.tolist(),
        )
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @staticmethod
    def from_dict(d: dict) -> "EstimatorReport":
        return EstimatorReport(
            **{
                **d,
                "flags": tuple(d["flags"]),
                "eta2_at": np.asarray(d["eta2_at"], dtype=float),
                "eta2_el": np.asarray(d["eta2_el"], dtype=float),
            }
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
        if _norms_degenerate(pair):
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
    # past a0/2 from its well an atom leaves the harmonic well model's range
    if np.max(np.abs(pair.u_free)) > 0.5 * pair.ref.params.a0:
        flags.append("off-well")
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
        m=pair.ref.params.m,
        m_window=pair.ref.window.m,
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


def exact_goal_error(
    params: ChainParams, part: Partition, pair: DualPair | None = None
) -> tuple[float, Array]:
    """Solve the atomistic reference problem and return (Q(e), e), with e
    on the free atoms of the pair's window.

    This is the oracle the estimators are judged against; production runs
    never need it.  The error solves M_a e = r directly with the primal
    residual as right-hand side, which is algebraically the same as
    subtracting the two displacement fields.  Because ``solve_dual_pair``
    forms r from the model difference (E_a - E_ac) applied to the blended
    solution, r carries no backward error of the blended solve, so e keeps
    full relative accuracy when it is many orders smaller than the
    displacements.
    """
    if pair is None:
        pair = solve_dual_pair(params, part)
    e = banded.solve(pair.ref.ma_factor, pair.residual_primal)
    return float(np.dot(pair.ref.goal, e)), e


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
    pz = _project(ref.ea_factor, pair.eac, alpha * pair.z_y + beta * pair.z_g)
    w = banded.matvec(ref.model.e_mat, pz)
    rhs = -model.dt_apply(ref.model, w)[2:-2]
    scale = float(np.max(np.abs(lhs)))
    if scale == 0.0:
        scale = 1.0
    return float(np.max(np.abs(lhs - rhs))) / scale
