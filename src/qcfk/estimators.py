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

The scalar sigma (relative scaling of primal vs dual) takes its optimal
value; a degenerate optimum leaves the first term alone and sets a flag on
the report.  Each lower term is the Cauchy-Schwarz bound |r . v| /
||v||_{M_a} at the best test vector v in the span of y and g, which needs
no vector: with a, b = r . y, r . g and c, d, f = y . M_a y, g . M_a y,
g . M_a g it is lo^2 = b^2/f + (a - b d/f)^2 / (c - d^2/f), the Schur
complement form of the 2x2 Gram problem.

Every product is taken from the model difference ez = (E_a - E_ac) z, which
the residuals need anyway: P z = E_a^{-1} ez (one solve, no E_ac matvec and
no cancelling subtraction z - E_a^{-1} E_ac z), ||P z||^2_{E_a} = P z . ez,
and E_a applied to sigma P z_y +/- sigma^-1 P z_g is the same combination of
the two ez.  The M_a products need no matvec either: M_a y = (f_a + M_a b)
- R(y), with f_a + M_a b stored once in the ``Reference``, and
M_a g = q - R_hat(g).

Every product is taken on the partition's window chain; only the blended
solves run on its shorter core (both sized by ``model.sizes``), whose
solutions extend over the window in closed form.  Every vector here decays
away from the defect and the atomistic region, so its products are local
to the window, with one exception: y . M_a y grows like M^3 through the
wells b.  Its far-field part is summed in closed form
(``Reference.ymy_far``), so the estimates are those of the whole chain;
past a float it is inf, and the lower terms take their limit b^2/f.

Many partitions of one chain are solved as stacks: ``solve_stacks`` groups
them by window, and each group is assembled, solved and estimated in one
pass whose arrays carry a leading row per partition (``estimate_stack``,
``exact_goal_errors``).  One region is the stack of one, so a region gives
the same bits alone or in a stack.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from . import banded, model
from .banded import Array, BandedFactor, BandedSpdMatrix, rowdot
from .model import ChainParams, LinearSystem, Partition, QuadraticModel

# dimensionless cutoff deciding when sigma's optimum is degenerate
_DEGENERATE_REL = 1e-14
# most regions solved in one stack: at its peak a stack holds about 20
# window-length arrays per row, and taller stacks buy little speed
_STACK_MAX = 7
# the last reference built, held weakly: a growing region finds it while its
# previous pair is alive, and a sweep's groups never revisit a window
_REFERENCES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True)
class Reference:
    """Everything that depends on the window but not on the partition.

    ``params`` is the chain, ``window`` the chain every output lives on
    (see ``model.sizes``).  On the window: the atomistic model and its
    reduced system ``M_a``, the factor of the bond matrix ``E_a`` (for the
    projection P), the goal vector on the free atoms, and ``fa_mb`` =
    f_a + M_a b on them (so that M_a y = fa_mb - R(y)).  ``ymy_far`` is
    what y . M_a y over the chain adds to the same product over the window.
    Blended solves run on ``core`` less ``fold`` = k12 mu on its edge
    diagonal entries; ``decay`` extends them over the window's free atoms
    past each core end, where E_a - E_ac is that of an all-continuum
    region, ``ediff_far``.  Every blended solve whose partition has this
    window shares the reference, and so does the next solve while a pair
    solved on it is held, so its arrays are read-only.
    """

    params: ChainParams
    window: ChainParams
    model: QuadraticModel
    system: LinearSystem
    ea_factor: BandedFactor
    goal: Array
    fa_mb: Array
    ymy_far: float
    core: ChainParams
    fold: float
    decay: Array
    ediff_far: Array

    @functools.cached_property
    def ma_factor(self) -> BandedFactor:
        """Cholesky factor of ``M_a``, which only the exact goal error
        solves with: factored on first use."""
        ma = banded.factor(self.system.mat)
        ma.bands.setflags(write=False)
        return ma


@dataclass(frozen=True)
class DualPair:
    """Primal/dual blended solutions plus everything the estimators reuse,
    for a stack of regions that share ``ref``.

    ``parts`` holds the partitions solved, and every other field but ``ref``
    a leading axis with one row per partition; a single region is the stack
    of one.  ``y_free`` are absolute positions on the free atoms, ``u_free``
    the same solution measured from the wells (the internally solved form).
    The residuals are those of the atomistic operator applied to the
    blended solutions, formed from the model difference E_a - E_ac;
    ``ez_y`` and ``ez_g`` are that difference applied to the bond
    differences z_y of y - a and z_g of g, and ``pz_y``, ``pz_g`` their
    projections P z = E_a^{-1} ez with E_a norms ``npy``, ``npg``.  ``ymy``
    is y . M_a y over the whole chain, ``gmy`` and ``gmg`` are g . M_a y
    and g . M_a g.  Arrays live on the window's free atoms/bonds.
    """

    ref: Reference
    parts: tuple[Partition, ...]
    y_free: Array
    u_free: Array
    g_free: Array
    residual_primal: Array
    residual_dual: Array
    ez_y: Array
    ez_g: Array
    pz_y: Array
    pz_g: Array
    npy: Array
    npg: Array
    ymy: Array
    gmy: Array
    gmg: Array


def _one_region(pair: DualPair, stacked: str) -> None:
    """Reject a stack of more than one region where one is expected."""
    if len(pair.parts) != 1:
        raise ValueError(
            f"pair holds {len(pair.parts)} regions; use {stacked} for a stack"
        )


def _bond_differences(ref: Reference, u: Array, g: Array) -> Array:
    """Bond difference vectors of the primal and dual solutions lifted to
    the whole window: z_y of y - a (clamped atoms at their positions) and
    z_g of g (zero on clamped atoms), stacked on a new leading axis."""
    lifted = np.zeros((2,) + u.shape[:-1] + (ref.model.n_points,))
    lifted[0] = ref.system.lift
    lifted[0, ..., 2:-2] = u
    lifted[0] += ref.model.b_eq - ref.model.a_eq
    lifted[1, ..., 2:-2] = g
    return model.d_apply(lifted)


def goal_vector(free_index: Array) -> Array:
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


def _reference(params: ChainParams, m_window: int, m_core: int) -> Reference:
    """Assemble, reduce and factor the atomistic model of the window of
    half-size ``m_window``, and lay out the core of half-size ``m_core``
    its blended solves run on (see ``model.sizes``)."""
    win = params if m_window == params.m else replace(params, m=m_window, bc=None)
    # the atomistic model is the blend that flags every atom of the window
    amodel = model.assemble(win, Partition(atomistic=model.atom_ids(win)))
    asys = model.reduce_system(win, amodel)
    # beyond the window u vanishes and y = b; the window's own clamp rows are
    # part of both closed forms, so the difference is exact (up to the
    # coupling of the window's edge u, below WINDOW_EPS): 0.0 on a whole chain.
    # Past M ~ 1e102 the sums exceed a float and saturate to inf
    (m0, mb), (w0, wb) = _wells_ymy(params), _wells_ymy(win)
    try:
        far0, farb = float(m0 - w0), float(mb - wb)
    except OverflowError:
        far0 = farb = math.inf
    ymy_far = params.a0**2 * (params.k0 * far0 + (params.k1 + 2.0 * params.k2) * farb)
    # past the core every atom is continuum and unloaded, so the solution
    # there is u_edge mu^d, mu + 1/mu = 2 + k0/k12 with mu < 1; folding it in
    # exactly leaves d - k12 mu on the first and last free diagonal entries
    # (a discrete Dirichlet-to-Neumann boundary)
    t = 0.5 * params.k0 / params.k12
    mu = 0.0 if m_core == m_window else 1.0 / (1.0 + t + math.sqrt(t * (2.0 + t)))
    core = win if m_core == m_window else replace(params, m=m_core, bc=None)
    # u_edge mu^d at d atoms past the core, less its reflection in the
    # window's clamp at d = n, which only the window's last atoms feel
    n = m_window - m_core + 1
    d = np.arange(1.0, n)
    ref = Reference(
        params=params,
        window=win,
        model=amodel,
        system=asys,
        ea_factor=banded.factor(amodel.e_mat),
        goal=goal_vector(asys.free_index),
        fa_mb=asys.rhs_wells + banded.matvec(asys.mat, asys.wells_free),
        ymy_far=ymy_far,
        core=core,
        fold=params.k12 * mu,
        decay=(mu**d - mu ** (2 * n - d)) / (1.0 - mu ** (2 * n)),
        ediff_far=amodel.e_mat.bands - [[params.k12], [0.0]],
    )
    # every solve on this window shares the reference: none may write to it
    arrays = (ref.ea_factor.bands, ref.goal, ref.fa_mb, ref.decay, ref.ediff_far)
    arrays += (asys.mat.bands, asys.rhs_wells, asys.wells_free, asys.lift, amodel.ids)
    arrays += (asys.free_index, amodel.e_mat.bands, amodel.a_eq, amodel.b_eq)
    for a in arrays:
        a.setflags(write=False)
    return ref


def _solve_stack(ref: Reference, parts: Sequence[Partition]) -> DualPair:
    """Solve the blended primal and dual problems of partitions that share
    the window of ``ref``, as one stack.

    Each blended matrix is factored once, on the core, and solves its
    primal and dual loads together.  The reference is never solved here:
    production estimates only ever solve the blended model.
    """
    acmodel = model.assemble(ref.core, parts)
    acsys = model.reduce_system(ref.core, acmodel)
    core = slice(len(ref.decay), len(ref.decay) + acmodel.e_mat.n)
    ediff = np.repeat(ref.ediff_far[None], len(parts), axis=0)
    ea = ref.model.e_mat.bands[..., core]
    np.subtract(ea, acmodel.e_mat.bands, out=ediff[..., core])
    # a stack holds several window-length arrays per row: drop each as soon
    # as it is used up
    del acmodel
    acsys.mat.bands[..., 0, [0, -1]] -= ref.fold
    off, nf = core.start, len(acsys.free_index)

    # row 0 the primal load and solution, row 1 the dual (goal) ones
    loads = np.empty((2, nf))
    loads[1] = ref.goal[off : off + nf]
    ug = np.empty((2, len(parts), len(ref.goal)))
    core_ug = ug[..., off : off + nf]
    for i in range(len(parts)):
        loads[0] = acsys.rhs_wells[i]
        mat = BandedSpdMatrix(acsys.mat.bands[i])
        core_ug[:, i] = banded.solve(banded.factor(mat), loads.T).T
    del mat, acsys
    # the exterior is continuum and unloaded: both solutions decay past it
    np.multiply(core_ug[..., :1], ref.decay[::-1], out=ug[..., :off])
    np.multiply(core_ug[..., -1:], ref.decay, out=ug[..., off + nf :])
    u, g = ug
    y = u + ref.system.wells_free

    z = _bond_differences(ref, u, g)
    # atomistic residuals of the blended solutions.  Since the blended
    # equations f_ac - M_ac u = 0 and q - M_ac g = 0 hold exactly, f_a - M_a u
    # equals -J^T D^T (E_a - E_ac) z_y and q - M_a g equals -J^T D^T
    # (E_a - E_ac) z_g (both models pin every free atom with k0).
    # This form never sees the blended solve's backward error, and E_a - E_ac
    # is exactly zero inside the atomistic region, so the residuals keep full
    # relative accuracy however small the modeling error is.
    ez = banded.matvec(BandedSpdMatrix(ediff), z)
    del ediff, z
    res = model.dt_apply(ez)[..., 2:-2]
    np.negative(res, out=res)
    # P z = E_a^{-1} ez, supported near the atomistic/continuum interfaces;
    # every row is one column of a single solve with E_a, and E_a P z = ez
    pz = banded.solve(ref.ea_factor, ez.reshape(-1, ez.shape[-1]).T)
    pz = pz.T.reshape(ez.shape)
    nrm = banded.norm(ref.model.e_mat, pz, ez)
    my = ref.fa_mb - res[0]
    ymy = rowdot(y, my) + ref.ymy_far
    gmy = rowdot(g, my)
    gmg = rowdot(g, ref.goal - res[1])

    return DualPair(
        ref=ref,
        parts=tuple(parts),
        y_free=y,
        u_free=u,
        g_free=g,
        residual_primal=res[0],
        residual_dual=res[1],
        ez_y=ez[0],
        ez_g=ez[1],
        pz_y=pz[0],
        pz_g=pz[1],
        npy=nrm[0],
        npg=nrm[1],
        ymy=ymy,
        gmy=gmy,
        gmg=gmg,
    )


def solve_stacks(
    params: ChainParams, parts: Sequence[Partition]
) -> Iterator[tuple[list[int], DualPair]]:
    """Solve many partitions of one chain, stack by stack.

    Partitions with the same ``model.sizes`` share one reference and are
    solved together, at most ``_STACK_MAX`` to a stack.  Yields the
    positions in ``parts`` of each stack's rows with the stacked pair; one
    stack is alive at a time when the caller drops each before the next.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for i, size in enumerate(model.sizes(params, parts)):
        groups.setdefault(size, []).append(i)
    for size, rows in groups.items():
        key = (params, *size)
        ref = _REFERENCES.get(key)
        if ref is None:
            _REFERENCES.clear()
            ref = _REFERENCES[key] = _reference(*key)
        for start in range(0, len(rows), _STACK_MAX):
            chunk = rows[start : start + _STACK_MAX]
            yield chunk, _solve_stack(ref, [parts[i] for i in chunk])


def solve_dual_pair(params: ChainParams, part: Partition) -> DualPair:
    """Solve the blended primal and dual problems and prepare estimator data,
    as the stack of one region (see ``solve_stacks``)."""
    ((_, pair),) = solve_stacks(params, [part])
    return pair


def _sigma(npy: float, npg: float) -> float | None:
    """Balance scalar sqrt(npg / npy), which minimises the upper bound; None
    when either norm vanishes next to the other.  Any positive value would
    still give valid bounds: sigma only scales them."""
    scale = max(npy, npg)
    if scale == 0.0 or min(npy, npg) <= _DEGENERATE_REL * scale:
        return None
    return math.sqrt(npg / npy)


# the + and - parallelogram combinations, as a leading axis
_SIGNS = np.array([1.0, -1.0])[:, None, None]


def _combo(sigma, sign, primal: Array, dual: Array) -> Array:
    """sigma primal +/- sigma^-1 dual, row by row over a stack (``sigma``
    one value per row); ``sign`` may be ``_SIGNS`` for both at once."""
    sigma = np.asarray(sigma)[..., None]
    combo = (sign / sigma) * dual
    combo += sigma * primal
    return combo


def residual_combo(pair: DualPair, sigma, sign) -> Array:
    """Weighted residual sigma R(y) +/- sigma^-1 R_hat(g), row by row (see
    ``_combo``)."""
    return _combo(sigma, sign, pair.residual_primal, pair.residual_dual)


def eta_upp(pair: DualPair, sigma, sign) -> Array:
    """Upper parallelogram term ||sigma P z_y +/- sigma^-1 P z_g||_{E_a},
    row by row as ``residual_combo``; E_a maps the combination to the same
    combination of ``ez_y`` and ``ez_g``."""
    pz = _combo(sigma, sign, pair.pz_y, pair.pz_g)
    ez = _combo(sigma, sign, pair.ez_y, pair.ez_g)
    return banded.norm(pair.ref.model.e_mat, pz, ez)


@dataclass(frozen=True)
class EstimatorReport:
    """Everything one primal/dual estimate produces.

    ``bound_low <= Q(e) <= bound_high`` is the guaranteed sandwich, each end
    the first term plus a quarter of one squared parallelogram term less a
    quarter of another; ``eta1`` is the end of larger magnitude, which is
    what the sharp efficiency numbers quote.  The lower terms
    ``eta_low_*`` are non-negative.  ``m`` is the chain's half-size and
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


def estimate_stack(pair: DualPair, use_gamma: bool = False) -> list[EstimatorReport]:
    """Run the full eta1 + eta2 pipeline on a stack, one report per row.

    The array work is one row-wise call over the stack for both sign
    combinations.  Degenerate rows run it at sigma 1 and drop it, which
    leaves their bounds and eta1 on the first term alone.
    """
    # past a0/2 from its well an atom leaves the harmonic well model's range
    off_well = np.abs(pair.u_free).max(axis=-1) > 0.5 * pair.ref.params.a0
    # the computable part g . R(y) of the goal error identity
    ft = rowdot(pair.g_free, pair.residual_primal)
    npy, npg = pair.npy.tolist(), pair.npg.tolist()
    rows = range(len(ft))
    sigmas = [_sigma(npy[i], npg[i]) for i in rows]
    sigma = np.array([1.0 if s is None else s for s in sigmas])
    # leading axis 0 is the sign: + and - parallelogram combinations
    r = residual_combo(pair, sigma, _SIGNS)
    a, b = rowdot(r, pair.y_free), rowdot(r, pair.g_free)
    del r
    # squared lower terms: the largest (r . v)^2 / ||v||^2_{M_a} over v in the
    # span of y and g, in Schur form.  b^2/f is the bound at v = g, and y adds
    # what is left of it once g is projected out; where nothing is left (or
    # y . M_a y is past a float) the bound at v = g is the exact one
    c, d, f = pair.ymy, pair.gmy, pair.gmg
    schur = c - d * d / f
    low2 = b * b / f
    rest = (a - b * d / f) ** 2
    low2 += np.divide(rest, schur, out=np.zeros_like(rest), where=schur > 0.0)
    lo2_p, lo2_m = low2.tolist()
    up_p, up_m = eta_upp(pair, sigma, _SIGNS).tolist()

    # eta2 split: since ||P z||^2 = sum_i (P z)_i ((E_a - E_ac) z)_i, the plain
    # bond terms sum to (npy^2 + npg^2) / 2; weighting the halves by gamma =
    # npg / npy and 1 / gamma makes each sum npy npg / 2 (plain: gamma = 1)
    gammas = [
        npg[i] / npy[i] if use_gamma and sigmas[i] is not None else 1.0 for i in rows
    ]
    gamma = np.array(gammas)[:, None]
    at = np.abs(pair.g_free * pair.residual_primal)
    el = np.abs(pair.pz_y * pair.ez_y)
    el *= 0.5 * gamma
    el_g = np.abs(pair.pz_g * pair.ez_g)
    el_g *= 0.5 / gamma
    el += el_g
    del el_g

    reports = []
    for i, first in enumerate(ft.tolist()):
        flags = ["off-well"] if off_well[i] else []
        terms = lo2_p[i], lo2_m[i], up_p[i], up_m[i]
        sig = sigmas[i]
        if sig is None:
            flags.append("sigma-degenerate")
            terms = 0.0, 0.0, 0.0, 0.0
        lp, lm, up, um = terms
        bound_low = first + 0.25 * lp - 0.25 * um**2
        bound_high = first + 0.25 * up**2 - 0.25 * lm
        weighted = None
        if use_gamma:
            if sig is None:
                flags.append("gamma-degenerate")
            g = gammas[i]
            weighted = abs(first) + 0.5 * g * npy[i] ** 2 + 0.5 / g * npg[i] ** 2
        reports.append(
            EstimatorReport(
                m=pair.ref.params.m,
                m_window=pair.ref.window.m,
                eta1=max(abs(bound_low), abs(bound_high)),
                eta2=abs(first) + npy[i] * npg[i],
                first_term=first,
                sigma_bar=sig,
                eta_upp_plus=up,
                eta_upp_minus=um,
                eta_low_plus=math.sqrt(lp),
                eta_low_minus=math.sqrt(lm),
                bound_low=bound_low,
                bound_high=bound_high,
                eta2_at=at[i],
                eta2_el=el[i],
                eta2_weighted=weighted,
                flags=tuple(flags),
            )
        )
    return reports


def estimate(pair: DualPair, use_gamma: bool = False) -> EstimatorReport:
    """Run the full eta1 + eta2 pipeline on a solved primal/dual pair of one
    region (see ``estimate_stack``)."""
    _one_region(pair, "estimate_stack")
    return estimate_stack(pair, use_gamma)[0]


def exact_goal_errors(pair: DualPair) -> tuple[Array, Array]:
    """Solve the atomistic reference problem of every row of a stack and
    return (Q(e), e) per row, with e on the free atoms of the window.

    This is what the estimators are judged against: the exact CLI modes
    report it, the adaptive loop never needs it.  The error solves
    M_a e = r directly with the primal residual as right-hand side, which
    is algebraically the same as subtracting the two displacement fields,
    and every row is one column of a single solve.  Because
    ``solve_stacks`` forms r from the model difference (E_a - E_ac)
    applied to the blended solution, r carries no backward error of the
    blended solve, so e keeps full relative accuracy when it is many
    orders smaller than the displacements.
    """
    e = banded.solve(pair.ref.ma_factor, pair.residual_primal.T).T
    return rowdot(pair.ref.goal, e), e


def exact_goal_error(
    params: ChainParams, part: Partition, pair: DualPair | None = None
) -> tuple[float, Array]:
    """(Q(e), e) of one region, the stack of one of ``exact_goal_errors``;
    a given ``pair`` must have been solved for ``params`` and ``part``."""
    if pair is None:
        pair = solve_dual_pair(params, part)
    _one_region(pair, "exact_goal_errors")
    same = np.array_equal(pair.parts[0].atomistic, part.atomistic)
    if not same or pair.ref.params != params:
        raise ValueError("pair was not solved for this chain and region")
    q, e = exact_goal_errors(pair)
    return float(q[0]), e[0]
