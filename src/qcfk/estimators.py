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
value; one that cannot be formed leaves the first term alone and sets a
flag on the report.  Each lower term is the Cauchy-Schwarz bound |r . v| /
||v||_{M_a} at the best test vector v in the span of y and g, which needs
no vector: with a, b = r . y, r . g and c, d, f = y . M_a y, g . M_a y,
g . M_a g it is lo^2 = b^2/f + (a - b d/f)^2 / (c - d^2/f), the Schur
complement form of the 2x2 Gram problem; a Schur complement cancelled
below ``_SCHUR_REL`` of c leaves the bound at v = g alone.  Where the
parallelogram terms move the bounds by less than the round-off of the
first term and of Q(e), the report flags it (``bounds-collapsed``,
``term-at-floor``).

Every product is taken from the model difference ez = (E_a - E_ac) z, which
the residuals need anyway: P z = E_a^{-1} ez (one solve, no E_ac matvec and
no cancelling subtraction z - E_a^{-1} E_ac z), ||P z||^2_{E_a} = P z . ez,
and E_a applied to sigma P z_y +/- sigma^-1 P z_g is the same combination of
the two ez.  The M_a products need no matvec either: M_a y = (f_a + M_a b)
- R(y), with f_a + M_a b stored once in the ``Reference``, and
M_a g = q - R_hat(g).

What runs where.  Every step per region runs on the core of the
partition's window (both sized by ``model.sizes``): the blended solves, the
residuals, P z and every product, on the core's atoms and bonds.  Past the
core every atom is continuum and unloaded, so u and g there are their edge
values times mu^d, and every other field is an edge value (or, for P z, an
edge value and the core's end value) times a fixed profile.  Those
profiles are geometric, so their dot products are closed forms, which the
``Reference`` holds per unit edge value; each array of a ``DualPair``
carries a few exterior coordinates after its core entries, and every
product over the window is one dot product over the core.  The blended
systems come straight from the reference and the partitions' flags, and
so does the reference of a chain that is its own core, all atoms flagged:
no model is assembled.  No step per region touches a window-length array,
and the reference itself is built from closed forms.  So is the exact
goal error Q(e): it is the atomistic dual solution g_a, closed form too,
times the primal residual, over the core.  The eta2 split has one form:
the frame's atoms and the core's bonds, with the exterior bond next to
each end, and per side the exterior's atoms and bonds in closed form.
Marking takes the frame's and, past it, only the exterior atoms whose
geometric bound reaches the threshold; a report lists the whole window's
when read (the fixed-k report, the profile).  The window stays the frame
outputs are reported on, and the error e solves M_a on it.
Every vector here decays away from the defect and the
atomistic region, with one exception: y . M_a y grows like M^3 through the
wells b.  The part u does not touch is summed in closed form, in exact
integers, so the estimates are those of the whole chain; past a float it
is inf, and the lower terms take their limit b^2/f.

Many partitions of one chain are solved as stacks: ``solve_stacks`` groups
them by window, and each group is built, solved and estimated in one
pass whose arrays carry a leading row per partition (``estimate_stack``,
``exact_goal_errors``).  One region is the stack of one, so a region gives
the same bits alone or in a stack.  ``estimate_stack`` takes the array
work row-wise over the stack and forms each row's scalars as floats in
one loop; each ``EstimatorReport`` keeps its row of the pair, from which
it lists the eta2 split and marks atoms.
"""

from __future__ import annotations

import functools
import json
import math
import weakref
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from . import banded, model
from .banded import Array, BandedFactor, BandedSpdMatrix, rowdot
from .model import ChainParams, Partition

# the round-off of Q(e) and of g . R, in ulps of sum |g_i R_i|
_FLOOR_ULPS = 128
# a Schur complement below this fraction of y . M_a y has cancelled: the
# round-off of the lower terms' y part would grow by more than its inverse
_SCHUR_REL = 1.0 / 64.0
# smallest normal float: a reported value below it has lost its digits
_TINY = np.finfo(float).tiny
# most bytes one stack holds: about 20 core-length arrays per row
_STACK_BYTES = 1 << 24
# the left exterior's rho, pi and h are the right one's times these
_MIRROR = np.array([[-1.0], [-1.0], [1.0]])
# the last reference built, held weakly: a growing region finds it while its
# previous pair is alive, and a sweep's groups never revisit a window
_REFERENCES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False)
class Reference:
    """Everything that depends on the window but not on the partition.

    ``params`` is the chain, ``window`` the chain every output is reported
    on and ``core`` the chain the blended solves run on (see
    ``model.sizes``), ``off`` atoms shorter at each end.  The blended solves
    fold the continuum exterior into ``fold`` = k12 mu on the core's edge
    diagonal entries, where mu + 1/mu = 2 + k0/k12, mu < 1 and q = 1 - mu:
    past the core u and g are their edge values times mu^d.  ``c`` scales
    (E_a - E_ac) z there, and ``lam`` is the decaying root of E_a's symbol
    (see ``_reference``).  ``ymy_far`` is what y . M_a y over the
    chain adds to the same product over the window.

    The rest lives on the core, with the exterior in closed form per unit
    edge value, side by side (left, right).  ``frame`` is the window's free
    atoms the core's arrays hold, and ``wells``, ``fa`` and ``goal_frame``
    are b, f_a + M_a b (so that M_a y = fa - R(y)) and the goal vector on
    them, each followed by the four exterior coordinates (see
    ``DualPair``).  ``edge3`` is u 1, 2 and 3 atoms past a unit edge value,
    ``base`` the bond differences of lift + b - a on the core's bonds and
    one more each side, ``ediff_rim`` the E_a - E_ac bands that couple the
    core to the exterior bond next to each end, and ``ea_core`` E_a on the
    core's bonds.  ``rim`` holds the profiles rho = (E_a - E_ac) z, pi and
    h at those exterior bonds and the load P z there puts on the core's end
    rows, and ``pz_factor`` is the core's E_a with the exterior folded into
    both end diagonals.
    ``ext_res`` holds u . R and b . R over the exterior per unit edge
    value, ``ext_pz`` pi . rho and h . rho, with rho = (E_a - E_ac) z and
    P z = e pi - c h for an edge value e and a core end value c of P z;
    ``ymy_tail`` is the part of y . M_a y that u does not touch, less
    b . fa over the frame.  ``_profiles`` forms the exterior's profiles,
    and ``bound_logs`` holds the logarithms that bound them for marking.
    The Cholesky factor ``ma_factor`` of the window's ``M_a`` and the
    atomistic dual solution ``dual`` are built on first use, by the exact
    goal error alone.  Every solve on this window shares the reference,
    and so does the next solve while a pair solved on it is held, so its
    arrays are read-only.
    """

    params: ChainParams
    window: ChainParams
    core: ChainParams
    off: int
    fold: float
    mu: float
    q: float
    c: float
    lam: float
    ymy_far: float
    frame: slice
    wells: Array
    fa: Array
    goal_frame: Array
    edge3: Array
    base: Array
    ediff_rim: Array
    ea_core: Array
    rim: Array
    pz_factor: BandedFactor
    ext_res: Array
    ext_pz: Array
    ymy_tail: float

    @functools.cached_property
    def ma_factor(self) -> BandedFactor:
        """Cholesky factor of the window's reduced atomistic system ``M_a``,
        which only the exact goal error solves with: factored on first use."""
        win = self.window
        ma = banded.factor(model.stiffness_bands(win, _atomistic_bonds(win)))
        ma.bands.setflags(write=False)
        return ma

    @functools.cached_property
    def dual(self) -> tuple[Array, float]:
        """The atomistic dual solution g_a = M_a^{-1} Q on the frame, and
        what g_a . R over the exterior adds per unit right edge value of u
        (the left edge's share is its negative).  Built on first use, which
        only the exact goal error makes.

        A chain that is its own core solves for g_a with ``ma_factor``.
        Otherwise the window is taken as infinite, as the exterior is.
        M_a's symbol k0 + (2 - s)(k1 + 2 k2 + k2 s), s = z + 1/z, has two
        decaying roots: z1 with z1 + 1/z1 = 2 + 2t, t = k0 / (D + k1 + 4 k2),
        and z2 = -4 k2 / (k1 + D + sqrt((k1 + D)^2 - 16 k2^2)), finite at
        k2 = 0, where D = sqrt((k1 + 4 k2)^2 + 4 k2 k0).  Then g_a at atom
        j >= 1 is (z1^j / (1 + z1) - z2^j / (1 + z2)) / D, and at 1 - j its
        negative.  Past the frame the residual is e q^2 c mu^(i+1) at atom
        J + i, J = m_core + 1 (see ``_profiles``), so the exterior's sum is
        geometric; 1 - z1 mu is formed from q1 = 1 - z1 and q, which does
        not cancel as k0 nears 0.  The roots take the springs per unit of a
        power of two (``_unit_springs``), and g_a ~ 1 / k12 is scaled back
        exactly, so springs times 4^i and a0 times 2^j move Q(e) by 2^j.
        """
        if not self.off:
            ga = banded.solve(self.ma_factor, self.goal_frame[:-4])
            ga.setflags(write=False)
            return ga, 0.0
        k0, k1, k2, unit = _unit_springs(self.params)
        k12 = k1 + 4.0 * k2
        d = math.sqrt(k12 * k12 + 4.0 * k2 * k0)
        z1, q1 = _decaying_root(k0 / (d + k1 + 4.0 * k2))
        kd = k1 + d
        z2 = -4.0 * k2 / (kd + math.sqrt((kd - 4.0 * k2) * (kd + 4.0 * k2)))
        j = np.arange(1, self.core.m - max(0, 2 - self.off) + 1)
        half = (z1**j / (1.0 + z1) - z2**j / (1.0 + z2)) / d / unit
        ga = np.concatenate([-half[::-1], half])
        ga.setflags(write=False)
        mu, q, big_j = self.mu, self.q, self.core.m + 1
        far = z1**big_j / ((1.0 + z1) * (q1 + q - q1 * q))
        far -= z2**big_j / ((1.0 + z2) * (1.0 - z2 * mu))
        return ga, q * q * self.c * mu / d / unit * far

    @functools.cached_property
    def bound_logs(self) -> tuple[float, ...]:
        """The logarithms of |rho|, |pi| and |h| on the exterior bond next to
        the core, of q^2 |c| mu^4 and of mu max(mu, |lam|), which bound the
        exterior's indicators (see ``_reach``)."""
        log_mu = _log(self.mu)
        return (
            *map(_log, self.rim[:3, 1].tolist()),
            2.0 * _log(self.q) + _log(self.c) + 4.0 * log_mu,
            log_mu + _log(max(self.mu, abs(self.lam))),
        )


def _profiles(ref: Reference, n: int) -> tuple[Array, Array]:
    """The right exterior's profiles per unit edge value, by distance from
    the core: on its first ``n - 2`` free atoms u and the residual, and on
    its first ``n`` bonds rho = (E_a - E_ac) z and the pi and h of P z (see
    ``_reference``).  The left side is the right one mirrored: the bond
    differences and so rho and pi change sign (``_MIRROR``)."""
    mu, q, c = ref.mu, ref.q, ref.c
    mu_d = mu ** np.arange(1.0, n + 1)  # mu^(d-1) for the bonds d >= 2
    lam_d = abs(ref.lam) ** np.arange(1.0, n + 1)
    lam_d[::2] *= -1.0  # lam <= 0
    pc = _particular(ref.params, mu, q * c)
    bonds = np.array(_bond_profiles(pc, q, c, mu_d, lam_d))
    atoms = np.array([mu_d[2:], q * q * c * mu_d[: max(0, n - 2)]])
    return atoms, bonds


def _bond_profiles(pc: float, q: float, c: float, mu_d, lam_d):
    """rho, pi and h per unit edge value on the right exterior's bonds d >= 2
    where mu^(d-1) and lam^(d-1) are ``mu_d`` and ``lam_d``, pc being
    ``_particular``'s."""
    return mu_d * (-q * c), pc * (mu_d - lam_d), -lam_d


def _atomistic_bonds(win: ChainParams) -> BandedSpdMatrix:
    """E_a on the bonds of the chain ``win``: the blend that flags every
    atom."""
    return model._nn_bond_bands(win, np.ones(2 * win.m))


def _unit_springs(params: ChainParams) -> tuple[float, float, float, float]:
    """k0, k1 and k2 per unit of the power of two next above k12, and that
    unit: the division is exact, and k1 + 4 k2 < 1 in it, so no square a
    closed-form root takes leaves the floats."""
    unit = math.ldexp(1.0, math.frexp(params.k12)[1])
    return params.k0 / unit, params.k1 / unit, params.k2 / unit, unit


def _decaying_root(t: float) -> tuple[float, float]:
    """The root z < 1 of z + 1/z = 2 + 2t and 1 - z, formed without
    cancelling as z nears 1 (z = 0 where t overflows)."""
    r = math.sqrt(t) * math.sqrt(2.0 + t)
    z = 1.0 / (1.0 + t + r)
    return z, 1.0 - z if z < 0.5 else (t + r) * z


def _particular(params: ChainParams, mu: float, rho: float) -> float:
    """pi_d / mu^(d-1) of the particular solution of E_a pi = rho on the
    exterior, rho_d = -rho mu^(d-1): E_a's symbol at mu is
    k1 + 2 k2 + k2 (mu + 1/mu)."""
    k2 = params.k2
    if mu == 0.0:  # no exterior, or one too stiff to reach
        return 0.0
    return -rho * mu / ((params.k1 + 2.0 * k2) * mu + k2 * (mu * mu + 1.0))


@dataclass(frozen=True, eq=False)
class DualPair:
    """Primal/dual blended solutions plus everything the estimators reuse,
    for a stack of regions that share ``ref``.

    ``parts`` holds the partitions solved, and every other field but ``ref``
    a leading axis with one row per partition; a single region is the stack
    of one.  Arrays live on the core: per-atom ones on the window's free
    atoms ``ref.frame`` and then four exterior coordinates, per-bond ones on
    the core's bonds and then two, so that each product over the window is
    one dot product over them.  With u, R and b the exterior profiles per unit edge
    value (see ``Reference``), u and g take (e, 0) per side for their edge
    value e and the residuals e (u . R, b . R), while b, f_a + M_a b and the
    goal take (0, 1), (k0 u . b, 0) and (0, 0) (``ref.wells``, ``ref.fa``
    and ``ref.goal_frame``).  Per bond side ez takes e and P z
    e pi . rho - c h . rho, c the core's end value of P z.  ``u_free`` is
    the blended solution measured from the wells, ``g_free`` the dual one.
    The residuals are those of the atomistic operator applied to the
    blended solutions, formed from the model difference E_a - E_ac;
    ``ez_y`` and ``ez_g`` are that difference applied to the bond
    differences z_y of y - a and z_g of g, and ``pz_y``, ``pz_g`` their
    projections P z = E_a^{-1} ez with E_a norms ``npy``, ``npg``.  ``ymy`` is
    y . M_a y over the whole chain, ``gmy`` and ``gmg`` are g . M_a y and
    g . M_a g.  ``differs`` is whether E_a - E_ac is nonzero at all, so that
    the exact error is.
    """

    ref: Reference
    parts: tuple[Partition, ...]
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
    differs: Array


def _one_region(pair: DualPair, stacked: str) -> None:
    """Reject a stack of more than one region where one is expected."""
    if len(pair.parts) != 1:
        raise ValueError(
            f"pair holds {len(pair.parts)} regions; use {stacked} for a stack"
        )


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
    """Lay out the window of half-size ``m_window`` and the core of half-size
    ``m_core`` its blended solves run on (see ``model.sizes``), and take
    the exterior between the two in closed form.

    Past the core every atom is continuum and unloaded, and the exterior
    reaches the window's clamps only where its fields have fallen below
    ``WINDOW_EPS``, so it is taken as semi-infinite.  Right of the core, d
    atoms past its free edge atom, u = e mu^d for an edge value e; the
    bond d (atoms d, d + 1) has z = -e q mu^d, q = 1 - mu, and (E_a - E_ac)
    z = e rho_d = -e q c mu^(d-1) for d >= 2, where c = k2 q^2 + r mu is
    z's second difference under E_a - E_ac: k2 beside the diagonal, and on
    it -2 k2 + r, r the rounding of E_a's and E_ac's diagonals as the
    window assembles them (0 unless k2 is far below k1).  So the residual
    at atom d >= 3 is e q^2 c mu^(d-2).  P z there solves E_a x = e rho with the core's end
    bond value c coupled in by k2: x = e pi - c h, pi_d = P (mu^(d-1) -
    lam^(d-1)) and h_d = -lam^(d-1), with lam the decaying root of E_a's
    symbol, k2 lam^2 + (k1 + 2 k2) lam + k2 = 0.  Folding x into the core's
    end row adds k2 lam to its diagonal and -k2 P (mu - lam) e to its load.
    The left side is the mirror image.
    """
    win = params if m_window == params.m else model._resized(params, m_window)
    core = win if m_core == m_window else model._resized(params, m_core)
    k0, k1, k2, a0 = params.k0, params.k1, params.k2, params.a0
    # beyond the window u vanishes and y = b; the window's own clamp rows are
    # part of both closed forms, so the difference is exact (up to the
    # coupling of the window's edge u, below WINDOW_EPS): 0.0 on a whole chain.
    # Past M ~ 1e102 the sums exceed a float and saturate to inf
    (m0, mb), (w0, wb) = _wells_ymy(params), _wells_ymy(win)
    off, nbc = m_window - m_core, 2 * m_core - 1
    # the core's atoms that are not the window's free atoms: its clamps on
    # a whole chain, one of them when the exterior is a single atom
    lo = max(0, 2 - off)
    s = m_core - lo
    try:
        far0, farb = float(m0 - w0), float(mb - wb)
        # k0 b . b over the chain beyond the frame, and the rest of b . M_a b
        tail0, tailb = float(m0 - s * (s + 1) * (2 * s + 1) // 3), float(mb)
    except OverflowError:
        far0 = farb = tail0 = tailb = math.inf
    ymy_far = a0 * a0 * (k0 * far0 + (k1 + 2.0 * k2) * farb)
    # b . M_a b = sum b (k0 b + clamp terms) - b . f_a, and b . f_a is
    # -a0 (E_a D b) at the defect bond, where D b is a0, 2 a0, a0
    ymy_tail = a0 * a0 * (k0 * tail0 + (k1 + 2.0 * k2) * tailb - 2.0 * (k1 + 3.0 * k2))
    # the bond differences of lift + b - a, added to z_y apart from u so that
    # no u below one ulp of a0 is lost, on the core's bonds and one more each
    # side; the lift is that of the window's clamps, which a core shorter than
    # the window does not reach
    base, lift = np.zeros((2, 1, nbc + 2)), np.zeros(2 * m_core)
    ediff_rim = np.zeros((2, nbc + 2))
    edge3, rim = np.zeros(3), np.zeros((4, 2))
    ext_res, ext_pz, ext_fa = np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(4)
    mu = lam = c = 0.0
    q = 1.0
    if off:
        # past the core the blended solution is u_edge mu^d, mu + 1/mu =
        # 2 + k0/k12; folding it in leaves d - k12 mu on the core's first and
        # last free diagonal entries (a discrete Dirichlet-to-Neumann boundary)
        mu, q = _decaying_root(0.5 * k0 / params.k12)
        _, u1, u2, _ = _unit_springs(params)
        lam = -2.0 * u2 / (u1 + 2.0 * u2 + math.sqrt(u1 * (u1 + 4.0 * u2)))
        # E_a on the core's bonds, each with both NNN pairs, and the
        # coupling of the last to the next, as the window assembles them
        ea_core = np.empty((2, nbc))
        ea_core[0], ea_core[1] = (k1 + k2) + k2, k2
        c = k2 * q * q + (ea_core[0, 0] - params.k12 + 2.0 * k2) * mu
        pz_core = ea_core.copy()
        pz_core[0, :: nbc - 1] += k2 * lam
        ids = model.atom_ids(core)[lo : 2 * m_core - lo]
        wells = model.well_positions(params, ids)
        # f_a + M_a b is k0 b away from the chain's clamps
        fa = k0 * wells
        pc = _particular(params, mu, q * c)
        # sums over d >= 3 of mu^d, d mu^d and the like, by the right edge
        # atom's id E: sum (E + d) mu^d = mu^3 x / q^2
        x = (m_core - 2) * q + 3.0 - 2.0 * mu
        g_ = q * c * mu**4 / (1.0 + mu)
        db = a0 * mu**3 * x / (q * q)
        ws = a0 * c * mu * x
        lam_mu = lam * mu / (1.0 - lam * mu)
        k1_ = -q * c * pc * (mu * mu / (q * (1.0 + mu)) - lam_mu)
        k2_ = q * c * lam_mu
        ext_res[:] = [[g_, -ws], [g_, ws]]
        ext_pz[:] = [[k1_, -k2_], [k1_, k2_]]
        ext_fa[::2] = -k0 * db, k0 * db
        # the first exterior bond's profiles, as ``_profiles`` forms them
        # (mu^1 is mu), and the load P z there puts on the core's end row
        rho, pi, h = _bond_profiles(pc, q, c, mu, lam)
        psi = k2 * pc * (mu - lam)
        rim[:] = [[-rho, rho], [-pi, pi], [h, h], [-psi, psi]]
        edge3[:] = mu ** np.arange(1.0, 4.0)
        ediff_rim[1, 0] = k2
        goal_frame = np.zeros(len(ids))
    else:
        # the core is the window, clamped at its own ends: no exterior
        ea = _atomistic_bonds(win)
        ea_core = pz_core = ea.bands
        b = model.well_positions(win)
        lift[[0, 1, -2, -1]] = np.subtract(win.clamps, b[[0, 1, -2, -1]])
        wells = b[2:-2]
        fa = -model.dt_apply(banded.matvec(ea, model.load_bonds(win, lift)))[2:-2]
        fa += banded.matvec(model.stiffness_bands(win, ea), wells)
        base[0, 0, [0, -1]] = lift[[0, -1]] * [1.0, -1.0]
        goal_frame = np.zeros(len(wells))
        ymy_tail = ymy_far
    base[0, 0, 1:-1] = model.load_bonds(core, lift)
    goal_frame[[m_core - 1 - lo, m_core - lo]] = -1.0, 1.0
    # the exterior coordinates of b, fa and the goal
    wells = np.concatenate([wells, [0.0, 1.0, 0.0, 1.0]])
    fa = np.concatenate([fa, ext_fa])
    goal_frame = np.concatenate([goal_frame, np.zeros(4)])
    pz_factor = banded.factor(BandedSpdMatrix(pz_core))
    # every solve on this window shares the reference: none may write to it
    arrays = (wells, fa, goal_frame, edge3, base, ediff_rim, ea_core, rim, ext_res)
    for a in (*arrays, ext_pz, pz_factor.bands):
        a.setflags(write=False)
    n_ext = max(0, off - 2)  # free atoms past the core's own (its clamps)
    ref = Reference(
        params=params,
        window=win,
        core=core,
        off=off,
        fold=params.k12 * mu,
        mu=mu,
        q=q,
        c=c,
        lam=lam,
        ymy_far=ymy_far,
        frame=slice(n_ext, 2 * m_window - 4 - n_ext),
        wells=wells,
        fa=fa,
        goal_frame=goal_frame,
        edge3=edge3,
        base=base,
        ediff_rim=ediff_rim,
        ea_core=ea_core,
        rim=rim,
        pz_factor=pz_factor,
        ext_res=ext_res,
        ext_pz=ext_pz,
        ymy_tail=ymy_tail,
    )
    return ref


def _solve_stack(ref: Reference, parts: Sequence[Partition]) -> DualPair:
    """Solve the blended primal and dual problems of partitions that share
    the window of ``ref``, as one stack, and take every product on the
    core.

    Each blended matrix is factored and solved once, on the core, for its
    primal and dual loads together.  The blended bond matrices E_ac come
    from the partitions' flags on the core, and everything else from the
    reference: M_ac is D^T E_ac D + k0 on the free atoms less the fold, and
    the primal load -J^T D^T E_ac applied to ``ref.base``, nonzero only at
    the defect's four atoms (and the clamps of a chain that is its own
    window).  The reference is never solved here: production estimates
    only ever solve the blended model.
    """
    core = ref.core
    eac = model._nn_bond_bands(core, model._flags(core, parts).astype(float))
    nbc = eac.n
    ediff = np.empty((len(parts),) + ref.ediff_rim.shape)
    ediff[...] = ref.ediff_rim
    np.subtract(ref.ea_core, eac.bands, out=ediff[..., 1:-1])
    differs = ediff.any(axis=(-2, -1))
    mac = model.stiffness_bands(core, eac)
    diag = mac.bands[..., 0, :]
    diag[..., 0] -= ref.fold
    diag[..., -1] -= ref.fold
    nf = mac.n

    # row 0 the primal load and solution, row 1 the dual (goal) ones
    loads = np.empty((len(parts), 2, nf))
    loads[:, 0] = model.dt_apply(banded.matvec(eac, ref.base[0, 0, 1:-1]))[..., 2:-2]
    np.negative(loads[:, 0], out=loads[:, 0])
    lo = 2 - ref.off + ref.frame.start
    loads[:, 1] = ref.goal_frame[2 - lo : 2 - lo + nf]
    # the core's atoms and one more each side, where the continuum exterior
    # has decayed from the edge atoms (3 and nf + 2)
    ug = np.empty((2, len(parts), nf + 6))
    ug[..., 3:-3] = banded.solve_each(mac, loads).transpose(1, 0, 2)
    np.multiply(ug[..., 3:4], ref.edge3[::-1], out=ug[..., :3])
    np.multiply(ug[..., -4:-3], ref.edge3, out=ug[..., -3:])
    edges = ug[..., 3 : nf + 3 : nf - 1]

    # atomistic residuals of the blended solutions.  Since the blended
    # equations f_ac - M_ac u = 0 and q - M_ac g = 0 hold exactly, f_a - M_a u
    # equals -J^T D^T (E_a - E_ac) z_y and q - M_a g equals -J^T D^T
    # (E_a - E_ac) z_g (both models pin every free atom with k0).
    # This form never sees the blended solve's backward error, and E_a - E_ac
    # is exactly zero inside the atomistic region, so the residuals keep full
    # relative accuracy however small the modeling error is.  The bonds next
    # to the core take their exterior values
    z = np.diff(ug)
    z += ref.base
    ez = banded.matvec(BandedSpdMatrix(ediff), z)
    np.multiply(edges, ref.rim[0], out=ez[..., :: nbc + 1])
    # on the frame (the core's atoms less ``lo`` at each end), then the
    # exterior coordinates: (e, 0) per side for u and g, e (u . R, b . R)
    # for the residuals
    nc = nf + 4 - 2 * lo
    atoms = np.empty((2, 2, len(parts), nc + 4))
    u, g = atoms[0]
    res = atoms[1]
    atoms[0, ..., :nc] = ug[..., 1 + lo : nf + 5 - lo]
    atoms[0, ..., nc::2] = edges
    atoms[0, ..., nc + 1 :: 2] = 0.0
    np.subtract(ez[..., 1 + lo : nc + 1 + lo], ez[..., lo : nc + lo], out=res[..., :nc])
    res[..., nc:] = (edges[..., None] * ref.ext_res).reshape(2, len(parts), 4)
    # P z = E_a^{-1} ez, supported near the atomistic/continuum interfaces;
    # every row is one column of a single solve with the folded core E_a,
    # and E_a P z = ez.  On the core's bonds, then one exterior coordinate
    # per side: e for ez and e pi . rho - c h . rho for P z
    bonds = np.empty((2, 2, len(parts), nbc + 2))
    pz, ez_c = bonds
    ez_c[..., :nbc] = ez[..., 1:-1]
    ez_c[..., nbc:] = edges
    rhs = ez[..., 1:-1].copy()
    rhs[..., :: nbc - 1] -= edges * ref.rim[3]
    sol = banded.solve(ref.pz_factor, rhs.reshape(-1, nbc).T)
    pz[..., :nbc] = sol.T.reshape(rhs.shape)
    ends = pz[..., : nbc : nbc - 1]
    pz[..., nbc:] = edges * ref.ext_pz[:, 0] - ends * ref.ext_pz[:, 1]
    nrm = banded.norm(BandedSpdMatrix(ref.ea_core), pz, ez_c)
    my = ref.fa - res[0]
    # y . M_a y grows like k a0^2 M^3 and saturates to inf past a float,
    # where the lower terms take their limit (see ``_lower2``)
    with np.errstate(over="ignore"):
        ymy = rowdot(u + ref.wells, my) + ref.ymy_tail
    gmy = rowdot(g, my)
    gmg = rowdot(g, ref.goal_frame - res[1])

    return DualPair(
        ref=ref,
        parts=tuple(parts),
        u_free=u,
        g_free=g,
        residual_primal=res[0],
        residual_dual=res[1],
        ez_y=ez_c[0],
        ez_g=ez_c[1],
        pz_y=pz[0],
        pz_g=pz[1],
        npy=nrm[0],
        npg=nrm[1],
        ymy=ymy,
        gmy=gmy,
        gmg=gmg,
        differs=differs,
    )


def solve_stacks(
    params: ChainParams, parts: Sequence[Partition]
) -> Iterator[tuple[list[int], DualPair]]:
    """Solve many partitions of one chain, stack by stack.

    Partitions with the same ``model.sizes`` share one reference and are
    solved together, as many to a stack as ``_STACK_BYTES`` holds.  Yields
    the positions in ``parts`` of each stack's rows with the stacked pair.
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
        height = max(1, _STACK_BYTES // (320 * size[1]))
        for start in range(0, len(rows), height):
            chunk = rows[start : start + height]
            yield chunk, _solve_stack(ref, [parts[i] for i in chunk])


def solve_dual_pair(params: ChainParams, part: Partition) -> DualPair:
    """Solve the blended primal and dual problems and prepare estimator data,
    as the stack of one region (see ``solve_stacks``)."""
    ((_, pair),) = solve_stacks(params, [part])
    return pair


def _sigma(npy: float, npg: float) -> float | None:
    """Balance scalar sqrt(npg / npy), which minimises the upper bound; None
    where it cannot be formed as a positive normal float: a norm is 0, or
    npg / npy leaves the floats.  Any positive value gives valid bounds, as
    sigma only scales them, so no unit decides it: springs times 4^i and a0
    times 2^j, j even, move every report float but sigma (by 2^-(i + j/2))
    and the plain eta2 split by an exact power of two."""
    ratio = npg / npy if npy else 0.0
    return math.sqrt(ratio) if _TINY <= ratio < math.inf else None


# the + and - parallelogram combinations, as a leading axis
_SIGNS = np.array([1.0, -1.0])[:, None, None]


def _combo(sigma, sign, primal: Array, dual: Array) -> Array:
    """sigma primal +/- sigma^-1 dual, row by row over a stack (``sigma``
    one value per row); ``sign`` may be ``_SIGNS`` for both at once."""
    sigma = np.asarray(sigma)[..., None]
    combo = (sign / sigma) * dual
    combo += sigma * primal
    return combo


def eta_upp(pair: DualPair, sigma, sign) -> Array:
    """Upper parallelogram term ||sigma P z_y +/- sigma^-1 P z_g||_{E_a},
    row by row as ``_combo``; E_a maps the combination to the same
    combination of ``ez_y`` and ``ez_g``."""
    pz = _combo(sigma, sign, pair.pz_y, pair.pz_g)
    ez = _combo(sigma, sign, pair.ez_y, pair.ez_g)
    return banded.norm(BandedSpdMatrix(pair.ref.ea_core), pz, ez)


def _div(x: float, y: float) -> float:
    """x / y, with IEEE's inf or nan where y is 0."""
    return x / y if y else x * math.copysign(math.inf, y)


def _lower2(a: float, b: float, c: float, d: float, f: float, schur: float) -> float:
    """The squared lower term: the largest (r . v)^2 / ||v||^2_{M_a} over v
    in the span of y and g, in Schur form, from a, b = r . y, r . g, c, d,
    f = y . M_a y, g . M_a y, g . M_a g and the Schur complement c - d^2/f.
    b^2/f is the bound at v = g, and y adds what is left of it once g is
    projected out; where less than ``_SCHUR_REL`` of c is left (or
    y . M_a y is past a float) the bound at v = g is the one taken."""
    rest = a - _div(b * d, f)
    return _div(b * b, f) + (rest * rest / schur if schur > _SCHUR_REL * c else 0.0)


def _split(g: Array, r: Array, pz: Array, ez: Array, gamma: float) -> tuple[Array, Array]:
    """The eta2 split: per atom |g R(y)|, per bond the gamma-weighted halves
    |P z_y . ez_y| and |P z_g . ez_g| (see ``estimate_stack``), with the
    primal's and the dual's P z and ez in the two rows of ``pz`` and ``ez``."""
    el = np.abs(pz * ez)
    el[0] *= 0.5 * gamma
    el[1] *= 0.5 / gamma
    return np.abs(g * r), el[0] + el[1]


def _total(at: Array, el: Array) -> Array:
    """Per-atom indicator: own at-term plus half of each adjacent bond, given
    the bonds of the atoms in order (one more than the atoms)."""
    return at + 0.5 * (el[:-1] + el[1:])


def _log(x: float) -> float:
    """log |x|, -inf at 0."""
    return math.log(abs(x)) if x else -math.inf


# at a threshold this small the totals near it may be subnormal, whose
# rounding the slack of ``_reach`` does not cover: the whole exterior is
# evaluated
_TAU_FLOOR = 1e-290
_LOG2 = math.log(2.0)


def _reach(ref: Reference, e: list[float], pz_end: list[float], gamma: float, tau: float) -> int:
    """How many exterior atoms of one side (nearest first) may reach ``tau``,
    given the side's edge values ``e`` of u and g and end values ``pz_end``
    of P z_y and P z_g.

    Per unit edge value bond j >= 0 past the core has |rho| = |rho_1| mu^j,
    |pi| <= |pi_1| s^j and |h| = |h_1| |lam|^j <= |h_1| s^j, s = max(mu,
    |lam|), where rho_1, pi_1 and h_1 are those of bond 0 (``ref.rim``).
    So bond j's term is at most E r^j, r = mu s < 1, with E from the edge
    and end values, and the at-term |g R| of atom k >= 1 is A mu^(2k - 2)
    <= A r^(k - 1), A = |e_u e_g| q^2 |c| mu^4.  The total of atom k is at
    most (A + E) r^(k - 1): geometric, though h and pi alternate in sign.
    Every atom where the bound falls below a quarter of ``tau`` (the slack
    covers rounding) is short of it, and so is every one past it.  The
    bound is taken in logarithms, so no product under- or overflows.
    """
    n_ext = ref.frame.start
    if not n_ext or not tau > _TAU_FLOOR:  # no exterior, or tau 0 or NaN
        return n_ext if tau <= _TAU_FLOOR else 0
    rho, pi, h, log_a, log_r = ref.bound_logs
    (eu, eg), (py, pg) = map(_log, e), map(_log, pz_end)
    log_y = math.log(gamma) + eu + rho + max(eu + pi, py + h)
    log_g = -math.log(gamma) + eg + rho + max(eg + pi, pg + h)
    # A + E <= 2 max(A, E), and E is at most twice the larger of its halves
    bound = _LOG2 + max(eu + eg + log_a, _LOG2 + max(log_y, log_g))
    x = (bound - math.log(tau) + 2.0 * _LOG2) / -log_r if log_r < 0.0 else math.inf
    if not x >= 0.0:
        return 0
    return n_ext if x >= n_ext - 1 else 1 + int(x)


@dataclass(frozen=True)
class EstimatorReport:
    """Everything the estimate of row ``row`` of a solved ``pair`` produces.

    ``bound_low <= Q(e) <= bound_high`` is the guaranteed sandwich, each end
    the first term plus a quarter of one squared parallelogram term less a
    quarter of another; ``eta1`` is the end of larger magnitude, which is
    what the sharp efficiency numbers quote.  The lower terms
    ``eta_low_*`` are non-negative.  ``flags`` names the hazards the row
    met (see ``estimate_stack``).  ``m`` is the chain's half-size and
    ``m_window`` that of the window it is reported on: ``eta2_at`` is
    indexed by free atom of the window (``free_ids``, -m_window+3 ..
    m_window-2) and ``eta2_el`` by bond (-m_window+1 .. m_window-1).  Both
    are the eta2 split at the bond weight ``gamma``, one formula (``_split``
    and ``_total``) on the frame's atoms and the core's bonds (``_frame``)
    and on each side's exterior in closed form (``_exterior``): over the
    window when first read, and by ``marked`` only where a total may reach
    a threshold.  ``pair``, ``row`` and ``gamma`` stay out of comparisons
    and of ``as_dict``.
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
    pair: DualPair = field(repr=False, compare=False)
    row: int = field(repr=False, compare=False)
    gamma: float = field(repr=False, compare=False)

    def _ends(self) -> tuple[Array, Array]:
        """(primal, dual) by (left, right): the edge values of u and g, and
        the end values of P z on the core."""
        pair, i = self.pair, self.row
        nbc = pair.pz_y.shape[-1] - 2
        edges = np.array([pair.u_free[i, -4::2], pair.g_free[i, -4::2]])
        ends = np.array([pair.pz_y[i, : nbc : nbc - 1], pair.pz_g[i, : nbc : nbc - 1]])
        return edges, ends

    def _frame(self, edges: Array, ends: Array) -> tuple[Array, Array]:
        """The split of the frame's atoms, and of the core's bonds with the
        exterior bond next to each end (``ref.rim``) around them."""
        pair, i, rim = self.pair, self.row, self.pair.ref.rim
        nc, nbc = pair.g_free.shape[-1] - 4, pair.pz_y.shape[-1] - 2
        pz, ez = np.empty((2, 2, nbc + 2))
        pz[:, 1:-1] = pair.pz_y[i, :nbc], pair.pz_g[i, :nbc]
        ez[:, 1:-1] = pair.ez_y[i, :nbc], pair.ez_g[i, :nbc]
        pz[:, :: nbc + 1] = edges * rim[1] - ends * rim[2]
        ez[:, :: nbc + 1] = edges * rim[0]
        return _split(pair.g_free[i, :nc], pair.residual_primal[i, :nc], pz, ez, self.gamma)

    def _exterior(self, side: int, n: int, edges: Array, ends: Array) -> tuple[Array, Array]:
        """The split of the first ``n - 2`` free atoms and ``n`` bonds past
        the core on ``side`` (0 left, 1 right), nearest first (see
        ``_profiles``)."""
        atoms, prof = _profiles(self.pair.ref, n)
        if side == 0:
            prof = prof * _MIRROR
        es, end = edges[:, side, None], ends[:, side, None]
        g, r = es[1] * atoms[0], es[0] * atoms[1]
        return _split(g, r, es * prof[1] - end * prof[2], es * prof[0], self.gamma)

    @functools.cached_property
    def _eta2_split(self) -> tuple[Array, Array]:
        """The split over the window: per free atom and per bond."""
        edges, ends = self._ends()
        at, el = self._frame(edges, ends)
        (lat, lel), (rat, rel) = (
            self._exterior(side, self.pair.ref.off, edges, ends) for side in (0, 1)
        )
        return np.concatenate([lat[::-1], at, rat]), np.concatenate([lel[::-1], el[1:-1], rel])

    @property
    def eta2_at(self) -> Array:
        """Per-free-atom residual term |g_i R_i(y)|."""
        return self._eta2_split[0]

    @property
    def eta2_el(self) -> Array:
        """Per-bond projection term."""
        return self._eta2_split[1]

    def free_ids(self) -> Array:
        """Atom ids of ``eta2_at`` and ``eta2_total``."""
        return np.arange(-self.m_window + 3, self.m_window - 1)

    def eta2_total(self) -> Array:
        """Per-free-atom indicator: own at-term plus half of each adjacent bond."""
        return _total(self.eta2_at, self.eta2_el[1:-1])

    def marked(self, tau: float) -> Array:
        """The window's free atoms whose ``eta2_total`` reaches ``tau``, with
        the bits of the totals over the window, found on the core.

        The frame's atoms take their bonds from the core's and, at each
        end, the exterior bond next to it.  Past the frame every total is
        bounded in closed form per side (``_reach``), and only the atoms
        whose bound reaches ``tau`` are evaluated.
        """
        ref = self.pair.ref
        edges, ends = self._ends()
        at, el = self._frame(edges, ends)
        # a frame that holds lo atoms a side fewer than the core starts lo
        # bonds in
        lo, nc = 2 - ref.off + ref.frame.start, len(at)
        first = 3 - ref.window.m + ref.frame.start
        out = [np.flatnonzero(_total(at, el[lo : lo + nc + 1]) >= tau) + first]
        e, pz_end = edges.T.tolist(), ends.T.tolist()
        for side in (0, 1):
            k = _reach(ref, e[side], pz_end[side], self.gamma, tau)
            if not k:
                continue
            at, el = self._exterior(side, k + 2, edges, ends)
            far = np.flatnonzero(_total(at, el[:-1]) >= tau) + 1  # distances from the frame
            out.insert(2 * side, far + (first + nc - 1) if side else (first - far)[::-1])
        return np.concatenate(out) if len(out) > 1 else out[0]

    def as_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)[:-3]}
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

    The array work is row-wise over the stack's core arrays, whose exterior
    coordinates carry the exterior: the first term, and for both sign
    combinations the weighted residual's dot products with y and g and the
    upper parallelogram terms.  Every other value of a row is a float
    formed in one loop over the rows.  Degenerate rows run the array work
    at sigma 1 and drop it, which leaves their bounds and eta1 on the first
    term alone.  The eta2 indicators are listed over the window only when a
    report's are read.
    """
    ref, a0 = pair.ref, pair.ref.params.a0
    # past a0/2 from its well an atom leaves the harmonic well model's range;
    # the exterior decays from the core's edge atoms
    u_max = np.abs(pair.u_free).max(axis=-1).tolist()
    # the computable part g . R(y) of the goal error identity
    ft = rowdot(pair.g_free, pair.residual_primal).tolist()
    gr_abs = rowdot(np.abs(pair.g_free), np.abs(pair.residual_primal)).tolist()
    npy, npg = pair.npy.tolist(), pair.npg.tolist()
    sigmas = [_sigma(y, g) for y, g in zip(npy, npg)]
    sigma = np.array([1.0 if s is None else s for s in sigmas])
    # leading axis 0 is the sign: + and - parallelogram combinations
    r = _combo(sigma, _SIGNS, pair.residual_primal, pair.residual_dual)
    a, b = rowdot(r, pair.u_free + ref.wells).tolist(), rowdot(r, pair.g_free).tolist()
    del r
    up_p, up_m = eta_upp(pair, sigma, _SIGNS).tolist()
    ymy, gmy, gmg = pair.ymy.tolist(), pair.gmy.tolist(), pair.gmg.tolist()
    differs = pair.differs.tolist()
    few = ref.params.m <= 4  # at most four free atoms

    reports = []
    for i, first in enumerate(ft):
        flags = ["off-well"] if u_max[i] > 0.5 * a0 else []
        sig, gamma, weighted = sigmas[i], 1.0, None
        if sig is None:
            flags.append("sigma-degenerate")
            lp = lm = up = um = 0.0
        else:
            up, um = up_p[i], up_m[i]
            c, d, f = ymy[i], gmy[i], gmg[i]
            schur = c - _div(d * d, f)
            lp = _lower2(a[0][i], b[0][i], c, d, f, schur)
            lm = _lower2(a[1][i], b[1][i], c, d, f, schur)
        up2, um2 = up * up, um * um
        bound_low = first + 0.25 * lp - 0.25 * um2
        bound_high = first + 0.25 * up2 - 0.25 * lm
        if use_gamma:
            # eta2 split: since ||P z||^2 = sum_i (P z)_i ((E_a - E_ac) z)_i, the
            # plain bond terms sum to (npy^2 + npg^2) / 2; weighting the halves
            # by gamma = npg / npy and 1 / gamma makes each sum npy npg / 2
            if sig is None:
                flags.append("gamma-degenerate")
            else:
                gamma = npg[i] / npy[i]
            weighted = abs(first) + 0.5 * gamma * (npy[i] * npy[i]) + 0.5 / gamma * (npg[i] * npg[i])
        # a model that differs has a nonzero error: a value below the normal
        # floats has lost its digits to underflow.  Above them, Q(e) and g . R
        # each carry a round-off of a few ulps of sum |g_i R_i|, which decides
        # on which side of a bound within it Q(e) falls: where no term moves
        # the bounds by one ulp of the first term they collapse onto it, and
        # a term is at the floor in a sandwich narrower than that round-off,
        # in lower terms whose Schur complement cancelled, and where one
        # sign's terms are below it on a chain of at most four free atoms (y
        # and g may span the error there, so the other sign's lower term is
        # exact and Q(e) sits on the end of the sandwich it sets)
        small = min(abs(first), npy[i] * npg[i], abs(bound_low), abs(bound_high))
        if differs[i] and small < _TINY:
            flags.append("underflow")
        elif sig is not None:
            floor = _FLOOR_ULPS * math.ulp(gr_abs[i])
            if (
                bound_high - bound_low <= floor
                or 0.0 < schur <= _SCHUR_REL * c < math.inf
                or (few and 0.25 * min(max(lp, up2), max(lm, um2)) <= floor)
            ):
                collapsed = 0.25 * max(lp, lm, up2, um2) < math.ulp(first)
                flags.append("bounds-collapsed" if collapsed else "term-at-floor")
        reports.append(
            EstimatorReport(
                m=ref.params.m,
                m_window=ref.window.m,
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
                eta2_weighted=weighted,
                flags=tuple(flags),
                pair=pair,
                row=i,
                gamma=gamma,
            )
        )
    return reports


def estimate(pair: DualPair, use_gamma: bool = False) -> EstimatorReport:
    """Run the full eta1 + eta2 pipeline on a solved primal/dual pair of one
    region (see ``estimate_stack``)."""
    _one_region(pair, "estimate_stack")
    return estimate_stack(pair, use_gamma)[0]


def exact_goal_errors(pair: DualPair) -> Array:
    """Q(e) of every row of a stack.

    This is what the estimators are judged against: the exact CLI modes
    report it, the adaptive loop never needs it.  The error solves M_a e =
    R(y), so Q(e) = Q . M_a^{-1} R(y) = g_a . R(y) with the atomistic dual
    solution g_a = M_a^{-1} Q, which depends on the chain alone
    (``Reference.dual``): one dot product over the core per row, plus the
    exterior's closed form times the edge values of u.  Because
    ``solve_stacks`` forms R(y) from the model difference (E_a - E_ac)
    applied to the blended solution, it carries no backward error of the
    blended solve, so Q(e) keeps full relative accuracy when it is many
    orders smaller than the displacements.
    """
    ga, far = pair.ref.dual
    n = len(ga)
    q = rowdot(pair.residual_primal[..., :n], ga)
    q += far * (pair.u_free[..., n + 2] - pair.u_free[..., n])
    return q


def exact_goal_error(
    params: ChainParams, part: Partition, pair: DualPair | None = None
) -> tuple[float, Array]:
    """(Q(e), e) of one region: Q(e) as ``exact_goal_errors`` forms it, and
    the error e on the free atoms of the window, which solves the window's
    atomistic system ``M_a`` with the primal residual over the window: the
    core's, and past it the edge values of u times the exterior's profile.
    A given ``pair`` must have been solved for ``params`` and ``part``."""
    if pair is None:
        pair = solve_dual_pair(params, part)
    _one_region(pair, "exact_goal_errors")
    same = np.array_equal(pair.parts[0].atomistic, part.atomistic)
    if not same or pair.ref.params != params:
        raise ValueError("pair was not solved for this chain and region")
    res = _profiles(pair.ref, pair.ref.off)[0][1]
    (left, right), core = pair.u_free[0, -4::2], pair.residual_primal[0, :-4]
    e = banded.solve(pair.ref.ma_factor, np.concatenate([left * res[::-1], core, right * res]))
    return float(exact_goal_errors(pair)[0]), e
