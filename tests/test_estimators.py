"""Dual solves, the two error estimates, and their frozen reference values."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcfk import banded, estimators, model
from qcfk.banded import BandedSpdMatrix
from qcfk.model import (
    A0_MAX,
    ChainParams,
    Partition,
    assemble,
    interval_partition,
    make_partition,
    reduce_system,
)
from qcfk.estimators import (
    EstimatorReport,
    estimate,
    eta_upp,
    estimate_stack,
    exact_goal_error,
    exact_goal_errors,
    solve_dual_pair,
    solve_stacks,
)
from qcfk.adaptivity import AdaptConfig, fixed_k_run, fixed_k_runs, run_adaptive
from qcfk.cli import TABLE2_K

from oracle_dense import (
    EXTERIOR,
    atomistic,
    blended_bonds,
    dual_errors,
    ediff,
    enorm,
    goal,
    goal_vector,
    hessian_bands,
    lemma1_check,
    ma_products,
    on_window,
    primal_load,
    projections,
    theta_lower_terms,
    to_dense,
    two_pass_reference,
    window,
    window_indicators,
    window_pair,
    z_g,
    z_y,
)
from oracle_exact import EXACT, EXACT_ETA1_M100, recompute, sci


# ---------------------------------------------------------------------------
# frozen high-precision values
#
# oracle: tests/oracle_exact.py recomputes the whole pipeline (solves,
# projection, norms, both estimates) with mpmath at 40 significant digits;
# the EXACT table freezes its output to 10 digits.  The residuals are formed
# from the model difference, so no solve round-off enters them and double
# precision keeps full relative accuracy even where |Q(e)| is near 1e-16
# (measured worst case 8.9e-10, |Q(e)| at M = 1000, K = 48).  One relative
# bound, no absolute floor.

REL = 1e-8


def test_fixed_k_values_match_high_precision_oracle():
    for (m, k), (qe, e1, e2) in sorted(EXACT.items()):
        run = fixed_k_run(ChainParams(m=m), k)
        assert abs(abs(run.q_error) - qe) <= REL * qe, (m, k, "q")
        assert abs(run.report.eta1 - e1) <= REL * e1, (m, k, "eta1")
        assert abs(run.report.eta2 - e2) <= REL * e2, (m, k, "eta2")


def test_windowed_oracle_matches_whole_chain_rows():
    # the window mode that froze the M = 1e6 rows reproduces the rows the
    # whole-chain oracle froze at M = 1e4 and 1e5, to all 10 digits
    pytest.importorskip("mpmath")
    for m in (10_000, 100_000):
        for key, row in recompute(m, [0, 28, 32], window=True).items():
            assert tuple(float(sci(v)) for v in row) == EXACT[key], key


def test_eta1_resolves_chain_length_dependence():
    # the oracle distinguishes m = 100 from m = 1000 in digits 7-8; the
    # computed m = 100 value must land on the m = 100 side
    for k, exact_100 in EXACT_ETA1_M100.items():
        got = fixed_k_run(ChainParams(m=100), k, want_exact=False).report.eta1
        exact_1000 = EXACT[(1000, k)][1] if (1000, k) in EXACT else None
        assert abs(got - exact_100) <= REL * exact_100
        if exact_1000 is not None and exact_1000 != exact_100:
            assert abs(got - exact_100) < abs(got - exact_1000)


def test_chains_past_a_float_take_the_limit_of_the_lower_terms():
    # past M ~ 1e102 y . M_a y exceeds a float; it saturates to inf and the
    # lower terms take their limit b^2/f, which the M = 1e6 row already
    # reaches to 10 digits
    qe, e1, e2 = EXACT[(1_000_000, 28)]
    for m in (10**103, 10**150):
        p = ChainParams(m=m)
        part = interval_partition(p, 28)
        pair = solve_dual_pair(p, part)
        assert pair.ref.ymy_far == np.inf and np.all(pair.ymy == np.inf)
        run = fixed_k_run(p, 28)
        rep = run.report
        assert abs(abs(run.q_error) - qe) <= REL * qe
        assert abs(rep.eta1 - e1) <= REL * e1
        assert abs(rep.eta2 - e2) <= REL * e2
        assert rep.bound_low <= run.q_error <= rep.bound_high
        trace = run_adaptive(p, AdaptConfig(tau_gl=1e-10))
        assert trace.status == "converged"
        assert [r.k for r in trace.records] == [0, 28, 32]


def test_estimates_scale_with_the_spacing():
    # every displacement, and so Q(e), eta1, eta2 and both bounds, is linear
    # in a0: the loads take the defect bond's a0 exactly, where differencing
    # the wells would round on every bond
    p = ChainParams(m=100_000)
    for k in (30, 50, 60):
        ref = fixed_k_run(p, k)
        for a0 in (0.1, 0.3, 1e-3, 7.7):
            run = fixed_k_run(ChainParams(m=p.m, a0=a0), k)
            pairs = [(run.q_error, ref.q_error)]
            for name in ("eta1", "eta2", "bound_low", "bound_high"):
                pairs.append((getattr(run.report, name), getattr(ref.report, name)))
            for value, unit in pairs:
                assert abs(value - a0 * unit) <= 1e-13 * abs(a0 * unit), (k, a0)


@pytest.mark.parametrize("springs", [(1.0, 2.0, 2.0), (1.0, 2.0, 0.5), (1.0, 0.02, 2.0)])
@pytest.mark.parametrize("m", [60, 1_000_000])
def test_power_of_two_units_scale_every_output_exactly(springs, m):
    # springs times 4^i and a0 times 2^-i (i even, so that sqrt(a0) scales
    # by a power of two too): Q(e), eta1, eta2, the first term and both
    # bounds scale with a0, the parallelogram terms with sqrt(a0), bit for
    # bit, and the flags and the balanced split's marks stay.  No unit
    # decides a result: the closed-form roots take the springs per unit of a
    # power of two, and sigma is degenerate only where it cannot be formed
    ks = [0, 10, 30]
    base = fixed_k_runs(ChainParams(m, *springs), ks, use_gamma=True)
    linear = ("eta1", "eta2", "first_term", "bound_low", "bound_high", "eta2_weighted")
    roots = ("eta_upp_plus", "eta_upp_minus", "eta_low_plus", "eta_low_minus")
    for i in range(-150, 251, 50):
        c, s = 4.0**i, 2.0**-i
        params = ChainParams(m, *(k * c for k in springs), a0=s)
        for ref, run in zip(base, fixed_k_runs(params, ks, use_gamma=True)):
            rep, want = run.report, ref.report
            assert run.q_error == s * ref.q_error, (i, run.k)
            for name in linear:
                assert getattr(rep, name) == s * getattr(want, name), (i, run.k, name)
            for name in roots:
                assert getattr(rep, name) == 2.0 ** (-i // 2) * getattr(want, name), (i, name)
            assert rep.flags == want.flags, (i, run.k)
            for tau in (1e-6, 1e-12, 1e-18):
                assert np.array_equal(rep.marked(s * tau), want.marked(tau)), (i, run.k, tau)


# ---------------------------------------------------------------------------
# structural identities on small chains


def test_goal_vector_is_defect_bond_difference():
    p = ChainParams(m=6)
    part = interval_partition(p, 0)
    system = reduce_system(p, assemble(p, part))
    g = goal_vector(system.free_index)
    expect = np.zeros(2 * p.m - 4)
    expect[np.searchsorted(system.free_index, 0)] = -1.0
    expect[np.searchsorted(system.free_index, 1)] = 1.0
    assert np.array_equal(g, expect)
    assert g.sum() == 0.0


def test_projection_matches_dense_inverse():
    # oracle: dense solve of E_a (P z) = (E_a - E_ac) z
    p = ChainParams(m=10)
    pair = solve_dual_pair(p, interval_partition(p, 2))
    ea = to_dense(atomistic(pair.ref)[0].e_mat)
    eac = ea - to_dense(BandedSpdMatrix(ediff(pair).bands[0]))
    for z, pz in ((z_y(pair)[0], window(pair, "pz_y")[0]), (z_g(pair)[0], window(pair, "pz_g")[0])):
        dense = z - np.linalg.solve(ea, eac @ z)
        assert np.allclose(pz, dense, atol=1e-12)


def test_seminorm_identity():
    # ||P z||_{E_a}^2 = sum_p (P z)_p ((E_a - E_ac) z)_p
    for (m, k) in [(12, 0), (30, 4), (80, 10)]:
        p = ChainParams(m=m)
        pair = solve_dual_pair(p, interval_partition(p, k))
        for z, pz, nrm in (
            (z_y(pair), window(pair, "pz_y"), pair.npy),
            (z_g(pair), window(pair, "pz_g"), pair.npg),
        ):
            split = float(np.dot(pz[0], banded.matvec(ediff(pair), z)[0]))
            assert np.isclose(nrm[0] ** 2, split, rtol=1e-10, atol=1e-300)


def test_parallelogram_law_for_upper_bounds():
    p = ChainParams(m=60)
    pair = solve_dual_pair(p, interval_partition(p, 6))
    rep = estimate(pair)
    s, npy, npg = rep.sigma_bar, pair.npy[0], pair.npg[0]
    lhs = rep.eta_upp_plus**2 + rep.eta_upp_minus**2
    rhs = 2.0 * (s**2 * npy**2 + npg**2 / s**2)
    assert np.isclose(lhs, rhs, rtol=1e-10)


def test_sigma_opt_minimizes_upper_bound():
    p = ChainParams(m=50)
    pair = solve_dual_pair(p, interval_partition(p, 4))
    rep = estimate(pair)
    s = rep.sigma_bar
    assert np.isclose(s, np.sqrt(pair.npg[0] / pair.npy[0]), rtol=1e-12)
    for sign, best in ((+1, rep.eta_upp_plus), (-1, rep.eta_upp_minus)):
        assert eta_upp(pair, estimators._weights(s, sign))[0] == best
        for f in (0.5, 0.9, 1.1, 2.0):
            assert eta_upp(pair, estimators._weights(s * f, sign))[0] >= best - 1e-15


def test_lower_terms_are_the_best_test_vector_over_span_of_y_and_g():
    # the reference is the paper's form at the stationary theta, with every
    # M_a product by matvec; above the precision floor the two agree to
    # round-off, and no test vector y + theta g on a wide grid does better
    thetas = np.logspace(-3, 9, 400)
    thetas = np.concatenate([-thetas[::-1], [0.0], thetas])
    for (m, k) in [(30, 3), (50, 5), (100, 12), (1000, 10)]:
        p = ChainParams(m=m)
        pair = solve_dual_pair(p, interval_partition(p, k))
        rep = estimate(pair)
        y, g, mat = window(pair, "y_free")[0], window(pair, "g_free")[0], atomistic(pair.ref)[1].mat
        res_y, res_g = (window(pair, n)[0] for n in ("residual_primal", "residual_dual"))
        v = y + thetas[:, None] * g
        nv = np.sqrt(banded.rowdot(v, banded.matvec(mat, v)) + pair.ref.ymy_far)
        lows = (rep.eta_low_plus, rep.eta_low_minus)
        wants = theta_lower_terms(pair, rep.sigma_bar)
        for sign, low, want in zip((1, -1), lows, wants):
            assert low >= 0.0
            assert abs(low - abs(want)) <= 1e-12 * low, (m, k, sign)
            r = rep.sigma_bar * res_y + sign / rep.sigma_bar * res_g
            assert np.max(np.abs(v @ r) / nv) <= low * (1.0 + 1e-12), (m, k, sign)


def test_goal_error_identity():
    # Q(e) = g' R(y) + e_hat' M e, both sides from independent solves
    for (m, k) in [(12, 0), (20, 3), (50, 5)]:
        p = ChainParams(m=m)
        part = interval_partition(p, k)
        pair = solve_dual_pair(p, part)
        qe, e = exact_goal_error(p, part, pair)
        _, e_hat = dual_errors(pair)
        ft = estimate(pair).first_term
        rhs = ft + float(np.dot(e_hat[0], banded.matvec(atomistic(pair.ref)[1].mat, e)))
        scale = max(abs(qe), abs(ft), 1e-300)
        assert abs(qe - rhs) <= 1e-10 * scale


def test_lemma_identity_residual_small():
    for (m, k) in [(10, 2), (50, 5)]:
        p = ChainParams(m=m)
        part = interval_partition(p, k)
        for alpha, beta in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -2.0)]:
            assert lemma1_check(p, part, alpha, beta).ratio <= 1e-9


def test_lemma_identity_at_precision_floor():
    # with the model error at round-off, max|lhs| is itself round-off and
    # the ratio says nothing (it reads up to 0.09 at M = 300, K = 100); the
    # absolute mismatch stays at the round-off of forming E_ac z
    for (m, k) in [(200, 50), (300, 100)]:
        p = ChainParams(m=m)
        part = interval_partition(p, k)
        for alpha, beta in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -2.0)]:
            check = lemma1_check(p, part, alpha, beta)
            assert check.mismatch <= 16 * check.floor, (m, k, alpha, beta)


def _fully_atomistic(p: ChainParams):
    # flag every atom, clamped ones included; interval_partition(k) caps at
    # k = m - 2 and always leaves the boundary atoms blended
    return make_partition(p, atomistic=range(-p.m + 1, p.m + 1))


def test_residuals_vanish_when_model_is_exact():
    # every atom exact: the working model is the reference model
    p = ChainParams(m=12)
    pair = solve_dual_pair(p, _fully_atomistic(p))
    scale = np.max(np.abs(atomistic(pair.ref)[1].rhs_wells))
    assert np.max(np.abs(pair.residual_primal)) <= 1e-12 * scale
    assert np.max(np.abs(pair.residual_dual)) <= 1e-12
    assert pair.npy[0] <= 1e-12 and pair.npg[0] <= 1e-12


def test_interval_partition_keeps_boundary_blended():
    # even at the largest k the clamped atoms stay continuum, so the
    # residual concentrates there instead of vanishing
    p = ChainParams(m=12)
    pair = solve_dual_pair(p, interval_partition(p, p.m - 2))
    res = np.abs(window(pair, "residual_primal"))
    assert res.max() > 1e-3
    assert np.all(res[2:-2] <= 1e-12 * res.max())


def test_fully_atomistic_estimates_collapse_to_roundoff():
    # both residual norms drop to machine noise; sigma stays finite because
    # the norms are comparable, and every output lands at roundoff scale
    p = ChainParams(m=12)
    part = _fully_atomistic(p)
    pair = solve_dual_pair(p, part)
    rep = estimate(pair)
    assert rep.eta1 <= 1e-14
    assert rep.eta2 <= 1e-14
    qe, _ = exact_goal_error(p, part, pair)
    assert abs(qe) <= 1e-12
    assert rep.bound_low - 1e-14 <= qe <= rep.bound_high + 1e-14


def test_zero_residual_pair_takes_degenerate_branch():
    # an exactly consistent model (zero projected residuals) must not divide
    # by zero; the estimate falls back to the first term alone
    p = ChainParams(m=12)
    pair = solve_dual_pair(p, _fully_atomistic(p))
    zero = np.zeros(1)
    rep = estimate(dataclasses.replace(pair, npy=zero, npg=zero))
    assert "sigma-degenerate" in rep.flags
    assert rep.sigma_bar is None
    assert rep.eta1 == abs(rep.first_term)
    assert rep.bound_low == rep.first_term == rep.bound_high
    # one-sided degeneracy triggers the same guard
    rep2 = estimate(dataclasses.replace(pair, npy=zero))
    assert rep2.sigma_bar is None and "sigma-degenerate" in rep2.flags


# ---------------------------------------------------------------------------
# eta2 split and the gamma variant


def test_eta2_split_sums_to_global():
    p = ChainParams(m=100)
    pair = solve_dual_pair(p, interval_partition(p, 8))
    rep = estimate(pair)
    at, el, ft = rep.eta2_at, rep.eta2_el, rep.first_term
    assert rep.eta2_weighted is None and "gamma-degenerate" not in rep.flags
    assert at.shape == (2 * p.m - 4,)
    assert el.shape == (2 * p.m - 1,)
    # |g . R| <= sum at; the signed bond sums recover the squared norms,
    # and taking magnitudes before summing can only grow the total
    assert abs(ft) <= at.sum() + 1e-15
    npy, npg = pair.npy[0], pair.npg[0]
    ely = window(pair, "pz_y") * banded.matvec(ediff(pair), z_y(pair))
    elg = window(pair, "pz_g") * banded.matvec(ediff(pair), z_g(pair))
    assert np.isclose(ely.sum(), npy**2, rtol=1e-10)
    assert np.isclose(elg.sum(), npg**2, rtol=1e-10)
    half_norms = 0.5 * (npy**2 + npg**2)
    assert el.sum() >= half_norms * (1.0 - 1e-12)
    assert rep.eta2 <= abs(ft) + at.sum() + el.sum()


def test_eta2_gamma_rebalances_locals_only():
    p = ChainParams(m=100)
    pair = solve_dual_pair(p, interval_partition(p, 8))
    plain, gam = estimate(pair, use_gamma=False), estimate(pair, use_gamma=True)
    assert "gamma-degenerate" not in gam.flags
    assert gam.eta2 == plain.eta2
    assert np.array_equal(gam.eta2_at, plain.eta2_at)
    npy, npg = pair.npy[0], pair.npg[0]
    assert not np.isclose(npg / npy, 1.0)
    assert not np.allclose(gam.eta2_el, plain.eta2_el)
    # reweighting balances the two halves: the signed sums both land on the
    # product npy*npg, so the magnitude sum dominates it
    assert gam.eta2_el.sum() >= npy * npg * (1.0 - 1e-12)
    # the weighted global equals the plain product bound away from degeneracy
    assert np.isclose(gam.eta2_weighted, gam.eta2, rtol=1e-10)


def test_eta2_gamma_degenerate_flag():
    p = ChainParams(m=10)
    pair = solve_dual_pair(p, _fully_atomistic(p))
    zero = np.zeros(1)
    rep = estimate(dataclasses.replace(pair, npy=zero, npg=zero), use_gamma=True)
    assert "gamma-degenerate" in rep.flags
    assert rep.eta2_weighted is not None and np.isfinite(rep.eta2_weighted)


def test_eta2_total_index_alignment():
    # rebuild the per-atom indicator by explicit id arithmetic: atom i owns
    # its at-term plus half of bonds (i-1, i) and (i, i+1)
    p = ChainParams(m=8)
    pair = solve_dual_pair(p, interval_partition(p, 2))
    rep = estimate(pair)
    tot = rep.eta2_total()
    at = {i: v for i, v in zip(range(-p.m + 3, p.m - 1), rep.eta2_at)}
    el = {i: v for i, v in zip(range(-p.m + 1, p.m), rep.eta2_el)}
    for pos, i in enumerate(range(-p.m + 3, p.m - 1)):
        expect = at[i] + 0.5 * (el[i - 1] + el[i])
        assert np.isclose(tot[pos], expect, rtol=1e-14), i


# ---------------------------------------------------------------------------
# ordering relations and report plumbing


def test_bound_sandwich_and_orderings():
    for (m, k) in [(100, 5), (200, 10), (1000, 20)]:
        run = fixed_k_run(ChainParams(m=m), k)
        rep, qe = run.report, run.q_error
        assert rep.bound_low <= qe <= rep.bound_high
        assert abs(qe) <= rep.eta1
        assert abs(qe) <= rep.eta2
        assert rep.eta2 <= abs(rep.first_term) + rep.eta2_at.sum() + rep.eta2_el.sum() + 1e-18
        assert rep.eta1 <= rep.eta2


@st.composite
def _chains(draw):
    """Random springs and chain size with an interval or scattered partition."""
    m = draw(st.integers(3, 80))
    params = ChainParams(
        m=m,
        k0=draw(st.floats(0.2, 3.0)),
        k1=draw(st.floats(0.5, 5.0)),
        k2=draw(st.floats(0.0, 4.0)),
    )
    if draw(st.booleans()):
        return params, interval_partition(params, draw(st.integers(0, m - 2)))
    flags = draw(st.lists(st.booleans(), min_size=2 * m, max_size=2 * m))
    atoms = np.arange(-m + 1, m + 1)[np.array(flags, dtype=bool)]
    return params, make_partition(params, atomistic=atoms)


_COLLAPSED = ChainParams(m=8, k0=1, k1=1, k2=1.175494351e-38)
# the flags that say why a sandwich may miss Q(e) by round-off, and the most
# it may miss by: ulps of the largest of sum |g_i R_i| and eta2
_ROUND_OFF_FLAGS = {"bounds-collapsed", "term-at-floor", "sigma-degenerate", "underflow"}
_MISS_ULPS = 64


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_chains())
# k2 near 0: the parallelogram terms are O(k2^2), below one ulp of the first
# term, so the bounds collapse onto it: Q(e) = 1.901120391131036e-40 and
# bound_low = bound_high = 1.901120391131038e-40
@example((_COLLAPSED, make_partition(_COLLAPSED)))
def test_sandwich_and_eta2_bound_hold_for_random_chains(case):
    # every draw: the sandwich and |Q(e)| <= eta2 hold, or a flag says why
    # they may miss by round-off, and then by a few ulps alone
    params, part = case
    pair = solve_dual_pair(params, part)
    rep = estimate(pair)
    qe, _ = exact_goal_error(params, part, pair)
    miss = max(rep.bound_low - qe, qe - rep.bound_high, abs(qe) - rep.eta2)
    if miss > 0.0:
        assert _ROUND_OFF_FLAGS & set(rep.flags), (qe, rep)
        scale = max(rep.eta2_at.sum(), rep.eta2)
        assert miss <= _MISS_ULPS * np.spacing(scale), (qe, rep)


@st.composite
def _valid_box(draw):
    """The whole input box: springs log-uniform over
    1e-300 .. 1e300 (k2 also 0), a0 log-uniform up to A0_MAX, M up to
    10**150, and an interval region of up to 20 atoms a side."""
    spring = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    k0, k1 = draw(spring), draw(spring)
    k2 = draw(st.one_of(st.just(0.0), spring))
    a0 = 10.0 ** draw(st.floats(-300.0, math.log10(A0_MAX)))
    m = draw(st.integers(3, 10**150))
    return m, (k0, k1, k2), a0, draw(st.integers(0, 20))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_valid_box())
# k2/k1 past K2_K1_MAX, an energy scale past ENERGY_MAX, a decay too slow
# to resolve on a chain longer than it, and the largest spring and spacing
@example((10, (1.0, 1.0, 1e16), 1.0, 2))
@example((1000, (1e253, 1e250, 1e250), 1e25, 3))
@example((10**40, (1e-40, 1.0, 1.0), 1.0, 3))
@example((10**9, (1.0, 1e300, 2.0), 1.0, 5))
@example((10**150, (1.0, 2.0, 2.0), A0_MAX, 20))
def test_every_valid_input_computes_or_is_rejected_where_it_enters(case):
    # each draw raises ValueError from ChainParams, or its sizes are those of
    # a solve; a small core is solved, and then every result is finite and
    # the sandwich holds or a flag says why not.  Any other exception fails
    m, (k0, k1, k2), a0, k = case
    try:
        params = ChainParams(m=m, k0=k0, k1=k1, k2=k2, a0=a0)
    except ValueError:
        return
    part = interval_partition(params, min(k, m - 2))
    m_window, m_core = model.sizes(params, part)
    assert 3 <= m_core <= m_window <= m
    if m_core > 200:  # a long chain that is its own window: sizes alone
        return
    pair = solve_dual_pair(params, part)
    (qe,) = exact_goal_errors(pair)
    for rep in (estimate(pair), estimate(pair, use_gamma=True)):
        values = [qe, rep.eta1, rep.eta2, rep.first_term, rep.bound_low, rep.bound_high]
        values += [rep.eta_upp_plus, rep.eta_upp_minus, rep.eta_low_plus, rep.eta_low_minus]
        values += [rep.eta2_weighted] if rep.eta2_weighted is not None else []
        assert all(map(math.isfinite, values)), rep
        holds = rep.bound_low <= qe <= rep.bound_high and abs(qe) <= rep.eta2
        assert holds or _ROUND_OFF_FLAGS & set(rep.flags), (qe, rep)


EPS = np.finfo(float).eps


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_chains())
@example((ChainParams(m=100_000), interval_partition(ChainParams(m=100_000), 28)))
@example(
    (
        ChainParams(m=5000, k0=0.2, k1=5.0, k2=4.0),
        make_partition(ChainParams(m=5000), atomistic=[-40, -3, 0, 1, 2, 9, 77]),
    )
)
def test_model_difference_products_match_direct_forms(case):
    # the library forms P z = E_a^-1 ez, ||P z||^2 = P z . ez, the upper
    # terms from the ez combination and the M_a products from the residuals;
    # the oracle takes z - E_a^-1 E_ac z and matvecs with E_a and M_a.  They
    # agree to round-off: two solves with E_a (condition number at most
    # 1 + 4 k2 / k1) for P z, its E_a norm (|E_a| <= 4 max|band|) for the
    # norms, and a few ulps per matvec entry plus a pairwise-summed dot
    # product for the M_a products.
    params, part = case
    pair = solve_dual_pair(params, part)
    amodel, asys = atomistic(pair.ref)
    ea = amodel.e_mat
    cond = 1.0 + 4.0 * params.k2 / params.k1
    grow = np.sqrt(4.0 * np.abs(ea.bands).max() * ea.n)
    zs = (z_y(pair), z_g(pair))
    pzs = (window(pair, "pz_y"), window(pair, "pz_g"))
    for z, pz, pz_direct, nrm in zip(zs, pzs, projections(pair), (pair.npy, pair.npg)):
        tol = 8.0 * EPS * cond * np.abs(z).max()
        assert np.abs(pz - pz_direct).max() <= tol
        assert abs(nrm[0] - enorm(ea, pz_direct)[0]) <= grow * tol
    rep = estimate(pair)
    if rep.sigma_bar is not None:
        s = rep.sigma_bar
        py, pg = projections(pair)
        tol = 8.0 * EPS * cond * (s * np.abs(zs[0]).max() + np.abs(zs[1]).max() / s)
        for sign, got in ((1, rep.eta_upp_plus), (-1, rep.eta_upp_minus)):
            assert abs(got - enorm(ea, s * py + sign / s * pg)[0]) <= grow * tol
    abs_ma = BandedSpdMatrix(np.abs(asys.mat.bands))
    y, g = np.abs(window(pair, "y_free")), np.abs(window(pair, "g_free"))
    n = y.shape[-1]
    for got, direct, (a, b) in zip(
        (pair.ymy, pair.gmy, pair.gmg), ma_products(pair), ((y, y), (g, y), (g, g))
    ):
        scale = banded.rowdot(a, banded.matvec(abs_ma, b))
        assert abs(got[0] - direct[0]) <= (8.0 + np.log2(n)) * EPS * scale[0]


@pytest.mark.parametrize(
    "springs, m, k",
    [
        ((0.748, 3.139, 2.496), 40, 16),
        ((0.755, 4.207, 1.024), 1000, 29),
        ((2.52, 1.752, 2.43), 1000, 3),
        ((1.542, 3.441, 2.463), 40, 24),
    ],
)
def test_bounds_and_weighted_sum_square_by_products(springs, m, k):
    # the squares of the upper terms and of the norms are products, which
    # are correctly rounded; on these rows libm's pow, behind x**2, moved
    # bound_low, bound_high or eta2_weighted by one ulp (glibc 2.36)
    params = ChainParams(m, *springs)
    pair = solve_dual_pair(params, interval_partition(params, k))
    rep = estimate(pair, use_gamma=True)
    weights = estimators._weights(rep.sigma_bar, estimators._SIGNS)
    r = estimators._combo(weights, pair.residual_primal, pair.residual_dual)
    a = banded.rowdot(r, pair.u_free + pair.ref.wells)[:, 0].tolist()
    b = banded.rowdot(r, pair.g_free)[:, 0].tolist()
    c, d, f = float(pair.ymy[0]), float(pair.gmy[0]), float(pair.gmg[0])
    lp, lm = (estimators._lower2(x, y, c, d, f, c - d * d / f) for x, y in zip(a, b))
    assert (rep.eta_low_plus, rep.eta_low_minus) == (math.sqrt(lp), math.sqrt(lm))
    up, um, first = rep.eta_upp_plus, rep.eta_upp_minus, rep.first_term
    assert rep.bound_low == first + 0.25 * lp - 0.25 * (um * um)
    assert rep.bound_high == first + 0.25 * (up * up) - 0.25 * lm
    npy, npg = float(pair.npy[0]), float(pair.npg[0])
    gamma = npg / npy
    assert rep.eta2_weighted == abs(first) + 0.5 * gamma * (npy * npy) + 0.5 / gamma * (npg * npg)


def test_eta1_equals_worse_signed_combination():
    # no clamp: each end of the sandwich is the first term plus a quarter of
    # one squared parallelogram term less a quarter of the other, and eta1 is
    # the end of larger magnitude
    for (m, k) in [(100, 0), (100, 6), (1000, 28)]:
        p = ChainParams(m=m)
        rep = estimate(solve_dual_pair(p, interval_partition(p, k)))
        ft, up, um = rep.first_term, rep.eta_upp_plus, rep.eta_upp_minus
        lp, lm = rep.eta_low_plus, rep.eta_low_minus
        # the bounds square the lower terms before their square roots are
        # reported, so the reported ones give them back to a few ulps
        tol = 4.0 * EPS * (abs(ft) + max(up, um, lp, lm) ** 2)
        assert abs(rep.bound_low - (ft + 0.25 * lp**2 - 0.25 * um**2)) <= tol
        assert abs(rep.bound_high - (ft + 0.25 * up**2 - 0.25 * lm**2)) <= tol
        assert rep.eta1 == max(abs(rep.bound_low), abs(rep.bound_high))


def _report_from_dict(d: dict) -> EstimatorReport:
    # a report read back holds no pair: its split is the one it was written with
    split = tuple(np.asarray(d.pop(key), dtype=float) for key in ("eta2_at", "eta2_el"))
    back = EstimatorReport(**{**d, "flags": tuple(d["flags"])}, pair=None, row=0, gamma=1.0)
    vars(back)["_eta2_split"] = split
    return back


def test_report_json_round_trip():
    p = ChainParams(m=40)
    pair = solve_dual_pair(p, interval_partition(p, 4))
    for use_gamma in (False, True):
        rep = estimate(pair, use_gamma=use_gamma)
        back = _report_from_dict(json.loads(rep.to_json()))
        assert back.m == rep.m
        assert back.eta1 == rep.eta1
        assert back.eta2 == rep.eta2
        assert back.first_term == rep.first_term
        assert back.sigma_bar == rep.sigma_bar
        assert back.eta_upp_plus == rep.eta_upp_plus
        assert back.eta_upp_minus == rep.eta_upp_minus
        assert back.eta_low_plus == rep.eta_low_plus
        assert back.eta_low_minus == rep.eta_low_minus
        assert back.bound_low == rep.bound_low
        assert back.bound_high == rep.bound_high
        assert back.eta2_weighted == rep.eta2_weighted
        assert back.flags == rep.flags
        assert np.array_equal(back.eta2_at, rep.eta2_at)
        assert np.array_equal(back.eta2_el, rep.eta2_el)


def test_exact_goal_error_matches_dual_errors():
    p = ChainParams(m=30)
    part = interval_partition(p, 3)
    pair = solve_dual_pair(p, part)
    qe, e = exact_goal_error(p, part, pair)
    assert np.isclose(np.dot(goal(pair.ref), e), qe)
    # both oracles solve with the same M_a factor
    e2, _ = dual_errors(pair)
    assert np.array_equal(e, e2[0])
    # standalone call agrees
    qe2, _ = exact_goal_error(p, part)
    assert np.isclose(qe, qe2, rtol=1e-12)


# ---------------------------------------------------------------------------
# the per-chain atomistic reference


def test_regions_of_one_window_share_its_reference():
    # at M = 1e5 the window is far shorter than the chain, and K = 250
    # outgrows the window the smaller regions share; at M = 40 the window is
    # the chain itself
    for m, ks in ((40, (0, 3, 9)), (100_000, (0, 28, 50, 250))):
        p = ChainParams(m=m)
        refs = {}
        for k in ks:
            part = interval_partition(p, k)
            ref = solve_dual_pair(p, part).ref
            size = model.sizes(p, part)
            assert (ref.window.m, ref.core.m) == size
            assert refs.setdefault(size, ref) is ref
            assert (ref.window is p) == (size[0] == m)
        assert len(refs) == (1 if m == 40 else 2)


def _arrays(obj):
    """Every array of a dataclass and of the dataclasses it holds."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, np.ndarray):
            yield f.name, value
        elif dataclasses.is_dataclass(value):
            yield from _arrays(value)


def test_reference_arrays_are_read_only():
    # a reference with an exterior, and a chain that is its own core; the
    # window's M_a factor and the dual are built on first use
    for m in (100_000, 40):
        p = ChainParams(m=m)
        ref = solve_dual_pair(p, interval_partition(p, 10)).ref
        assert bool(ref.off) == (m > 40)
        arrays = [*_arrays(ref), ("ma_factor", ref.ma_factor.bands), ("dual", ref.dual[0])]
        assert len(arrays) == 13 and all(a.size for _, a in arrays)
        for name, a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0.0
            assert not a.flags.writeable, (m, name)


def test_cold_and_warm_references_give_the_same_bits():
    # the warm reference served another region first, exact error included
    p = ChainParams(m=100_000, k0=0.7, k2=1.5)
    other, part = interval_partition(p, 30), make_partition(p, [-20, 0, 1, 7])
    estimators._REFERENCES.clear()
    first = solve_dual_pair(p, other)
    exact_goal_error(p, other, first)
    warm = solve_dual_pair(p, part)
    assert warm.ref is first.ref and "ma_factor" in vars(warm.ref)
    estimators._REFERENCES.clear()
    cold = solve_dual_pair(p, part)
    assert warm.ref is not cold.ref
    for f in dataclasses.fields(cold):
        if f.name not in ("ref", "parts"):
            assert np.array_equal(getattr(warm, f.name), getattr(cold, f.name)), f.name
    for gamma in (False, True):
        assert estimate(warm, gamma).as_dict() == estimate(cold, gamma).as_dict()
    q_warm, e_warm = exact_goal_error(p, part, warm)
    q_cold, e_cold = exact_goal_error(p, part, cold)
    assert q_warm == q_cold and np.array_equal(e_warm, e_cold)


def test_reference_memo_holds_one_and_keeps_none_alive():
    p = ChainParams(m=100_000)
    pairs = []
    # windows 360, 360, 424, 808, 360, 1320: only the last one built is
    # found, so the return to 360 builds it anew
    for k in (0, 10, 100, 300, 50, 700):
        pairs.append(solve_dual_pair(p, interval_partition(p, k)))
        (kept,) = estimators._REFERENCES.values()
        assert kept is pairs[-1].ref
    refs = [pair.ref for pair in pairs]
    assert refs[1] is refs[0] and len({id(ref) for ref in refs}) == 5
    # a run that holds no pair leaves no reference behind
    del pairs, refs, kept
    assert len(estimators._REFERENCES) == 0
    fixed_k_run(p, 20)
    assert len(estimators._REFERENCES) == 0


@st.composite
def _reference_keys(draw):
    """A chain with springs from the moderate box (k0 and k2 1e-3 .. 10, k1
    and a0 0.1 .. 10, log-uniform), M from 4 to 1e9, now and then clamps
    off the wells, and the window and core of a drawn region, or the same
    window with a core 0 or 1 atom shorter at each end."""
    box = lambda lo, hi: st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)
    k0, k1, k2, a0 = draw(box(1e-3, 10.0)), draw(box(0.1, 10.0)), draw(box(1e-3, 10.0)), draw(box(0.1, 10.0))
    m = draw(st.integers(4, 10**9))
    bc = None
    if m <= 2000 and draw(st.booleans()):
        bc = tuple(x + draw(st.floats(-0.5, 0.5)) for x in model._default_bc(m, a0))
    params = ChainParams(m=m, k0=k0, k1=k1, k2=k2, a0=a0, bc=bc)
    span = draw(st.integers(0, min(m - 2, 300)))
    ids = draw(st.lists(st.integers(1 - span, span), max_size=8)) if span else []
    m_window, m_core = model.sizes(params, make_partition(params, ids))
    off = draw(st.sampled_from([None, 0, 1]))
    if off is not None and m_window - off >= 3:
        m_core = m_window - off
    return params, m_window, m_core


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_reference_keys())
@example((ChainParams(m=2000), 360, 69))
@example((ChainParams(m=100_000, k0=0.7, a0=0.3), 424, 133))
@example((ChainParams(m=100_000, k0=0.7, a0=0.3), 424, 423))
@example((ChainParams(m=100_000, k0=0.7, a0=0.3), 424, 424))
@example((ChainParams(m=40, a0=3.0, bc=(-121.0, -116.5, 117.0, 120.2)), 40, 40))
def test_the_one_pass_reference_has_the_bits_of_the_two_pass_one(key):
    # every field: floats equal, arrays of the same shape and bytes and
    # read-only, band matrices and factors by their bands
    ref, want = estimators._reference(*key), two_pass_reference(*key)
    for f in dataclasses.fields(ref):
        got, expected = getattr(ref, f.name), getattr(want, f.name)
        if isinstance(expected, (banded.BandedSpdMatrix, banded.BandedFactor)):
            got, expected = got.bands, expected.bands
        if isinstance(expected, np.ndarray):
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), f.name
            assert not got.flags.writeable, f.name
        else:
            assert got == expected, f.name


def test_the_closed_forms_take_the_profiles_powers():
    # u past a unit edge value, d = 1 .. n atoms out, is the head of edge3
    # and then the profile from d = 3 on; edge3 and the exterior sums over
    # d >= 3 take mu^2, mu^3 and mu^4 from it bit for bit
    rng = np.random.default_rng(31)
    for _ in range(60):
        params = ChainParams(
            m=int(10 ** rng.uniform(4, 9)),
            k0=10 ** rng.uniform(-3, 1),
            k1=10 ** rng.uniform(-1, 1),
            k2=10 ** rng.uniform(-2, 1),
            a0=rng.uniform(0.3, 3.0),
        )
        ref = estimators._reference(params, *model.sizes(params, interval_partition(params, 8)))
        assert ref.off >= 2
        mu, q, c, lam, a0, k0 = ref.mu, ref.q, ref.c, ref.lam, params.a0, params.k0
        u = np.concatenate([ref.edge3[:2], estimators._profiles(ref, 8)[0][0]])
        assert u.tolist() == np.power(mu, np.arange(1.0, 9.0)).tolist()
        assert ref.edge3.tolist() == u[:3].tolist()
        x = (ref.core.m - 2) * q + 3.0 - 2.0 * mu
        g, db = q * c * u[3] / (1.0 + mu), a0 * u[2] * x / (q * q)
        lam_mu = lam * mu / (1.0 - lam * mu)
        pc = estimators._particular(params, mu, q * c)
        k1_ = -q * c * pc * (u[1] / (q * (1.0 + mu)) - lam_mu)
        assert ref.ext_res[:, 0].tolist() == [g, g]
        assert ref.fa[-4::2].tolist() == [-k0 * db, k0 * db]
        assert ref.ext_pz[:, 0].tolist() == [k1_, k1_]


def test_a_power_has_the_same_bits_in_every_array():
    # the sums' four powers of a scalar base are the head of every longer
    # profile, and the dual's two roots, raised as two rows, are the rows
    # raised alone: over 1e5 random mu in (0, 1) and z in (-1, 0)
    rng = np.random.default_rng(32)
    mu = rng.uniform(0.0, 1.0, 100_000)
    short = np.array([np.power(m, (1.0, 2.0, 3.0, 4.0)) for m in mu.tolist()])
    assert np.array_equal(short, np.power(mu[:, None], np.arange(1.0, 65.0))[:, :4])
    for m, n, z in zip(mu[:2000].tolist(), rng.integers(4, 400, 2000).tolist(), -mu[-2000:]):
        j = np.arange(1.0, n + 1)
        assert np.array_equal(np.power(m, j)[:4], np.power(m, (1.0, 2.0, 3.0, 4.0)))
        assert np.array_equal(np.power([[m], [z]], j), [np.power(m, j), np.power(z, j)])


def test_exact_goal_error_rejects_a_pair_of_another_region():
    p = ChainParams(m=1000)
    pair = solve_dual_pair(p, interval_partition(p, 10))
    soft = ChainParams(m=1000, k0=0.5)
    for params, k in ((p, 20), (soft, 10)):
        with pytest.raises(ValueError, match="not solved for this chain and region"):
            exact_goal_error(params, interval_partition(params, k), pair)
    # an equal chain and region, built anew, is the same problem
    same = make_partition(ChainParams(m=1000), range(-9, 11))
    want, _ = exact_goal_error(p, interval_partition(p, 10))
    assert exact_goal_error(ChainParams(m=1000), same, pair)[0] == want


def test_one_region_functions_reject_a_stack():
    p = ChainParams(m=40)
    parts = [interval_partition(p, k) for k in (2, 5)]
    ((_, stack),) = solve_stacks(p, parts)
    assert len(stack.parts) == 2
    with pytest.raises(ValueError, match="estimate_stack"):
        estimate(stack)
    with pytest.raises(ValueError, match="exact_goal_errors"):
        exact_goal_error(p, parts[0], stack)


def test_reference_and_pair_are_frozen():
    p = ChainParams(m=12)
    pair = solve_dual_pair(p, interval_partition(p, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.npy = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.ref.goal_frame = None


def test_the_particular_solution_takes_a_subnormal_decay():
    # k0 at the largest float over k12 = 1 decays past the exterior's first
    # atom by a subnormal mu, whose inverse is inf: with k2 = 0 the
    # particular solution is -rho/k1, and the exterior values stay finite
    p = ChainParams(m=1000, k0=np.finfo(float).max, k1=1.0, k2=0.0, a0=1e-5)
    ref = estimators._reference(p, 60, 50)
    assert 0.0 < ref.mu < np.finfo(float).tiny
    assert estimators._particular(p, ref.mu, 3.0) == -3.0
    assert all(np.isfinite(a).all() for a in estimators._profiles(ref, 8))
    assert all(np.isfinite(a).all() for a in (ref.rim, ref.ext_pz, ref.ext_res))


def test_y_ma_y_past_the_floats_saturates_to_inf_without_a_warning():
    # k0 a0^2 M^3 past the largest float on a chain that is its own core (a
    # non-default bc): y . M_a y is inf, no warning is raised (every warning
    # is an error here), and the report keeps the first term alone
    p = ChainParams(m=2000, k0=1e299, k1=1, k2=1, bc=(-2000.25, -1999.25, 1999.25, 2000.25))
    pair = solve_dual_pair(p, interval_partition(p, 10))
    assert pair.ymy[0] == math.inf
    assert set(estimate(pair).flags) == {"sigma-degenerate", "underflow"}


def test_off_well_flag():
    # clamps two spacings further out on each side pull atoms past a0/2
    p = ChainParams(m=50, bc=(-52.0, -51.0, 51.0, 52.0))
    pair = solve_dual_pair(p, interval_partition(p, 4))
    assert np.max(np.abs(pair.u_free)) > 0.5 * p.a0
    assert "off-well" in estimate(pair).flags
    # the default chain stays inside its wells (max |u| = 0.40)
    p = ChainParams(m=50)
    pair = solve_dual_pair(p, interval_partition(p, 4))
    assert np.max(np.abs(pair.u_free)) <= 0.5 * p.a0
    assert "off-well" not in estimate(pair).flags


def test_underflow_flag():
    # at K = 4096 the model error at the interfaces lies below the smallest
    # float: the residuals, the first term and both bounds come out exactly
    # 0.0, and the report says so instead of reporting a zero error
    p = ChainParams(m=10**6)
    rep = fixed_k_run(p, 4096, want_exact=False).report
    assert rep.eta1 == 0.0 and "underflow" in rep.flags
    # a model that is exact has a zero error, and no flag
    q = ChainParams(m=12)
    exact = estimate(solve_dual_pair(q, _fully_atomistic(q)))
    assert exact.eta1 <= 1e-14 and "underflow" not in exact.flags
    assert "underflow" not in fixed_k_run(p, 28).report.flags


@st.composite
def _long_chains(draw):
    """The property-test springs on chains up to M = 1e5, with an interval or
    a scattered region near the defect."""
    decade = draw(st.integers(1, 5))
    m = draw(st.integers(max(3, 10 ** (decade - 1)), 10**decade))
    params = ChainParams(
        m=m,
        k0=draw(st.floats(0.2, 3.0)),
        k1=draw(st.floats(0.5, 5.0)),
        k2=draw(st.floats(0.0, 4.0)),
    )
    if draw(st.booleans()):
        return params, interval_partition(params, draw(st.integers(0, min(m - 2, 400))))
    near = st.integers(max(-m + 1, -300), min(m, 300))
    return params, make_partition(params, atomistic=draw(st.lists(near, max_size=40)))


def _quantities(params, part):
    pair = solve_dual_pair(params, part)
    rep = estimate(pair)
    qe, _ = exact_goal_error(params, part, pair)
    values = (qe, rep.eta2, rep.first_term, rep.eta1, rep.bound_low, rep.bound_high)
    return rep.m_window, values


# the slowest atomistic decay the ranges allow, and springs whose slowest
# decay is the bond matrix E_a's
_SLOWEST = ChainParams(m=100_000, k0=0.2, k1=5.0, k2=4.0)
_STIFF_NNN = ChainParams(m=100_000, k0=3.0, k1=0.5, k2=4.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_long_chains())
@example((_SLOWEST, interval_partition(_SLOWEST, 400)))
@example((_SLOWEST, make_partition(_SLOWEST, atomistic=[-300, -7, 0, 2, 299])))
@example((_STIFF_NNN, interval_partition(_STIFF_NNN, 30)))
def test_window_matches_whole_chain(case):
    # the whole chain is the window's degenerate case: the same functions
    # with the window rule replaced by "the chain itself"
    params, part = case
    m_window, windowed = _quantities(params, part)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "sizes", lambda params, parts: [(params.m,) * 2] * len(parts))
        m_whole, whole = _quantities(params, part)
    assert m_window <= m_whole == params.m
    for name, got, want in zip(
        ("q", "eta2", "first_term", "eta1", "bound_low", "bound_high"), windowed, whole
    ):
        assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)


@st.composite
def _core_cases(draw):
    """Springs of the property box on a chain that is its own window or far
    longer, with a region that reaches the padded span at one end, at
    both, or neither."""
    params = ChainParams(
        m=draw(st.sampled_from([40, 300, 100_000])),
        k0=draw(st.floats(0.2, 3.0)),
        k1=draw(st.floats(0.5, 5.0)),
        k2=draw(st.floats(0.0, 4.0)),
    )
    pad = min(2 ** draw(st.integers(6, 8)), params.m - 2)
    ids = draw(st.lists(st.integers(-pad + 1, pad - 1), max_size=20))
    reach = draw(st.sampled_from([(-pad,), (pad,), (-pad, pad), ()]))
    if not reach and draw(st.booleans()):
        return params, interval_partition(params, draw(st.integers(0, pad)))
    return params, make_partition(params, atomistic=[*ids, *reach])


_DEFAULT_1E5 = ChainParams(m=100_000)
_SLOW_K0 = ChainParams(m=100_000, k0=1e-3)


def _close(got, want, scale, name):
    err = np.max(np.abs(np.subtract(got, want)), initial=0.0)
    assert err <= 1e-9 * scale, (name, err, scale)


_PAIR_SCALARS = ("npy", "npg", "ymy", "gmy", "gmg")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_core_cases())
@example((_DEFAULT_1E5, interval_partition(_DEFAULT_1E5, 64)))
@example((_DEFAULT_1E5, make_partition(_DEFAULT_1E5, atomistic=range(-64, 65))))
@example((_SLOW_K0, make_partition(_SLOW_K0, atomistic=[-64, 0, 64])))
@example((_SLOW_K0, interval_partition(_SLOW_K0, 64)))
@example((_SLOW_K0, interval_partition(_SLOW_K0, 65)))
def test_core_solve_matches_whole_window_solve(case):
    # the folded exterior is exact: the core's fields, extended over the
    # window in closed form, and every product are what solving the blended
    # model on the whole window gives, up to round-off
    params, part = case
    got = solve_dual_pair(params, part)
    want = window_pair(got.ref, [part])
    for name in EXTERIOR:
        ref_value = window(want, name)
        _close(window(got, name), ref_value, np.max(np.abs(ref_value)), name)
    for name in _PAIR_SCALARS:
        ref_value = getattr(want, name)
        _close(getattr(got, name), ref_value, np.max(np.abs(ref_value)), name)
    assert np.array_equal(got.differs, want.differs)
    for gamma in (False, True):
        have, expect = estimate(got, gamma).as_dict(), estimate(want, gamma).as_dict()
        assert have.keys() == expect.keys()
        # the parallelogram terms enter the bounds squared: they are compared
        # on the scale of the largest of them, the bounds on that of eta2.
        # at K = 65 on the slow substrate the + lower term sits at the
        # precision floor (5e-20 against 3e-3), and on that scale it agrees
        terms = [k for k in expect if k.startswith(("eta_upp", "eta_low"))]
        term_scale = max(abs(expect[k]) for k in terms)
        for key, value in expect.items():
            if isinstance(value, (float, list)) and key != "flags":
                scale = term_scale if key in terms else expect["eta2"]
                if key == "sigma_bar":
                    scale = value
                _close(have[key], value, scale, key)
            else:
                assert have[key] == value, key


@st.composite
def _wide_core_cases(draw):
    """The core cases with k0 log-uniform down to 1e-3, where the window is
    up to 150 times the core."""
    params, part = draw(_core_cases())
    k0 = 10.0 ** draw(st.floats(-3.0, np.log10(3.0)))
    params = dataclasses.replace(params, k0=k0)
    return params, Partition(atomistic=part.atomistic)


# stiff substrates with weak NNN springs: exteriors of 1 and 2 atoms, where
# the core's clamps are the window's clamps or its first free atoms
_EXT1 = ChainParams(m=100_000, k0=1e8, k2=1e-8)
_EXT2 = ChainParams(m=100_000, k0=1e9, k2=1e-6)
# a k2 far below k1: E_a's and E_ac's assembled diagonals round to the same
# number, so the exterior's E_a - E_ac is k2 beside a zero diagonal
_TINY_K2 = ChainParams(m=100_000, k0=0.1, k2=8.903611464977981e-269)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_wide_core_cases())
@example((_SLOW_K0, interval_partition(_SLOW_K0, 65)))
@example((_DEFAULT_1E5, make_partition(_DEFAULT_1E5, atomistic=[-64, 3])))
@example((_EXT1, make_partition(_EXT1, atomistic=[-64, 0, 1, 5])))
@example((_EXT2, interval_partition(_EXT2, 64)))
@example((_TINY_K2, make_partition(_TINY_K2, atomistic=[-64])))
def test_core_path_matches_window_oracle(case):
    # every pair scalar, every report field, Q(e) and the extended eta2
    # indicators of the core path against the whole-window oracle.  The
    # parallelogram terms enter the bounds squared, and a term at the
    # precision floor is round-off of sqrt(eps) times the largest one: they
    # are compared squared, on the scale of the largest square
    params, part = case
    got = solve_dual_pair(params, part)
    want = window_pair(got.ref, [part])
    assert got.ref.window.m == want.ref.core.m == want.ref.window.m
    if params in (_EXT1, _EXT2):
        assert got.ref.off == (1 if params is _EXT1 else 2)
    for name in _PAIR_SCALARS:
        _close(getattr(got, name), getattr(want, name), abs(getattr(want, name)[0]), name)
    (q_got,), (q_want,) = exact_goal_errors(got), exact_goal_errors(want)
    e_got, e_want = (exact_goal_error(params, part, p)[1] for p in (got, want))
    _close(q_got, q_want, abs(q_want), "q")
    _close(e_got, e_want, np.max(np.abs(e_want)), "e")
    for gamma in (False, True):
        have, expect = estimate(got, gamma), estimate(want, gamma)
        assert have.flags == expect.flags and have.m_window == expect.m_window
        terms = ("eta_upp_plus", "eta_upp_minus", "eta_low_plus", "eta_low_minus")
        term_scale = max(getattr(expect, t) ** 2 for t in terms)
        for t in terms:
            _close(getattr(have, t) ** 2, getattr(expect, t) ** 2, term_scale, t)
        for key in ("eta1", "eta2", "first_term", "bound_low", "bound_high"):
            _close(getattr(have, key), getattr(expect, key), expect.eta2, key)
        if expect.sigma_bar is not None:
            _close(have.sigma_bar, expect.sigma_bar, expect.sigma_bar, "sigma_bar")
        if gamma:
            _close(have.eta2_weighted, expect.eta2_weighted, expect.eta2, "weighted")
        for key in ("eta2_at", "eta2_el"):
            value = getattr(expect, key)
            _close(getattr(have, key), value, np.max(np.abs(value)), key)


def test_indicators_are_the_split_of_the_window_fields():
    # the report lists the eta2 split over the window from the frame and a
    # closed-form exterior per side: bit for bit the split of the fields
    # extended over the window, on exteriors of 0, 1, 2 and many bonds a side
    cases = ((ChainParams(m=40), 0), (_EXT1, 1), (_EXT2, 2), (_DEFAULT_1E5, 291), (_SLOW_K0, None))
    for params, off in cases:
        for part in (interval_partition(params, 5), make_partition(params, [-30, 0, 1, 7])):
            pair = solve_dual_pair(params, part)
            assert pair.ref.off == off if off is not None else pair.ref.off > 1000
            for gamma in (False, True):
                report = estimate(pair, gamma)
                for got, want in zip((report.eta2_at, report.eta2_el), window_indicators(report)):
                    assert got.dtype == want.dtype and np.array_equal(got, want), (off, gamma)


# a chain whose clamps are not at its wells: its own window
_OWN_BC = ChainParams(m=300, k0=0.5, bc=(-302.0, -301.0, 301.0, 302.0))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_wide_core_cases())
@example((_SLOW_K0, interval_partition(_SLOW_K0, 65)))
@example((dataclasses.replace(_DEFAULT_1E5, k2=0.0), interval_partition(_DEFAULT_1E5, 20)))
@example((dataclasses.replace(_DEFAULT_1E5, k2=3.2e-71), make_partition(_DEFAULT_1E5, [3])))
@example((_TINY_K2, make_partition(_TINY_K2, atomistic=[-64])))
@example((_EXT1, make_partition(_EXT1, atomistic=[-64, 0, 1, 5])))
@example((ChainParams(m=40), interval_partition(ChainParams(m=40), 5)))
@example((_OWN_BC, interval_partition(_OWN_BC, 12)))
def test_dual_form_matches_window_solve(case):
    # Q(e) as g_a . R(y) on the core, g_a in closed form, against the goal
    # times the window solve M_a^{-1} R(y), on the scale of sum |g_a R|
    params, part = case
    pair = solve_dual_pair(params, part)
    if params in (ChainParams(m=40), _OWN_BC):
        assert pair.ref.off == 0
    (q,) = exact_goal_errors(pair)
    (e,), _ = dual_errors(pair)
    q_goal = goal(pair.ref)
    ga = banded.solve(pair.ref.ma_factor, q_goal)
    scale = np.sum(np.abs(ga * window(pair, "residual_primal")[0]))
    assert abs(q - np.dot(q_goal, e)) <= 1e-9 * scale


def test_an_exact_sweep_stays_on_the_core(monkeypatch):
    # a table2 sweep takes Q(e) from the dual: in closed form on a chain
    # longer than its window, with no M_a factor, and by the M_a factor on a
    # chain that is its own core.  Neither a sweep nor an adaptive run
    # assembles a model or reduces a system, and the adaptive loop builds
    # neither the dual nor the factor and lists no indicator over the
    # window: it marks on the core
    built, called = [], []

    def spy(*key):
        built.append(reference(*key))
        return built[-1]

    reference = estimators._reference
    monkeypatch.setattr(estimators, "_reference", spy)
    for name in ("assemble", "reduce_system"):
        monkeypatch.setattr(model, name, lambda *a, name=name, **k: called.append(name))
    listed = property(lambda report: called.append("_eta2_split"))
    monkeypatch.setattr(estimators.EstimatorReport, "_eta2_split", listed)
    for p in (ChainParams(m=20_000), ChainParams(m=60)):
        built.clear()
        estimators._REFERENCES.clear()
        results = fixed_k_runs(p, TABLE2_K, want_exact=True)
        assert all(r.q_error is not None for r in results)
        (ref,) = built
        assert bool(ref.off) == (p.m > 60) and "dual" in vars(ref)
        assert ("ma_factor" in vars(ref)) == (not ref.off)
        built.clear()
        estimators._REFERENCES.clear()
        trace = run_adaptive(p, AdaptConfig(tau_gl=1e-10))
        assert trace.status == "converged" and len(trace.records) > 1
        assert built and all(not {"dual", "ma_factor"} & set(vars(ref)) for ref in built)
    assert not called


def test_a_solved_stack_holds_no_window_length_array():
    # on a slow substrate the window is 150 times the core: every array of a
    # solved stack, and every array it is a view of, is core-sized
    p = ChainParams(m=10**9, k0=1e-3)
    parts = [interval_partition(p, k) for k in (0, 10, 50)]
    ((_, pair),) = solve_stacks(p, parts)
    core, win = 2 * pair.ref.core.m, 2 * pair.ref.window.m
    assert win > 100 * core
    for f in dataclasses.fields(pair):
        value = getattr(pair, f.name)
        while isinstance(value, np.ndarray):
            assert value.shape[-1] <= core + 6 and value.size <= 4 * 3 * (core + 6), f.name
            value = value.base
    # the window is the frame the extensions report on
    assert on_window(pair, "pz_y").shape == (3, win - 1)


@st.composite
def _partition_sets(draw):
    """One chain of the property-test springs and up to 12 partitions of it,
    intervals and scattered regions of different spans: some share a window,
    some do not, and a shared window can hold more regions than one stack."""
    m = draw(st.integers(3, 100_000))
    params = ChainParams(
        m=m,
        k0=draw(st.floats(0.2, 3.0)),
        k1=draw(st.floats(0.5, 5.0)),
        k2=draw(st.floats(0.0, 4.0)),
    )
    reach = min(m - 2, 600)
    interval = st.integers(0, reach).map(lambda k: interval_partition(params, k))
    near = st.lists(st.integers(-reach + 1, reach), max_size=30)
    scattered = near.map(lambda ids: make_partition(params, atomistic=ids))
    return params, draw(st.lists(interval | scattered, min_size=1, max_size=12))



def _pair_rows(pair, j):
    """Row ``j`` of every array and scalar of a stacked pair, by name."""
    names = [f.name for f in dataclasses.fields(pair) if f.name not in ("ref", "parts")]
    out = {name: getattr(pair, name)[j] for name in names}
    out.update(ediff=ediff(pair).bands[j], z_y=z_y(pair)[j], z_g=z_g(pair)[j])
    out["part"] = pair.parts[j].atomistic
    return out


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_partition_sets())
@example(
    (
        _DEFAULT_1E5,
        [interval_partition(_DEFAULT_1E5, k) for k in (50, 250, 0, 300, *range(2, 16, 2))]
        + [make_partition(_DEFAULT_1E5, atomistic=[-260, 3, 0])]
        + [interval_partition(_DEFAULT_1E5, 50)],
    )
)
def test_stack_equals_one_region_at_a_time(case):
    # K = 50 and 250 at M = 1e5 on the default springs straddle a window
    # doubling (512 and 1024); the 512 window holds more regions than a stack
    params, parts = case
    seen = []
    for rows, stack in solve_stacks(params, parts):
        reports = {gamma: estimate_stack(stack, gamma) for gamma in (False, True)}
        q, (e, _) = exact_goal_errors(stack), dual_errors(stack)
        seen += rows
        for j, i in enumerate(rows):
            want = solve_dual_pair(params, parts[i])
            assert stack.ref is want.ref
            assert (want.ref.window.m, want.ref.core.m) == model.sizes(params, parts[i])
            want_rows = _pair_rows(want, 0)
            for name, value in _pair_rows(stack, j).items():
                assert np.array_equal(value, want_rows[name]), name
            for gamma, reps in reports.items():
                assert reps[j].as_dict() == estimate(want, gamma).as_dict()
            q_want, e_want = exact_goal_error(params, parts[i], want)
            assert q[j] == q_want and np.array_equal(e[j], e_want)
    assert sorted(seen) == list(range(len(parts)))


# ---------------------------------------------------------------------------
# the adaptive step's pieces against their dense forms, bit for bit


def _bits(x) -> tuple:
    x = np.asarray(x)
    return x.shape, np.ascontiguousarray(x).tobytes()


def _step_case(seed: int) -> tuple[ChainParams, list[Partition], bool]:
    """Springs and a stack of regions on a chain with an exterior (seed % 3
    == 0), one that is its own core as w + pad >= M (1) and one that is its
    own core through non-default clamps (2); and whether it has an exterior."""
    rng = np.random.default_rng(seed)
    kind = seed % 3
    springs = dict(k0=10 ** rng.uniform(-3, 1), k1=10 ** rng.uniform(-1, 1))
    springs["k2"] = 0.0 if seed % 4 == 1 else 10 ** rng.uniform(-2, 1)
    if kind == 0:
        params = ChainParams(m=int(10 ** rng.uniform(6, 9)), **springs)
    elif kind == 1:
        params = ChainParams(m=int(rng.integers(3, 60)), **springs)
    else:
        m = int(rng.integers(5, 300))
        bc = (np.array([-m, 1 - m, m - 1, m]) + rng.uniform(-0.4, 0.4, 4)).tolist()
        params = ChainParams(m=m, bc=tuple(bc), **springs)
    top = min(params.m, 60)
    ks = sorted({0, min(int(rng.integers(0, top - 1)), params.m - 2), top - 2})
    parts = [interval_partition(params, k) for k in ks]
    parts.append(make_partition(params, rng.integers(-top + 1, top + 1, 7).tolist()))
    return params, parts, kind == 0


@pytest.mark.parametrize("seed", range(15))
def test_step_bands_and_load_match_their_dense_forms(seed, monkeypatch):
    # the blended bands from the flags, the stiffness on the free atoms and
    # the primal load the stack's solve gets, against the whole-band
    # arithmetic and -D^T E_ac base over the whole core; then every pair
    # array solved with the dense forms in their place
    params, parts, exterior = _step_case(seed)
    loads, solve_each = [], banded.solve_each

    def spy(a, rhs, out):
        loads.append(rhs[:, 0].copy())
        return solve_each(a, rhs, out)

    monkeypatch.setattr(banded, "solve_each", spy)
    stacks = list(solve_stacks(params, parts))
    for (rows, pair), load in zip(stacks, loads, strict=True):
        ref = pair.ref
        assert bool(ref.off) == exterior
        flags = model._flags(ref.core, pair.parts)
        eac = model._nn_bond_bands(ref.core, flags)
        assert _bits(eac.bands) == _bits(blended_bonds(ref.core, flags.astype(float)).bands)
        mac = model.stiffness_bands(ref.core, eac)
        assert _bits(mac.bands) == _bits(hessian_bands(ref.core, eac).bands)
        assert _bits(load) == _bits(primal_load(ref, eac))

    monkeypatch.setattr(estimators, "_REFERENCES", type(estimators._REFERENCES)())
    monkeypatch.setattr(model, "_nn_bond_bands", lambda p, da: blended_bonds(p, da.astype(float)))
    monkeypatch.setattr(model, "stiffness_bands", hessian_bands)
    for (rows, pair), (again, dense) in zip(stacks, solve_stacks(params, parts), strict=True):
        assert rows == again
        for f in dataclasses.fields(pair):
            if f.name not in ("ref", "parts"):
                assert _bits(getattr(pair, f.name)) == _bits(getattr(dense, f.name)), f.name


def test_a_step_makes_one_factor_and_solve_per_stack_and_one_projection(monkeypatch):
    # the blended systems of a stack are factored and solved by one dpbsv
    # call, for both loads, and P z of the whole stack is one dpttrs call;
    # an adaptive run makes exactly that per step
    calls = {"dpbsv": 0, "dpttrs": 0}

    def counted(name):
        routine = getattr(banded, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)

        return call

    params = ChainParams(m=2000, k0=0.7, k1=1.3, k2=2.9)
    parts = [interval_partition(params, k) for k in (0, 4, 30)]
    solve_dual_pair(params, parts[0])  # the reference of their window
    for name in calls:
        monkeypatch.setattr(banded, name, counted(name))
    ((_, pair),) = solve_stacks(params, parts)
    estimate_stack(pair)[0].marked(1e-12)
    assert calls == {"dpbsv": 1, "dpttrs": 1}
    calls.update(dpbsv=0, dpttrs=0)
    trace = run_adaptive(params, AdaptConfig(tau_gl=1e-10))
    steps = len(trace.records)
    assert steps == 3 and calls == {"dpbsv": steps, "dpttrs": steps}
