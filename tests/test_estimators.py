"""Dual solves, the two error estimates, and their frozen reference values."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qcfk import banded, model
from qcfk.model import (
    ChainParams,
    assemble,
    interval_partition,
    make_partition,
    reduce_system,
)
from qcfk.estimators import (
    EstimatorReport,
    estimate,
    eta_low,
    eta_upp,
    eta2_parts,
    exact_goal_error,
    first_term,
    goal_vector,
    reference,
    residual_combo,
    sigma_opt,
    solve_dual_pair,
    theta_opt,
)
from qcfk.adaptivity import fixed_k_run

from oracle_dense import dual_errors, lemma1_check, to_dense
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


# ---------------------------------------------------------------------------
# structural identities on small chains


def test_goal_vector_is_defect_bond_difference():
    p = ChainParams(m=6)
    part = interval_partition(p, 0)
    system = reduce_system(p, assemble(p, part))
    g = goal_vector(p, system.free_index)
    expect = np.zeros(p.n_free)
    expect[np.searchsorted(system.free_index, 0)] = -1.0
    expect[np.searchsorted(system.free_index, 1)] = 1.0
    assert np.array_equal(g, expect)
    assert g.sum() == 0.0


def test_projection_matches_dense_inverse():
    # oracle: dense solve of E_a (P z) = (E_a - E_ac) z
    p = ChainParams(m=10)
    pair = solve_dual_pair(p, interval_partition(p, 2))
    ea = to_dense(pair.ref.model.e_mat)
    eac = ea - to_dense(pair.ediff)
    for z, pz in ((pair.z_y, pair.pz_y), (pair.z_g, pair.pz_g)):
        dense = z - np.linalg.solve(ea, eac @ z)
        assert np.allclose(pz, dense, atol=1e-12)


def test_seminorm_identity():
    # ||P z||_{E_a}^2 = sum_p (P z)_p ((E_a - E_ac) z)_p
    for (m, k) in [(12, 0), (30, 4), (80, 10)]:
        p = ChainParams(m=m)
        pair = solve_dual_pair(p, interval_partition(p, k))
        for z, pz, nrm in (
            (pair.z_y, pair.pz_y, pair.npy),
            (pair.z_g, pair.pz_g, pair.npg),
        ):
            split = float(np.dot(pz, banded.matvec(pair.ediff, z)))
            assert np.isclose(nrm**2, split, rtol=1e-10, atol=1e-300)


def test_parallelogram_law_for_upper_bounds():
    p = ChainParams(m=60)
    pair = solve_dual_pair(p, interval_partition(p, 6))
    s = sigma_opt(pair)
    lhs = eta_upp(pair, s, +1) ** 2 + eta_upp(pair, s, -1) ** 2
    rhs = 2.0 * (s**2 * pair.npy**2 + pair.npg**2 / s**2)
    assert np.isclose(lhs, rhs, rtol=1e-10)


def test_sigma_opt_minimizes_upper_bound():
    p = ChainParams(m=50)
    pair = solve_dual_pair(p, interval_partition(p, 4))
    s = sigma_opt(pair)
    assert np.isclose(s, np.sqrt(pair.npg / pair.npy), rtol=1e-12)
    for sign in (+1, -1):
        best = eta_upp(pair, s, sign)
        for f in (0.5, 0.9, 1.1, 2.0):
            assert eta_upp(pair, s * f, sign) >= best - 1e-15


def test_theta_opt_is_stationary():
    for (m, k) in [(30, 3), (50, 5), (100, 12)]:
        p = ChainParams(m=m)
        pair = solve_dual_pair(p, interval_partition(p, k))
        s = sigma_opt(pair)
        y, g, mat = pair.y_free, pair.g_free, pair.ref.system.mat

        def phi(r, th):
            v = y + th * g
            return float(np.dot(r, v) / np.sqrt(np.dot(v, banded.matvec(mat, v))))

        for sign in (+1, -1):
            r = residual_combo(pair, s, sign)
            th, deg = theta_opt(pair, r)
            assert not deg
            sc = max(abs(th), 1.0)
            h = 1e-4 * sc
            d_at = abs(phi(r, th + h) - phi(r, th - h)) / (2 * h)
            d_off = abs(phi(r, th + 0.1 * sc + h) - phi(r, th + 0.1 * sc - h)) / (2 * h)
            assert d_at <= 1e-4 * d_off
            # eta_low reports exactly phi at the stationary point
            assert np.isclose(eta_low(pair, r, th), phi(r, th), rtol=1e-12)


def test_goal_error_identity():
    # Q(e) = g' R(y) + e_hat' M e, both sides from independent solves
    for (m, k) in [(12, 0), (20, 3), (50, 5)]:
        p = ChainParams(m=m)
        part = interval_partition(p, k)
        pair = solve_dual_pair(p, part)
        qe, e = exact_goal_error(p, part, pair)
        _, e_hat = dual_errors(pair)
        rhs = first_term(pair) + float(
            np.dot(e_hat, banded.matvec(pair.ref.system.mat, e))
        )
        scale = max(abs(qe), abs(first_term(pair)), 1e-300)
        assert abs(qe - rhs) <= 1e-10 * scale


def test_lemma_identity_residual_small():
    for (m, k) in [(10, 2), (50, 5)]:
        p = ChainParams(m=m)
        part = interval_partition(p, k)
        for alpha, beta in [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, -2.0)]:
            assert lemma1_check(p, part, alpha, beta) <= 1e-9


def _fully_atomistic(p: ChainParams):
    # flag every atom, clamped ones included; interval_partition(k) caps at
    # k = m - 2 and always leaves the boundary atoms blended
    return make_partition(p, atomistic=range(-p.m + 1, p.m + 1))


def test_residuals_vanish_when_model_is_exact():
    # every atom exact: the working model is the reference model
    p = ChainParams(m=12)
    pair = solve_dual_pair(p, _fully_atomistic(p))
    scale = np.max(np.abs(pair.ref.system.rhs_wells))
    assert np.max(np.abs(pair.residual_primal)) <= 1e-12 * scale
    assert np.max(np.abs(pair.residual_dual)) <= 1e-12
    assert pair.npy <= 1e-12 and pair.npg <= 1e-12


def test_interval_partition_keeps_boundary_blended():
    # even at the largest k the clamped atoms stay continuum, so the
    # residual concentrates there instead of vanishing
    p = ChainParams(m=12)
    pair = solve_dual_pair(p, interval_partition(p, p.m - 2))
    res = np.abs(pair.residual_primal)
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
    pair = dataclasses.replace(pair, npy=0.0, npg=0.0)
    assert sigma_opt(pair) is None
    rep = estimate(pair)
    assert "sigma-degenerate" in rep.flags
    assert rep.sigma_bar is None
    assert rep.eta1 == abs(rep.first_term)
    assert rep.bound_low == rep.first_term == rep.bound_high
    # one-sided degeneracy triggers the same guard
    pair2 = dataclasses.replace(solve_dual_pair(p, _fully_atomistic(p)), npy=0.0)
    assert sigma_opt(pair2) is None


# ---------------------------------------------------------------------------
# eta2 split and the gamma variant


def test_eta2_split_sums_to_global():
    p = ChainParams(m=100)
    pair = solve_dual_pair(p, interval_partition(p, 8))
    value, at, el, weighted, flags = eta2_parts(pair)
    assert weighted is None and flags == []
    assert at.shape == (2 * p.m - 4,)
    assert el.shape == (2 * p.m - 1,)
    # |g . R| <= sum at; the signed bond sums recover the squared norms,
    # and taking magnitudes before summing can only grow the total
    assert abs(first_term(pair)) <= at.sum() + 1e-15
    ely = pair.pz_y * banded.matvec(pair.ediff, pair.z_y)
    elg = pair.pz_g * banded.matvec(pair.ediff, pair.z_g)
    assert np.isclose(ely.sum(), pair.npy**2, rtol=1e-10)
    assert np.isclose(elg.sum(), pair.npg**2, rtol=1e-10)
    half_norms = 0.5 * (pair.npy**2 + pair.npg**2)
    assert el.sum() >= half_norms * (1.0 - 1e-12)
    assert value <= abs(first_term(pair)) + at.sum() + el.sum()


def test_eta2_gamma_rebalances_locals_only():
    p = ChainParams(m=100)
    pair = solve_dual_pair(p, interval_partition(p, 8))
    v0, at0, el0, w0, _ = eta2_parts(pair, use_gamma=False)
    v1, at1, el1, w1, flags = eta2_parts(pair, use_gamma=True)
    assert flags == []
    assert v1 == v0
    assert np.array_equal(at1, at0)
    gamma = pair.npg / pair.npy
    assert not np.isclose(gamma, 1.0)
    assert not np.allclose(el1, el0)
    # reweighting balances the two halves: the signed sums both land on the
    # product npy*npg, so the magnitude sum dominates it
    assert el1.sum() >= pair.npy * pair.npg * (1.0 - 1e-12)
    # the weighted global equals the plain product bound away from degeneracy
    assert np.isclose(w1, v1, rtol=1e-10)


def test_eta2_gamma_degenerate_flag():
    p = ChainParams(m=10)
    pair = solve_dual_pair(p, _fully_atomistic(p))
    pair = dataclasses.replace(pair, npy=0.0, npg=0.0)
    _, _, _, w, flags = eta2_parts(pair, use_gamma=True)
    assert "gamma-degenerate" in flags
    assert w is not None and np.isfinite(w)


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_chains())
def test_sandwich_and_eta2_bound_hold_for_random_chains(case):
    params, part = case
    pair = solve_dual_pair(params, part)
    rep = estimate(pair)
    qe, _ = exact_goal_error(params, part, pair)
    # below this the exact error itself is round-off (the CLI's precision floor)
    assume(abs(qe) >= 1e-13)
    assert rep.bound_low <= qe <= rep.bound_high
    assert abs(qe) <= rep.eta2


def test_eta1_equals_worse_signed_combination():
    p = ChainParams(m=100)
    pair = solve_dual_pair(p, interval_partition(p, 6))
    rep = estimate(pair)
    ft = rep.first_term
    c1 = abs(ft + 0.25 * rep.eta_low_plus**2 - 0.25 * rep.eta_upp_minus**2)
    c2 = abs(ft + 0.25 * rep.eta_upp_plus**2 - 0.25 * rep.eta_low_minus**2)
    assert rep.eta1 == max(c1, c2)
    # clamped bounds never exceed the raw combinations
    assert rep.bound_low <= ft + 0.25 * rep.eta_low_plus**2 - 0.25 * rep.eta_upp_minus**2 + 1e-18


def _report_from_dict(d: dict) -> EstimatorReport:
    return EstimatorReport(
        **{
            **d,
            "flags": tuple(d["flags"]),
            "eta2_at": np.asarray(d["eta2_at"], dtype=float),
            "eta2_el": np.asarray(d["eta2_el"], dtype=float),
        }
    )


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
        assert back.theta_plus == rep.theta_plus
        assert back.theta_minus == rep.theta_minus
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
    assert np.isclose(np.dot(pair.ref.goal, e), qe)
    # both oracles solve with the same M_a factor
    e2, _ = dual_errors(pair)
    assert np.array_equal(e, e2)
    # standalone call agrees
    qe2, _ = exact_goal_error(p, part)
    assert np.isclose(qe, qe2, rtol=1e-12)


# ---------------------------------------------------------------------------
# the per-chain atomistic reference


def test_reference_is_shared_without_changing_results():
    # at M = 1e5 the window is far shorter than the chain, and K = 250
    # outgrows the window the smaller regions share
    for m, ks in ((40, (0, 3, 9)), (100_000, (0, 28, 50, 250))):
        p = ChainParams(m=m)
        ref = reference(p)
        windows = set()
        for k in ks:
            part = interval_partition(p, k)
            shared = solve_dual_pair(p, part, ref)
            fresh = solve_dual_pair(p, part)
            assert (shared.ref is ref) == (ref.window == model.window(p, part))
            assert estimate(shared).as_dict() == estimate(fresh).as_dict()
            q_shared, _ = exact_goal_error(p, part, shared)
            assert q_shared == exact_goal_error(p, part, fresh)[0]
            with_ref = fixed_k_run(p, k, ref=ref)
            without = fixed_k_run(p, k)
            assert with_ref.q_error == without.q_error
            assert with_ref.report.as_dict() == without.report.as_dict()
            ref = shared.ref
            windows.add(ref.window.m)
        if m == 100_000:
            assert len(windows) == 2 and max(windows) < m


def test_reference_for_other_params_is_rejected():
    ref = reference(ChainParams(m=40))
    other = ChainParams(m=40, k2=1.0)
    with pytest.raises(ValueError, match="reference was built for"):
        solve_dual_pair(other, interval_partition(other, 2), ref)
    with pytest.raises(ValueError, match="reference was built for"):
        fixed_k_run(ChainParams(m=41), 2, ref=ref)


def test_reference_and_pair_are_frozen():
    p = ChainParams(m=12)
    pair = solve_dual_pair(p, interval_partition(p, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.npy = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        pair.ref.goal = None


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
        mp.setattr(model, "window", lambda params, part: params)
        m_whole, whole = _quantities(params, part)
    assert m_window <= m_whole == params.m
    for name, got, want in zip(
        ("q", "eta2", "first_term", "eta1", "bound_low", "bound_high"), windowed, whole
    ):
        assert abs(got - want) <= 1e-12 * abs(want), (name, got, want)
