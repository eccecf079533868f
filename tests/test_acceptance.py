"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Reference digits below are the published benchmark values for this chain
family (7 significant figures), checked against the 40-digit recomputation
in tests/oracle_exact.py.  The published values were produced in double
precision and drift near the precision floor; where the oracle refutes a
published entry (eta1 of the third adaptive iteration, the M = 1e6
adaptive eta1 row, |Q(e)| at K = 30, the K = 35 and K = 40 rows, and the
tau = 1e-14 window sizes), the entry holds the oracle value rounded to 7
figures and a comment keeps the published digits.  The tolerances and
gates stay strict.
"""

import time

import numpy as np
import pytest

from qcfk import banded
from qcfk.adaptivity import AdaptConfig, fixed_k_run, run_adaptive
from qcfk.estimators import estimate, exact_goal_error, solve_dual_pair
from qcfk.model import (
    ChainParams,
    assemble,
    atom_ids,
    d_apply,
    dt_apply,
    interval_partition,
    reduce_system,
    well_positions,
)

from oracle_dense import (
    dense_solve,
    dual_errors,
    energy_direct,
    energy_matrix,
    fd_gradient,
    flavor_partition,
    lemma1_check,
    misfit,
    random_partition,
    random_point,
    solve_positions,
)


def _line(num: int, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {tag}{suffix}")


# reference eta1 per adaptive iteration, by chain half-size
REF_ADAPT_ETA1 = {
    # published iteration-3 eta1 4.878532e-11; oracle EXACT[(100, 32)]
    100: (3.899207e-02, 5.915080e-10, 4.878544e-11),
    # published iteration-3 eta1 4.878548e-11; oracle EXACT[(1000, 32)]
    1000: (3.899208e-02, 5.915100e-10, 4.878560e-11),
    # published iteration-3 eta1 4.878548e-11; oracle EXACT[(10000, 32)]
    10_000: (3.899208e-02, 5.915100e-10, 4.878560e-11),
    # published iteration-3 eta1 4.878540e-11; oracle EXACT[(100000, 32)]
    100_000: (3.899208e-02, 5.915099e-10, 4.878560e-11),
}
# published (3.899208e-02, 5.914422e-10, 4.871775e-11); oracle
# EXACT[(1000000, 0/28/32)]
REF_ADAPT_ETA1_M1E6 = (3.899208e-02, 5.915098e-10, 4.878560e-11)

# reference fixed-region table rows: k -> (|Q(e)|, eta1, eta2)
REF_FIXED_K = {
    0: (3.627633e-02, 3.899208e-02, 3.999783e-02),
    2: (3.375762e-02, 3.872272e-02, 5.101700e-02),
    4: (3.468605e-03, 4.343595e-03, 5.422007e-03),
    6: (5.418585e-04, 7.156249e-04, 9.187940e-04),
    8: (1.227067e-04, 1.675383e-04, 2.193196e-04),
    10: (3.287188e-05, 4.540984e-05, 5.984186e-05),
    15: (1.416914e-06, 1.966114e-06, 2.597488e-06),
    20: (6.267636e-08, 8.695824e-08, 1.148736e-07),
    25: (2.770161e-09, 3.843388e-09, 5.077204e-09),
    # published |Q(e)| 1.224369e-10; oracle EXACT[(1000, 30)]
    30: (1.224385e-10, 1.698739e-10, 2.244073e-10),
    # published (5.410783e-12, 7.508365e-12, 9.918687e-12); oracle EXACT[(1000, 35)]
    35: (5.411655e-12, 7.508255e-12, 9.918577e-12),
    # published (2.379208e-13, 3.318024e-13, 4.383361e-13); oracle EXACT[(1000, 40)]
    40: (2.391896e-13, 3.318572e-13, 4.383910e-13),
}

# reference tolerance table rows: tau -> (k_opt, k_eta1, k_eta2)
REF_TOLERANCE_K = {
    1e-02: (3, 3, 3),
    1e-03: (5, 5, 5),
    1e-04: (9, 9, 10),
    1e-05: (12, 13, 13),
    1e-06: (16, 17, 17),
    1e-07: (20, 20, 21),
    1e-08: (23, 24, 24),
    1e-09: (27, 28, 28),
    1e-10: (31, 31, 32),
    1e-11: (35, 35, 35),
    1e-12: (38, 39, 39),
    1e-13: (42, 42, 43),
    # published (45, 46, 47); oracle EXACT[(1000, 45..46)] gives |Q(e)| =
    # 1.057e-14 at K=45 and 5.665e-15 at K=46
    1e-14: (46, 46, 47),
}


@pytest.fixture(scope="module")
def full_sweep():
    """Exact error plus both estimates for every region 0 <= K <= 50."""
    params = ChainParams(m=1000)
    return [fixed_k_run(params, k) for k in range(51)]


def test_criterion_1_adaptive_traces():
    t0 = time.perf_counter()
    problems = []
    for m, ref in REF_ADAPT_ETA1.items():
        trace = run_adaptive(ChainParams(m=m), AdaptConfig(tau_gl=1e-10))
        if trace.status != "converged":
            problems.append(f"m={m} status={trace.status}")
            continue
        if len(trace.records) != 3:
            problems.append(f"m={m} iterations={len(trace.records)}")
            continue
        if [r.k for r in trace.records] != [0, 28, 32]:
            problems.append(f"m={m} k={[r.k for r in trace.records]}")
        for r, tau in zip(trace.records, (1e-10, 1e-11, 1e-12)):
            if not np.isclose(r.tau_at, tau, rtol=1e-12):
                problems.append(f"m={m} it={r.iteration} tau_at={r.tau_at}")
        for r, want in zip(trace.records, ref):
            rel = abs(r.eta1 - want) / want
            if rel > 1e-4:
                problems.append(
                    f"m={m} it={r.iteration} eta1={r.eta1:.6e} want {want:.6e} rel {rel:.1e}"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    ok = not problems
    _line(1, "adaptive traces over chain sizes", ok,
          f"4 sizes, {elapsed:.1f}s" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_2_fixed_region_table():
    t0 = time.perf_counter()
    params = ChainParams(m=1000)
    results = {k: fixed_k_run(params, k) for k in REF_FIXED_K}
    elapsed = time.perf_counter() - t0
    problems = []
    for k, (ref_q, ref_e1, ref_e2) in REF_FIXED_K.items():
        res = results[k]
        for name, got, want in (
            ("q", res.abs_q_error, ref_q),
            ("eta1", res.report.eta1, ref_e1),
            ("eta2", res.report.eta2, ref_e2),
        ):
            rel = abs(got - want) / want
            if rel > 1e-4:
                problems.append(f"k={k} {name} rel {rel:.2e}")
    for k in (15, 20, 25, 30, 35):
        eff = results[k].efficiency(results[k].report.eta1)
        if abs(eff - 1.3874) > 0.0005:
            problems.append(f"k={k} eff1={eff:.5f} off plateau")
    if elapsed >= 10.0:
        problems.append(f"runtime {elapsed:.1f}s >= 10s")
    ok = not problems
    _line(2, "fixed-region error table", ok,
          f"12 regions, {elapsed:.1f}s" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_3_tolerance_table(full_sweep):
    def first_k(values, tau):
        for res, v in zip(full_sweep, values):
            if v <= tau:
                return res.k
        return None

    qs = [r.abs_q_error for r in full_sweep]
    e1s = [r.report.eta1 for r in full_sweep]
    e2s = [r.report.eta2 for r in full_sweep]
    problems = []
    for tau, want in REF_TOLERANCE_K.items():
        got = (first_k(qs, tau), first_k(e1s, tau), first_k(e2s, tau))
        if got != want:
            problems.append(f"tau={tau:.0e} got {got} want {want}")
        for k_est in got[1:]:
            if got[0] is not None and k_est is not None and k_est - got[0] > 2:
                problems.append(f"tau={tau:.0e} estimate lags by {k_est - got[0]}")
    ok = not problems
    _line(3, "tolerance-to-region table", ok,
          "13 tolerances" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_4_bounds_and_orderings(full_sweep):
    problems = []
    for res in full_sweep:
        qe = res.q_error
        rep = res.report
        if not (rep.bound_low <= qe <= rep.bound_high):
            problems.append(
                f"k={res.k} q={qe:.3e} outside [{rep.bound_low:.3e}, {rep.bound_high:.3e}]"
            )
        if abs(qe) > rep.eta1:
            problems.append(f"k={res.k} |q| exceeds eta1")
        if abs(qe) > rep.eta2:
            problems.append(f"k={res.k} |q| exceeds eta2")
        local_sum = abs(rep.first_term) + rep.eta2_at.sum() + rep.eta2_el.sum()
        if rep.eta2 > local_sum * (1.0 + 1e-12):
            problems.append(f"k={res.k} eta2 exceeds local sum")
    ok = not problems
    _line(4, "bound sandwich and orderings", ok,
          f"{len(full_sweep)} regions, 0 violations" if ok else "; ".join(problems))
    assert ok, problems


def test_criterion_5_small_chain_oracles():
    rng = np.random.default_rng(20260814)
    worst_solve = 0.0
    worst_identity = 0.0
    worst_lemma = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 21))
        k = int(rng.integers(0, m - 1))
        params = ChainParams(m=m)
        part = interval_partition(params, k)
        flavor = ("atomistic", "ac")[int(rng.integers(0, 2))]

        model = assemble(params, flavor_partition(params, part, flavor))
        system = reduce_system(params, model)
        y = solve_positions(system)
        y_ref = dense_solve(params, part, flavor)
        scale = np.max(np.abs(y_ref))
        worst_solve = max(worst_solve, np.max(np.abs(y - y_ref)) / scale)

        pair = solve_dual_pair(params, part)
        qe, e = exact_goal_error(params, part, pair)
        _, e_hat = dual_errors(pair)
        ft = estimate(pair).first_term
        rhs = ft + float(np.dot(e_hat[0], banded.matvec(pair.ref.system.mat, e)))
        iscale = max(abs(qe), abs(ft), 1e-300)
        worst_identity = max(worst_identity, abs(qe - rhs) / iscale)

        alpha, beta = rng.normal(size=2)
        worst_lemma = max(worst_lemma, lemma1_check(params, part, alpha, beta).ratio)
    ok = worst_solve <= 1e-9 and worst_identity <= 1e-10 and worst_lemma <= 1e-9
    _line(5, "random small-chain oracle agreement", ok,
          f"50 instances, solve {worst_solve:.1e}, identity {worst_identity:.1e}, "
          f"lemma {worst_lemma:.1e}")
    assert ok


def test_criterion_6_energy_consistency():
    rng = np.random.default_rng(6021023)
    worst_grad = 0.0
    worst_energy = 0.0
    count = 0
    while count < 100:
        params = ChainParams(m=int(rng.integers(3, 12)))
        part = random_partition(rng, params)
        flavor = ("atomistic", "ac")[count % 2]
        model = assemble(params, flavor_partition(params, part, flavor))
        y = random_point(rng, model.n_points, well_positions(params, atom_ids(params)))
        count += 1

        def ener(vec):
            return energy_direct(params, part, flavor, vec, check_wells=False)

        g_fd = fd_gradient(ener, y)
        z = d_apply(y - model.a_eq)
        g_an = dt_apply(banded.matvec(model.e_mat, z))
        g_an += misfit(params, part, flavor) * (y - model.b_eq)
        gscale = np.max(np.abs(g_an)) + 1.0
        worst_grad = max(worst_grad, np.max(np.abs(g_fd - g_an)) / gscale)

        em = energy_matrix(params, part, flavor, y)
        ed = ener(y)
        worst_energy = max(worst_energy, abs(em - ed) / max(abs(em), abs(ed), 1.0))

    ok = worst_grad <= 1e-5 and worst_energy <= 1e-12
    _line(6, "energy and gradient consistency", ok,
          f"100 points, grad {worst_grad:.1e}, energy {worst_energy:.1e}")
    assert ok


def test_criterion_7_error_profile():
    params = ChainParams(m=500)
    res = fixed_k_run(params, 20, want_exact=False)
    tot = res.report.eta2_total()
    ids = res.report.free_ids()

    # decay fit over the outer continuum region right of the defect
    sel = (ids > 40) & (ids < 250)
    x = ids[sel].astype(float)
    y = np.log10(tot[sel])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot

    # the indicator peaks at the blend interface
    peak = ids[int(np.argmax(tot))]
    dist = min(abs(peak - 20.5), abs(peak + 19.5))
    ok = slope < 0 and r2 >= 0.99 and dist <= 2.5
    _line(7, "indicator profile shape", ok,
          f"slope {slope:.4f}, R2 {r2:.4f}, peak at {peak}")
    assert ok, (slope, r2, peak)


def test_criterion_8_large_chain_adaptive():
    t0 = time.perf_counter()
    trace = run_adaptive(ChainParams(m=1_000_000), AdaptConfig(tau_gl=1e-10))
    elapsed = time.perf_counter() - t0
    problems = []
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s >= 60s")
    if trace.status != "converged" or len(trace.records) != 3:
        problems.append(f"status={trace.status} iterations={len(trace.records)}")
    elif [r.k for r in trace.records] != [0, 28, 32]:
        problems.append(f"k sequence {[r.k for r in trace.records]}")
    else:
        for r, want in zip(trace.records, REF_ADAPT_ETA1_M1E6):
            rel = abs(r.eta1 - want) / want
            if rel > 1e-2:
                problems.append(f"it={r.iteration} eta1 rel {rel:.2e}")
    ok = not problems
    _line(8, "million-atom adaptive run", ok,
          f"{elapsed:.1f}s" if ok else "; ".join(problems))
    assert ok, problems
