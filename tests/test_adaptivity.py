"""Adaptive region growth: marking, growth, stopping, trace bookkeeping."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcfk import adaptivity, estimators
from qcfk.adaptivity import (
    AdaptConfig,
    AdaptTrace,
    FixedKResult,
    fixed_k_run,
    mark_atoms,
    run_adaptive,
)
from qcfk.model import ChainParams, Partition, interval_partition, make_partition, sizes

from oracle_dense import window_marks
from oracle_exact import EXACT, EXACT_ETA1_M100

ETA_REL = 2e-5


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptConfig(tau_gl=0.0)
    with pytest.raises(ValueError):
        AdaptConfig(tau_gl=-1e-10)
    with pytest.raises(ValueError):
        AdaptConfig(tau_gl=1e-10, tau_div=1.0)
    with pytest.raises(ValueError):
        AdaptConfig(tau_gl=1e-10, max_iterations=0)
    for bad in (dict(tau_gl=float("nan")), dict(tau_gl=float("inf")),
                dict(tau_gl=1e-10, tau_div=float("nan")),
                dict(tau_gl=1e-10, tau_div=float("inf")),
                dict(tau_gl=1e-10, max_iterations=float("nan")),
                dict(tau_gl=1e-10, max_iterations=2.5)):
        with pytest.raises(ValueError):
            AdaptConfig(**bad)
    c = AdaptConfig(tau_gl=1e-10)
    assert c.tau_div == 10.0 and c.max_iterations == 50
    assert not c.symmetrize and not c.use_gamma


def test_adaptive_trace_matches_frozen_oracle():
    # oracle: tests/oracle_exact.py (40-digit recomputation of the interval
    # runs the loop is expected to reproduce)
    cases = {
        100: (EXACT_ETA1_M100[0], EXACT[(100, 28)][1], EXACT[(100, 32)][1]),
        1000: (EXACT[(1000, 0)][1], EXACT[(1000, 28)][1], EXACT[(1000, 32)][1]),
    }
    for m, eta1_seq in cases.items():
        trace = run_adaptive(ChainParams(m=m), AdaptConfig(tau_gl=1e-10))
        assert trace.status == "converged"
        assert len(trace.records) == 3
        assert [r.iteration for r in trace.records] == [1, 2, 3]
        assert [r.k for r in trace.records] == [0, 28, 32]
        assert [r.n_atomistic for r in trace.records] == [0, 56, 64]
        for r, tau in zip(trace.records, (1e-10, 1e-11, 1e-12)):
            assert np.isclose(r.tau_at, tau, rtol=1e-12)
        for r, exact in zip(trace.records, eta1_seq):
            assert abs(r.eta1 - exact) <= ETA_REL * exact, (m, r.iteration)
        assert trace.final_eta1 == trace.records[-1].eta1
        assert np.array_equal(trace.final_atomistic, np.arange(-31, 33))


def test_gamma_marking_grows_a_different_region():
    trace = run_adaptive(
        ChainParams(m=1000), AdaptConfig(tau_gl=1e-10, use_gamma=True)
    )
    assert trace.status == "converged"
    assert [r.k for r in trace.records] == [0, 29, 32]
    # the final partition is the same interval, so the final estimate agrees
    # with the default run to oracle accuracy
    exact = EXACT[(1000, 32)][1]
    assert abs(trace.final_eta1 - exact) <= ETA_REL * exact


def test_symmetrize_is_a_no_op_on_the_symmetric_problem():
    base = run_adaptive(ChainParams(m=100), AdaptConfig(tau_gl=1e-10))
    sym = run_adaptive(
        ChainParams(m=100), AdaptConfig(tau_gl=1e-10, symmetrize=True)
    )
    assert base.records == sym.records
    assert np.array_equal(base.final_atomistic, sym.final_atomistic)


def test_growth_is_monotone_and_never_demotes():
    trace = run_adaptive(ChainParams(m=200), AdaptConfig(tau_gl=1e-12))
    sizes = [r.n_atomistic for r in trace.records]
    assert sizes == sorted(sizes)
    assert trace.status == "converged"
    # every recorded region is an interval here, so k grows too
    ks = [r.k for r in trace.records]
    assert None not in ks
    assert ks == sorted(ks)


def test_a_threshold_past_the_float_range_is_zero():
    # tau_div^it overflows at the third iteration: the threshold is 0.0 from
    # there on, which tau_gl / tau_div^it has underflowed to at the second;
    # a threshold of 0.0 marks every free atom, and the next pass none
    trace = run_adaptive(ChainParams(m=200), AdaptConfig(tau_gl=1e-300, tau_div=1e160))
    assert [r.tau_at for r in trace.records] == [1e-300, 0.0]
    assert trace.status == "stalled" and trace.records[1].n_atomistic == 2 * 200 - 4


def test_mark_atoms_extremes():
    report = fixed_k_run(ChainParams(m=50), 0, want_exact=False).report
    assert mark_atoms(report, np.inf).size == 0
    everyone = mark_atoms(report, 0.0)
    assert np.array_equal(everyone, np.arange(-47, 49))
    # threshold exactly at the peak keeps the peak (comparison is >=)
    peak = report.eta2_total().max()
    marked = mark_atoms(report, peak)
    assert marked.size >= 1
    assert np.all(np.isin(marked, everyone))


def test_marking_grows_symmetric_shells_around_the_region():
    # inside the atomistic interval the indicators are tiny, so a fresh mark
    # set is two mirror-image shells hugging the interfaces; its union with
    # the current region is again a symmetric interval
    report = fixed_k_run(ChainParams(m=500), 20, want_exact=False).report
    marked = mark_atoms(report, 1e-12)
    assert marked.size > 0
    assert set(marked.tolist()) == {1 - i for i in marked.tolist()}
    current = np.arange(-19, 21)
    grown = np.union1d(current, marked)
    k = int(grown.max())
    assert np.array_equal(grown, np.arange(-k + 1, k + 1))
    # nothing well inside the region gets re-marked
    assert not np.any((marked > -15) & (marked < 16))


def test_max_iterations_status():
    trace = run_adaptive(
        ChainParams(m=50), AdaptConfig(tau_gl=1e-14, max_iterations=2)
    )
    assert trace.status == "max-iterations"
    assert len(trace.records) == 2
    assert trace.records[0].k == 0
    # the second mark set is not a symmetric interval, so k is unset but the
    # atom count still tells the story
    assert trace.records[1].k is None
    assert trace.records[1].n_atomistic > 0
    assert trace.final_eta1 > 1e-14


def test_stalls_when_no_free_atom_is_left_to_mark():
    # an unreachable tolerance marks every free atom immediately; the next
    # pass cannot add anything because the clamped boundary atoms stay
    # blended, so the loop reports the stall instead of spinning
    p = ChainParams(m=8)
    trace = run_adaptive(p, AdaptConfig(tau_gl=1e-30))
    assert trace.status == "stalled"
    assert len(trace.records) == 2
    assert np.array_equal(trace.final_atomistic, np.arange(-5, 7))
    assert trace.final_eta1 > 1e-30


def test_a_threshold_that_marks_nothing_new_is_lowered_again():
    # at K = 3 the threshold 3.3e-9 marks only atoms inside the region (the
    # outside ones reach 1.1e-9): it is lowered, with no new solve, until
    # atoms -3 and 4 are marked, and the run meets the tolerance where it
    # used to stop as stalled at eta1 = 3.64e-7
    p = ChainParams(
        m=10**9,
        k0=4.5946222132561365,
        k1=0.31005641729617345,
        k2=0.004456694484852517,
        a0=1.8636694222086312,
    )
    trace = run_adaptive(p, AdaptConfig(tau_gl=3.3e-7))
    assert trace.status == "converged"
    assert [r.k for r in trace.records] == [0, 3, 4]
    # each record holds the threshold that marked the region it solved
    assert [r.tau_at for r in trace.records] == [3.3e-7, 3.3e-7 / 10.0, 3.3e-7 / 1000.0]
    pair = estimators.solve_dual_pair(p, Partition(atomistic=trace.final_atomistic))
    assert abs(estimators.exact_goal_errors(pair)[0]) <= 3.3e-7


@pytest.mark.parametrize("m", [100, 1000, 10_000, 100_000, 1_000_000])
def test_criterion_1_traces_keep_their_thresholds(m):
    # criterion 1's traces: every threshold marks a new atom at once, so the
    # records keep the thresholds tau_gl / tau_div^(iteration - 1)
    config = AdaptConfig(tau_gl=1e-10)
    trace = run_adaptive(ChainParams(m=m), config)
    assert trace.status == "converged"
    assert [r.k for r in trace.records] == [0, 28, 32]
    assert [r.tau_at for r in trace.records] == [1e-10 / 10.0**n for n in range(3)]


def test_trace_json_shape():
    trace = run_adaptive(ChainParams(m=30), AdaptConfig(tau_gl=1e-6))
    d = trace.as_dict()
    assert set(d) == {"m", "status", "iterations"}
    assert d["m"] == 30 and d["status"] == trace.status
    for row, rec in zip(d["iterations"], trace.records):
        assert set(row) == {
            "iteration", "k", "n_atomistic", "m_window", "tau_at", "eta1", "eta2"
        }
        assert row["iteration"] == rec.iteration
        assert row["k"] == rec.k
        assert row["n_atomistic"] == rec.n_atomistic
        assert row["m_window"] == rec.m_window == 30
        assert row["tau_at"] == rec.tau_at
        assert row["eta1"] == rec.eta1
        assert row["eta2"] == rec.eta2
    assert json.loads(trace.to_json()) == d


def test_fixed_k_run_exact_toggle():
    p = ChainParams(m=100)
    lazy = fixed_k_run(p, 5, want_exact=False)
    assert lazy.q_error is None
    assert lazy.abs_q_error is None
    assert lazy.efficiency(lazy.report.eta1) is None
    full = fixed_k_run(p, 5)
    assert full.q_error is not None
    assert full.abs_q_error == abs(full.q_error)
    eff = full.efficiency(full.report.eta1)
    assert np.isclose(eff, full.report.eta1 / abs(full.q_error))
    # the report itself is identical either way
    assert full.report.eta1 == lazy.report.eta1


def test_zero_error_efficiency_guard():
    res = dataclasses.replace(
        fixed_k_run(ChainParams(m=10), 1, want_exact=False), q_error=0.0
    )
    assert isinstance(res, FixedKResult)
    assert res.efficiency(1.0) is None


def test_north_star_window_does_not_grow_with_chain_length():
    # a billion-atom chain adapts on the same window as a thousand-atom one,
    # and its estimates are the oracle's long-chain values
    traces = {
        m: run_adaptive(ChainParams(m=m), AdaptConfig(tau_gl=1e-10))
        for m in (1000, 10**6, 10**9)
    }
    windows = {m: [r.m_window for r in t.records] for m, t in traces.items()}
    assert windows[10**9] == windows[10**6] == windows[1000]
    assert max(windows[10**9]) < 1000
    big = traces[10**9]
    assert big.status == "converged"
    assert [r.k for r in big.records] == [0, 28, 32]
    for r, k in zip(big.records[1:], (28, 32)):
        exact = EXACT[(100000, k)][1]
        assert abs(r.eta1 - exact) <= 1e-8 * exact, (k, r.eta1)


def test_adaptive_run_builds_one_reference_per_window(monkeypatch):
    # each solve finds the reference the previous step's pair still holds,
    # so the loop builds one per window it visits, not one per iteration
    built = []
    build = estimators._reference

    def record(*key):
        built.append(key)
        return build(*key)

    monkeypatch.setattr(estimators, "_reference", record)
    trace = run_adaptive(ChainParams(m=10**6, k0=0.3), AdaptConfig(tau_gl=1e-12))
    windows = [r.m_window for r in trace.records]
    assert [m_window for _, m_window, _ in built] == sorted(set(windows))
    assert len(windows) > len(built) > 1


@st.composite
def _adaptive_cases(draw):
    """Springs of the estimator property test, M up to 1e5, a tolerance."""
    params = ChainParams(
        m=max(3, round(10 ** draw(st.floats(1.0, 5.0)))),
        k0=draw(st.floats(0.2, 3.0)),
        k1=draw(st.floats(0.5, 5.0)),
        k2=draw(st.floats(0.0, 4.0)),
    )
    return params, 10 ** draw(st.floats(-13.0, -4.0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_adaptive_cases())
def test_adaptive_regions_are_nested(case):
    params, tau = case
    full = run_adaptive(params, AdaptConfig(tau_gl=tau, max_iterations=6))
    previous = np.empty(0, dtype=int)
    for i in range(1, len(full.records) + 1):
        trace = run_adaptive(params, AdaptConfig(tau_gl=tau, max_iterations=i))
        assert trace.records == full.records[:i]
        region = trace.final_atomistic
        assert np.all(np.isin(previous, region)), i
        previous = region
    assert np.array_equal(previous, full.final_atomistic)


# chains whose window adds 1 and 2 free atoms past the core at each end: the
# substrate is so stiff that the decay width w is 8 and 9
ONE_PAST_CORE = ChainParams(m=300, k0=2e5, k1=1.0, k2=1e-6)
TWO_PAST_CORE = ChainParams(m=300, k0=5e4, k1=1.0, k2=1e-6)


def test_pinned_exteriors_have_one_and_two_atoms():
    for params, n_ext in ((ONE_PAST_CORE, 1), (TWO_PAST_CORE, 2)):
        m_window, m_core = sizes(params, interval_partition(params, 2))
        assert m_window - m_core - 2 == n_ext


@st.composite
def _marking_cases(draw):
    """The estimator property test's springs with k0 down to 1e-3, on short
    chains (their own window) and long ones, an interval or scattered region
    near the defect, a threshold and the bond split."""
    m = draw(st.integers(3, 80) | st.integers(81, 10**6))
    params = ChainParams(
        m=m,
        k0=10 ** draw(st.floats(-3.0, math.log10(3.0))),
        k1=draw(st.floats(0.5, 5.0)),
        k2=draw(st.floats(0.0, 4.0)),
    )
    reach = min(m - 2, 60)
    if draw(st.booleans()):
        part = interval_partition(params, draw(st.integers(0, reach)))
    else:
        ids = draw(st.lists(st.integers(-reach + 1, reach), max_size=30))
        part = make_partition(params, atomistic=ids)
    return params, part, 10 ** draw(st.floats(-18.0, -6.0)), draw(st.booleans())


def _pin(params, k, tau, use_gamma):
    return (params, interval_partition(params, k), tau, use_gamma)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_marking_cases())
# regions whose marks reach past the core, plain and balanced split
@example(_pin(ChainParams(m=1000, k0=0.0786, k1=1.91, k2=1.27), 51, 1e-17, False))
@example(_pin(ChainParams(m=100_000, k0=0.00428, k1=4.86, k2=0.79), 19, 1e-18, True))
# exteriors of one and two atoms, bounded and (at tau 0) all marked
@example(_pin(ONE_PAST_CORE, 2, 1e-18, False))
@example(_pin(TWO_PAST_CORE, 2, 1e-18, True))
@example(_pin(ONE_PAST_CORE, 2, 0.0, False))
@example(_pin(TWO_PAST_CORE, 2, 0.0, True))
# exteriors of one and two atoms a side, where the core's clamps are the
# window's clamps or its first free atoms
@example(_pin(ChainParams(m=300, k0=1e8, k2=1e-8), 2, 1e-18, False))
@example(_pin(ChainParams(m=300, k0=1e9, k2=1e-6), 2, 0.0, True))
# a chain that is its own window
@example(_pin(ChainParams(m=40), 4, 1e-12, False))
def test_core_marks_equal_window_marks(case):
    # marking on the core, the exterior bounded in closed form, gives the
    # marked set of the indicators extended over the window bit for bit
    params, part, tau, use_gamma = case
    report = estimators.estimate(estimators.solve_dual_pair(params, part), use_gamma)
    marked, expect = mark_atoms(report, tau), window_marks(report, tau)
    assert marked.dtype == expect.dtype
    assert np.array_equal(marked, expect)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(_marking_cases())
@example(_pin(ChainParams(m=1000, k0=0.0786, k1=1.91, k2=1.27), 0, 1e-16, False))
@example(_pin(ChainParams(m=100_000, k0=0.00428, k1=4.86, k2=0.79), 0, 1e-17, True))
def test_adaptive_traces_do_not_depend_on_where_marking_runs(case):
    params, _, tau, use_gamma = case
    config = AdaptConfig(tau_gl=tau, max_iterations=6, use_gamma=use_gamma)
    trace = run_adaptive(params, config)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adaptivity, "mark_atoms", window_marks)
        window = run_adaptive(params, config)
    assert (trace.status, trace.records) == (window.status, window.records)
    assert np.array_equal(trace.final_atomistic, window.final_atomistic)
