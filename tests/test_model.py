"""Chain geometry, partitions, assembly, and energy bookkeeping."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcfk import banded
from qcfk.estimators import estimate, exact_goal_errors, solve_dual_pair
from qcfk.adaptivity import fixed_k_run
from qcfk.model import (
    A0_MAX,
    ENERGY_MAX,
    K2_K1_MAX,
    WINDOW_EPS,
    ChainParams,
    _decay_exponent,
    assemble,
    atom_ids,
    d_apply,
    dt_apply,
    interval_partition,
    make_partition,
    reduce_system,
    sizes,
    stiffness_bands,
    well_positions,
)

from oracle_dense import (
    dense_solve,
    dense_system,
    energy_direct,
    energy_matrix,
    fd_gradient,
    misfit,
    quad_form,
    flavor_partition,
    random_partition,
    random_point,
    solve_displacements,
    solve_positions,
    to_dense,
)


# ---------------------------------------------------------------------------
# parameters and geometry


def test_params_validation():
    with pytest.raises(ValueError):
        ChainParams(m=2)
    with pytest.raises(ValueError):
        ChainParams(m=10, k0=0.0)
    with pytest.raises(ValueError):
        ChainParams(m=10, k1=-1.0)
    with pytest.raises(ValueError):
        ChainParams(m=10, k2=-0.1)
    with pytest.raises(ValueError):
        ChainParams(m=10, a0=0.0)
    with pytest.raises(ValueError):
        ChainParams(m=10, bc=(0.0, 1.0))
    # non-finite numbers and a non-integral size are rejected on entry
    nan, inf = float("nan"), float("inf")
    for bad in (
        dict(k1=nan),
        dict(k2=inf),
        dict(k0=nan),
        dict(k0=inf),
        dict(a0=nan),
        dict(a0=inf),
        dict(bc=(-10.0, -9.0, nan, 10.0)),
    ):
        with pytest.raises(ValueError):
            ChainParams(m=10, **bad)
    # a stiffness entry past the largest float, on a valid energy scale
    with pytest.raises(ValueError, match="largest float"):
        ChainParams(m=10, k0=1.0, k1=1e308, k2=1e308, a0=1e-5)
    with pytest.raises(ValueError, match="integer"):
        ChainParams(m=50.5)
    # a bool is an Integral, but no chain size
    for bad in (True, np.True_):
        with pytest.raises(ValueError, match="m must be an integer"):
            ChainParams(m=bad)
    assert ChainParams(m=np.int64(10)).n_atoms == 20


def test_huge_springs_size_and_solve():
    # k1 = 1e300 squared to inf in the decay exponent and divided by zero in
    # sizes; its ratios are a soft substrate, k0/k12 = 1e-300, whose decay
    # reaches past any chain: the chain is its own window, and it solves
    p = ChainParams(m=1000, k1=1e300)
    part = interval_partition(p, 5)
    assert sizes(p, part) == (1000, 1000)
    assert sizes(ChainParams(m=10**9, k1=1e300), part) == (10**9, 10**9)
    run = fixed_k_run(p, 5)
    rep = run.report
    values = (run.q_error, rep.eta1, rep.eta2, rep.bound_low, rep.bound_high)
    assert all(map(math.isfinite, values))


def test_lattice_spacing_has_a_limit():
    # a0 = 1e200 overflowed squaring it for y . M_a y; spacings past the
    # limit are rejected where they enter, and the limit itself computes
    with pytest.raises(ValueError, match="at most 1e\\+50"):
        ChainParams(m=1000, a0=1e200)
    run = fixed_k_run(ChainParams(m=1000, a0=A0_MAX), 5)
    rep = run.report
    values = (run.q_error, rep.eta1, rep.eta2, rep.bound_low, rep.bound_high)
    assert all(map(math.isfinite, values))
    # the model is linear in a0 and the clamps together
    base = fixed_k_run(ChainParams(m=1000), 5)
    assert math.isclose(run.q_error, A0_MAX * base.q_error, rel_tol=1e-12)


def test_clamp_offsets_have_a_limit():
    # clamps 1e160 off their wells overflowed inside the solve; an offset
    # past A0_MAX, or one whose energy scale passes ENERGY_MAX, is rejected
    # where it enters, and the limit itself computes
    wells = np.array([-50.0, -49.0, 49.0, 50.0])
    for d, springs in ((1e160, {}), (2 * A0_MAX, {}), (1e20, dict(k1=1e270))):
        with pytest.raises(ValueError, match="of the wells"):
            ChainParams(m=50, bc=tuple(wells + d), **springs)
    p = ChainParams(m=50, bc=tuple(wells + [-A0_MAX, 0.0, 0.0, A0_MAX]))
    pair = solve_dual_pair(p, interval_partition(p, 5))
    rep, (qe,) = estimate(pair), exact_goal_errors(pair)
    values = (qe, rep.eta1, rep.eta2, rep.bound_low, rep.bound_high)
    assert all(map(math.isfinite, values))
    assert np.isfinite(pair.residual_primal).all()


def test_next_nearest_springs_have_a_limit():
    # at k0 = k1 = 1 and K = 2 the sandwich failed from k2 = 3e14 (M = 4)
    # and M_a lost definiteness in floats from k2 = 1e16; ratios past the
    # limit are rejected where they enter, and the limit itself computes
    with pytest.raises(ValueError, match="K2_K1_MAX = 1e\\+12"):
        ChainParams(m=10, k0=1.0, k1=1.0, k2=math.nextafter(K2_K1_MAX, math.inf))
    for m in (4, 10, 40, 200):
        p = ChainParams(m=m, k0=1.0, k1=1.0, k2=K2_K1_MAX)
        pair = solve_dual_pair(p, interval_partition(p, 2))
        rep, (qe,) = estimate(pair), exact_goal_errors(pair)
        assert rep.bound_low <= qe <= rep.bound_high, m


def test_energy_scale_has_a_limit():
    # the squared norms grow like k a0^2, and like k2^2/k1 a0^2 where stiff
    # next-nearest springs leave E_a ill-conditioned: past the limit they
    # overflowed, so such chains are rejected where they enter
    for (k0, k1, k2), a0 in (((1.0, 1e260, 2.0), 1e21), ((1.0, 1e280, 1e291), 1.0)):
        with pytest.raises(ValueError, match="ENERGY_MAX = 1e\\+300"):
            ChainParams(m=1000, k0=k0, k1=k1, k2=k2, a0=a0)
    for (k0, k1, k2), a0 in (((1.0, 1e260, 2.0), 1e20), ((1.0, 1e280, 1e289), 1.0)):
        run = fixed_k_run(ChainParams(m=1000, k0=k0, k1=k1, k2=k2, a0=a0), 5)
        rep = run.report
        values = (run.q_error, rep.eta1, rep.eta2, rep.bound_low, rep.bound_high)
        assert all(map(math.isfinite, values))


def test_a_decay_too_slow_to_resolve_solves_the_whole_chain():
    # at k0/k12 = 2e-41 the exterior's fold cancelled the core's edge diagonal
    # and its factor failed: a decay that slow reaches past the chain, as a
    # decay that underflows does, while a resolvable one keeps its core
    part = make_partition(ChainParams(m=100), [])
    slow = ChainParams(m=10**30, k0=1e-40, k1=1.0, k2=1.0)
    assert sizes(slow, part) == (10**30, 10**30)
    p = ChainParams(m=10**30, k0=1e-19, k1=1.0, k2=1.0)
    assert sizes(p, part)[1] == 69
    run = fixed_k_run(p, 5)
    assert run.report.bound_low <= run.q_error <= run.report.bound_high


def test_numpy_size_does_not_overflow_the_far_field_sums():
    # b . M_a b sums ~M^3 / 3 exactly in integers: a numpy int64 M of 1e7
    # would wrap around (numpy only warns) and shrink y . M_a y 250-fold
    want = ChainParams(m=10**7)
    p = ChainParams(m=np.int64(10**7))
    assert type(p.m) is int and p == want
    part = interval_partition(p, 10)
    pair, want_pair = solve_dual_pair(p, part), solve_dual_pair(want, part)
    assert pair.ref.ymy_far == want_pair.ref.ymy_far
    assert math.isclose(pair.ref.ymy_far, 6.6666757e20, rel_tol=1e-7)
    assert estimate(pair).as_dict() == estimate(want_pair).as_dict()


def test_equal_params_compute_the_same_bits():
    # k0 = 3 and k0 = 3.0 are equal params; as an int, k0 used to round
    # y . M_a y differently in its last digit
    as_int, as_float = ChainParams(m=10**6, k0=3), ChainParams(m=10**6, k0=3.0)
    assert as_int == as_float
    assert all(type(getattr(as_int, k)) is float for k in ("k0", "k1", "k2", "a0"))
    part = interval_partition(as_int, 10)
    got, want = solve_dual_pair(as_int, part), solve_dual_pair(as_float, part)
    assert got.ref.ymy_far == want.ref.ymy_far == 2.00000299994953e18
    assert estimate(got).as_dict() == estimate(want).as_dict()
    # non-real values stay rejected
    for bad in (dict(k0="1"), dict(a0="1"), dict(m="10"), dict(k2=1j)):
        with pytest.raises((TypeError, ValueError)):
            ChainParams(**{"m": 10, **bad})


def test_params_derived_counts():
    p = ChainParams(m=7, k1=3.0, k2=0.5)
    assert p.k12 == 3.0 + 4 * 0.5
    assert p.n_atoms == 14
    ids = atom_ids(p)
    assert ids[0] == -6 and ids[-1] == 7
    assert len(ids) == 14


def test_default_bc_pins_clamped_atoms_to_wells():
    # the default boundary positions are the well positions of the four
    # clamped atoms, which stretches the chain by one spacing overall
    p = ChainParams(m=5, a0=0.5)
    ids = atom_ids(p)
    b = well_positions(p, ids)
    assert p.bc is None and p.clamps == (b[0], b[1], b[-2], b[-1])
    assert p.clamps[0] == -p.m * p.a0 and p.clamps[-1] == p.m * p.a0


def test_replace_keeps_the_default_clamps_at_the_wells():
    # the default clamps follow m and a0 through dataclasses.replace: the
    # replaced chain is the fresh one, on its window and to its estimate
    for change in (dict(a0=0.1), dict(m=50_000), dict(m=60)):
        fresh = ChainParams(**{"m": 100_000, **change})
        replaced = dataclasses.replace(ChainParams(m=100_000), **change)
        assert replaced == fresh and replaced.clamps == fresh.clamps
        part = interval_partition(fresh, 28)
        assert sizes(replaced, part) == sizes(fresh, part)
        got = estimate(solve_dual_pair(replaced, part)).as_dict()
        assert got == estimate(solve_dual_pair(fresh, part)).as_dict()
    # given clamps are kept as given
    bc = (-101.0, -99.0, 99.0, 101.0)
    assert dataclasses.replace(ChainParams(m=100, bc=bc), a0=0.5).clamps == bc


def test_bc_list_equals_tuple_form():
    # the default positions given as a list are the default: equal, hashable
    # params, and a solve window as short as the tuple form's
    bc = [-100000.0, -99999.0, 99999.0, 100000.0]
    as_list = ChainParams(m=100000, bc=bc)
    as_tuple = ChainParams(m=100000, bc=tuple(bc))
    assert as_list == as_tuple and hash(as_list) == hash(as_tuple)
    part = interval_partition(as_list, 28)
    assert sizes(as_list, part) == sizes(as_tuple, part)
    assert sizes(as_list, part)[0] < as_list.m


def test_hand_typed_default_clamps_keep_the_window():
    # clamps within a few ulps of M a0 of the wells are the default typed by
    # hand: params keep them as given, and they solve on the default's window
    # to the default's estimate
    typed = ChainParams(m=100000, a0=0.1, bc=(-10000.0, -9999.9, 9999.9, 10000.0))
    default = ChainParams(m=100000, a0=0.1)
    assert typed.clamps != default.clamps and typed.clamps[1] == -9999.9
    part = interval_partition(typed, 28)
    assert sizes(typed, part) == sizes(default, part)
    # span 28 pads to the floor of 64, and the core keeps 5 atoms past it
    assert sizes(typed, part) == (_decay_width(default) + 64, 64 + 5)
    got = estimate(solve_dual_pair(typed, part)).as_dict()
    assert got == estimate(solve_dual_pair(default, part)).as_dict()
    # a boundary layer of 1e-9 a0 is not round-off: the chain is its own window
    for i in range(4):
        bc = list(default.clamps)
        bc[i] += 1e-9 * default.a0
        shifted = ChainParams(m=100000, a0=0.1, bc=bc)
        assert sizes(shifted, part) == (shifted.m, shifted.m)
    assert solve_dual_pair(shifted, part).ref.window is shifted


def _decay_width(params: ChainParams) -> int:
    """w of the window rule: the slowest decay falls below WINDOW_EPS over it."""
    return math.ceil(math.log(1.0 / WINDOW_EPS) / _decay_exponent(params))


# spring boxes the suite's property tests and the benchmark's workloads draw
PROPERTY_SPRINGS = {"k0": (0.2, 3.0), "k1": (0.5, 5.0), "k2": (0.0, 4.0)}
BENCH_SPRINGS = {"k0": (0.5, 2.0), "k1": (1.0, 4.0), "k2": (0.5, 3.0)}


@st.composite
def _springs(draw, box=PROPERTY_SPRINGS):
    return {k: draw(st.floats(lo, hi)) for k, (lo, hi) in box.items()}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_springs(), st.integers(0, 100_000), st.booleans())
def test_window_pads_only_the_span(springs, span, left):
    # the window holds the region and the decay width, and pads the span to
    # a power of two at least 64: never more than max(span, 64) atoms over
    params = ChainParams(m=10**9, **springs)
    part = make_partition(params, [-span if left else span])
    w = _decay_width(params)
    m_w, m_core = sizes(params, part)
    assert m_w >= span + w
    assert m_w - (span + w) <= max(span, 64)
    # the core drops the decay width but keeps the region and 5 atoms more
    assert m_w - m_core == w - 5 and m_core >= span + 5
    # capped at the chain: a chain no longer than the window is its own
    short = ChainParams(m=m_w, **springs)
    assert sizes(short, part) == (m_w, m_w)
    assert sizes(ChainParams(m=m_w + 1, **springs), part) == (m_w, m_core)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(_springs(PROPERTY_SPRINGS), _springs(BENCH_SPRINGS)),
    st.integers(52, 10**6),
)
def test_table2_regions_share_one_window(springs, m):
    # the paper's K = 0..50 sweep solves on one window, so it builds one
    # atomistic reference; a sequence of regions is sized region by region
    params = ChainParams(m=m, **springs)
    parts = [interval_partition(params, k) for k in range(51)]
    wins = sizes(params, parts)
    assert wins == [sizes(params, part) for part in parts]
    assert len(set(wins)) == 1


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_springs(), st.integers(3, 20_000), st.integers(1, 4000))
def test_growing_region_rebuilds_its_window_log_times(springs, m, k_max):
    params = ChainParams(m=m, **springs)
    k_max = min(k_max, m - 2)
    wins = sizes(params, [interval_partition(params, k) for k in range(k_max + 1)])
    changes = sum(a != b for a, b in zip(wins, wins[1:]))
    assert changes <= math.ceil(math.log2(max(k_max, 1))) + 1


def test_well_positions_shift_across_defect():
    p = ChainParams(m=4, a0=2.0)
    ids = atom_ids(p)
    b = well_positions(p, ids)
    a = ids * p.a0
    # left of the defect the wells sit one spacing below the lattice site
    left = ids <= 0
    assert np.array_equal(b[left], a[left] - p.a0)
    assert np.array_equal(b[~left], a[~left])
    # single ids work too
    assert well_positions(p, np.array([0]))[0] == -2.0
    assert well_positions(p, np.array([1]))[0] == 2.0


# ---------------------------------------------------------------------------
# partitions


def test_interval_partition_flags():
    p = ChainParams(m=6)
    part = interval_partition(p, 2)
    assert np.array_equal(part.atomistic, [-1, 0, 1, 2])
    full = interval_partition(p, 0)
    assert full.atomistic.size == 0
    with pytest.raises(ValueError):
        interval_partition(p, -1)
    with pytest.raises(ValueError):
        interval_partition(p, p.m - 1)


def test_interval_partition_equals_the_listed_range():
    p = ChainParams(m=60)
    for k in (0, 1, 7, 58, np.int64(12)):
        got = interval_partition(p, k).atomistic
        want = make_partition(p, range(-k + 1, k + 1)).atomistic
        assert got.dtype == want.dtype and np.array_equal(got, want)
    with pytest.raises(ValueError, match=r"k must be in \[0, 58\], got 59"):
        interval_partition(p, 59)
    # K is an integer, as atom ids are
    for bad in (2.5, float("nan"), "3", True, np.True_):
        with pytest.raises(ValueError, match="k must be an integer"):
            interval_partition(p, bad)


def test_make_partition_rejects_out_of_range():
    p = ChainParams(m=5)
    with pytest.raises(ValueError, match="atomistic atom 6"):
        make_partition(p, atomistic=[6])
    with pytest.raises(ValueError, match="atomistic atom -9"):
        make_partition(p, atomistic=[-9, 0])
    # ids are whole numbers, never truncated
    for bad in ([2.5, -1.7], [0, float("nan")]):
        with pytest.raises(ValueError, match="must be integers"):
            make_partition(p, atomistic=bad)
    assert make_partition(p, atomistic=[2.0, -1.0]).atomistic.tolist() == [-1, 2]
    # a boolean mask is not a list of ids (it read as atoms 0 and 1)
    for mask in ([True, False, True], np.ones(10, dtype=bool)):
        with pytest.raises(ValueError, match="atomistic must list atom ids"):
            make_partition(ChainParams(m=10), mask)
    # nor is a boolean among ids (it read as atom 1)
    for mixed in ([True, 5], [5, np.True_], (3, False)):
        with pytest.raises(ValueError, match="atomistic must list atom ids"):
            make_partition(ChainParams(m=10), mixed)


# ---------------------------------------------------------------------------
# assembled matrices, small literal cases


def test_atomistic_bond_matrix_small():
    # m = 3, k1 = k2 = 2: five bonds, NNN pairs add 2 k2 inside, k2 at the
    # outermost bonds, so the diagonal reads (4, 6, 6, 6, 4) with offdiag 2
    p = ChainParams(m=3)
    model = assemble(p, flavor_partition(p, interval_partition(p, 0), "atomistic"))
    dense = to_dense(model.e_mat)
    expect = np.array(
        [
            [4.0, 2.0, 0.0, 0.0, 0.0],
            [2.0, 6.0, 2.0, 0.0, 0.0],
            [0.0, 2.0, 6.0, 2.0, 0.0],
            [0.0, 0.0, 2.0, 6.0, 2.0],
            [0.0, 0.0, 0.0, 2.0, 6.0 - 2.0],
        ]
    )
    expect[4, 4] = 4.0
    assert np.allclose(dense, expect)


def test_blended_bond_matrix_pure_continuum():
    # no atomistic atoms: every bond carries the Cauchy-Born constant k12
    # and the NNN coupling vanishes
    p = ChainParams(m=4, k1=3.0, k2=0.25)
    model = assemble(p, interval_partition(p, 0))
    dense = to_dense(model.e_mat)
    assert np.allclose(dense, np.eye(2 * p.m - 1) * p.k12)
    # the Hessian adds the misfit k0 on every atom's diagonal; it is kept
    # on the free atoms
    d = np.diff(np.eye(2 * p.m), axis=0)
    hess = to_dense(stiffness_bands(p, model.e_mat))
    full = d.T @ dense @ d + p.k0 * np.eye(2 * p.m)
    assert np.allclose(hess, full[2:-2, 2:-2])


def test_stacked_assembly_equals_one_by_one():
    # a sequence of partitions stacks the band matrices and loads row by row,
    # bit for bit, and shares everything that does not depend on the split;
    # the regions reach both chain ends
    rng = np.random.default_rng(5)
    p = ChainParams(m=40, k0=0.7, k1=1.5, k2=2.5)
    parts = [
        interval_partition(p, 0),
        interval_partition(p, 38),
        make_partition(p, [-39, 3, 40]),
        random_partition(rng, p),
    ]
    stacked = assemble(p, parts)
    ssys = reduce_system(p, stacked)
    for i, part in enumerate(parts):
        one = assemble(p, part)
        osys = reduce_system(p, one)
        assert np.array_equal(stacked.e_mat.bands[i], one.e_mat.bands)
        assert np.array_equal(ssys.mat.bands[i], osys.mat.bands)
        assert np.array_equal(ssys.rhs_wells[i], osys.rhs_wells)
        for name in ("ids", "a_eq", "b_eq"):
            assert np.array_equal(getattr(stacked, name), getattr(one, name))
        for name in ("wells_free", "lift", "free_index"):
            assert np.array_equal(getattr(ssys, name), getattr(osys, name))


def test_difference_maps_work_row_by_row():
    rng = np.random.default_rng(32)
    v = rng.normal(size=(2, 3, 9))
    w = rng.normal(size=(2, 3, 8))
    dv, dtw = d_apply(v), dt_apply(w)
    assert dv.shape == w.shape and dtw.shape == v.shape
    for s in range(2):
        for i in range(3):
            assert np.array_equal(dv[s, i], d_apply(v[s, i]))
            assert np.array_equal(dtw[s, i], dt_apply(w[s, i]))


def test_d_apply_adjoint():
    rng = np.random.default_rng(31)
    p = ChainParams(m=8)
    model = assemble(p, make_partition(p, atomistic=[-3, 0, 1, 2]))
    for _ in range(20):
        v = rng.normal(size=model.n_points)
        w = rng.normal(size=model.n_points - 1)
        assert np.isclose(np.dot(d_apply(v), w), np.dot(v, dt_apply(w)))


# ---------------------------------------------------------------------------
# energies


def test_energy_at_wells_and_lattice():
    # at y = b only the stretch terms contribute: the defect bond is
    # stretched to 2 a0 and its two spanning NNN pairs to 3 a0; with
    # k1 = k2 = 2, a0 = 1 that totals 1 + 2 * 1 = 3 for any m
    for m in (3, 5, 12):
        p = ChainParams(m=m)
        b = well_positions(p, atom_ids(p))
        assert np.isclose(energy_direct(p, interval_partition(p, 0), "atomistic", b), 3.0)
    # at y = a only the misfit contributes: m atoms on the left sit one
    # spacing from their wells, each worth 1/2 k0 a0^2
    p = ChainParams(m=7, k0=3.0, a0=2.0)
    a = atom_ids(p) * p.a0
    got = energy_direct(
        p, interval_partition(p, 0), "atomistic", a, check_wells=False
    )
    assert np.isclose(got, 0.5 * p.k0 * p.a0**2 * p.m)


def test_energy_matrix_matches_direct():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(120):
        p = ChainParams(m=int(rng.integers(3, 14)))
        part = random_partition(rng, p)
        for flavor in ("atomistic", "ac"):
            y = random_point(rng, 2 * p.m, well_positions(p, atom_ids(p)))
            em = energy_matrix(p, part, flavor, y)
            ed = energy_direct(p, part, flavor, y)
            scale = max(abs(em), abs(ed), 1.0)
            worst = max(worst, abs(em - ed) / scale)
    assert worst < 1e-12


def test_energy_warns_off_well():
    p = ChainParams(m=3)
    y = well_positions(p, atom_ids(p)).astype(float)
    y[2] += 0.9  # nearly a full spacing off its well
    with pytest.warns(UserWarning, match="wells"):
        energy_direct(p, interval_partition(p, 0), "atomistic", y)


# ---------------------------------------------------------------------------
# reduced linear systems


def test_reduce_system_shapes_and_free_ids():
    p = ChainParams(m=6)
    part = interval_partition(p, 2)
    sys_a = reduce_system(p, assemble(p, flavor_partition(p, part, "atomistic")))
    assert sys_a.mat.n == 2 * p.m - 4
    # free_index carries atom ids, not array offsets
    assert np.array_equal(sys_a.free_index, np.arange(-3, 5))


def _chain(rng, m: int, offset: bool) -> ChainParams:
    """Chain of half-size m, clamped at its wells or, with ``offset``, up to
    a0/2 off each of them, which loads the free atoms through the lift."""
    p = ChainParams(m=m)
    if not offset:
        return p
    return ChainParams(m=m, bc=np.add(p.clamps, rng.uniform(-0.5, 0.5, 4) * p.a0))


def test_solutions_match_dense_oracle():
    # oracle: dense finite-difference Hessian/gradient of the clamped energy
    # (exact for quadratics at h = 1) solved with numpy.linalg.solve
    rng = np.random.default_rng(13579)
    worst = 0.0
    for i in range(40):
        p = _chain(rng, int(rng.integers(3, 14)), offset=i % 2 == 1)
        part = random_partition(rng, p)
        flavor = ("atomistic", "ac")[rng.integers(0, 2)]
        system = reduce_system(p, assemble(p, flavor_partition(p, part, flavor)))
        u = solve_displacements(system)
        y = solve_positions(system)
        y_dense = dense_solve(p, part, flavor)
        scale = np.max(np.abs(y_dense)) + 1.0
        worst = max(worst, np.max(np.abs(y - y_dense)) / scale)
        assert np.allclose(u + system.wells_free, y)
    assert worst < 1e-9


def test_assembled_system_matches_dense_fd():
    rng = np.random.default_rng(24680)
    for i in range(25):
        p = _chain(rng, int(rng.integers(3, 12)), offset=i % 2 == 1)
        part = random_partition(rng, p)
        flavor = ("atomistic", "ac")[rng.integers(0, 2)]
        system = reduce_system(p, assemble(p, flavor_partition(p, part, flavor)))
        h_dense, load_dense = dense_system(p, part, flavor)
        assert np.allclose(to_dense(system.mat), h_dense, atol=1e-9)
        # the dense load is that of absolute positions y = u + b
        load_wells = load_dense - h_dense @ system.wells_free
        assert np.allclose(system.rhs_wells, load_wells, atol=1e-9)


def test_stiffness_matches_quadratic_form():
    rng = np.random.default_rng(112)
    p = ChainParams(m=9)
    for _ in range(20):
        part = random_partition(rng, p)
        flavor = ("atomistic", "ac")[rng.integers(0, 2)]
        model = assemble(p, flavor_partition(p, part, flavor))
        free = stiffness_bands(p, model.e_mat)
        v = rng.normal(size=model.n_points)
        # H is kept on the free atoms, so v leaves the clamped ones at their
        # wells
        v[[0, 1, -2, -1]] = 0.0
        # 1/2 v' H v equals the energy of the shifted configuration minus
        # linear and constant parts; check against energy differences
        e0 = energy_matrix(p, part, flavor, model.b_eq)
        e1 = energy_matrix(p, part, flavor, model.b_eq + v)
        grad_term = np.dot(v, _grad_at_b(model))
        assert np.isclose(
            e1 - e0 - grad_term, 0.5 * quad_form(free, v[2:-2]), rtol=1e-9
        )


def _grad_at_b(model):
    # gradient of the quadratic energy at y = b: D' E D (b - a) + K (b - b)
    z = d_apply(model.b_eq - model.a_eq)
    return dt_apply(banded.matvec(model.e_mat, z))


def test_displacements_antisymmetric_about_defect():
    # mirror symmetry i -> 1 - i maps the chain onto itself and flips the
    # misfit, so the displacement field is antisymmetric
    for m, k in ((10, 0), (20, 4), (35, 7)):
        p = ChainParams(m=m)
        system = reduce_system(p, assemble(p, interval_partition(p, k)))
        u = solve_displacements(system)
        assert np.max(np.abs(u + u[::-1])) < 1e-12


def test_fd_gradient_matches_assembled_residual():
    # oracle: central finite differences of the direct (loop-based) energy
    rng = np.random.default_rng(9000)
    for _ in range(25):
        p = ChainParams(m=int(rng.integers(3, 10)))
        part = random_partition(rng, p)
        flavor = ("atomistic", "ac")[rng.integers(0, 2)]
        model = assemble(p, flavor_partition(p, part, flavor))
        y = random_point(rng, model.n_points, well_positions(p, atom_ids(p)))

        def ener(vec):
            return energy_direct(p, part, flavor, vec, check_wells=False)

        g_fd = fd_gradient(ener, y)
        z = d_apply(y - model.a_eq)
        g_an = dt_apply(banded.matvec(model.e_mat, z))
        g_an += misfit(p, part, flavor) * (y - model.b_eq)
        scale = np.max(np.abs(g_an)) + 1.0
        assert np.max(np.abs(g_fd - g_an)) / scale < 1e-9
