"""Band storage, factorization, and solves against dense references."""

import numpy as np
import pytest

from qcfk import banded
from qcfk.banded import BandedSpdMatrix, NotPositiveDefiniteError

from qcfk import estimators
from qcfk.cli import TABLE2_K
from qcfk.model import ChainParams, interval_partition

from oracle_dense import enorm, factor_solve, quad_form, to_dense


def random_spd(rng, n, bw):
    bands = np.zeros((bw + 1, n))
    for d in range(1, bw + 1):
        bands[d, : n - d] = rng.uniform(-1.0, 1.0, n - d)
    # diagonal dominance guarantees positive definiteness
    bands[0] = 0.1 + rng.uniform(0.0, 1.0, n)
    for d in range(1, bw + 1):
        bands[0, : n - d] += np.abs(bands[d, : n - d])
        bands[0, d:] += np.abs(bands[d, : n - d])
    return BandedSpdMatrix(bands)


def test_matvec_and_dense_agree():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        bw = int(rng.integers(0, 3))
        a = random_spd(rng, n, bw)
        x = rng.standard_normal(n)
        assert np.allclose(banded.matvec(a, x), to_dense(a) @ x, atol=1e-12)


def test_quad_form_matches_dense():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        a = random_spd(rng, n, int(rng.integers(0, 3)))
        v = rng.standard_normal(n)
        dense = float(v @ to_dense(a) @ v)
        assert quad_form(a, v) == pytest.approx(dense, rel=1e-12, abs=1e-12)
        assert enorm(a, v) == pytest.approx(np.sqrt(dense), rel=1e-10)


def test_norm_rejects_a_clearly_negative_form():
    # round-off negativity is clamped to 0; a form negative beyond it (an
    # indefinite matrix, or an A v that is not A's) raises
    a = BandedSpdMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
    v = np.array([1.0, 2.0])
    assert banded.norm(a, v, np.array([-1e-18, 0.0])) == 0.0
    with pytest.raises(ValueError, match="negative"):
        banded.norm(a, v, -banded.matvec(a, v))
    indefinite = BandedSpdMatrix(np.array([[1.0, 1.0], [2.0, 0.0]]))
    w = np.array([[1.0, -1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="not PSD"):
        banded.norm(indefinite, w, banded.matvec(indefinite, w))


def test_factor_solve_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(1, 200))
        bw = int(rng.integers(0, 3))
        a = random_spd(rng, n, bw)
        x = rng.standard_normal(n)
        got = banded.solve(banded.factor(a), banded.matvec(a, x))
        assert np.max(np.abs(got - x)) < 1e-9 * max(1.0, np.max(np.abs(x)))


def test_solve_matches_dense_solver():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 50))
        a = random_spd(rng, n, int(rng.integers(0, 3)))
        rhs = rng.standard_normal(n)
        want = np.linalg.solve(to_dense(a), rhs)
        got = factor_solve(a, rhs)
        assert np.max(np.abs(got - want)) < 1e-9 * max(1.0, np.max(np.abs(want)))


def test_identity_and_zero_rhs():
    a = BandedSpdMatrix(np.vstack([np.ones(7), np.zeros(7)]))
    rhs = np.arange(7.0)
    assert np.allclose(factor_solve(a, rhs), rhs)
    assert np.all(factor_solve(a, np.zeros(7)) == 0.0)


def test_small_tridiagonal_example():
    # diag (4, 6, 4), off-diagonal 2: the M=2 chain bond matrix
    a = BandedSpdMatrix(np.array([[4.0, 6.0, 4.0], [2.0, 2.0, 0.0]]))
    rhs = np.array([1.0, -1.0, 2.0])
    want = np.linalg.solve(np.array([[4, 2, 0], [2, 6, 2], [0, 2, 4.0]]), rhs)
    assert np.allclose(factor_solve(a, rhs), want, rtol=1e-14)


def test_not_positive_definite_reports_pivot():
    a = BandedSpdMatrix(np.array([[1.0, -1.0]]))
    with pytest.raises(NotPositiveDefiniteError) as info:
        banded.factor(a)
    assert info.value.pivot == 2

    # leading minors 1 and 1 are fine, the third is 0.5 - 1 < 0
    b = BandedSpdMatrix(np.array([[1.0, 2.0, 0.5], [1.0, 1.0, 0.0]]))
    with pytest.raises(NotPositiveDefiniteError) as info:
        banded.factor(b)
    assert info.value.pivot == 3


def test_indefinite_band_difference_matvec():
    # differences of band matrices reuse the type; only factor() needs SPD
    rng = np.random.default_rng(5)
    a = random_spd(rng, 12, 1)
    b = random_spd(rng, 12, 1)
    diff = BandedSpdMatrix(a.bands - b.bands)
    x = rng.standard_normal(12)
    want = (to_dense(a) - to_dense(b)) @ x
    assert np.allclose(banded.matvec(diff, x), want, atol=1e-12)


def test_bandwidth_wider_than_matrix():
    # a 2x2 system stored pentadiagonally must still factor (trailing band
    # rows carry no entries)
    bands = np.zeros((3, 2))
    bands[0] = (2.0, 3.0)
    bands[1, 0] = 1.0
    a = BandedSpdMatrix(bands)
    rhs = np.array([1.0, 1.0])
    want = np.linalg.solve(np.array([[2.0, 1.0], [1.0, 3.0]]), rhs)
    assert np.allclose(factor_solve(a, rhs), want, rtol=1e-14)


def test_matrix_rhs_solve():
    rng = np.random.default_rng(6)
    a = random_spd(rng, 20, 2)
    rhs = rng.standard_normal((20, 3))
    f = banded.factor(a)
    got = banded.solve(f, rhs)
    dense = np.linalg.solve(to_dense(a), rhs)
    assert np.allclose(got, dense, atol=1e-10)


def test_solve_rejects_bad_right_hand_sides():
    rng = np.random.default_rng(7)
    f = banded.factor(random_spd(rng, 12, 2))
    for bad in (np.nan, np.inf, -np.inf):
        rhs = np.ones(12)
        rhs[5] = bad
        with pytest.raises(ValueError, match="finite"):
            banded.solve(f, rhs)
        with pytest.raises(ValueError, match="finite"):
            banded.solve(f, np.column_stack([np.ones(12), rhs]))
    for shape in ((11,), (13, 2), (12, 2, 1)):
        with pytest.raises(ValueError, match="right-hand side"):
            banded.solve(f, np.ones(shape))


def test_block_solve_equals_column_solves_bit_for_bit():
    rng = np.random.default_rng(8)
    for n, bw, k in ((1020, 2, 2), (2047, 1, 28), (30, 2, 5), (9, 0, 3)):
        f = banded.factor(random_spd(rng, n, bw))
        # columns of very different sizes, as the primal and dual loads are
        rhs = rng.standard_normal((n, k)) * np.logspace(-30, 3, k)
        block = banded.solve(f, rhs)
        for j in range(k):
            assert np.array_equal(block[:, j], banded.solve(f, rhs[:, j]))


def test_stacked_matvec_and_norm_equal_row_by_row_bit_for_bit():
    rng = np.random.default_rng(9)
    for n, bw in ((1023, 1), (1020, 2), (7, 2), (4, 0)):
        mats = [random_spd(rng, n, bw) for _ in range(5)]
        stack = BandedSpdMatrix(np.stack([a.bands for a in mats]))
        x = rng.standard_normal((2, 5, n))
        got = banded.matvec(stack, x)
        norms = enorm(mats[0], x)
        for s in range(2):
            for i, a in enumerate(mats):
                assert np.array_equal(got[s, i], banded.matvec(a, x[s, i]))
                assert norms[s, i] == enorm(mats[0], x[s, i])
                assert banded.rowdot(x[s], x[s])[i] == np.dot(x[s, i], x[s, i])
        # one matrix against a stack of vectors
        one = banded.matvec(mats[1], x)
        assert np.array_equal(one[1, 3], banded.matvec(mats[1], x[1, 3]))


def _one_by_one(stack, rhs):
    """Each matrix of a stack factored, then solved against its block."""
    return np.stack([banded.solve(banded.factor(BandedSpdMatrix(b)), r.T).T for b, r in zip(stack, rhs)])


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def test_a_stack_solved_in_one_call_has_the_bits_of_each_matrix_alone():
    rng = np.random.default_rng(10)
    for bw in (1, 2):
        for height in range(1, 17):
            n = int(rng.integers(bw + 1, 40))
            stack = np.stack([random_spd(rng, n, bw).bands for _ in range(height)])
            # junk in the unused trailing band slots, which no block may read
            for d in range(1, bw + 1):
                stack[:, d, n - d :] = rng.standard_normal((height, d))
            rhs = rng.standard_normal((height, 2, n)) * np.logspace(-30, 3, 2)[:, None]
            # loads of -0.0 but for one entry, on matrices whose solutions
            # underflow to signed zeros away from it: a block that touched
            # the next would change those signs
            stiff = stack.copy()
            stiff[:, 0] *= 1e80
            zeros = np.full((height, 2, n), -0.0)
            zeros[:, :, n // 2] = rng.standard_normal((height, 2))
            for a, b in ((stack, rhs), (stiff, zeros)):
                out = np.empty((2, height, n)).transpose(1, 0, 2)
                banded.solve_each(BandedSpdMatrix(a), b, out=out)
                assert _bits(out) == _bits(_one_by_one(a, b)), (bw, height)


def test_a_table2_stack_solved_in_one_call_has_the_bits_of_each_row_alone(monkeypatch):
    seen = []
    solve_each = banded.solve_each

    def spy(a, rhs, out):
        seen.append((a.bands.copy(), rhs.copy()))
        return solve_each(a, rhs, out)

    monkeypatch.setattr(banded, "solve_each", spy)
    p = ChainParams(m=20_000, k0=0.7, k1=1.3, k2=2.9)
    ((_, pair),) = estimators.solve_stacks(p, [interval_partition(p, k) for k in TABLE2_K])
    ((bands, rhs),) = seen
    assert bands.shape[0] == len(TABLE2_K)
    u, g = _one_by_one(bands, rhs).transpose(1, 0, 2)
    n = bands.shape[-1]
    lo = 2 - pair.ref.off + pair.ref.frame.start  # the core's free atoms in the frame
    assert _bits(pair.u_free[:, 2 - lo : 2 - lo + n]) == _bits(u)
    assert _bits(pair.g_free[:, 2 - lo : 2 - lo + n]) == _bits(g)


def test_a_stack_names_the_matrix_that_is_not_positive_definite():
    # every block but one is the identity; block r has a negative pivot
    for bw, n, height in ((1, 5, 4), (2, 7, 3), (2, 7, 1)):
        for row in range(height):
            for pivot in (1, n // 2 + 1, n):
                bands = np.zeros((height, bw + 1, n))
                bands[:, 0] = 1.0
                bands[row, 0, pivot - 1] = -1.0
                out = np.empty((height, 1, n))
                with pytest.raises(NotPositiveDefiniteError) as info:
                    banded.solve_each(BandedSpdMatrix(bands), np.ones((height, 1, n)), out=out)
                assert (info.value.row, info.value.pivot) == (row, pivot)
                assert f"matrix {row} of the stack" in str(info.value)
