"""Band storage, factorization, and solves against dense references."""

import numpy as np
import pytest

from qcfk import banded
from qcfk.banded import BandedSpdMatrix, NotPositiveDefiniteError

from oracle_dense import factor_solve, to_dense


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
        assert banded.quad_form(a, v) == pytest.approx(dense, rel=1e-12, abs=1e-12)
        assert banded.norm(a, v) == pytest.approx(np.sqrt(dense), rel=1e-10)


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
