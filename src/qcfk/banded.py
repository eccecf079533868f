"""Symmetric banded matrices and Cholesky solves.

Every matrix in this package is symmetric with a small, fixed bandwidth
(0, 1, or 2 subdiagonals), so we store only the lower bands and hand the
heavy lifting to LAPACK via scipy.  Storage layout: ``bands[d, j]`` holds
entry ``(j + d, j)`` of the matrix, i.e. row ``d`` is the d-th subdiagonal
left-aligned, with the trailing ``d`` slots unused (kept at zero).  This is
exactly the lower form LAPACK's ``dpbtrf`` expects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve_banded
from scipy.linalg.lapack import dpbtrf

Array = np.ndarray


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot.

    ``pivot`` is the 1-based index of the failing leading minor.
    """

    def __init__(self, pivot: int):
        self.pivot = pivot
        super().__init__(f"matrix is not positive definite (pivot {pivot})")


@dataclass(frozen=True)
class BandedSpdMatrix:
    """Lower bands of a symmetric matrix.

    Positive definiteness is only assumed (and checked) when the matrix is
    factored; ``matvec`` and ``quad_form`` work for any symmetric band, and
    differences of these matrices reuse the type.
    """

    bands: Array  # shape (bandwidth + 1, n)

    def __post_init__(self):
        if self.bands.ndim != 2:
            raise ValueError("bands must be a 2-d array of shape (bw + 1, n)")

    @property
    def n(self) -> int:
        return self.bands.shape[1]

    @property
    def bandwidth(self) -> int:
        return self.bands.shape[0] - 1


@dataclass(frozen=True)
class BandedFactor:
    """Cholesky factor in the same lower-band layout."""

    bands: Array


def zeros_like_band(n: int, bandwidth: int) -> Array:
    """Fresh zero band storage for an n-by-n matrix."""
    return np.zeros((bandwidth + 1, n))


def to_dense(a: BandedSpdMatrix) -> Array:
    """Expand to a full symmetric matrix (small problems and tests only)."""
    n = a.n
    out = np.zeros((n, n))
    for d in range(min(a.bandwidth, n - 1) + 1):
        vals = a.bands[d, : n - d]
        idx = np.arange(n - d)
        out[idx + d, idx] = vals
        out[idx, idx + d] = vals
    return out


def matvec(a: BandedSpdMatrix, x: Array) -> Array:
    """Product A @ x using only the stored bands."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != a.n:
        raise ValueError(f"vector length {x.shape[-1]} != matrix dimension {a.n}")
    out = a.bands[0] * x
    for d in range(1, min(a.bandwidth, a.n - 1) + 1):
        sub = a.bands[d, : a.n - d]
        out[..., d:] += sub * x[..., : a.n - d]
        out[..., : a.n - d] += sub * x[..., d:]
    return out


def quad_form(a: BandedSpdMatrix, v: Array) -> float:
    """v^T A v."""
    return float(np.dot(v, matvec(a, v)))


def norm(a: BandedSpdMatrix, v: Array) -> float:
    """Energy norm sqrt(v^T A v); tiny negative round-off is clamped to 0."""
    q = quad_form(a, v)
    if q < 0.0:
        # allow only round-off level negativity relative to |A||v|^2
        scale = float(np.max(np.abs(a.bands))) * float(np.dot(v, v))
        if q < -1e-10 * max(scale, 1.0):
            raise ValueError(f"quadratic form is negative ({q:.3e}); matrix not PSD")
        q = 0.0
    return float(np.sqrt(q))


def factor(a: BandedSpdMatrix) -> BandedFactor:
    """Cholesky factorization; raises NotPositiveDefiniteError with the pivot."""
    if a.bandwidth == 0:
        d = a.bands[0]
        bad = np.flatnonzero(d <= 0.0)
        if bad.size:
            raise NotPositiveDefiniteError(int(bad[0]) + 1)
        return BandedFactor(np.sqrt(d)[np.newaxis, :])
    # trim band rows that lie entirely outside the matrix
    ab = np.asarray_chkfinite(a.bands[: min(a.bandwidth, a.n - 1) + 1])
    cb, info = dpbtrf(ab, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"dpbtrf rejected argument {-info}")
    return BandedFactor(cb)


def solve(f: BandedFactor, rhs: Array) -> Array:
    """Solve A x = rhs given the factor of A."""
    rhs = np.asarray(rhs, dtype=float)
    if f.bands.shape[0] == 1:
        return rhs / (f.bands[0] ** 2)
    return cho_solve_banded((f.bands, True), rhs)


def factor_solve(a: BandedSpdMatrix, rhs: Array) -> Array:
    """One-shot factor + solve."""
    return solve(factor(a), rhs)
