"""Symmetric banded matrices and Cholesky solves.

Every matrix in this package is symmetric with a small, fixed bandwidth
(0, 1, or 2 subdiagonals), so we store only the lower bands and hand the
heavy lifting to LAPACK.  Storage layout: ``bands[d, j]`` holds entry
``(j + d, j)`` of the matrix, i.e. row ``d`` is the d-th subdiagonal
left-aligned, with the trailing ``d`` slots unused (kept at zero).  This is
exactly the lower form LAPACK's ``dpbtrf`` expects.

A stack of matrices of one size carries leading axes in front of the band
rows, and vectors stack the same way in front of their one axis: ``matvec``,
``norm``, ``rowdot`` and ``solve_each`` work row by row over those axes,
with the same bits as one row at a time; ``solve_each`` solves a stack by
one LAPACK call, as one block-diagonal band matrix.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import numpy as np

from ._record import frozen

Array = np.ndarray


def _lapack():
    """scipy's f2py LAPACK module, loaded alone: the ``scipy.linalg``
    package import it would otherwise come with adds about 26 MB of memory
    and 0.1 s, for four banded Cholesky routines.  It is the module
    ``scipy.linalg.lapack`` uses, so a later import of that shares it."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    linalg = Path(importlib.util.find_spec("scipy").origin).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = linalg / f"_flapack{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    from scipy.linalg import lapack  # a layout this does not know

    return lapack


_LAPACK = _lapack()
dpbsv, dpbtrf, dpbtrs = _LAPACK.dpbsv, _LAPACK.dpbtrf, _LAPACK.dpbtrs
dptsv, dpttrf, dpttrs = _LAPACK.dptsv, _LAPACK.dpttrf, _LAPACK.dpttrs


class NotPositiveDefiniteError(ValueError):
    """Cholesky hit a non-positive pivot.

    ``pivot`` is the 1-based failing leading minor, of matrix ``row`` of a stack.
    """

    def __init__(self, pivot: int, row: int | None = None):
        self.pivot, self.row = pivot, row
        which = "matrix" if row is None else f"matrix {row} of the stack"
        super().__init__(f"{which} is not positive definite (pivot {pivot})")


@frozen
class BandedSpdMatrix:
    """Lower bands of a symmetric matrix, or of a stack of them.

    Positive definiteness is only assumed (and checked) when the matrix is
    factored; ``matvec`` and ``norm`` work for any symmetric band, and
    differences of these matrices reuse the type.
    """

    bands: Array  # shape (..., bandwidth + 1, n)

    def __post_init__(self):
        if self.bands.ndim < 2:
            raise ValueError("bands must have shape (..., bw + 1, n)")

    @property
    def n(self) -> int:
        return self.bands.shape[-1]

    @property
    def bandwidth(self) -> int:
        return self.bands.shape[-2] - 1


@frozen
class BandedFactor:
    """Cholesky factor in the same lower-band layout (L D L^T if tridiagonal)."""

    bands: Array


def rowdot(a: Array, b: Array) -> Array:
    """Dot products of matching rows of two stacks of vectors.

    Each row's product has the bits of ``np.dot`` on that row.  A pair of
    plain vectors gives a scalar.
    """
    return np.vecdot(a, b)[()]


def matvec(a: BandedSpdMatrix, x: Array) -> Array:
    """Product A @ x using only the stored bands, row by row over stacks."""
    x = np.asarray(x, dtype=float)
    b = a.bands
    n = b.shape[-1]
    if x.shape[-1] != n:
        raise ValueError(f"vector length {x.shape[-1]} != matrix dimension {n}")
    out = b[..., 0, :] * x
    for d in range(1, min(b.shape[-2], n)):
        sub = b[..., d, : n - d]
        out[..., d:] += sub * x[..., : n - d]
        out[..., : n - d] += sub * x[..., d:]
    return out


def norm(a: BandedSpdMatrix, v: Array, av: Array) -> Array:
    """Energy norm sqrt(v^T A v) of each row of v, given ``av`` = A v
    (however the caller formed it); tiny negative round-off is clamped to 0,
    a clearly negative form raises."""
    q = rowdot(v, av)
    if np.minimum.reduce(q, axis=None) < 0.0:
        neg = q < 0.0
        # allow only round-off level negativity relative to |A||v|^2
        scale = np.abs(a.bands).max(axis=(-2, -1)) * rowdot(v, v)
        if (q < -1e-10 * np.maximum(scale, 1.0)).any():
            raise ValueError(
                f"quadratic form is negative ({q.min():.3e}); matrix not PSD"
            )
        q = np.where(neg, 0.0, q)
    return np.sqrt(q)[()]


def factor(a: BandedSpdMatrix) -> BandedFactor:
    """Cholesky factorization; raises NotPositiveDefiniteError with the pivot."""
    # trim band rows that lie entirely outside the matrix
    ab = np.asarray_chkfinite(a.bands[: min(a.bandwidth, a.n - 1) + 1])
    if len(ab) == 2:  # tridiagonal: a scalar loop, no per-row BLAS calls
        cb = ab.copy()
        *_, info = dpttrf(cb[0], cb[1, :-1], overwrite_d=1, overwrite_e=1)
    else:
        cb, info = dpbtrf(ab, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError(info)
    if info < 0:
        raise ValueError(f"LAPACK factor rejected argument {-info}")
    return BandedFactor(cb)


def solve(f: BandedFactor, rhs: Array) -> Array:
    """Solve A x = rhs given the factor of A.

    ``rhs`` is one vector or an (n, k) block of columns; LAPACK solves each
    column on its own, so a block gives the bits of column-by-column solves.
    The factor is finite by construction, so only ``rhs`` is checked.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = f.bands.shape[1]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError(
            f"right-hand side of shape {rhs.shape} for a matrix of size {n}"
        )
    if not np.logical_and.reduce(np.isfinite(rhs), axis=None):
        raise ValueError("right-hand side must be finite")
    if len(f.bands) == 2:
        x, info = dpttrs(f.bands[0], f.bands[1, :-1], rhs)
    else:
        x, info = dpbtrs(f.bands, rhs, lower=1)
    if info != 0:
        raise ValueError(f"LAPACK solve rejected argument {-info}")
    return x


def solve_each(a: BandedSpdMatrix, rhs: Array, out: Array) -> Array:
    """Factor and solve each matrix of a stack against its own block of
    columns: ``rhs[i]`` is a (k, n) block for ``a.bands[i]``, and the result,
    of its shape, is written to ``out``: any array of that shape, a
    transposed view too.

    One LAPACK call solves the stack as one block-diagonal matrix, each
    block's trailing band slots zeroed and followed by ``bw`` unit rows with
    zero loads, which add to the next block only -0.0, a no-op: each block
    has the bits, signed zeros too, of ``factor`` then ``solve``, and one
    that is not positive definite raises with its row and its own pivot.
    Its one caller's inputs are finite by ``ChainParams``' limits, so it
    does not scan them; ``factor`` and ``solve`` check theirs.
    """
    rows, k, n = rhs.shape
    bw = min(a.bands.shape[-2:]) - 1
    ab, cols, step = a.bands[0, : bw + 1], rhs[0], n
    if rows > 1:
        step = n + bw
        ab, cols = np.zeros((bw + 1, rows, step)), np.zeros((k, rows, step))
        for d in range(bw + 1):  # the slots each band row uses
            ab[d, :, : n - d] = a.bands[:, d, : n - d]
        ab[0, :, n:] = 1.0
        cols[..., :n] = rhs.transpose(1, 0, 2)
    ab, cols = ab.reshape(bw + 1, -1), cols.reshape(k, -1).T
    if bw == 1:  # tridiagonal: a scalar loop, no per-row BLAS calls
        *_, x, info = dptsv(ab[0], ab[1, :-1], cols)
    else:
        _, x, info = dpbsv(ab, cols, lower=1)
    if info > 0:
        raise NotPositiveDefiniteError((info - 1) % step + 1, (info - 1) // step)
    if info < 0:
        raise ValueError(f"LAPACK solve rejected argument {-info}")
    out[...] = x.T.reshape(k, rows, step)[..., :n].transpose(1, 0, 2)
    return out
