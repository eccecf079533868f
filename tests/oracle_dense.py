"""Dense, derivative-based reference constructions for small chains.

The production code assembles band matrices directly.  The helpers here
rebuild the same objects a completely different way: reduced systems come
from finite differences of ``energy_direct`` (the energies are quadratic,
so central differences with step 1 are exact up to round-off), and solves
use plain dense numpy.  Agreement between the two routes validates both.
"""

import numpy as np

from qcfk.model import (
    ChainParams,
    Partition,
    assemble,
    energy_direct,
    make_partition,
)

Array = np.ndarray


def clamped_energy(params: ChainParams, part: Partition, flavor: str):
    """Energy as a function of the free coordinates only."""
    mod = assemble(params, part, flavor)
    n = mod.n_points
    lift = np.zeros(n)
    lift[[0, 1, -2, -1]] = params.bc

    def ener(y_free: Array) -> float:
        y = lift.copy()
        y[2:-2] = y_free
        return energy_direct(params, part, flavor, y, check_wells=False)

    return ener, n - 4


def dense_system(params: ChainParams, part: Partition, flavor: str):
    """Reduced stiffness and load by exact finite differences of the energy.

    For a quadratic E the Hessian entry H_ij equals
    (E(h e_i + h e_j) - E(h e_i) - E(h e_j) + E(0)) / h^2 for any h, and the
    gradient at 0 is the usual central difference; h = 1 keeps everything at
    O(1) so round-off stays near machine precision.
    """
    ener, nf = clamped_energy(params, part, flavor)
    h = 1.0
    e0 = ener(np.zeros(nf))
    single = np.empty(nf)
    grad = np.empty(nf)
    for i in range(nf):
        e = np.zeros(nf)
        e[i] = h
        single[i] = ener(e)
        grad[i] = (single[i] - ener(-e)) / (2.0 * h)
    hess = np.empty((nf, nf))
    for i in range(nf):
        for j in range(i, nf):
            e = np.zeros(nf)
            e[i] += h
            e[j] += h
            hess[i, j] = hess[j, i] = (ener(e) - single[i] - single[j] + e0) / h**2
    return hess, -grad


def dense_solve(params: ChainParams, part: Partition, flavor: str) -> Array:
    hess, load = dense_system(params, part, flavor)
    return np.linalg.solve(hess, load)


def fd_gradient(fun, y: Array, h: float = 1.0) -> Array:
    """Central-difference gradient (exact for quadratics at any h)."""
    out = np.empty(len(y))
    for i in range(len(y)):
        e = np.zeros(len(y))
        e[i] = h
        out[i] = (fun(y + e) - fun(y - e)) / (2.0 * h)
    return out


def random_partition(rng, params: ChainParams) -> Partition:
    """Random valid partition: an interval or scattered atomistic flags."""
    m = params.m
    if rng.integers(0, 2) == 0:
        k = int(rng.integers(0, m - 1))
        return make_partition(params, atomistic=range(-k + 1, k + 1))
    ids = np.arange(-m + 1, m + 1)
    return make_partition(params, atomistic=ids[rng.random(2 * m) < 0.3])


def random_point(rng, n: int, wells: Array, spread: float = 0.3) -> Array:
    """Configuration near the wells (inside the harmonic well range)."""
    return wells + rng.uniform(-spread, spread, n)
