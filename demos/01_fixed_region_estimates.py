#!/usr/bin/env python3
"""
Fixed-Region Error Estimates
============================

Solves one blended chain (atomistic window -K+1 .. K around the defect,
continuum elsewhere), then asks two questions about the quantity of
interest Q(y) = y(1) - y(0), the opening of the defect bond:

  1. What is the exact modeling error Q(e)?  (needs a full atomistic
     reference solve, affordable here)
  2. What do the two duality-based estimates say without that solve?

Prints the guaranteed sandwich bound_low <= Q(e) <= bound_high, the sharp
first-term + correction estimate eta1, the absolute-value variant eta2,
and their effectivity ratios against |Q(e)|.

Usage:
    python3 demos/01_fixed_region_estimates.py
    python3 demos/01_fixed_region_estimates.py --m 2000 --k 25
"""

import argparse

import numpy as np

from qcfk import (
    ChainParams,
    estimate,
    exact_goal_error,
    interval_partition,
    on_window,
    solve_dual_pair,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--m", type=int, default=1000, help="half chain size (atoms -M+1..M)")
    ap.add_argument("--k", type=int, default=10, help="atomistic window is -K+1..K")
    args = ap.parse_args()

    params = ChainParams(m=args.m)
    part = interval_partition(params, args.k)
    print(f"chain: {params.n_atoms} atoms, defect bond (0, 1), k0={params.k0}, "
          f"k1={params.k1}, k2={params.k2}")
    n_at = part.atomistic.size
    print(f"region: K={args.k} -> {n_at} atoms treated exactly, "
          f"{params.n_atoms - n_at} by the continuum model")

    # ------------------------------------------------------------------
    # The blended primal/dual solve and the dislocation it produces
    # ------------------------------------------------------------------
    pair = solve_dual_pair(params, part)
    y = on_window(pair, "u_free")[0] + pair.ref.system.wells_free
    ids = pair.ref.system.free_index
    near = (ids >= -2) & (ids <= 3)
    print("\npositions around the defect (antisymmetric, bond (0,1) stretched):")
    for i, yi in zip(ids[near], y[near]):
        print(f"  atom {i:+d}: y = {yi:+.6f}")
    opening = y[ids == 1][0] - y[ids == 0][0]
    print(f"  defect opening Q(y) = {opening:.6f}  (regular bonds are {params.a0})")

    # ------------------------------------------------------------------
    # Exact error vs duality estimates
    # ------------------------------------------------------------------
    report = estimate(pair)
    qe, _ = exact_goal_error(params, part, pair)

    print(f"\nexact modeling error   Q(e) = {qe:+.6e}")
    print(f"computable first term        = {report.first_term:+.6e}")
    print(f"guaranteed sandwich          = [{report.bound_low:+.6e}, "
          f"{report.bound_high:+.6e}]")
    print(f"eta1 (sharp estimate)        = {report.eta1:.6e}   "
          f"effectivity {report.eta1 / abs(qe):.4f}")
    print(f"eta2 (localizable estimate)  = {report.eta2:.6e}   "
          f"effectivity {report.eta2 / abs(qe):.4f}")
    if report.flags:
        print(f"flags: {', '.join(report.flags)}")

    inside = report.bound_low <= qe <= report.bound_high
    print(f"\nsandwich contains Q(e): {inside}")
    print(f"|Q(e)| <= eta1 <= eta2: {abs(qe) <= report.eta1 <= report.eta2}")
    assert inside

    # eta2 decomposes into per-atom contributions that an adaptive loop
    # can mark on; the bulk of it sits at the interface atoms.
    tot = report.eta2_total()
    free = report.free_ids()
    top = np.argsort(tot)[::-1][:4]
    print("\nlargest per-atom indicators:")
    for p in sorted(top, key=lambda p: free[p]):
        print(f"  atom {free[p]:+d}: {tot[p]:.3e}")


if __name__ == "__main__":
    main()
