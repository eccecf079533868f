#!/usr/bin/env python3
"""
Where the Error Lives: Indicator Profile Along the Chain
========================================================

For a fixed atomistic window this script prints the per-atom eta2
contributions across the window chain it was solved on (the whole chain
unless that is longer than the decay needs) as a log-scale ASCII profile.  The
shape explains why adaptivity works here:

  * the profile peaks hard at the atomistic/continuum interface (the
    modeling error is committed where the model changes),
  * it falls off exponentially into the continuum region,
  * inside the atomistic window it is essentially zero (that part of the
    model is exact).

Marking atoms above a threshold therefore picks two thin shells around
the current interface, exactly the "grow the window" move.

Usage:
    python3 demos/04_indicator_profile.py
    python3 demos/04_indicator_profile.py --m 200 --k 12 --bins 48
"""

import argparse

import numpy as np

from qcfk import ChainParams, fixed_k_run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[2])
    ap.add_argument("--m", type=int, default=500, help="half chain size")
    ap.add_argument("--k", type=int, default=20, help="atomistic window half-width")
    ap.add_argument("--bins", type=int, default=40, help="profile resolution")
    args = ap.parse_args()

    params = ChainParams(m=args.m)
    res = fixed_k_run(params, args.k, want_exact=False)
    tot = res.report.eta2_total()
    ids = res.report.free_ids()

    print(f"M = {args.m}, K = {args.k}: per-atom indicators on the "
          f"{ids.size} free atoms of the window chain, eta2 = {res.report.eta2:.3e}")
    print()

    # bin the indicator (max per bin) and draw log10 bars
    edges = np.linspace(ids[0], ids[-1] + 1, args.bins + 1)
    floor = 1e-18
    print(f"{'atoms':>16} {'max tot':>10}  log10 profile ({floor:g} .. 1)")
    skipping = False
    for lo, hi in zip(edges[:-1], edges[1:]):
        sel = (ids >= lo) & (ids < hi)
        if not sel.any():
            continue
        peak = max(float(tot[sel].max()), floor)
        if peak <= floor:
            if not skipping:
                print(f"{'...':>16} {'(floor)':>10}")
            skipping = True
            continue
        skipping = False
        bar = "#" * int(round(2.0 * (np.log10(peak) - np.log10(floor))))
        span = f"{ids[sel][0]:+d}..{ids[sel][-1]:+d}"
        print(f"{span:>16} {peak:>10.1e}  {bar}")

    # quantify the two claims made above
    interface = np.argmax(tot)
    dist = min(abs(ids[interface] - (args.k + 0.5)), abs(ids[interface] + args.k - 0.5))
    inside = (ids > -args.k + 2) & (ids < args.k - 1)
    right = (ids >= args.k + 2) & (ids <= args.k + 60)
    slope = np.polyfit(ids[right], np.log10(tot[right]), 1)[0]
    print()
    print(f"peak atom: {ids[interface]:+d} (distance {dist:.1f} from the interface)")
    if inside.any():
        print(f"max indicator strictly inside the window: {tot[inside].max():.1e} "
              f"(interface peak {tot.max():.1e})")
    print(f"log10 slope into the continuum: {slope:.3f} per atom "
          f"(~{10 ** -slope:.2f}x decay)")


if __name__ == "__main__":
    main()
