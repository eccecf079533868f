#!/usr/bin/env python3
"""
Adaptive Selection of the Atomistic Region
==========================================

Starts from the cheapest legal model (only the defect atoms and the
clamped boundary treated exactly) and lets the per-atom indicators decide
where atomistic resolution is worth paying for.  Each iteration:

  1. solve the current blended model and its dual,
  2. split eta2 into per-atom contributions,
  3. mark every free atom whose contribution beats the running threshold
     tau_at = tau_gl / tau_div^it,
  4. widen the atomistic region by the marked atoms (plus the NNN buffer)
     and repeat until eta1 <= tau_gl.

The marked sets come out as symmetric shells hugging the current
interface, so the region grows as a widening interval around the defect;
nobody told the loop the problem was symmetric.

Usage:
    python3 demos/03_adaptive_region_selection.py
    python3 demos/03_adaptive_region_selection.py --m 100000 --tau 1e-12
    python3 demos/03_adaptive_region_selection.py --gamma-split
"""

import argparse

import numpy as np

from qcfk import AdaptConfig, ChainParams, run_adaptive


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--m", type=int, default=1000, help="half chain size")
    ap.add_argument("--tau", type=float, default=1e-10, help="global tolerance on eta1")
    ap.add_argument("--tau-div", type=float, default=10.0,
                    help="per-iteration threshold divisor")
    ap.add_argument("--gamma-split", action="store_true",
                    help="use the balanced primal/dual bond split for marking")
    args = ap.parse_args()

    params = ChainParams(m=args.m)
    config = AdaptConfig(tau_gl=args.tau, tau_div=args.tau_div,
                         use_gamma=args.gamma_split)
    trace = run_adaptive(params, config)

    print(f"M = {args.m} ({params.n_atoms} atoms), tolerance tau_gl = {args.tau:g}"
          + (", gamma split" if args.gamma_split else ""))
    print()
    header = f"{'it':>3} {'K':>6} {'atomistic':>9} {'tau_at':>10} {'eta1':>13} {'eta2':>13}"
    print(header)
    print("-" * len(header))
    for r in trace.records:
        k_cell = f"{r.k}" if r.k is not None else "(gap)"
        print(f"{r.iteration:>3} {k_cell:>6} {r.n_atomistic:>9} {r.tau_at:>10.1e} "
              f"{r.eta1:>13.6e} {r.eta2:>13.6e}")

    print()
    print(f"status: {trace.status} after {len(trace.records)} iterations")
    final = trace.final_atomistic
    if final.size:
        print(f"final atomistic region: {final.min():+d} .. {final.max():+d} "
              f"({final.size} atoms out of {params.n_atoms})")
        sym = np.array_equal(np.sort(-final + 1), np.sort(final))
        print(f"region is mirror-symmetric about the defect bond: {sym}")
    print(f"final eta1 = {trace.final_eta1:.6e} "
          f"({'<=' if trace.final_eta1 <= args.tau else '>'} tau_gl)")

    # The CLI's adapt JSON carries these keys beside "spec", "columns" and "rows".
    print("\nJSON trace:")
    print(trace.to_json())


if __name__ == "__main__":
    main()
