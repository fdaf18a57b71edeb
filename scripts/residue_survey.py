#!/usr/bin/env python3
"""Survey the third-order residues over the basis-solution choice space.

For a given Lame index and parameter draw, prints the residue of every
X^{-1} f_3 row for each pure first-order pick, making the choice dependence
of the logarithm witness explicit.  The truncation order is the largest that
``variational.chain_order`` certifies for those picks.  A point whose
first-order basis already needs a logarithm gets one line instead, with its
coefficient, and so does a g_bf with no Lame index.

    PYTHONPATH=src python3 scripts/residue_survey.py --gbf 3/8 --omegaj 1
"""
import argparse
from fractions import Fraction as Q

from bfmix import elliptic, lame, variational as V
from bfmix.model import make_params


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gbf", type=Q, default=Q(1))
    ap.add_argument("--omega0", type=Q, default=Q(1))
    ap.add_argument("--omegaj", type=Q, default=Q(1))
    ap.add_argument("--c0sq", type=Q, default=Q(1))
    ap.add_argument("--h", type=Q, default=Q(0))
    args = ap.parse_args()

    p = make_params(args.omega0, [args.omegaj], args.c0sq, [0], args.gbf)
    e = elliptic.invariants_from_energy(args.omega0, args.c0sq, args.h)
    print(f"g_bf={args.gbf} omega0={args.omega0} omega_j={args.omegaj} "
          f"C0^2={args.c0sq} h={args.h}")
    print(f"{'pick_xi0':>9} {'pick_xij':>9} {'normal r1':>12} "
          f"{'normal r2':>12} {'tang r1':>9} {'tang r2':>9}  flags")
    n = lame.lame_index(p.g_bf)
    if n is None:
        print(f"2 g_bf = {2 * p.g_bf} is n(n+1) for no rational n: "
              "no Lame index")
        return
    order = max(V.chain_order(n, ch) for ch in V.SCAN_CHOICES)
    try:
        ctx = V.ve1_context(p, e, order)
    except ValueError as exc:     # a VE1 logarithm or a double exponent
        print(exc)
        return
    for ch in V.SCAN_CHOICES:
        res = V.higher_ve_residues(ctx, ch)
        if res.ve2_has_log:
            print(f"{ch.pick_xi0:>9} {ch.pick_xij:>9}  logarithm at second "
                  f"order: {res.rows[0]}")
            continue
        (t1, t2), (r1, r2) = res.rows[1]
        print(f"{ch.pick_xi0:>9} {ch.pick_xij:>9} {str(r1):>12} "
              f"{str(r2):>12} {str(t1):>9} {str(t2):>9}")


if __name__ == "__main__":
    main()
