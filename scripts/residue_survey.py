#!/usr/bin/env python3
"""Survey the third-order residues over the basis-solution choice space.

For a given Lame index and parameter draw, prints the residue of every
X^{-1} f_3 row for each pure first-order pick, making the choice dependence
of the logarithm witness explicit.  A point whose first-order basis already
needs a logarithm gets one line instead, with its coefficient.

    PYTHONPATH=src python3 scripts/residue_survey.py --gbf 3/8 --omegaj 1
"""
import argparse
from fractions import Fraction as Q

from bfmix import elliptic, variational as V
from bfmix.model import make_params_c0sq


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--gbf", type=Q, default=Q(1))
    ap.add_argument("--omega0", type=Q, default=Q(1))
    ap.add_argument("--omegaj", type=Q, default=Q(1))
    ap.add_argument("--c0sq", type=Q, default=Q(1))
    ap.add_argument("--h", type=Q, default=Q(0))
    ap.add_argument("--order", type=int, default=24)
    args = ap.parse_args()

    p = make_params_c0sq(args.omega0, [args.omegaj], args.c0sq, [0], args.gbf)
    e = elliptic.invariants_from_energy(args.omega0, args.c0sq, args.h)
    print(f"g_bf={args.gbf} omega0={args.omega0} omega_j={args.omegaj} "
          f"C0^2={args.c0sq} h={args.h}")
    print(f"{'pick_xi0':>9} {'pick_xij':>9} {'normal r1':>12} "
          f"{'normal r2':>12} {'tang r1':>9} {'tang r2':>9}  flags")
    try:
        ctx = V.ve1_context(p, e, args.order)
    except V.FirstOrderLogError as exc:
        print(exc)
        return
    for ch, res in V.scan_choices(ctx):
        if res.ve2_has_log:
            print(f"{ch.pick_xi0:>9} {ch.pick_xij:>9}  logarithm at second "
                  f"order: {res.ve2_log_coefficients}")
            continue
        b = res.normal_blocks[0]
        tb = res.tangential_block
        print(f"{ch.pick_xi0:>9} {ch.pick_xij:>9} "
              f"{str(b.ve3_residue_first):>12} "
              f"{str(b.ve3_residue_second):>12} "
              f"{str(tb.ve3_residue_first):>9} "
              f"{str(tb.ve3_residue_second):>9}")


if __name__ == "__main__":
    main()
