#!/usr/bin/env python3
"""Run the desk-scale case studies end to end and print the verdicts.

Covers the three parameter regimes the classifier handles plus the boundary
g_bf = 0, using the reference parameter points exercised by the test suite.
"""
import json
from fractions import Fraction as Q

from bfmix import verdict
from bfmix.heun import reduce_case1
from bfmix.model import make_params


def show(title, v):
    print(f"== {title}")
    print(f"   outcome: {v.outcome}   witness: {v.witness.kind} "
          f"{json.dumps(v.witness.data, sort_keys=True, default=str)[:120]}")


def main():
    show("case1: omega0=1, omega=2, g=1, sum C_j=3",
         verdict.analyze_case1(reduce_case1(1, 2, 1, 3)))
    show("case1 boundary: g=0",
         verdict.analyze_case1(reduce_case1(1, 2, 0, 3)))

    for label, (wj, g) in {
        "case2 index 1 (g=1, w_j=w0)": (Q(1), Q(1)),
        "case2 index 2, B_j=0 (g=3, w_j=2 w0)": (Q(2), Q(3)),
        "case2 index 2, B_j!=0 (g=3, w_j=w0)": (Q(1), Q(3)),
        "case2 index 3 (g=6, w_j=w0)": (Q(1), Q(6)),
        "case2 index 1/2 surviving (g=3/8, w_j=w0/4)": (Q(1, 4), Q(3, 8)),
        "case2 non-lattice coupling (g=1/3)": (Q(1), Q(1, 3)),
    }.items():
        p = make_params(1, [wj], 1, [0], g)
        show(label, verdict.analyze_case2(p, Q(0)))

    p = make_params(1, [Q(55, 28)], Q(72, 343), [0], Q(35, 8))
    show("case2 index 5/2 surviving triple",
         verdict.analyze_case2(p, Q(0)))

    p3 = make_params(1, [1], Q(1, 100), [1], Q(1, 1000))
    show("case3: omega0=omega1=1, C0^2=1/100, C1^2=1, I=3",
         verdict.classify(p3, action_I=3.0))


if __name__ == "__main__":
    main()
