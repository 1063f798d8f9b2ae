#!/usr/bin/env python3
"""Compare the two-dimensional closed form for zeta_EH'(0) against the
theta-integral route (the Mellin split, forced) over a grid of holonomies and aspect ratios."""

import argparse
import itertools

from bundlezeta.heat_theta import ContinuousTorusSpec
from bundlezeta.zeta import epstein_hurwitz_deriv0, kronecker_deriv0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ratios", default="0.5,1,2")
    parser.add_argument("--lams", default="0,0.25,0.5,0.75")
    args = parser.parse_args()
    ratios = [float(x) for x in args.ratios.split(",")]
    lams = [float(x) for x in args.lams.split(",")]

    print("ratio,lam1,lam2,integral,closed_form,abs_diff")
    for ratio, lam1, lam2 in itertools.product(ratios, lams, lams):
        if lam1 in (0.0, 1.0) and lam2 in (0.0, 1.0):
            continue  # degenerate: no nontrivial holonomy
        spec = ContinuousTorusSpec((ratio, 1.0), (lam1, lam2))
        integral = epstein_hurwitz_deriv0(spec, method="integral_split").value
        closed = kronecker_deriv0(ratio, 1.0, lam1, lam2)
        print(
            f"{ratio},{lam1},{lam2},{format(integral, '.17g')},"
            f"{format(closed, '.17g')},{abs(integral - closed):.3e}"
        )


if __name__ == "__main__":
    main()
