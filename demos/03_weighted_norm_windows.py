"""Why the weighted norm bound is measured on a small window.

The weighted model operator norm should decay with the expansion factor
lam like the larger of d(B)^(-1/2) and d(B)^(1/2) lam^(-r). The
anisotropic weight, however, crosses seven orders of magnitude in a
unit-thick transition zone between the stable and unstable cones. On a
wide measurement window that transition dominates the operator norm and
the decay exponent is far too steep; on a window where the weight's
dynamic range stays moderate the branch mechanism is clean. Both
regimes are shown below.
"""

import numpy as np

from contactfbi.fbi_core import det_factor
from contactfbi.spectra import weighted_norm_measure


def sweep(half, spacing, s_values, r=4.0, lams=(4.0, 8.0, 16.0, 32.0)):
    # one call per lam measures every s on one kernel: norms[i][j] is
    # lam i, s j
    norms, branch = [], []
    for lam in lams:
        b = np.diag([lam, 1.0 / lam])
        norms.append(weighted_norm_measure(b, s_values, r,
                                           half_widths=(half, half),
                                           spacing=spacing))
        d = det_factor(b)
        branch.append(max(d ** -0.5, d ** 0.5 * lam ** -r))
    sb = np.polyfit(np.log(lams), np.log(branch), 1)[0]
    for j, s in enumerate(s_values):
        col = [vals[j] for vals in norms]
        sm = np.polyfit(np.log(lams), np.log(col), 1)[0]
        print("  window +-%-4g s=%-4g  slope %.3f  (branch %.3f)  "
              "ratio at lam=32: %.3g"
              % (half, s, sm, sb, col[-1] / branch[-1]))


def main():
    print("-- unweighted sanity: the model operator has norm 1 --")
    for lam in (4.0, 16.0):
        v, = weighted_norm_measure(np.diag([lam, 1.0 / lam]), [1.0], 0.0,
                                   half_widths=(10.0, 10.0))
        print("  lam %-3g  norm %.4f" % (lam, v))

    print("-- small window: branch decay visible --")
    sweep(2.0, 0.35, (1.0, 16.0))

    print("-- wide window: cone-transition amplification takes over --")
    sweep(5.0, 0.5, (1.0, 16.0))


if __name__ == "__main__":
    main()
