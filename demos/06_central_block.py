"""Central frequency block and its separable surrogate.

For one flow frequency band k the lifted operator restricts to a
central block L_k; replacing the map by its linearization at the
expansion maximizer gives a separable surrogate L'_k. As k grows the
two agree better and the surrogate norm stays within one fitted
constant of the expansion bound max(Lambda, lam^-r Delta).

A moderate weight exponent (r = 1 here) keeps the cone-transition
amplification of the anisotropic weight out of the picture; at r = 4
the weight's dynamic range dominates both norms and the comparison
stops being informative (see the repository notes for the measured
numbers). Runtime is about a minute.
"""

import time

import numpy as np

from contactfbi.aniso_norm import WeightSpec
from contactfbi.contact_geometry import ContactMap
from contactfbi.numerics import make_grid
from contactfbi.partial_fbi import FlowGrid
from contactfbi.spectra import central_block_audit
from contactfbi.transfer_ops import TransferSpec, lambda_delta


def main():
    flow = FlowGrid(np.pi / 2.0, 8)

    def g(pts):
        return (0.7 + 0.3 * np.cos(pts[:, 0])) * \
            np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.5)
    spec = TransferSpec(ContactMap.shear(2.0, 0.3), g, name="shear")
    wspec = WeightSpec(r=1.0, big_n=8.0)
    trans = make_grid(2, 1.2, 10)
    _, _, bound = lambda_delta(spec, flow, trans, lam=2.0, r=1.0)
    print("expansion bound %.4f" % bound)
    for k in (6, 8, 12):
        t0 = time.time()
        res = central_block_audit(spec, k, wspec, flow, seed=0)
        print("k %-3d  ||L'|| %.3f  ||L - L'|| %.3f  ratio to bound %.2f"
              "  (%.1f s)"
              % (k, res["norm_primed"], res["norm_diff"],
                 res["norm_primed"] / bound, time.time() - t0))


if __name__ == "__main__":
    main()
