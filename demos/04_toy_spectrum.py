"""Dense spectrum of the lifted transfer operator on a toy model.

The transfer operator of a hyperbolic contact map with a smooth
amplitude has, on the anisotropic space, only discrete eigenvalues
outside the expansion radius. At desk scale this shows up as: every
computed eigenvalue sits inside the radius, the picture is stable under
refining the flow circle, and the compact (low frequency) part of the
kernel has rapidly collapsing singular values.
"""

import numpy as np

from contactfbi.aniso_norm import WeightSpec
from contactfbi.contact_geometry import ContactMap
from contactfbi.fbi_core import dual_phase_grid
from contactfbi.numerics import make_grid
from contactfbi.partial_fbi import FlowGrid
from contactfbi.spectra import model_spectrum, persistent_outliers
from contactfbi.transfer_ops import TransferSpec, decompose, lift_kernel


def bump(pts):
    return np.exp(-np.sum(pts[:, 1:] ** 2, axis=-1) / 0.5)


def main():
    cmap = ContactMap.linear(np.diag([4.0, 0.25]))
    spec = TransferSpec(cmap, bump, name="toy")
    levels = []
    for n0 in (4, 6):
        flow = FlowGrid(np.pi, n0)
        trans = make_grid(2, 0.7, 4)
        pg = dual_phase_grid(trans, n_freq=4)
        levels.append((flow, trans, pg))
    reps = model_spectrum(spec, levels, 0.5, margin=0.1)
    for rep in reps:
        print("rows %-5d  max |eig| %.4f  outliers above 0.55: %d"
              % (rep.refinement["rows"], rep.moduli.max(),
                 rep.stable_count))
    print("persistence:", persistent_outliers(*reps))

    print("-- compact part of a shear lift --")
    flow = FlowGrid(np.pi, 2)
    trans = make_grid(2, 1.2, 6)
    pg = dual_phase_grid(trans, n_freq=6)

    def g(pts):
        r2 = np.sum(pts[:, 1:] ** 2, axis=-1)
        return np.exp(1j * pts[:, 0]) * np.exp(-r2 / 0.5)
    mat = lift_kernel(TransferSpec(ContactMap.shear(2.0, 0.3), g),
                      flow, trans, pg)
    cpt, ctr, hyp = decompose(mat, WeightSpec(big_n=1.0))
    sig = np.linalg.svd(cpt.values, compute_uv=False)
    print("singular values s1 %.3g  s10 %.3g  s50 %.3g"
          % (sig[0], sig[9], sig[49]))


if __name__ == "__main__":
    main()
