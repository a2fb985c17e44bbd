"""Walk through the exact identities of the transform pair.

The FBI transform T sends a function to its pairing with Gaussian wave
packets indexed by a phase-space lattice. On a well resolved lattice
T* T is the identity, T is an isometry, and P = T T* is an orthogonal
projection. The partial variant does the same slice by slice over the
flow frequency.
"""

import numpy as np

from contactfbi.fbi_core import dual_phase_grid, fbi_adjoint, fbi_forward
from contactfbi.numerics import make_grid, sample
from contactfbi.partial_fbi import FlowGrid, pfbi_forward, pfbi_roundtrip, \
    sample_volume


def main():
    print("-- full transform on R^2 --")
    grid = make_grid(2, 7.0, 28)
    pg = dual_phase_grid(grid)
    u = sample(lambda p: np.exp(-np.sum(p ** 2, axis=-1) / 2.0
                                + 1j * p[:, 0]), grid)
    v = fbi_forward(u, pg)
    back = fbi_adjoint(v)
    print("T*T defect   %.3e" % (np.linalg.norm(back.values - u.values)
                                 / np.linalg.norm(u.values)))
    print("isometry gap %.3e" % (abs(v.norm() - u.norm()) / u.norm()))

    print("-- partial transform on R^3 --")
    flow = FlowGrid(np.pi, 6)
    trans = make_grid(2, 5.0, 26)
    vol = sample_volume(
        lambda p: np.exp(2j * p[:, 0]
                         - np.sum(p[:, 1:] ** 2, axis=-1) / 1.28),
        flow, trans)
    pg = dual_phase_grid(trans)
    pf = pfbi_forward(vol, pg)
    back = pfbi_roundtrip(vol, pg)
    err = np.linalg.norm((back.values - vol.values).ravel())
    ref = np.linalg.norm(vol.values.ravel())
    print("roundtrip defect %.3e" % (err / ref))
    print("isometry gap     %.3e" % (abs(pf.norm() - vol.norm())
                                     / vol.norm()))
    # the under-resolved failure mode: shrink the transversal box so the
    # data is truncated and the identity visibly breaks, which is what
    # the check-identity CLI subcommand reports with exit code 1
    coarse = make_grid(2, 2.0, 12)
    volc = sample_volume(
        lambda p: np.exp(2j * p[:, 0]
                         - np.sum(p[:, 1:] ** 2, axis=-1) / 1.28),
        flow, coarse)
    backc = pfbi_roundtrip(volc, dual_phase_grid(coarse))
    errc = np.linalg.norm((backc.values - volc.values).ravel())
    print("same on a truncated box %.3e  (resolution matters)"
          % (errc / np.linalg.norm(volc.values.ravel())))


if __name__ == "__main__":
    main()
