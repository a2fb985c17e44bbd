"""Uniform grids, sampled fields and quadrature.

Everything downstream (wave packet transforms, kernel assembly, norm
measurements) is built on the midpoint-rule grids defined here.  The axis
ordering of multi dimensional arrays is row-major over the axes and all
modules rely on that convention.
"""

import numpy as np

# Largest dense complex128 matrix any routine may allocate: 2e7 entries.
DENSE_BYTES = 320_000_000


def check_dense(rows, cols, what):
    """Raise ValueError before a dense complex rows x cols matrix that
    would exceed DENSE_BYTES is allocated."""
    need = 16 * int(rows) * int(cols)
    if need > DENSE_BYTES:
        raise ValueError(
            "%s would need a %d x %d matrix (%d bytes), above the dense "
            "budget of %d bytes" % (what, rows, cols, need, DENSE_BYTES))


class GridSpec:
    """Uniform midpoint grid on the box [-L, L]^dim.

    Nodes on each axis sit at -L + (j + 1/2) * spacing, so the boundary is
    never sampled.  The quadrature weight of every node is spacing**dim.
    """

    def __init__(self, dim, half_width, points_per_axis):
        assert int(dim) == dim and dim >= 1
        self.dim = int(dim)
        self.half_width = float(half_width)
        self.points_per_axis = int(points_per_axis)
        self.spacing = 2.0 * self.half_width / self.points_per_axis
        assert self.spacing > 0

    @property
    def num_points(self):
        return self.points_per_axis ** self.dim

    @property
    def weight(self):
        """Quadrature weight of a single node."""
        return self.spacing ** self.dim

    def axis_nodes(self):
        j = np.arange(self.points_per_axis)
        return -self.half_width + (j + 0.5) * self.spacing

    def nodes(self):
        """All grid nodes as an array of shape (num_points, dim), row-major."""
        axes = [self.axis_nodes()] * self.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def shape(self):
        return (self.points_per_axis,) * self.dim

    def __eq__(self, other):
        return (isinstance(other, GridSpec)
                and self.dim == other.dim
                and self.half_width == other.half_width
                and self.points_per_axis == other.points_per_axis)

    def __repr__(self):
        return "GridSpec(dim=%d, half_width=%g, points_per_axis=%d)" % (
            self.dim, self.half_width, self.points_per_axis)


class Field:
    """Complex valued function sampled on a GridSpec, stored flat row-major."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex).ravel()
        if values.size != grid.num_points:
            raise ValueError("value count %d does not match grid point count "
                             "%d" % (values.size, grid.num_points))
        self.grid = grid
        self.values = values

    def reshape(self):
        return self.values.reshape(self.grid.shape())

    def norm(self):
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.weight))


def make_grid(dim, half_width, points_per_axis):
    """Build a GridSpec, rejecting degenerate parameters."""
    if not (isinstance(points_per_axis, (int, np.integer))):
        raise ValueError("points_per_axis must be an integer")
    if points_per_axis < 4:
        raise ValueError("points_per_axis must be at least 4, got %d" % points_per_axis)
    if points_per_axis % 2 != 0:
        raise ValueError("points_per_axis must be even, got %d" % points_per_axis)
    if not half_width > 0:
        raise ValueError("half_width must be positive, got %r" % (half_width,))
    return GridSpec(dim, half_width, points_per_axis)


def sample(f, grid):
    """Sample a pointwise function on all grid nodes.

    The function receives all nodes at once as an array of shape
    (num_points, dim) and returns one value per node.  A wrong number of
    values or non-finite values are rejected.
    """
    vals = np.asarray(f(grid.nodes()), dtype=complex).ravel()
    if vals.size != grid.num_points:
        raise ValueError("sampled function returned %d values for %d grid "
                         "nodes" % (vals.size, grid.num_points))
    if not np.all(np.isfinite(vals)):
        raise ValueError("sampled function produced non-finite values")
    return Field(grid, vals)


def quad_inner(u, v):
    """Discrete L2 pairing sum(conj(u) * v) * spacing**dim."""
    if u.grid != v.grid:
        raise ValueError("grid mismatch in quad_inner")
    return complex(np.vdot(u.values, v.values) * u.grid.weight)


def operator_norm(matvec, rmatvec, shape, iters=200, restarts=3, seed=0):
    """Largest singular value of a linear operator by power iteration.

    Runs power iteration on A* A from `restarts` random complex starts of
    the given array shape (an int for vectors) and reports the largest
    Rayleigh estimate sqrt(<v, A* A v>) seen, which guards against unlucky
    starts that are near-orthogonal to the top singular vector.  A start
    stops at the first step where A* A v vanishes or the quotient is not
    positive, keeping the estimate it had (zero for a zero operator).
    Inner products are plain vdot, so the operator must be expressed in
    coordinates where the quadrature weights are uniform or folded in.
    """
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(restarts):
        v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        v /= np.linalg.norm(v.ravel())
        est = 0.0
        for _ in range(iters):
            w = rmatvec(matvec(v))
            num = float(np.real(np.vdot(v, w)))
            size = float(np.linalg.norm(w.ravel()))
            if size == 0.0 or num <= 0.0:
                break
            est = np.sqrt(num)
            v = w / size
        best = max(best, est)
    return float(best)
