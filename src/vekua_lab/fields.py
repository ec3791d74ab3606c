"""Multivector fields on uniform box grids and their discrete operators.

The domain is always an axis-aligned box (a Lipschitz domain with exact
normals and face areas).  Derivatives use centered second-order
differences at interior nodes and one-sided second-order stencils on the
boundary layers; identity checks are meant to be evaluated at nodes at
least two spacings away from the boundary, where every stencil is
centered.

All reductions go through numpy's pairwise summation on arrays of fixed
shape, so results do not depend on any worker parallelism.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import clifford

MIN_RESOLUTION = 8


class BoxGrid:
    """Uniform tensor grid over an axis-aligned box in R^3."""

    def __init__(self, origin, extent, resolution):
        origin = np.asarray(origin, dtype=float)
        extent = np.asarray(extent, dtype=float)
        resolution = np.asarray(resolution, dtype=np.int64)
        if not origin.shape == extent.shape == resolution.shape == (3,):
            raise ValueError("origin, extent and resolution must each have 3 components, got "
                             f"shapes {origin.shape}, {extent.shape}, {resolution.shape}")
        if np.any(resolution < MIN_RESOLUTION):
            raise ValueError(f"resolution must be >= {MIN_RESOLUTION} per axis")
        if np.any(extent <= 0):
            raise ValueError("extent must be positive per axis")
        self.origin = origin
        self.extent = extent
        self.resolution = resolution
        self.spacing = extent / (resolution - 1)
        self.axes = tuple(
            origin[i] + self.spacing[i] * np.arange(resolution[i]) for i in range(3)
        )

    @classmethod
    def unit_cube(cls, resolution):
        return cls(np.zeros(3), np.ones(3), np.full(3, resolution))

    @property
    def top(self):
        return self.origin + self.extent

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def coords(self):
        """Node coordinates, shape (*resolution, 3)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def cell_centers(self):
        """Cell-center coordinates, shape (*(resolution-1), 3)."""
        axes = tuple(
            self.origin[i] + self.spacing[i] * (np.arange(self.resolution[i] - 1) + 0.5)
            for i in range(3)
        )
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def dual_grid(self):
        """Grid whose nodes are the cell centers of this grid."""
        n = int(self.resolution.min())
        if n - 1 < MIN_RESOLUTION:
            raise ValueError(f"the dual grid of an axis with {n} nodes has {n - 1} nodes, "
                             f"fewer than {MIN_RESOLUTION}")
        return BoxGrid(
            self.origin + 0.5 * self.spacing,
            self.extent - self.spacing,
            self.resolution - 1,
        )

    def trapezoid_weights(self):
        """Tensor trapezoid volume weights, shape *resolution."""
        return trapezoid_product(self.resolution, self.spacing)

    def interior_distance(self, points):
        """Signed distance inside the box: min face clearance (<=0 outside)."""
        points = np.atleast_2d(points)
        lo = points - self.origin
        hi = self.top - points
        return np.minimum(lo.min(axis=1), hi.min(axis=1))

    def exterior_distance(self, points):
        """Euclidean distance from a point to the closed box (0 inside)."""
        points = np.atleast_2d(points)
        d = np.maximum(np.maximum(self.origin - points, points - self.top), 0.0)
        return np.sqrt(np.sum(d * d, axis=1))

    def same_layout(self, other):
        return (
            np.array_equal(self.resolution, other.resolution)
            and np.allclose(self.origin, other.origin)
            and np.allclose(self.extent, other.extent)
        )

    def __repr__(self):
        return f"BoxGrid(origin={self.origin}, extent={self.extent}, resolution={self.resolution})"


def interior_slices(depth=2):
    """Index slices selecting nodes at least `depth` layers from the boundary."""
    return (slice(depth, -depth),) * 3


def trapezoid_product(resolution, spacing=None):
    """Tensor-product trapezoid weights over nodes, one array axis per entry
    of `resolution` (unit spacing when `spacing` is None)."""
    if spacing is None:
        spacing = np.ones(len(resolution))
    w = 1.0
    for n, h in zip(resolution, spacing):
        rule = np.full(int(n), float(h))
        rule[0] *= 0.5
        rule[-1] *= 0.5
        w = np.multiply.outer(w, rule)
    return w


def face_slabs():
    """(axis, high, slab) for the six faces of a 3-d box, in the order (axis,
    low/high side) that `boundary_sampling` also uses: `slab` indexes the
    face's nodes in a nodal array."""
    for axis in range(3):
        for high in (0, 1):
            side = -1 if high else 0
            yield axis, high, tuple(side if b == axis else slice(None) for b in range(3))


def face_nodes(grid: BoxGrid):
    """(axis, high, slab, X) for the six faces in `face_slabs` order: X is the
    face's node coordinates `grid.coords()[slab]`, built for that face alone
    as a C-ordered array, so no coordinate array of the whole grid is made."""
    for axis, high, slab in face_slabs():
        first, second = (b for b in range(3) if b != axis)
        X = np.empty((grid.resolution[first], grid.resolution[second], 3))
        X[..., axis] = grid.axes[axis][slab[axis]]
        X[..., first] = grid.axes[first][:, None]
        X[..., second] = grid.axes[second]
        yield axis, high, slab, X


def boundary_values(grid: BoxGrid, fn):
    """Nodal array of fn(X) on the boundary nodes, its interior zero: fn maps
    one face's node coordinates X (see `face_nodes`) pointwise to values of
    shape X.shape[:-1]."""
    out = np.zeros(tuple(grid.resolution))
    for _, _, slab, X in face_nodes(grid):
        out[slab] = fn(X)
    return out


class MultivectorField:
    """Cl(0,3)-valued samples on the nodes of a BoxGrid.

    Values are stored node-major, blade-minor: shape (*resolution, 8).
    Fields are immutable after construction.
    """

    def __init__(self, grid: BoxGrid, values):
        # a copy: the caller may still write to its array
        self._hold(grid, np.array(values, dtype=float, order="C"))

    @classmethod
    def _own(cls, grid, values):
        """A field that takes over `values`, an array the package has just
        built and keeps no other reference to, without the constructor's copy.
        An array that is not C-ordered float is still copied, so the field
        reads the same bytes in the same layout either way."""
        field = cls.__new__(cls)
        field._hold(grid, np.ascontiguousarray(values, dtype=float))
        return field

    def _hold(self, grid, values):
        expected = tuple(grid.resolution) + (8,)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} does not match {expected}")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, grid):
        return cls._own(grid, np.zeros(tuple(grid.resolution) + (8,)))

    @classmethod
    def from_scalar(cls, grid, scalar_values):
        return cls.from_components(grid, {0: scalar_values})

    @classmethod
    def from_vector(cls, grid, components):
        """components: array (*resolution, 3) of grade-1 coefficients."""
        return cls._own(grid, clifford.vector_to_array(components))

    @classmethod
    def from_components(cls, grid, comps):
        """comps: dict blade-mask -> nodal array (or constant)."""
        vals = np.zeros(tuple(grid.resolution) + (8,))
        for mask, arr in comps.items():
            vals[..., mask] = arr
        return cls._own(grid, vals)

    # -- algebra, nodewise ---------------------------------------------------

    def _check(self, other):
        if not self.grid.same_layout(other.grid):
            raise ValueError("field grids do not match")

    def __add__(self, other):
        self._check(other)
        return MultivectorField._own(self.grid, self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return MultivectorField._own(self.grid, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, MultivectorField):
            self._check(other)
            return MultivectorField._own(self.grid, clifford.gp_array(self.values, other.values))
        return MultivectorField._own(self.grid, self.values * other)

    def scale_by(self, scalar_field):
        """Multiply every blade by a nodal scalar array."""
        return MultivectorField._own(self.grid, self.values * np.asarray(scalar_field)[..., None])

    def conjugate(self):
        return MultivectorField._own(self.grid, clifford.conj_array(self.values))

    def parity_split(self):
        return tuple(MultivectorField._own(self.grid, part)
                     for part in clifford.parity_array(self.values))

    def sc(self):
        """Scalar-part nodal array."""
        return self.values[..., 0]

    def max_norm(self):
        return float(np.max(np.abs(self.values)))


# -- differential operators ---------------------------------------------------


def _second_derivative(values, h, axis):
    """Componentwise d^2/dx^2: centered inside, 4-point one-sided on the edges."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def dirac_D(w: MultivectorField) -> MultivectorField:
    """Dirac operator sum_i e_i d_i w."""
    grid = w.grid
    if np.any(grid.resolution < 3):
        raise ValueError("grid too small for the difference stencil")
    out = np.zeros_like(w.values)
    for i in range(3):
        dv = np.gradient(w.values, grid.spacing[i], axis=i, edge_order=2)
        out += clifford.basis_mul_left(1 << i, dv)
    return MultivectorField._own(grid, out)


def laplacian(w: MultivectorField) -> MultivectorField:
    """Componentwise 7-point Laplacian, second order."""
    grid = w.grid
    if np.any(grid.resolution < 4):
        raise ValueError("grid too small for the second-derivative stencil")
    out = np.zeros_like(w.values)
    for i in range(3):
        out += _second_derivative(w.values, grid.spacing[i], i)
    return MultivectorField._own(grid, out)


def scalar_gradient(grid: BoxGrid, scalar_values):
    """Gradient of a nodal scalar array, shape (*res, 3)."""
    grads = [
        np.gradient(scalar_values, grid.spacing[i], axis=i, edge_order=2)
        for i in range(3)
    ]
    return np.stack(grads, axis=-1)


def vector_divergence(grid: BoxGrid, components):
    """Divergence of nodal vector components (*res, 3)."""
    out = np.zeros(components.shape[:-1])
    for i in range(3):
        out += np.gradient(components[..., i], grid.spacing[i], axis=i, edge_order=2)
    return out


def vector_curl(grid: BoxGrid, components):
    """Curl of nodal vector components (*res, 3)."""
    d = lambda f, i: np.gradient(f, grid.spacing[i], axis=i, edge_order=2)
    c1 = d(components[..., 2], 1) - d(components[..., 1], 2)
    c2 = d(components[..., 0], 2) - d(components[..., 2], 0)
    c3 = d(components[..., 1], 0) - d(components[..., 0], 1)
    return np.stack([c1, c2, c3], axis=-1)


def sc_inner(u: MultivectorField, v: MultivectorField) -> float:
    """Scalar L2 product Sc int conj(u) v dy by trapezoid quadrature.

    Sc(conj(e_A) e_A) = 1 for every blade while cross terms carry no scalar
    part, so the nodewise integrand is the plain coefficient dot product;
    the identity is cross-checked against the explicit Clifford product in
    the test suite.
    """
    u._check(v)
    integrand = np.sum(u.values * v.values, axis=-1)
    return float(np.sum(integrand * u.grid.trapezoid_weights()))


def sc_norm(u: MultivectorField) -> float:
    return float(np.sqrt(max(sc_inner(u, u), 0.0)))


# -- boundary quadrature -------------------------------------------------------


class BoundaryQuadrature:
    """Midpoint-rule samples over the six faces of a box.

    The samples of each face are contiguous: `face_blocks` holds, per face
    in (axis, low/high side) order, (axis, sign, rows) with rows the slice
    of its samples and sign * e_axis its outward normal.
    """

    def __init__(self, positions, normals, weights, face_blocks, max_cell_diameter):
        self.positions = positions
        self.normals = normals
        self.weights = weights
        self.face_blocks = face_blocks
        self.max_cell_diameter = max_cell_diameter

    def __len__(self):
        return self.positions.shape[0]


def boundary_sampling(grid: BoxGrid, cells_per_axis=None) -> BoundaryQuadrature:
    """Midpoint face quadrature with outward unit normals.

    cells_per_axis overrides the per-face sampling density (None: the
    grid's own cell count per axis, i.e. resolution - 1).
    """
    if cells_per_axis is not None and cells_per_axis < 1:
        raise ValueError(f"cells_per_axis must be >= 1, got {cells_per_axis}")
    counts = grid.resolution - 1 if cells_per_axis is None else np.full(3, int(cells_per_axis))
    step = grid.extent / counts
    positions, normals, weights, blocks = [], [], [], []
    start = 0
    for axis in range(3):
        transverse = [t for t in range(3) if t != axis]
        mesh = np.meshgrid(*(grid.origin[t] + step[t] * (np.arange(counts[t]) + 0.5)
                             for t in transverse), indexing="ij")
        count = mesh[0].size
        for side in (0, 1):
            pos = np.empty((count, 3))
            pos[:, axis] = grid.origin[axis] + (grid.extent[axis] if side else 0.0)
            for t, m in zip(transverse, mesh):
                pos[:, t] = m.ravel()
            sign = 1.0 if side else -1.0
            nrm = np.zeros((count, 3))
            nrm[:, axis] = sign
            positions.append(pos)
            normals.append(nrm)
            weights.append(np.full(count, float(np.prod(step[transverse]))))
            blocks.append((axis, sign, slice(start, start + count)))
            start += count
    return BoundaryQuadrature(
        np.concatenate(positions),
        np.concatenate(normals),
        np.concatenate(weights),
        tuple(blocks),
        face_cell_diameter(grid, counts),
    )


def face_cell_diameter(grid: BoxGrid, cells_per_axis):
    """The largest cell diameter of a face sampling with cells_per_axis
    (one count, or one per axis) cells along each axis."""
    step = grid.extent / cells_per_axis
    return max(float(np.sqrt(np.sum(np.delete(step, axis) ** 2))) for axis in range(3))


# -- sampling and helpers --------------------------------------------------------


def trilinear_sample(grid: BoxGrid, nodal_values, points):
    """Multilinear interpolation of nodal data (scalar or per-blade) at points.

    Points of shape (..., 3) must lie in the closed box (ValueError
    otherwise); a point on a top face is interpolated in the last cell.
    Returns shape (..., *trailing value axes); a single point gives (1, ...).
    """
    values = np.asarray(nodal_values, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError(f"points must have 3 coordinates, got shape {pts.shape}")
    lo = np.array([axis[0] for axis in grid.axes])
    hi = np.array([axis[-1] for axis in grid.axes])
    flat = pts.reshape(-1, 3)
    if not np.all((flat >= lo) & (flat <= hi)):
        raise ValueError("sample points outside the grid box")
    cell = np.floor((flat - grid.origin) / grid.spacing).astype(np.int64)
    cell = np.clip(cell, 0, grid.resolution - 2)
    # local coordinate within the cell, from the node coordinates themselves
    t = np.stack([(flat[:, a] - axis[cell[:, a]]) / (axis[cell[:, a] + 1] - axis[cell[:, a]])
                  for a, axis in enumerate(grid.axes)], axis=1)
    tail = values.shape[3:]
    out = np.zeros((flat.shape[0],) + tail)
    for corner in itertools.product((0, 1), repeat=3):
        weight = np.prod([t[:, a] if c else 1.0 - t[:, a] for a, c in enumerate(corner)], axis=0)
        node = tuple(cell[:, a] + c for a, c in enumerate(corner))
        out += weight.reshape(weight.shape + (1,) * len(tail)) * values[node]
    return out.reshape(pts.shape[:-1] + tail)


def cell_average(values, blade_axis=True):
    """Average nodal data to cell centers (mean of the 2^ndim cell corners).

    blade_axis=True treats the last axis as per-node coefficients and leaves
    it alone; pass False for plain scalar arrays.
    """
    out = np.asarray(values, dtype=float)
    ndim = out.ndim - 1 if blade_axis else out.ndim
    for axis in range(ndim):
        v = np.moveaxis(out, axis, 0)
        out = np.moveaxis(0.5 * (v[1:] + v[:-1]), 0, axis)
    return out


def bump_factors(grid: BoxGrid, margin):
    """The per-axis factors of `bump_scalar`, each on its axis's nodes; a
    ValueError when the margin leaves an axis no node inside the support."""
    factors = []
    for i, t in enumerate(grid.axes):
        lo = grid.origin[i] + margin
        hi = grid.top[i] - margin
        if hi <= lo:
            raise ValueError("margin too large for the grid extent")
        width = hi - lo
        prof = np.clip((t - lo) * (hi - t), 0.0, None) / (width / 2.0) ** 2
        if not np.any(prof > 0.0):
            raise ValueError(f"no node of a grid of resolution {grid.resolution.tolist()} lies "
                             f"inside the support of a bump with margin {margin:g}")
        factors.append(prof**3)
    return factors


def bump_scalar(grid: BoxGrid, margin):
    """C^2 bump supported at distance >= margin from the boundary, peak 1: the
    product of the `bump_factors`."""
    out = np.ones(tuple(grid.resolution))
    for i, factor in enumerate(bump_factors(grid, margin)):
        out = out * factor.reshape([-1 if b == i else 1 for b in range(3)])
    return out

