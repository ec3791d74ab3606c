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
from .clifford import tables

MIN_RESOLUTION = 8


class BoxGrid:
    """Uniform tensor grid over an axis-aligned box in R^n."""

    def __init__(self, origin, extent, resolution):
        origin = np.asarray(origin, dtype=float)
        extent = np.asarray(extent, dtype=float)
        resolution = np.asarray(resolution, dtype=np.int64)
        if not (origin.shape == extent.shape == resolution.shape) or origin.ndim != 1:
            raise ValueError("origin, extent and resolution must be 1-d and congruent")
        if np.any(resolution < MIN_RESOLUTION):
            raise ValueError(f"resolution must be >= {MIN_RESOLUTION} per axis")
        if np.any(extent <= 0):
            raise ValueError("extent must be positive per axis")
        self.origin = origin
        self.extent = extent
        self.resolution = resolution
        self.spacing = extent / (resolution - 1)
        self.axes = tuple(
            origin[i] + self.spacing[i] * np.arange(resolution[i]) for i in range(self.ndim)
        )

    @classmethod
    def unit_cube(cls, resolution, ndim=3):
        return cls(np.zeros(ndim), np.ones(ndim), np.full(ndim, resolution))

    @property
    def ndim(self):
        return self.origin.shape[0]

    @property
    def top(self):
        return self.origin + self.extent

    @property
    def num_nodes(self):
        return int(np.prod(self.resolution))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacing))

    def node(self, index):
        return self.origin + np.asarray(index) * self.spacing

    def coords(self):
        """Node coordinates, shape (*resolution, ndim)."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def cell_centers(self):
        """Cell-center coordinates, shape (*(resolution-1), ndim)."""
        axes = tuple(
            self.origin[i] + self.spacing[i] * (np.arange(self.resolution[i] - 1) + 0.5)
            for i in range(self.ndim)
        )
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    def dual_grid(self):
        """Grid whose nodes are the cell centers of this grid."""
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
            self.ndim == other.ndim
            and np.array_equal(self.resolution, other.resolution)
            and np.allclose(self.origin, other.origin)
            and np.allclose(self.extent, other.extent)
        )

    def __repr__(self):
        return f"BoxGrid(origin={self.origin}, extent={self.extent}, resolution={self.resolution})"


def interior_slices(depth=2, ndim=3):
    """Index slices selecting nodes at least `depth` layers from the boundary."""
    return (slice(depth, -depth),) * ndim


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
    low/high side): `slab` indexes the face's nodes in a nodal array, and
    2 axis + high is the face id that `boundary_sampling` uses."""
    for axis in range(3):
        for high in (0, 1):
            side = -1 if high else 0
            yield axis, high, tuple(side if b == axis else slice(None) for b in range(3))


class MultivectorField:
    """Cl(0,n)-valued samples on the nodes of a BoxGrid.

    Values are stored node-major, blade-minor: shape (*resolution, 2^n).
    Fields are immutable after construction.
    """

    def __init__(self, grid: BoxGrid, values, n=None):
        if n is None:
            n = grid.ndim
        tab = tables(n)
        values = np.asarray(values, dtype=float)
        expected = tuple(grid.resolution) + (tab.dim,)
        if values.shape != expected:
            raise ValueError(f"values shape {values.shape} does not match {expected}")
        self.grid = grid
        self.n = n
        self.values = values.copy()
        self.values.setflags(write=False)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, grid, n=None):
        n = grid.ndim if n is None else n
        return cls(grid, np.zeros(tuple(grid.resolution) + (1 << n,)), n)

    @classmethod
    def from_scalar(cls, grid, scalar_values, n=None):
        n = grid.ndim if n is None else n
        vals = np.zeros(tuple(grid.resolution) + (1 << n,))
        vals[..., 0] = scalar_values
        return cls(grid, vals, n)

    @classmethod
    def from_vector(cls, grid, components, n=None):
        """components: array (*resolution, ndim) of grade-1 coefficients."""
        n = grid.ndim if n is None else n
        return cls(grid, clifford.vector_to_array(components, n), n)

    @classmethod
    def from_components(cls, grid, comps, n=None):
        """comps: dict blade-mask -> nodal array (or constant)."""
        n = grid.ndim if n is None else n
        vals = np.zeros(tuple(grid.resolution) + (1 << n,))
        for mask, arr in comps.items():
            vals[..., mask] = arr
        return cls(grid, vals, n)

    # -- algebra, nodewise ---------------------------------------------------

    def _check(self, other):
        if not self.grid.same_layout(other.grid) or self.n != other.n:
            raise ValueError("field grids or algebra dimensions do not match")

    def __add__(self, other):
        self._check(other)
        return MultivectorField(self.grid, self.values + other.values, self.n)

    def __sub__(self, other):
        self._check(other)
        return MultivectorField(self.grid, self.values - other.values, self.n)

    def __neg__(self):
        return MultivectorField(self.grid, -self.values, self.n)

    def __mul__(self, other):
        if isinstance(other, MultivectorField):
            self._check(other)
            return MultivectorField(
                self.grid, clifford.gp_array(self.values, other.values, self.n), self.n
            )
        return MultivectorField(self.grid, self.values * other, self.n)

    def __rmul__(self, other):
        return MultivectorField(self.grid, self.values * other, self.n)

    def scale_by(self, scalar_field):
        """Multiply every blade by a nodal scalar array."""
        return MultivectorField(
            self.grid, self.values * np.asarray(scalar_field)[..., None], self.n
        )

    def conjugate(self):
        return MultivectorField(self.grid, clifford.conj_array(self.values, self.n), self.n)

    def grade(self, k):
        tab = tables(self.n)
        vals = np.where(tab.grades == k, self.values, 0.0)
        return MultivectorField(self.grid, vals, self.n)

    def parity_split(self):
        tab = tables(self.n)
        p03 = np.where(tab.part03_mask, self.values, 0.0)
        p12 = np.where(tab.part12_mask, self.values, 0.0)
        return (
            MultivectorField(self.grid, p03, self.n),
            MultivectorField(self.grid, p12, self.n),
        )

    def sc(self):
        """Scalar-part nodal array."""
        return self.values[..., 0]

    def vec(self):
        """Grade-1 nodal components, shape (*res, n)."""
        return np.stack([self.values[..., 1 << i] for i in range(self.n)], axis=-1)

    def max_norm(self, region=None):
        vals = self.values if region is None else self.values[region]
        return float(np.max(np.abs(vals)))


# -- differential operators ---------------------------------------------------


def _second_derivative(values, h, axis):
    """Componentwise d^2/dx^2: centered inside, 4-point one-sided on the edges."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def dirac_D(w: MultivectorField, side="left") -> MultivectorField:
    """Dirac operator sum_i e_i d_i w, or the right action sum_i (d_i w) e_i."""
    grid = w.grid
    if np.any(grid.resolution < 3):
        raise ValueError("grid too small for the difference stencil")
    out = np.zeros_like(w.values)
    for i in range(w.n):
        dv = np.gradient(w.values, grid.spacing[i], axis=i, edge_order=2)
        if side == "left":
            out += clifford.basis_mul_left(1 << i, dv, w.n)
        elif side == "right":
            out += clifford.basis_mul_right(dv, 1 << i, w.n)
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return MultivectorField(grid, out, w.n)


def laplacian(w: MultivectorField) -> MultivectorField:
    """Componentwise 7-point Laplacian (n = 3), second order."""
    grid = w.grid
    if np.any(grid.resolution < 4):
        raise ValueError("grid too small for the second-derivative stencil")
    out = np.zeros_like(w.values)
    for i in range(grid.ndim):
        out += _second_derivative(w.values, grid.spacing[i], i)
    return MultivectorField(grid, out, w.n)


def scalar_gradient(grid: BoxGrid, scalar_values):
    """Gradient of a nodal scalar array, shape (*res, ndim)."""
    grads = [
        np.gradient(scalar_values, grid.spacing[i], axis=i, edge_order=2)
        for i in range(grid.ndim)
    ]
    return np.stack(grads, axis=-1)


def vector_divergence(grid: BoxGrid, components):
    """Divergence of nodal vector components (*res, ndim)."""
    out = np.zeros(components.shape[:-1])
    for i in range(grid.ndim):
        out += np.gradient(components[..., i], grid.spacing[i], axis=i, edge_order=2)
    return out


def vector_curl(grid: BoxGrid, components):
    """Curl of nodal vector components, n = 3 only."""
    if grid.ndim != 3:
        raise ValueError("curl requires n = 3")
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


def integrate_scalar(grid: BoxGrid, nodal_values) -> float:
    return float(np.sum(np.asarray(nodal_values) * grid.trapezoid_weights()))


def sc_norm(u: MultivectorField) -> float:
    return float(np.sqrt(max(sc_inner(u, u), 0.0)))


# -- boundary quadrature -------------------------------------------------------


class BoundaryQuadrature:
    """Midpoint-rule samples over the 2n faces of a box."""

    def __init__(self, positions, normals, weights, faces, max_cell_diameter=0.0):
        self.positions = positions
        self.normals = normals
        self.weights = weights
        self.faces = faces
        self.max_cell_diameter = max_cell_diameter

    def __len__(self):
        return self.positions.shape[0]

    @property
    def total_weight(self):
        return float(np.sum(self.weights))


def boundary_sampling(grid: BoxGrid, cells_per_axis=None) -> BoundaryQuadrature:
    """Midpoint face quadrature with outward unit normals.

    cells_per_axis overrides the per-face sampling density (defaults to the
    grid's own cell count per axis, i.e. resolution - 1).
    """
    ndim = grid.ndim
    positions, normals, weights, faces = [], [], [], []
    max_diam = 0.0
    for axis in range(ndim):
        for side in (0, 1):
            transverse = [t for t in range(ndim) if t != axis]
            axes_1d = []
            step = []
            for t in transverse:
                cells = int(cells_per_axis) if cells_per_axis else int(grid.resolution[t] - 1)
                ht = grid.extent[t] / cells
                axes_1d.append(grid.origin[t] + ht * (np.arange(cells) + 0.5))
                step.append(ht)
            max_diam = max(max_diam, float(np.sqrt(np.sum(np.asarray(step) ** 2))))
            mesh = np.meshgrid(*axes_1d, indexing="ij")
            count = mesh[0].size
            pos = np.empty((count, ndim))
            pos[:, axis] = grid.origin[axis] + (grid.extent[axis] if side else 0.0)
            for t, m in zip(transverse, mesh):
                pos[:, t] = m.ravel()
            nrm = np.zeros((count, ndim))
            nrm[:, axis] = 1.0 if side else -1.0
            positions.append(pos)
            normals.append(nrm)
            weights.append(np.full(count, float(np.prod(step))))
            faces.append(np.full(count, 2 * axis + side, dtype=np.int64))
    return BoundaryQuadrature(
        np.concatenate(positions),
        np.concatenate(normals),
        np.concatenate(weights),
        np.concatenate(faces),
        max_diam,
    )


# -- sampling and helpers --------------------------------------------------------


def trilinear_sample(grid: BoxGrid, nodal_values, points):
    """Multilinear interpolation of nodal data (scalar or per-blade) at points.

    Points of shape (..., ndim) must lie in the closed box (ValueError
    otherwise); a point on a top face is interpolated in the last cell.
    Returns shape (..., *trailing value axes); a single point gives (1, ...).
    """
    values = np.asarray(nodal_values, dtype=float)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ndim = grid.ndim
    if pts.shape[-1] != ndim:
        raise ValueError(f"points must have {ndim} coordinates, got shape {pts.shape}")
    lo = np.array([axis[0] for axis in grid.axes])
    hi = np.array([axis[-1] for axis in grid.axes])
    flat = pts.reshape(-1, ndim)
    if not np.all((flat >= lo) & (flat <= hi)):
        raise ValueError("sample points outside the grid box")
    cell = np.floor((flat - grid.origin) / grid.spacing).astype(np.int64)
    cell = np.clip(cell, 0, grid.resolution - 2)
    # local coordinate within the cell, from the node coordinates themselves
    t = np.stack([(flat[:, a] - axis[cell[:, a]]) / (axis[cell[:, a] + 1] - axis[cell[:, a]])
                  for a, axis in enumerate(grid.axes)], axis=1)
    tail = values.shape[ndim:]
    out = np.zeros((flat.shape[0],) + tail)
    for corner in itertools.product((0, 1), repeat=ndim):
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


def bump_scalar(grid: BoxGrid, margin):
    """C^2 bump supported at distance >= margin from the boundary, peak 1."""
    coords = grid.coords()
    out = np.ones(tuple(grid.resolution))
    for i in range(grid.ndim):
        t = coords[..., i]
        lo = grid.origin[i] + margin
        hi = grid.top[i] - margin
        if hi <= lo:
            raise ValueError("margin too large for the grid extent")
        width = hi - lo
        prof = np.clip((t - lo) * (hi - t), 0.0, None) / (width / 2.0) ** 2
        out = out * prof**3
    return out


# -- serialization -----------------------------------------------------------------


def save_field(field: MultivectorField, path):
    """Flat little-endian binary snapshot: n, resolution, origin, extent, coefficients."""
    grid = field.grid
    with open(path, "wb") as fh:
        np.asarray([field.n, grid.ndim], dtype="<i8").tofile(fh)
        np.asarray(grid.resolution, dtype="<i8").tofile(fh)
        np.asarray(grid.origin, dtype="<f8").tofile(fh)
        np.asarray(grid.extent, dtype="<f8").tofile(fh)
        np.ascontiguousarray(field.values, dtype="<f8").tofile(fh)


def load_field(path) -> MultivectorField:
    with open(path, "rb") as fh:
        n, ndim = (int(x) for x in np.fromfile(fh, dtype="<i8", count=2))
        resolution = np.fromfile(fh, dtype="<i8", count=ndim)
        origin = np.fromfile(fh, dtype="<f8", count=ndim)
        extent = np.fromfile(fh, dtype="<f8", count=ndim)
        dim = 1 << n
        count = int(np.prod(resolution)) * dim
        values = np.fromfile(fh, dtype="<f8", count=count)
    grid = BoxGrid(origin, extent, resolution)
    return MultivectorField(grid, values.reshape(tuple(resolution) + (dim,)), n)


def field_to_csv(field: MultivectorField, path):
    coords = field.grid.coords().reshape(-1, field.grid.ndim)
    vals = field.values.reshape(-1, 1 << field.n)
    header = ",".join([f"x{i + 1}" for i in range(field.grid.ndim)]) + "," + ",".join(
        clifford.blade_label(m) for m in range(1 << field.n)
    )
    np.savetxt(path, np.hstack([coords, vals]), delimiter=",", header=header, comments="")
