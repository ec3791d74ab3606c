"""Quadrature engines for volume potentials and boundary Cauchy-type integrals.

The volume potential int_Omega K(y - x) g(y) dy is evaluated by node-cell
midpoint quadrature: cell-center kernel values against cell-averaged field
values.  When the evaluation point lies inside a cell, that cell is
dropped; the vector kernels are odd, so the centered-cell contribution
against a locally constant field vanishes and the omission stays within
the first-order error budget of the scheme.  Evaluation points meant for
grid-wide potentials therefore live on the dual (cell-center) lattice,
where the dropped singular cell is exactly centered.

Each volume sum has one engine, chosen by its input: a direct numpy sum,
one point at a time, for point sets, and zero-padded FFTs for the whole
cell-center lattice, where the dropped-cell sum is a discrete
convolution.  A boundary sum takes the same shape: the normal is folded
into the weighted trace once, a signed basis shuffle per face, and both
are kernel rows against a density, recombined by `_kernel_times`; traces
stacked on a case axis share each point's rows.  Offsets are (3, m)
coordinate arrays; the kernel evaluator gets their column-major transpose,
contiguous per column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clifford import basis_mul_left
from .fields import (
    BoxGrid,
    BoundaryQuadrature,
    MultivectorField,
    cell_average,
)
from .kernels import KernelSpec, radii

# Read by the benchmark's provenance line; no engine uses numba.
HAVE_NUMBA = False


def margin_centers(grid: BoxGrid, margin):
    """Per axis, the first and the last cell-center index k with
    lo <= origin + (k + 1/2) h <= hi, lo and hi the margin interior, to the
    margin check's slack: last < first on an axis with no such center."""
    first = np.ceil((margin - 1e-12) / grid.spacing - 0.5)
    last = np.floor((grid.extent - margin + 1e-12) / grid.spacing - 0.5)
    return first, last


@dataclass
class EvaluationSet:
    """Interior/exterior evaluation points kept clear of the boundary layer."""

    points: np.ndarray
    is_interior: np.ndarray
    margin: float
    grid: BoxGrid = field(repr=False)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.is_interior = np.asarray(self.is_interior, dtype=bool)
        if self.points.shape[0] != self.is_interior.shape[0]:
            raise ValueError("points and interior flags disagree in length")
        inner = self.grid.interior_distance(self.points)
        outer = self.grid.exterior_distance(self.points)
        bad_in = self.is_interior & (inner < self.margin - 1e-12)
        bad_out = ~self.is_interior & (outer < self.margin - 1e-12)
        if np.any(bad_in) or np.any(bad_out):
            raise ValueError("evaluation points violate the margin constraint")

    @classmethod
    def build(cls, grid: BoxGrid, n_interior, n_exterior, margin, seed, snap_to_centers=False):
        """Seeded uniform interior points and rejection-sampled exterior points,
        each at least `margin` from the boundary.

        snap_to_centers moves interior points onto the nearest cell center
        that still keeps the margin, where dropped-cell volume quadrature
        keeps its singularity centered.
        """
        rng = np.random.default_rng(seed)
        lo = grid.origin + margin
        hi = grid.top - margin
        if np.any(hi <= lo):
            raise ValueError("margin leaves no interior room")
        interior = lo + (hi - lo) * rng.random((n_interior, 3))
        if snap_to_centers:
            first, last = margin_centers(grid, margin)
            if np.any(last < first):
                raise ValueError("margin leaves no cell center in the interior")
            idx = np.round((interior - grid.origin) / grid.spacing - 0.5)
            idx = np.clip(idx, first, last)
            interior = grid.origin + (idx + 0.5) * grid.spacing
        exterior = []
        span = grid.extent.max()
        while len(exterior) < n_exterior:
            cand = grid.origin - span + (3.0 * span) * rng.random((4 * n_exterior, 3))
            keep = grid.exterior_distance(cand) >= margin
            for point in cand[keep]:
                if len(exterior) < n_exterior:
                    exterior.append(point)
        points = np.vstack([interior, np.reshape(exterior, (n_exterior, 3))])
        flags = np.concatenate([np.ones(n_interior, bool), np.zeros(n_exterior, bool)])
        return cls(points, flags, margin, grid)

    @property
    def interior_points(self):
        return self.points[self.is_interior]

    def __len__(self):
        return self.points.shape[0]


# -- volume potentials ------------------------------------------------------------

def _kernel_table(spec: KernelSpec, z, drop=-1, r=None):
    """Kernel at the (3, m) offsets z as (k, m) rows, with column drop zeroed (-1: none).

    r = |z| may be given when nothing is dropped.  Overwrites z[:, drop],
    the singular offset.
    """
    if drop >= 0:
        z[:, drop] = 1.0
    table = spec.values(z.T, r).T.reshape(-1, z.shape[1])
    if drop >= 0:
        table[:, drop] = 0.0
    return table


def _kernel_times(spec: KernelSpec, sums):
    """K g from sums (..., k, blades) of each kernel row against g.

    A grade-1 kernel multiplies g from the left, row i through e_i.
    """
    if not spec.grade1:
        return sums[..., 0, :]
    return sum(basis_mul_left(1 << i, sums[..., i, :]) for i in range(3))


def _containing_cells(grid: BoxGrid, points):
    """Flat cell index containing each point, -1 for points outside the box."""
    pts = np.atleast_2d(points)
    idx = np.floor((pts - grid.origin) / grid.spacing).astype(np.int64)
    inside = np.all((pts >= grid.origin - 1e-12) & (pts <= grid.top + 1e-12), axis=1)
    cells = grid.resolution - 1
    idx = np.clip(idx, 0, cells - 1)
    flat = np.ravel_multi_index(tuple(idx.T), tuple(cells))
    return np.where(inside, flat, -1)


def _volume_sum(kernel: KernelSpec, points, grid: BoxGrid, cell_values):
    """sum_c K(y_c - x) g_c |cell| over the cell centers y_c, one row per point x.

    The direct engine for point sets.  cell_values holds one row of
    coefficients per cell (a 1-d array is one scalar per cell); grade-1
    kernels multiply it from the left.  The cell containing x is left out.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("empty evaluation point set")
    centers = np.moveaxis(grid.cell_centers(), -1, 0).reshape(3, -1)
    vals = np.ascontiguousarray(cell_values, dtype=float).reshape(centers.shape[1], -1)
    sums = np.stack([_kernel_table(kernel, centers - x[:, None], skip) @ vals
                     for x, skip in zip(pts, _containing_cells(grid, pts))])
    return _kernel_times(kernel, sums) * grid.cell_volume


def _lattice_sum(kernel: KernelSpec, grid: BoxGrid, cell_values):
    """_volume_sum at every cell center, its own cell dropped, by zero-padded FFTs.

    Two centers differ by a multiple of the spacing, so the sum is a
    discrete convolution with the kernel tabulated on the (2c - 1)^3 center
    offsets, zero at offset 0; padding each axis to 2c makes the circular
    convolution exact (Hockney & Eastwood, 1988).  One blade is
    transformed at a time.
    """
    cells = tuple(int(c) for c in grid.resolution - 1)
    vals = np.asarray(cell_values, dtype=float).reshape(cells + (-1,))
    shape, axes = tuple(2 * c for c in cells), (0, 1, 2)
    window = tuple(slice(c) for c in cells)
    # offset d = p - c from summed center c to output center p, in FFT order,
    # holds K(y_c - x_p) = K(-d h)
    z = np.stack(np.meshgrid(*(-np.fft.fftfreq(n, 1.0 / n) * h
                               for n, h in zip(shape, grid.spacing)), indexing="ij"))
    kernel_hats = [np.fft.rfftn(row.reshape(shape))
                   for row in _kernel_table(kernel, z.reshape(3, -1), 0)]
    sums = np.zeros(cells + (len(kernel_hats), vals.shape[-1]))
    for b in range(vals.shape[-1]):
        if not vals[..., b].any():
            continue
        g_hat = np.fft.rfftn(vals[..., b], s=shape, axes=axes)
        for i, k_hat in enumerate(kernel_hats):
            sums[..., i, b] = np.fft.irfftn(k_hat * g_hat, s=shape, axes=axes)[window]
    return _kernel_times(kernel, sums) * grid.cell_volume


def vector_volume_potential(points, grid: BoxGrid, cell_values, lam=None):
    """int_Omega Phi_lam(y - x) g(y) dy as coefficient stacks, one row per point.

    cell_values holds the cell-averaged coefficients of g, flattened to
    (num_cells, 8).  lam = None or zero selects the Cauchy kernel.
    """
    return _volume_sum(KernelSpec.phi(lam), points, grid, cell_values)


def scalar_volume_potential(points, grid: BoxGrid, cell_scalar, q=0.0):
    """int_Omega theta_q(y - x) rho(y) dy; q = 0 selects the Newton kernel."""
    return _volume_sum(KernelSpec.theta(q), points, grid, np.ravel(cell_scalar))[:, 0]


# -- spec-level operations ------------------------------------------------------


def teodorescu(g: MultivectorField, points):
    """Teodorescu transform T[g](x) = -int E(y - x) g(y) dy at given points."""
    return -vector_volume_potential(np.atleast_2d(points), g.grid, cell_average(g.values))


def teodorescu_on_dual_grid(g: MultivectorField) -> MultivectorField:
    """T[g] sampled on the cell-center lattice, ready for stencil operators.

    Evaluating on the dual grid keeps the dropped singular cell exactly
    centered on every evaluation point.
    """
    dual = g.grid.dual_grid()
    vals = -_lattice_sum(KernelSpec("cauchy"), g.grid, cell_average(g.values))
    return MultivectorField._own(dual, vals)


def cauchy_boundary(kernel: KernelSpec, boundary: BoundaryQuadrature, trace_values, points):
    """Boundary layer potential of one kernel family, full multivector output.

    Grade-1 families (cauchy, vekua_phi) give the Clifford double layer
    sum_m K(y_m - x) eta_m v_m w_m, products taken in the written order:
    kernel, then normal, then trace.  Scalar families (newton, yukawa) give
    the single layer sum_m k(y_m - x) v_m w_m.  A trace is (m,), a scalar
    trace, or (m, 8); a leading case axis, (c, m) or (c, m, 8), stacks c
    traces and gives (c, points, 8).  The densities eta v w of every case
    fill one (m, c, 8) buffer, the normal folded in place: the samples of
    each face form one contiguous block (`face_blocks`) with normal
    +-e_axis, so the fold is one signed basis shuffle per block
    (`_normal_fold`), exact.  Each point's offsets, radii and kernel rows
    are built once, one product with the buffer serves every case, and
    `_kernel_times` recombines the sums as in the volume sums.  Points
    closer to the boundary than one face-cell diameter are rejected; the
    midpoint rule is unreliable there.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    trace = np.asarray(trace_values, dtype=float)
    m = len(boundary)
    scalar = trace.shape[-1] == m
    traces = trace.reshape((-1, m) if scalar else (-1, m, 8))
    density = np.zeros((m, len(traces), 8))
    (density[..., 0] if scalar else density)[...] = np.moveaxis(traces, 0, 1)
    density *= boundary.weights[:, None, None]
    if kernel.grade1:
        _normal_fold(boundary, density)
    density = density.reshape(m, -1)
    faces = np.ascontiguousarray(boundary.positions.T)
    sums = []
    for x in pts:
        z = faces - x[:, None]
        r = radii(z.T)
        if np.min(r) < boundary.max_cell_diameter:
            raise ValueError("evaluation point within one face-cell diameter of the boundary")
        sums.append(_kernel_table(kernel, z, r=r) @ density)
    sums = np.stack(sums).reshape(len(pts), -1, len(traces), 8)
    out = _kernel_times(kernel, np.moveaxis(sums, 2, 0))
    return out if trace.ndim == (2 if scalar else 3) else out[0]


def _normal_fold(boundary: BoundaryQuadrature, density):
    """eta v into density (m, ..., 8), in place: +-(e_axis v) on a face block of normal +-e_axis."""
    for axis, sign, rows in boundary.face_blocks:
        density[rows] = sign * basis_mul_left(1 << axis, density[rows])


def s_alpha(w: MultivectorField, alpha: MultivectorField) -> MultivectorField:
    """S_alpha[w] = w - T[alpha conj(w)], sampled on the dual (cell-center) grid.

    For w solving the Vekua equation with coefficient alpha the result is
    monogenic up to quadrature order: the stencil Dirac of the output
    decays under refinement.
    """
    w._check(alpha)
    integrand = alpha * w.conjugate()
    T = teodorescu_on_dual_grid(integrand)
    w_dual = MultivectorField._own(T.grid, cell_average(w.values))
    return w_dual - T
