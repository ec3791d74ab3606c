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
convolution.  Boundary sums are direct (<= 128^2 faces).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clifford import basis_mul_left
from .fields import (
    BoxGrid,
    BoundaryQuadrature,
    MultivectorField,
    boundary_sampling,
    cell_average,
    dirac_D,
    trilinear_sample,
)
from .kernels import (
    KernelSpec,
    cauchy_E_components,
    newton_N_components,
    vekua_phi_components,
    yukawa_theta_components,
)

# Read by the benchmark's provenance line; no engine uses numba.
HAVE_NUMBA = False

DEFAULT_MARGIN_FRACTION = 0.2


@dataclass
class EvaluationSet:
    """Interior/exterior evaluation points kept clear of the boundary layer."""

    points: np.ndarray
    is_interior: np.ndarray
    margin: float
    grid: BoxGrid = field(repr=False, default=None)

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        self.is_interior = np.asarray(self.is_interior, dtype=bool)
        if self.points.shape[0] != self.is_interior.shape[0]:
            raise ValueError("points and interior flags disagree in length")
        if self.grid is not None:
            inner = self.grid.interior_distance(self.points)
            outer = self.grid.exterior_distance(self.points)
            bad_in = self.is_interior & (inner < self.margin - 1e-12)
            bad_out = ~self.is_interior & (outer < self.margin - 1e-12)
            if np.any(bad_in) or np.any(bad_out):
                raise ValueError("evaluation points violate the margin constraint")

    @classmethod
    def build(cls, grid: BoxGrid, n_interior=8, n_exterior=8, margin=None, seed=0,
              snap_to_centers=False):
        """Seeded uniform interior points and rejection-sampled exterior points.

        snap_to_centers moves interior points onto the nearest cell center
        that still keeps the margin, where dropped-cell volume quadrature
        keeps its singularity centered.
        """
        rng = np.random.default_rng(seed)
        if margin is None:
            margin = DEFAULT_MARGIN_FRACTION * float(np.min(grid.extent))
        lo = grid.origin + margin
        hi = grid.top - margin
        if np.any(hi <= lo):
            raise ValueError("margin leaves no interior room")
        interior = lo + (hi - lo) * rng.random((n_interior, grid.ndim))
        if snap_to_centers:
            # center indices k with lo <= origin + (k + 1/2) h <= hi, to the margin check's slack
            first = np.ceil((margin - 1e-12) / grid.spacing - 0.5)
            last = np.floor((grid.extent - margin + 1e-12) / grid.spacing - 0.5)
            if np.any(last < first):
                raise ValueError("margin leaves no cell center in the interior")
            idx = np.round((interior - grid.origin) / grid.spacing - 0.5)
            idx = np.clip(idx, first, last)
            interior = grid.origin + (idx + 0.5) * grid.spacing
        exterior = []
        span = grid.extent.max()
        while len(exterior) < n_exterior:
            cand = grid.origin - span + (3.0 * span) * rng.random((4 * n_exterior, grid.ndim))
            keep = grid.exterior_distance(cand) >= margin
            for point in cand[keep]:
                if len(exterior) < n_exterior:
                    exterior.append(point)
        points = np.vstack([interior, np.reshape(exterior, (n_exterior, grid.ndim))])
        flags = np.concatenate([np.ones(n_interior, bool), np.zeros(n_exterior, bool)])
        return cls(points, flags, margin, grid)

    @property
    def interior_points(self):
        return self.points[self.is_interior]

    @property
    def exterior_points(self):
        return self.points[~self.is_interior]

    def __len__(self):
        return self.points.shape[0]


# -- volume potentials ------------------------------------------------------------

_GRADE1_FAMILIES = ("cauchy", "vekua_phi")


def _kernel_components(spec: KernelSpec, z):
    """Kernel at offsets z: (m, 3) vectors for grade-1 families, (m,) scalars otherwise."""
    if spec.family == "cauchy":
        return cauchy_E_components(z, spec.dimension)
    if spec.family == "vekua_phi":
        return vekua_phi_components(z, spec.lam)
    if spec.family == "newton":
        return newton_N_components(z, spec.dimension)[0]
    return yukawa_theta_components(z, spec.q)[0]


def _kernel_table(spec: KernelSpec, z, drop):
    """Kernel at the (m, 3) offsets z as (m, k) columns, with row drop zeroed (-1: none).

    Overwrites z[drop], the singular offset.
    """
    if drop >= 0:
        z[drop] = 1.0
    table = _kernel_components(spec, z).reshape(len(z), -1)
    if drop >= 0:
        table[drop] = 0.0
    return table


def _kernel_times(spec: KernelSpec, sums):
    """K g from sums (..., k, blades) of each kernel column against g.

    A grade-1 kernel multiplies g from the left, column i through e_i.
    """
    if spec.family not in _GRADE1_FAMILIES:
        return sums[..., 0, :]
    return sum(basis_mul_left(1 << i, sums[..., i, :], 3) for i in range(3))


def _containing_cells(grid: BoxGrid, points):
    """Flat cell index containing each point, -1 for points outside the box."""
    pts = np.atleast_2d(points)
    idx = np.floor((pts - grid.origin) / grid.spacing).astype(np.int64)
    inside = np.all((pts >= grid.origin - 1e-12) & (pts <= grid.top + 1e-12), axis=1)
    cells = grid.resolution - 1
    idx = np.clip(idx, 0, cells - 1)
    flat = np.ravel_multi_index(tuple(idx.T), tuple(cells))
    return np.where(inside, flat, -1)


def _volume_sum(kernel: KernelSpec, points, grid: BoxGrid, cell_values, drop_inside):
    """sum_c K(y_c - x) g_c |cell| over the cell centers y_c, one row per point x.

    The direct engine for point sets.  cell_values holds one row of
    coefficients per cell (a 1-d array is one scalar per cell); grade-1
    kernels multiply it from the left.  With drop_inside the cell
    containing x is left out.
    """
    if grid.ndim != 3:
        raise ValueError("volume potentials are implemented for n = 3 only")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[0] == 0:
        raise ValueError("empty evaluation point set")
    centers = grid.cell_centers().reshape(-1, 3)
    vals = np.asarray(cell_values, dtype=float).reshape(len(centers), -1)
    drop = _containing_cells(grid, pts) if drop_inside else np.full(len(pts), -1)
    sums = np.stack([_kernel_table(kernel, centers - x, skip).T @ vals
                     for x, skip in zip(pts, drop)])
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
                               for n, h in zip(shape, grid.spacing)), indexing="ij"), axis=-1)
    kernel_hats = [np.fft.rfftn(column.reshape(shape))
                   for column in _kernel_table(kernel, z.reshape(-1, 3), 0).T]
    sums = np.zeros(cells + (len(kernel_hats), vals.shape[-1]))
    for b in range(vals.shape[-1]):
        if not vals[..., b].any():
            continue
        g_hat = np.fft.rfftn(vals[..., b], s=shape, axes=axes)
        for i, k_hat in enumerate(kernel_hats):
            sums[..., i, b] = np.fft.irfftn(k_hat * g_hat, s=shape, axes=axes)[window]
    return _kernel_times(kernel, sums) * grid.cell_volume


def vector_volume_potential(points, grid: BoxGrid, cell_values, lam=None, drop_inside=True):
    """int_Omega Phi_lam(y - x) g(y) dy as coefficient stacks, one row per point.

    cell_values holds the cell-averaged coefficients of g, flattened to
    (num_cells, 2^n).  lam = None or zero selects the Cauchy kernel.
    """
    screened = lam is not None and np.any(lam)
    kernel = KernelSpec("vekua_phi", lam=lam) if screened else KernelSpec("cauchy")
    return _volume_sum(kernel, points, grid, cell_values, drop_inside)


def scalar_volume_potential(points, grid: BoxGrid, cell_scalar, family="newton", q=0.0,
                            drop_inside=True):
    """int_Omega k(|y - x|) rho(y) dy for the scalar newton/yukawa kernels."""
    if family not in ("newton", "yukawa"):
        raise ValueError(f"unknown scalar kernel family {family!r}")
    kernel = KernelSpec("yukawa", q=q) if family == "yukawa" and q > 0 else KernelSpec("newton")
    return _volume_sum(kernel, points, grid, np.ravel(cell_scalar), drop_inside)[:, 0]


# -- spec-level operations ------------------------------------------------------


def teodorescu(g: MultivectorField, points, drop_inside=True):
    """Teodorescu transform T[g](x) = -int E(y - x) g(y) dy at given points."""
    pts = points.points if isinstance(points, EvaluationSet) else np.atleast_2d(points)
    cell_vals = cell_average(g.values)
    return -vector_volume_potential(pts, g.grid, cell_vals, lam=None, drop_inside=drop_inside)


def teodorescu_on_dual_grid(g: MultivectorField) -> MultivectorField:
    """T[g] sampled on the cell-center lattice, ready for stencil operators.

    Evaluating on the dual grid keeps the dropped singular cell exactly
    centered on every evaluation point.
    """
    dual = g.grid.dual_grid()
    vals = -_lattice_sum(KernelSpec("cauchy"), g.grid, cell_average(g.values))
    return MultivectorField(dual, vals, g.n)


# For vectors K and eta, K eta = -(K . eta) + sum_{i<j} (K_i eta_j - K_j eta_i) e_i e_j.
_BIVECTOR_AXES = ((0, 1), (0, 2), (1, 2))


def cauchy_boundary(kernel: KernelSpec, boundary: BoundaryQuadrature, trace_values, points):
    """Boundary layer potential of one kernel family, full multivector output.

    Grade-1 families (cauchy, vekua_phi) give the Clifford double layer
    sum_m K(y_m - x) eta_m v_m w_m, products taken in the written order:
    kernel, then normal, then trace.  Scalar families (newton, yukawa) give
    the single layer sum_m k(y_m - x) v_m w_m.  A 1-d trace is a scalar
    trace.  Per point the double layer is four face sums of the weighted
    trace, one per part of K eta, recombined by signed blade shuffles.
    Points closer to the boundary than one face-cell diameter are rejected;
    the midpoint rule is unreliable there.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    trace = np.asarray(trace_values, dtype=float)
    if trace.ndim == 1:
        trace = np.concatenate([trace[:, None], np.zeros((trace.shape[0], 7))], axis=1)
    density = trace * boundary.weights[:, None]
    eta = boundary.normals
    double_layer = kernel.family in _GRADE1_FAMILIES
    sums = np.empty((pts.shape[0], 4 if double_layer else 1, trace.shape[-1]))
    for p, x in enumerate(pts):
        z = boundary.positions - x
        if np.sqrt(np.min(np.sum(z * z, axis=1))) < boundary.max_cell_diameter:
            raise ValueError(
                "evaluation point within one face-cell diameter of the boundary"
            )
        k = _kernel_components(kernel, z)
        if double_layer:
            k = np.stack([-np.sum(k * eta, axis=1)] + [
                k[:, i] * eta[:, j] - k[:, j] * eta[:, i] for i, j in _BIVECTOR_AXES
            ])
        sums[p] = np.atleast_2d(k) @ density
    out = sums[:, 0].copy()
    if double_layer:
        for b, (i, j) in enumerate(_BIVECTOR_AXES, start=1):
            out += basis_mul_left((1 << i) | (1 << j), sums[:, b], 3)
    return out


def borel_pompeiu_residual(v: MultivectorField, pts: EvaluationSet, trace_fn=None,
                           boundary=None):
    """Residual of the Borel-Pompeiu representation at every evaluation point.

    residual(x) = T[Dv](x) + int_bdry E(y-x) eta v ds - (v(x) if interior).
    Returns per-point max-coefficient norms plus the pieces, for reporting.
    """
    grid = v.grid
    if boundary is None:
        boundary = boundary_sampling(grid)
    if trace_fn is not None:
        trace_vals = trace_fn(boundary.positions)
        point_vals = trace_fn(pts.points)
    else:
        trace_vals = trilinear_sample(grid, v.values, boundary.positions)
        # exterior targets are zero; interpolation is only defined inside
        point_vals = np.zeros((len(pts), v.values.shape[-1]))
        if np.any(pts.is_interior):
            point_vals[pts.is_interior] = trilinear_sample(
                grid, v.values, pts.interior_points
            )
    Dv = dirac_D(v)
    T = teodorescu(Dv, pts.points)
    B = cauchy_boundary(KernelSpec("cauchy"), boundary, trace_vals, pts.points)
    target = np.where(pts.is_interior[:, None], point_vals, 0.0)
    residual = T + B - target
    return {
        "residual_norms": np.max(np.abs(residual), axis=-1),
        "teodorescu": T,
        "boundary": B,
        "target": target,
        "is_interior": pts.is_interior,
    }


def s_alpha(w: MultivectorField, alpha: MultivectorField) -> MultivectorField:
    """S_alpha[w] = w - T[alpha conj(w)], sampled on the dual (cell-center) grid.

    For w solving the Vekua equation with coefficient alpha the result is
    monogenic up to quadrature order: the stencil Dirac of the output
    decays under refinement.
    """
    w._check(alpha)
    integrand = alpha * w.conjugate()
    T = teodorescu_on_dual_grid(integrand)
    w_dual = MultivectorField(T.grid, cell_average(w.values), w.n)
    return w_dual - T
