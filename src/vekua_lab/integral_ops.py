"""Quadrature engines for volume potentials and boundary Cauchy-type integrals.

The volume potential int_Omega K(y - x) g(y) dy is evaluated by node-cell
midpoint quadrature: cell-center kernel values against cell-averaged field
values.  When the evaluation point lies inside a cell, that cell is
dropped; the vector kernels are odd, so the centered-cell contribution
against a locally constant field vanishes and the omission stays within
the first-order error budget of the scheme.  Evaluation points meant for
grid-wide potentials therefore live on the dual (cell-center) lattice,
where the dropped singular cell is exactly centered.

No fast summation is used; everything is direct, which keeps the engine
at desk scale (<= 64^3 volumes, <= 128^2 faces).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clifford import basis_mul_left, tables
from .fields import (
    BoxGrid,
    BoundaryQuadrature,
    MultivectorField,
    boundary_sampling,
    cell_average,
    dirac_D,
)
from .kernels import (
    KernelSpec,
    cauchy_E_components,
    newton_N_components,
    vekua_phi_components,
    yukawa_theta_components,
)

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    numba = None
    HAVE_NUMBA = False

DEFAULT_MARGIN_FRACTION = 0.2


def _worker_cap():
    """VEKUA_LAB_THREADS through the harness's one parser (None when unset)."""
    from .harness import thread_cap  # the harness imports this module

    return thread_cap()


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
        points = np.vstack([interior, np.asarray(exterior)])
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


# -- direct volume-potential kernels ----------------------------------------------

if HAVE_NUMBA:

    @numba.njit(cache=True, parallel=True)
    def _vector_potential_direct(points, drop_flat, centers, cell_vals, lam, q, perm, psign, vol):
        npts = points.shape[0]
        ncells = centers.shape[0]
        dim = cell_vals.shape[1]
        out = np.zeros((npts, dim))
        four_pi = 4.0 * math.pi
        kappa = math.sqrt(q)
        screened = q > 0.0
        for p in numba.prange(npts):
            acc = np.zeros(dim)
            px = points[p, 0]
            py = points[p, 1]
            pz = points[p, 2]
            skip = drop_flat[p]
            for c in range(ncells):
                if c == skip:
                    continue
                zx = centers[c, 0] - px
                zy = centers[c, 1] - py
                zz = centers[c, 2] - pz
                r2 = zx * zx + zy * zy + zz * zz
                r = math.sqrt(r2)
                if screened:
                    damp = math.exp(-kappa * r)
                    theta = damp / (four_pi * r)
                    dtheta = -(1.0 + kappa * r) * damp / (four_pi * r2)
                else:
                    theta = 1.0 / (four_pi * r)
                    dtheta = -theta / r
                gr = dtheta / r
                k0 = gr * zx - lam[0] * theta
                k1 = gr * zy - lam[1] * theta
                k2 = gr * zz - lam[2] * theta
                for d in range(dim):
                    gd = cell_vals[c, d]
                    if gd != 0.0:
                        acc[perm[0, d]] += psign[0, d] * k0 * gd
                        acc[perm[1, d]] += psign[1, d] * k1 * gd
                        acc[perm[2, d]] += psign[2, d] * k2 * gd
            for d in range(dim):
                out[p, d] = acc[d] * vol
        return out


def _vector_potential_numpy(points, drop_flat, centers, cell_vals, lam, q, perm, psign, vol):
    """Pure-numpy fallback for the direct volume potential (one point at a time)."""
    npts = points.shape[0]
    dim = cell_vals.shape[1]
    out = np.zeros((npts, dim))
    lam = np.asarray(lam, dtype=float)
    for p in range(npts):
        z = centers - points[p]
        skip = int(drop_flat[p])
        if skip >= 0:
            z = z.copy()
            z[skip] = 1.0  # placeholder, contribution zeroed below
        comps = vekua_phi_components(z, lam) if q > 0.0 else cauchy_E_components(z)
        if skip >= 0:
            comps[skip] = 0.0
        for i in range(3):
            out[p, perm[i]] += psign[i] * (comps[:, i] @ cell_vals)
    out *= vol
    return out


def _containing_cells(grid: BoxGrid, points):
    """Flat cell index containing each point, -1 for points outside the box."""
    pts = np.atleast_2d(points)
    idx = np.floor((pts - grid.origin) / grid.spacing).astype(np.int64)
    inside = np.all((pts >= grid.origin - 1e-12) & (pts <= grid.top + 1e-12), axis=1)
    cells = grid.resolution - 1
    idx = np.clip(idx, 0, cells - 1)
    flat = np.ravel_multi_index(tuple(idx.T), tuple(cells))
    return np.where(inside, flat, -1)


def vector_volume_potential(points, grid: BoxGrid, cell_values, lam=None, drop_inside=True):
    """int_Omega Phi_lam(y - x) g(y) dy as coefficient stacks, one row per point.

    cell_values holds the cell-averaged coefficients of g, flattened to
    (num_cells, 2^n).  lam = None or zero selects the Cauchy kernel.
    """
    if grid.ndim != 3:
        raise ValueError("volume potentials are implemented for n = 3 only")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    cell_vals = np.ascontiguousarray(cell_values.reshape(-1, cell_values.shape[-1]))
    if cell_vals.shape[0] == 0:
        raise ValueError("empty field")
    if pts.shape[0] == 0:
        raise ValueError("empty evaluation point set")
    lam = np.zeros(3) if lam is None else np.asarray(lam, dtype=float)
    q = float(lam @ lam)
    drop = _containing_cells(grid, pts) if drop_inside else np.full(pts.shape[0], -1)
    tab = tables(3)
    perm = np.stack([tab.xor[1 << i] for i in range(3)]).astype(np.int64)
    psign = np.stack([tab.sign[1 << i] for i in range(3)]).astype(np.float64)
    centers = np.ascontiguousarray(grid.cell_centers().reshape(-1, 3))
    if HAVE_NUMBA:
        cap = _worker_cap()
        if cap is not None:
            numba.set_num_threads(min(cap, numba.config.NUMBA_NUM_THREADS))
        return _vector_potential_direct(
            pts, drop, centers, cell_vals, lam, q, perm, psign, grid.cell_volume
        )
    return _vector_potential_numpy(
        pts, drop, centers, cell_vals, lam, q, perm, psign, grid.cell_volume
    )


def scalar_volume_potential(points, grid: BoxGrid, cell_scalar, family="newton", q=0.0,
                            drop_inside=True):
    """int_Omega k(|y - x|) rho(y) dy for the scalar newton/yukawa kernels."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = np.asarray(cell_scalar, dtype=float).ravel()
    centers = grid.cell_centers().reshape(-1, 3)
    drop = _containing_cells(grid, pts) if drop_inside else np.full(pts.shape[0], -1)
    out = np.empty(pts.shape[0])
    four_pi = 4.0 * math.pi
    kappa = math.sqrt(q) if family == "yukawa" else 0.0
    for p in range(pts.shape[0]):
        z = centers - pts[p]
        r = np.sqrt(np.sum(z * z, axis=1))
        skip = int(drop[p])
        if skip >= 0:
            r[skip] = 1.0  # placeholder, contribution zeroed below
        vals = np.exp(-kappa * r) / (four_pi * r) if kappa > 0 else 1.0 / (four_pi * r)
        if skip >= 0:
            vals[skip] = 0.0
        out[p] = np.sum(vals * rho)
    return out * grid.cell_volume


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
    pts = dual.coords().reshape(-1, 3)
    vals = teodorescu(g, pts)
    return MultivectorField(dual, vals.reshape(tuple(dual.resolution) + (vals.shape[-1],)), g.n)


def _kernel_components(spec: KernelSpec, z):
    """Kernel at offsets z: (m, 3) vectors for grade-1 families, (m,) scalars otherwise."""
    if spec.family == "cauchy":
        return cauchy_E_components(z, spec.dimension)
    if spec.family == "vekua_phi":
        return vekua_phi_components(z, spec.lam)
    if spec.family == "newton":
        return newton_N_components(z, spec.dimension)[0]
    return yukawa_theta_components(z, spec.q)[0]


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
    double_layer = kernel.family in ("cauchy", "vekua_phi")
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
        from .fields import trilinear_sample

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
