"""Vekua-equation machinery: conductivity profiles, residuals, the Beltrami
transform, construction of the bivector part from a scalar conductivity
solution, and the orthogonality test for the generalized Hodge splitting.

The Vekua equation here is D w = alpha conj(w) with alpha = grad f / f for a
scalar conductivity factor f bounded away from zero.  Scalar solutions of
div(f^2 grad u0) = 0 lift to full solutions w = f u0 + B where the bivector
part B is obtained from a div-curl system through the n = 3 duality between
bivectors and vectors; the orientation of that duality is derived from the
algebra itself rather than transcribed from a convention table.
"""

from __future__ import annotations

from itertools import permutations, product

import numpy as np

from .clifford import gp_array, tables, vector_to_array
from .fields import (
    BoxGrid,
    MultivectorField,
    dirac_D,
    interior_slices,
    sc_inner,
    scalar_gradient,
    trilinear_sample,
    vector_curl,
    vector_divergence,
)


# -- conductivity profiles ---------------------------------------------------


class ConductivityProfile:
    """Scalar factor f with its gradient, log-derivative alpha and potential q.

    Closed-form families keep callables so kernels and boundary quadrature
    can evaluate f away from grid nodes; sampled profiles fall back to
    stencils and interpolation.
    """

    def __init__(self, grid: BoxGrid, kind, f_fn=None, grad_fn=None, q_fn=None,
                 samples=None, lam=None):
        self.grid = grid
        self.kind = kind
        self.lam = None if lam is None else np.asarray(lam, dtype=float)
        self._f_fn = f_fn
        self._grad_fn = grad_fn
        coords = grid.coords()
        if f_fn is not None:
            self.f = f_fn(coords)
        else:
            self.f = np.asarray(samples, dtype=float)
            if self.f.shape != tuple(grid.resolution):
                raise ValueError("sampled profile shape does not match the grid")
        if np.min(np.abs(self.f)) <= 0.0:
            raise ValueError("conductivity factor must be bounded away from zero")
        self.grad_f = grad_fn(coords) if grad_fn is not None else scalar_gradient(grid, self.f)
        self.alpha = self.grad_f / self.f[..., None]
        if q_fn is not None:
            self.q = q_fn(coords)
        elif f_fn is None:
            lap = sum(
                np.gradient(self.grad_f[..., i], grid.spacing[i], axis=i, edge_order=2)
                for i in range(3)
            )
            self.q = lap / self.f
        else:
            self.q = None
        self.bounds = (float(np.min(np.abs(self.f))), float(np.max(np.abs(self.f))))

    # closed-form families

    @classmethod
    def exponential(cls, grid, lam):
        """f = exp(lam . x); alpha is the constant vector lam and q = |lam|^2."""
        lam = np.asarray(lam, dtype=float)
        q = float(lam @ lam)
        return cls(
            grid,
            "exponential",
            f_fn=lambda X: np.exp(X @ lam),
            grad_fn=lambda X: np.exp(X @ lam)[..., None] * lam,
            q_fn=lambda X: np.full(X.shape[:-1], q),
            lam=lam,
        )

    @classmethod
    def constant(cls, grid, value):
        if value == 0.0:
            raise ValueError("conductivity factor must be bounded away from zero")
        return cls(
            grid,
            "constant",
            f_fn=lambda X: np.full(X.shape[:-1], float(value)),
            grad_fn=lambda X: np.zeros(X.shape),
            q_fn=lambda X: np.zeros(X.shape[:-1]),
        )

    @classmethod
    def separable_z(cls, grid, fz, dfz, d2fz):
        """f depending on the last coordinate only, via closed-form callables."""

        def f_fn(X):
            return fz(X[..., -1])

        def grad_fn(X):
            g = np.zeros(X.shape)
            g[..., -1] = dfz(X[..., -1])
            return g

        def q_fn(X):
            return d2fz(X[..., -1]) / fz(X[..., -1])

        return cls(grid, "separable_z", f_fn=f_fn, grad_fn=grad_fn, q_fn=q_fn)

    @classmethod
    def linear_z(cls, grid, a, b):
        return cls.separable_z(
            grid, lambda z: a + b * z, lambda z: np.full_like(z, float(b)),
            lambda z: np.zeros_like(z)
        )

    @classmethod
    def quadratic_z(cls, grid, a, c):
        return cls.separable_z(
            grid, lambda z: a + c * z**2, lambda z: 2.0 * c * z,
            lambda z: np.full_like(z, 2.0 * c)
        )

    @classmethod
    def from_samples(cls, grid, values):
        return cls(grid, "sampled", samples=values)

    # pointwise evaluation (closed form when available)

    @property
    def has_closed_form(self):
        return self._f_fn is not None

    def f_at(self, points):
        pts = np.atleast_2d(points)
        if self._f_fn is not None:
            return self._f_fn(pts)
        return trilinear_sample(self.grid, self.f, pts)

    def grad_at(self, points):
        pts = np.atleast_2d(points)
        if self._grad_fn is not None:
            return self._grad_fn(pts)
        return trilinear_sample(self.grid, self.grad_f, pts)

    def alpha_at(self, points):
        return self.grad_at(points) / self.f_at(points)[..., None]

    def beltrami_mu(self):
        return BeltramiCoefficient((1.0 - self.f**2) / (1.0 + self.f**2))

    def alpha_field(self) -> MultivectorField:
        return MultivectorField.from_vector(self.grid, self.alpha)


def make_profile(grid: BoxGrid, spec: dict) -> ConductivityProfile:
    """Build a profile from a config dictionary (see the CLI config schema)."""
    kind = spec.get("kind", "exponential")
    if kind == "exponential":
        return ConductivityProfile.exponential(grid, spec.get("lam", [0.0, 0.0, 1.0]))
    if kind == "constant":
        return ConductivityProfile.constant(grid, spec.get("value", 1.0))
    if kind == "linear_z":
        return ConductivityProfile.linear_z(grid, spec.get("a", 1.0), spec.get("b", 0.5))
    if kind == "quadratic_z":
        return ConductivityProfile.quadratic_z(grid, spec.get("a", 1.0), spec.get("c", 0.5))
    raise ValueError(f"unknown profile kind {kind!r}")


class BeltramiCoefficient:
    """mu = (1 - f^2) / (1 + f^2); elliptic (|mu| < 1) for positive profiles."""

    def __init__(self, mu):
        self.mu = np.asarray(mu, dtype=float)
        if np.any(np.abs(self.mu) >= 1.0):
            raise ValueError("Beltrami coefficient is not elliptic (|mu| >= 1 somewhere)")


# -- residuals -----------------------------------------------------------------


def _alpha_values(alpha, grid):
    if isinstance(alpha, ConductivityProfile):
        return vector_to_array(alpha.alpha)
    if isinstance(alpha, MultivectorField):
        return alpha.values
    arr = np.asarray(alpha, dtype=float)
    if arr.shape == tuple(grid.resolution) + (3,):
        return vector_to_array(arr)
    if arr.shape == (3,):
        return vector_to_array(np.broadcast_to(arr, tuple(grid.resolution) + (3,)))
    raise ValueError("alpha must be a vector field, a profile or a constant vector")


def vekua_residual(w: MultivectorField, alpha, side="left", depth=2):
    """Nodewise max-coefficient norm of D w - alpha conj(w) at interior nodes.

    side='right' checks the adjoint-side equation D w = conj(w) alpha
    instead.  Returns the interior residual array (boundary layers of width
    `depth` are excluded, where one-sided stencils would pollute the check).
    """
    grid = w.grid
    a = _alpha_values(alpha, grid)
    Dw = dirac_D(w).values
    cw = w.conjugate().values
    if side == "left":
        res = Dw - gp_array(a, cw)
    elif side == "right":
        res = Dw - gp_array(cw, a)
    else:
        raise ValueError("side must be 'left' or 'right'")
    sl = interior_slices(depth)
    return np.max(np.abs(res[sl]), axis=-1)


def beltrami_transform(w: MultivectorField, profile: ConductivityProfile) -> MultivectorField:
    """u = (1/f) [w]_{0,3 mod 4} + f [w]_{1,2 mod 4}, nodewise."""
    p03, p12 = w.parity_split()
    return p03.scale_by(1.0 / profile.f) + p12.scale_by(profile.f)


def beltrami_residual(u: MultivectorField, mu: BeltramiCoefficient, depth=2):
    """Nodewise norm of D u - mu D conj(u) at interior nodes."""
    Du = dirac_D(u).values
    Dcu = dirac_D(u.conjugate()).values
    res = Du - mu.mu[..., None] * Dcu
    sl = interior_slices(depth)
    return np.max(np.abs(res[sl]), axis=-1)


# -- bivector <-> vector duality ------------------------------------------------

_DUALITY = None


def bivector_duality():
    """Orientation of the n = 3 duality pairing bivector blades with axes.

    Returns (masks, signs) such that the bivector V = sum_k signs[k] v_k
    e_{masks[k]} satisfies, for any smooth vector field v,

        grade-1 part of D V = curl v,     grade-3 part of D V = (div v) e_123.

    The assignment is found by exhaustive search over signed permutations,
    checked exactly against the algebra's product table, so the orientation
    is derived rather than assumed.
    """
    global _DUALITY
    if _DUALITY is not None:
        return _DUALITY
    tab = tables(3)
    bivec = [m for m in range(8) if tab.grades[m] == 2]
    eps = np.zeros((3, 3, 3), dtype=int)
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1
    for perm in permutations(bivec):
        for signs in product((1, -1), repeat=3):
            ok = True
            for k in range(3):
                for i in range(3):
                    m = 1 << i
                    res_mask = m ^ perm[k]
                    s = int(tab.sign[m, perm[k]]) * signs[k]
                    g = tab.grades[res_mask]
                    if g == 1:
                        j = int(res_mask).bit_length() - 1
                        if eps[j, i, k] != s:
                            ok = False
                            break
                    elif g == 3:
                        if i != k or s != 1:
                            ok = False
                            break
                    else:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                _DUALITY = (list(perm), list(signs))
                return _DUALITY
    raise AssertionError("no consistent duality orientation exists")


def vector_to_bivector(components):
    """Dual bivector coefficient stack of vector components (..., 3)."""
    masks, signs = bivector_duality()
    comps = np.asarray(components, dtype=float)
    out = np.zeros(comps.shape[:-1] + (8,))
    for k in range(3):
        out[..., masks[k]] = signs[k] * comps[..., k]
    return out


def bivector_to_vector(coeffs):
    """Inverse of vector_to_bivector on coefficient stacks (..., 8)."""
    masks, signs = bivector_duality()
    arr = np.asarray(coeffs, dtype=float)
    return np.stack([signs[k] * arr[..., masks[k]] for k in range(3)], axis=-1)


# -- construction of the bivector part ----------------------------------------------


def construct_bivector_part(profile: ConductivityProfile, u0, grad_u0=None,
                            method="auto", div_tol=0.05, constant_tol=1e-6):
    """Lift a scalar conductivity solution u0 to a full Vekua solution.

    Given u0 with div(f^2 grad u0) = 0, solves curl v = g, div v = 0 with
    g = -f^2 grad u0, maps v to a bivector through the derived duality and
    returns w = f u0 + B together with construction diagnostics.

    method='closed_form' requires g to be spatially constant up to
    constant_tol (the separable and exponential families; pass a
    stencil-order tolerance when u0 comes from a discrete solve, the
    deviation then shows up in the measured residual); 'poisson' runs the
    best-effort vector potential path (zero-Dirichlet componentwise Poisson
    solves, curl of the result) and reports its residuals instead of
    asserting exactness.
    """
    grid = profile.grid
    u0 = np.asarray(u0, dtype=float)
    gu = scalar_gradient(grid, u0) if grad_u0 is None else np.asarray(grad_u0, dtype=float)
    g = -(profile.f**2)[..., None] * gu
    sl = interior_slices(2)
    div_g = vector_divergence(grid, g)[sl]
    g_scale = np.max(np.abs(g)) + 1e-300
    div_rel = float(np.max(np.abs(div_g)) * np.min(grid.extent) / g_scale)
    if div_rel > div_tol:
        raise ValueError(
            f"source field is not divergence-free (relative divergence {div_rel:.3g}); "
            "u0 does not solve the conductivity equation on this grid"
        )
    g_mean = g.reshape(-1, 3).mean(axis=0)
    g_dev = float(np.max(np.abs(g - g_mean)))
    g_const_rel = g_dev / (np.max(np.abs(g_mean)) + 1e-30)
    diagnostics = {"div_g_rel": div_rel, "g_constant_dev": g_dev}
    if method == "auto":
        method = "closed_form" if g_const_rel <= constant_tol else "poisson"
    if method == "closed_form":
        if g_const_rel > constant_tol:
            raise ValueError(
                f"closed-form path requires a constant source field "
                f"(relative deviation {g_const_rel:.3g} > {constant_tol:.3g})"
            )
        coords = grid.coords()
        v = 0.5 * np.cross(np.broadcast_to(g_mean, coords.shape), coords)
    elif method == "poisson":
        from .pde import solve_poisson

        zero = np.zeros(tuple(grid.resolution))
        A = np.stack(
            [solve_poisson(grid, rhs=g[..., j], trace=zero) for j in range(3)], axis=-1
        )
        v = vector_curl(grid, A)
        diagnostics["div_v"] = float(np.max(np.abs(vector_divergence(grid, v)[sl])))
        diagnostics["curl_v_minus_g"] = float(
            np.max(np.abs(vector_curl(grid, v)[sl] - g[sl]))
        )
    else:
        raise ValueError(f"unknown method {method!r}")
    diagnostics["method"] = method
    bivec = vector_to_bivector(v) / profile.f[..., None]
    vals = bivec.copy()
    vals[..., 0] = profile.f * u0
    return MultivectorField(grid, vals), diagnostics


# -- Hodge orthogonality ---------------------------------------------------------


def hodge_orthogonality(w: MultivectorField, v: MultivectorField, alpha) -> float:
    """Scalar pairing of w against (D - M^alpha C) v for compactly supported v.

    For w solving the Vekua equation and v vanishing near the boundary the
    continuum value is zero: the solution space and the image of the
    deformed Dirac operator on compactly supported fields are orthogonal
    under the scalar product.
    """
    grid = v.grid
    mask = np.ones(tuple(grid.resolution), dtype=bool)
    mask[interior_slices(2)] = False
    if np.any(np.abs(v.values[mask]) > 0.0):
        raise ValueError("test field support touches the two outermost node layers")
    a = _alpha_values(alpha, grid)
    op_v = dirac_D(v).values - gp_array(v.conjugate().values, a)
    return sc_inner(w, MultivectorField(grid, op_v))


# -- closed-form solution family -----------------------------------------------------


class ExponentialVekuaSolution:
    """Closed-form Vekua solution w = f u0 + B for f = exp(lam . x).

    u0 = c1 + c2 exp(-2 lam . x) solves div(f^2 grad u0) = 0 with constant
    flux f^2 grad u0 = -2 c2 lam, so the dual vector potential is the exact
    rotation field v = 0.5 g x x with g = 2 c2 lam.
    """

    def __init__(self, lam, c1=0.0, c2=-0.5):
        self.lam = np.asarray(lam, dtype=float)
        self.c1 = float(c1)
        self.c2 = float(c2)
        self.g = 2.0 * self.c2 * self.lam

    def f(self, pts):
        return np.exp(np.asarray(pts) @ self.lam)

    def u0(self, pts):
        return self.c1 + self.c2 * np.exp(-2.0 * np.asarray(pts) @ self.lam)

    def grad_u0(self, pts):
        return (-2.0 * self.c2 * np.exp(-2.0 * np.asarray(pts) @ self.lam))[..., None] * self.lam

    def w0(self, pts):
        return self.f(pts) * self.u0(pts)

    def flux(self, pts):
        """f^2 grad u0, constant for this family."""
        pts = np.asarray(pts)
        return np.broadcast_to(-self.g, pts.shape[:-1] + (3,))

    def w_coeffs(self, pts):
        """Full multivector coefficients of w = f u0 + B at points."""
        pts = np.asarray(pts)
        v = 0.5 * np.cross(np.broadcast_to(self.g, pts.shape), pts)
        out = vector_to_bivector(v) / self.f(pts)[..., None]
        out[..., 0] = self.w0(pts)
        return out

    def as_field(self, grid: BoxGrid) -> MultivectorField:
        coords = grid.coords()
        return MultivectorField(grid, self.w_coeffs(coords))
