"""Vekua-equation machinery: conductivity profiles and their specs, the two
perturbed Dirac operators, residuals, the Beltrami transform, construction
of the bivector part from a scalar conductivity solution, and the
orthogonality test for the generalized Hodge splitting.

The Vekua equation here is D w = alpha conj(w) with alpha = grad f / f for a
scalar conductivity factor f bounded away from zero: `vekua_operator` is
D - alpha C, and `adjoint_vekua_operator`, D - M^alpha C, completes the
factorization of the screened Laplacian -Delta + q.  Scalar solutions of
div(f^2 grad u0) = 0 lift to full solutions w = f u0 + B where the bivector
part B is obtained from a div-curl system through the n = 3 duality between
bivectors and vectors (`DUALITY_MASKS`, `DUALITY_SIGNS`).
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .clifford import gp_array, vector_to_array
from .fields import (
    BoxGrid,
    MultivectorField,
    dirac_D,
    interior_slices,
    sc_inner,
    scalar_gradient,
    vector_curl,
    vector_divergence,
)


# -- conductivity profiles ---------------------------------------------------


class ConductivityProfile:
    """Scalar factor f with its gradient, log-derivative alpha and potential q.

    Built from closed-form callables for f, grad f and q = Delta f / f, so
    kernels and boundary quadrature can evaluate f away from grid nodes.
    The two families below are the ones the checks and the CLI use.
    """

    def __init__(self, grid: BoxGrid, f_fn, grad_fn, q_fn):
        self.grid = grid
        self._f_fn = f_fn
        self._grad_fn = grad_fn
        coords = grid.coords()
        self.f = f_fn(coords)
        if not np.all(np.isfinite(self.f) & (self.f != 0.0)):  # NaN fails it too
            raise ValueError("conductivity factor must be finite and bounded away from zero")
        self.grad_f = grad_fn(coords)
        self.alpha = self.grad_f / self.f[..., None]
        self.q = q_fn(coords)
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.q))):
            raise ValueError("log-gradient alpha and potential q must be finite")

    # closed-form families

    @classmethod
    def exponential(cls, grid, lam):
        """f = exp(lam . x); alpha is the constant vector lam and q = |lam|^2."""
        lam = np.asarray(lam, dtype=float)
        q = float(lam @ lam)
        return cls(
            grid,
            f_fn=lambda X: np.exp(X @ lam),
            grad_fn=lambda X: np.exp(X @ lam)[..., None] * lam,
            q_fn=lambda X: np.full(X.shape[:-1], q),
        )

    @classmethod
    def polynomial_z(cls, grid, a, b=0.0, c=0.0):
        """f = a + b z + c z^2, so f' = b + 2 c z and q = f'' / f = 2 c / f."""
        def f_fn(X):
            return z_polynomial(X[..., -1], a, b, c)

        def grad_fn(X):
            g = np.zeros(X.shape)
            g[..., -1] = b + 2.0 * c * X[..., -1]
            return g

        return cls(grid, f_fn, grad_fn, lambda X: 2.0 * c / f_fn(X))

    # pointwise evaluation

    def f_at(self, points):
        return self._f_fn(np.atleast_2d(points))

    def grad_at(self, points):
        return self._grad_fn(np.atleast_2d(points))

    def alpha_at(self, points):
        return self.grad_at(points) / self.f_at(points)[..., None]

    def beltrami_mu(self):
        return BeltramiCoefficient((1.0 - self.f**2) / (1.0 + self.f**2))

    def alpha_field(self) -> MultivectorField:
        return MultivectorField.from_vector(self.grid, self.alpha)


def z_polynomial(z, a, b, c):
    """f = a + b z + c z^2 at z: the factor of every profile kind but exponential."""
    return a + b * z + c * z**2


# profile kind -> (the coefficients (a, b, c) of `z_polynomial` of a resolved
# spec, None for exponential; its parameters and their defaults)
PROFILE_FAMILIES = {
    "exponential": (None, {"lam": (0.0, 0.0, 1.0)}),
    "constant": (lambda p: (p["value"], 0.0, 0.0), {"value": 1.0}),
    "linear_z": (lambda p: (p["a"], p["b"], 0.0), {"a": 1.0, "b": 0.5}),
    "quadratic_z": (lambda p: (p["a"], 0.0, p["c"]), {"a": 1.0, "c": 0.5}),
}


def is_finite_real(value):
    """Whether `value` is a real number, not a bool, inside the finite float range."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def resolve_profile(spec):
    """The resolved spec of a profile spec: a read-only mapping of its kind
    (default: exponential) and every parameter of its family, given or
    defaulted, as a float or a tuple of floats.  A ValueError for an unknown
    kind, a key its kind does not take, or a parameter that is not as many
    finite numbers as its default."""
    kind = spec.get("kind", "exponential") if isinstance(spec, Mapping) else None
    if not isinstance(kind, str) or kind not in PROFILE_FAMILIES:
        raise ValueError(f"profile: {spec!r} names no kind of {list(PROFILE_FAMILIES)}")
    _, params = PROFILE_FAMILIES[kind]
    if unknown := [key for key in spec if key != "kind" and key not in params]:
        raise ValueError(f"profile: unknown key {unknown[0]!r} for kind {kind!r}")
    resolved = {"kind": kind}
    for key, default in params.items():
        value, size = spec.get(key, default), np.size(default)
        sequence = size > 1 and isinstance(value, (list, tuple, np.ndarray))
        items = list(value) if sequence else [value]
        if len(items) != size or not all(map(is_finite_real, items)):
            raise ValueError(f"profile: {key!r} must be {size} finite number(s), got {value!r}")
        resolved[key] = tuple(map(float, items)) if sequence else float(value)
    return MappingProxyType(resolved)


# exp(t) is a finite, normal float for t in this range (up to rounding at its ends)
EXPONENT_RANGE = (math.log(sys.float_info.min), math.log(sys.float_info.max))
# |log|f|| within this bound keeps f^4, the product of two conductivities
# sigma = f^2, a finite normal float with a factor 2 to spare, so the
# harmonic face mean 2 sigma_a sigma_b / (sigma_a + sigma_b) neither
# overflows nor underflows
LOG_F_BOUND = min(-EXPONENT_RANGE[0], EXPONENT_RANGE[1] - math.log(2.0)) / 4.0


def exponent_range(lam, lower, upper):
    """(min, max) of lam . x over the box [lower, upper], from its corners."""
    ends = np.stack([lam * lower, lam * upper])
    return float(np.sum(ends.min(axis=0))), float(np.sum(ends.max(axis=0)))


def check_profile_on_box(spec, lower, upper):
    """`resolve_profile(spec)`, or a ValueError when the factor f of the spec
    vanishes, changes sign or leaves exp(+-LOG_F_BOUND) in magnitude anywhere
    on the box [lower, upper], so that every conductivity sigma = f^2 and the
    product of two of them are finite normal floats.  Checked in closed form,
    not at nodes, from the extremes of f on the box: the exponent lam . x at
    the box's corners for the exponential family, the ends of the box's z
    range (and its vertex, when inside it) for the others.  For the
    exponential family |grad f| = |lam| exp(lam . x) must be finite too."""
    params = resolve_profile(spec)
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    if params["kind"] == "exponential":
        lam = np.array(params["lam"])
        low, high = exponent_range(lam, lower, upper)
        norm = math.hypot(*lam)  # inf, not a warning, when |lam| overflows
        log_grad = high + (math.log(norm) if norm > 0.0 else -math.inf)
        if not (-LOG_F_BOUND <= low and high <= LOG_F_BOUND
                and log_grad <= EXPONENT_RANGE[1]):
            raise ValueError(
                f"profile: lam {lam.tolist()} takes lam . x over [{low:.6g}, {high:.6g}] on the "
                f"box, so f = exp(lam . x) leaves exp(+-{LOG_F_BOUND:.1f}), where the product of "
                f"two conductivities f^2 = exp(2 lam . x) stays in the float range, or "
                f"|grad f| = |lam| exp(lam . x) leaves it: lam . x + log|lam| must be at most "
                f"{EXPONENT_RANGE[1]:.1f}")
        return params
    a, b, c = PROFILE_FAMILIES[params["kind"]][0](params)
    zs = [float(lower[2]), float(upper[2])]
    if c != 0.0 and lower[2] < (vertex := 0.0 - b / (2.0 * c)) < upper[2]:
        zs.append(vertex)
    values = z_polynomial(np.array(zs), a, b, c).tolist()
    if not ((all(v > 0.0 for v in values) or all(v < 0.0 for v in values))
            and all(abs(math.log(abs(v))) <= LOG_F_BOUND for v in values)):
        raise ValueError(f"profile: {params['kind']} factor f takes the values {values} at "
                         f"z = {zs} on the box, so it is zero, changes sign or leaves "
                         f"exp(+-{LOG_F_BOUND:.1f}) in magnitude there")
    return params


def make_profile(grid: BoxGrid, spec) -> ConductivityProfile:
    """Build a profile from a spec {"kind": ..., parameters}, resolved first."""
    params = resolve_profile(spec)
    if params["kind"] == "exponential":
        return ConductivityProfile.exponential(grid, params["lam"])
    return ConductivityProfile.polynomial_z(grid, *PROFILE_FAMILIES[params["kind"]][0](params))


class BeltramiCoefficient:
    """mu = (1 - f^2) / (1 + f^2); elliptic (|mu| < 1) for positive profiles."""

    def __init__(self, mu):
        self.mu = np.asarray(mu, dtype=float)
        if np.any(np.abs(self.mu) >= 1.0):
            raise ValueError("Beltrami coefficient is not elliptic (|mu| >= 1 somewhere)")


# -- residuals -----------------------------------------------------------------


def _alpha_values(alpha, grid):
    """Grade-1 coefficient stacks of a nodal vector field (*res, 3) or a constant vector."""
    arr = np.asarray(alpha, dtype=float)
    if arr.shape == (3,):
        arr = np.broadcast_to(arr, tuple(grid.resolution) + (3,))
    elif arr.shape != tuple(grid.resolution) + (3,):
        raise ValueError("alpha must be a nodal vector field or a constant vector")
    return vector_to_array(arr)


def vekua_operator(w: MultivectorField, alpha) -> MultivectorField:
    """(D - alpha C) w = D w - alpha conj(w); alpha a nodal vector field or a constant vector."""
    return MultivectorField._own(
        w.grid, dirac_D(w).values - gp_array(_alpha_values(alpha, w.grid), w.conjugate().values))


def adjoint_vekua_operator(w: MultivectorField, alpha) -> MultivectorField:
    """(D - M^alpha C) w = D w - conj(w) alpha.  Applied after `vekua_operator`
    with alpha = grad f / f, it gives the screened Laplacian -Delta + q on scalars."""
    return MultivectorField._own(
        w.grid, dirac_D(w).values - gp_array(w.conjugate().values, _alpha_values(alpha, w.grid)))


def vekua_residual(w: MultivectorField, alpha):
    """Nodewise max-coefficient norm of D w - alpha conj(w) at interior nodes.

    Returns the interior residual array: the two outermost node layers,
    where one-sided stencils would pollute the check, are excluded.
    """
    return np.max(np.abs(vekua_operator(w, alpha).values[interior_slices(2)]), axis=-1)


def beltrami_transform(w: MultivectorField, profile: ConductivityProfile) -> MultivectorField:
    """u = (1/f) [w]_{0,3 mod 4} + f [w]_{1,2 mod 4}, nodewise."""
    p03, p12 = w.parity_split()
    return p03.scale_by(1.0 / profile.f) + p12.scale_by(profile.f)


def beltrami_residual(u: MultivectorField, mu: BeltramiCoefficient):
    """Nodewise norm of D u - mu D conj(u) at nodes two layers in."""
    Du = dirac_D(u).values
    Dcu = dirac_D(u.conjugate()).values
    res = Du - mu.mu[..., None] * Dcu
    return np.max(np.abs(res[interior_slices(2)]), axis=-1)


# -- bivector <-> vector duality ------------------------------------------------

# Orientation of the n = 3 duality pairing bivector blades with axes: the
# bivector V = sum_k signs[k] v_k e_{masks[k]} of a smooth vector field v has
#     grade-1 part of D V = curl v,     grade-3 part of D V = (div v) e_123.
# It is the only signed assignment of the three bivectors with this property;
# the tests check it against an independent blade-sign oracle.
DUALITY_MASKS = (0b110, 0b101, 0b011)  # e23, e13, e12
DUALITY_SIGNS = (1, -1, 1)


def vector_to_bivector(components):
    """Dual bivector coefficient stack of vector components (..., 3)."""
    comps = np.asarray(components, dtype=float)
    out = np.zeros(comps.shape[:-1] + (8,))
    for k in range(3):
        out[..., DUALITY_MASKS[k]] = DUALITY_SIGNS[k] * comps[..., k]
    return out


# -- construction of the bivector part ----------------------------------------------


def construct_bivector_part(profile: ConductivityProfile, u0, grad_u0=None, constant_tol=1e-6):
    """Lift a scalar conductivity solution u0 to a full Vekua solution.

    Given u0 with div(f^2 grad u0) = 0, solves curl v = g, div v = 0 with
    g = -f^2 grad u0, maps v to a bivector through the derived duality and
    returns w = f u0 + B together with construction diagnostics.  A source
    whose relative divergence exceeds 0.05 is rejected.

    When g is spatially constant up to constant_tol (the separable and
    exponential families; pass a stencil-order tolerance when u0 comes from
    a discrete solve, the deviation then shows up in the measured
    residual), v = g x x / 2 in closed form.  Otherwise v is the curl of
    zero-Dirichlet componentwise Poisson solves, a best-effort path that
    reports its residuals instead of asserting exactness.
    """
    grid = profile.grid
    u0 = np.asarray(u0, dtype=float)
    gu = scalar_gradient(grid, u0) if grad_u0 is None else np.asarray(grad_u0, dtype=float)
    g = -(profile.f**2)[..., None] * gu
    sl = interior_slices(2)
    div_g = vector_divergence(grid, g)[sl]
    g_scale = np.max(np.abs(g)) + 1e-300
    div_rel = float(np.max(np.abs(div_g)) * np.min(grid.extent) / g_scale)
    if div_rel > 0.05:
        raise ValueError(
            f"source field is not divergence-free (relative divergence {div_rel:.3g}); "
            "u0 does not solve the conductivity equation on this grid"
        )
    g_mean = g.reshape(-1, 3).mean(axis=0)
    g_dev = float(np.max(np.abs(g - g_mean)))
    g_const_rel = g_dev / (np.max(np.abs(g_mean)) + 1e-30)
    diagnostics = {"div_g_rel": div_rel, "g_constant_dev": g_dev}
    method = "closed_form" if g_const_rel <= constant_tol else "poisson"
    if method == "closed_form":
        coords = grid.coords()
        v = 0.5 * np.cross(np.broadcast_to(g_mean, coords.shape), coords)
    else:
        from .pde import DirichletOperator

        laplace, zero = DirichletOperator(grid), np.zeros(tuple(grid.resolution))
        A = np.stack([laplace.solve(zero, rhs=g[..., j]) for j in range(3)], axis=-1)
        v = vector_curl(grid, A)
        diagnostics["div_v"] = float(np.max(np.abs(vector_divergence(grid, v)[sl])))
        diagnostics["curl_v_minus_g"] = float(
            np.max(np.abs(vector_curl(grid, v)[sl] - g[sl]))
        )
    diagnostics["method"] = method
    vals = vector_to_bivector(v) / profile.f[..., None]
    vals[..., 0] = profile.f * u0
    return MultivectorField._own(grid, vals), diagnostics


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
    return sc_inner(w, adjoint_vekua_operator(v, alpha))


# -- closed-form solution family -----------------------------------------------------


class ExponentialVekuaSolution:
    """Closed-form Vekua solution w = f u0 + B for f = exp(lam . x).

    u0 = -exp(-2 lam . x) / 2 solves div(f^2 grad u0) = 0 with constant
    flux f^2 grad u0 = lam, so the dual vector potential is the exact
    rotation field v = 0.5 g x x with g = -lam.
    """

    def __init__(self, lam):
        self.lam = np.asarray(lam, dtype=float)

    def f(self, pts):
        return np.exp(np.asarray(pts) @ self.lam)

    def u0(self, pts):
        return -0.5 * np.exp(-2.0 * np.asarray(pts) @ self.lam)

    def grad_u0(self, pts):
        return np.exp(-2.0 * np.asarray(pts) @ self.lam)[..., None] * self.lam

    def w0(self, pts):
        return self.f(pts) * self.u0(pts)

    def flux(self, pts):
        """f^2 grad u0, constant for this family."""
        return np.broadcast_to(self.lam, np.shape(pts)[:-1] + (3,))

    def w_coeffs(self, pts):
        """Full multivector coefficients of w = f u0 + B at points."""
        pts = np.asarray(pts)
        v = 0.5 * np.cross(np.broadcast_to(-self.lam, pts.shape), pts)
        out = vector_to_bivector(v) / self.f(pts)[..., None]
        out[..., 0] = self.w0(pts)
        return out

    def as_field(self, grid: BoxGrid) -> MultivectorField:
        coords = grid.coords()
        return MultivectorField._own(grid, self.w_coeffs(coords))
