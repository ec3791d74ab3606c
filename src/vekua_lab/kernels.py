"""Closed-form fundamental solutions in R^3 and their derivatives.

Four kernel families:

* cauchy    E(x) = -x / (4 pi |x|^3), the grade-1 kernel annihilated by
            the Dirac operator away from the origin;
* newton    N(x) = 1 / (4 pi |x|) with grad N = E;
* yukawa    theta_q(x) = exp(-sqrt(q)|x|) / (4 pi |x|), satisfying
            (-Delta + q) theta = 0 away from 0 with unit delta flux;
            q = 0 reduces it to the newton kernel;
* vekua_phi Phi(x) = grad theta_q(x) - lam * theta_q(x) with q = |lam|^2,
            the grade-1 kernel that reproduces scalar parts of solutions
            of Dw = lam conj(w); lam = 0 reduces it to the cauchy kernel.

`KernelSpec` is the one place where a family becomes kernel values; the
quadrature engines get values from it and nothing else.  The public
`*_components`, jacobian and hessian functions serve the closed-form
checks and share its value expressions.  Every derivative here is closed
form - nothing is differenced - so kernel identity checks run at machine
precision independent of any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clifford import gp_array, vector_to_array

FOUR_PI = 4.0 * math.pi


def radii(z):
    """|z| of offsets z (..., 3), from the three coordinate columns."""
    c0, c1, c2 = z[..., 0], z[..., 1], z[..., 2]
    return np.sqrt(c0 * c0 + c1 * c1 + c2 * c2)


def _radii(points, r=None):
    """Points as a float array and their radii (computed unless given); rejects the origin."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != 3:
        raise ValueError(f"points must have 3 components, got {pts.shape[-1]}")
    if r is None:
        r = radii(pts)
    if np.any(r == 0.0):
        raise ValueError("kernel evaluation at the origin is rejected")
    return pts, r


def _yukawa_radial(r, kappa, order):
    """[theta, theta', theta''][:order + 1] of the screened kernel with q = kappa^2."""
    damp = np.exp(-kappa * r)
    radial = [damp / (FOUR_PI * r)]
    if order >= 1:
        radial.append(-(1.0 + kappa * r) * damp / (FOUR_PI * r**2))
    if order >= 2:
        radial.append((kappa**2 * r**2 + 2.0 * kappa * r + 2.0) * damp / (FOUR_PI * r**3))
    return radial


def _radial_gradient(dk, z, r):
    """Gradient at z of a radial function whose radial derivative is dk."""
    return z * (dk / r)[..., None]


@dataclass
class KernelSpec:
    """A kernel family with its parameters, and the evaluator the engines use."""

    family: str
    q: float | None = None
    lam: np.ndarray | None = None

    def __post_init__(self):
        if self.family not in ("cauchy", "newton", "yukawa", "vekua_phi"):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == "yukawa":
            if self.q is None or self.q <= 0:
                raise ValueError("yukawa kernel requires q > 0")
        if self.family == "vekua_phi":
            if self.lam is None:
                raise ValueError("vekua_phi kernel requires the exponential rate vector")
            self.lam = np.asarray(self.lam, dtype=float)
            if self.lam.shape != (3,):
                raise ValueError("vekua_phi kernel requires a rate vector of 3 components")

    @classmethod
    def theta(cls, q):
        """theta_q; q = 0 is the Newton kernel."""
        return cls("newton") if q == 0 else cls("yukawa", q=q)

    @classmethod
    def phi(cls, lam):
        """Phi_lam; lam = None or 0 is the Cauchy kernel."""
        return cls("vekua_phi", lam=lam) if lam is not None and np.any(lam) else cls("cauchy")

    @property
    def grade1(self):
        """Whether the kernel is a vector (cauchy, vekua_phi) rather than a scalar."""
        return self.family in ("cauchy", "vekua_phi")

    def values(self, z, r=None):
        """Kernel at the offsets z (..., 3): (..., 3) vectors if grade1, else (...) scalars.

        r = |z| may be passed by a caller that already has it.  Offsets at
        the origin are rejected.  z may be a column-major view, such as the
        transpose of a (3, m) coordinate array; a vector result follows its
        layout, since each family multiplies z once by a radial factor.
        """
        z, r = _radii(z, r)
        if self.family == "cauchy":
            return z * (-1.0 / (FOUR_PI * r * r * r))[..., None]
        if self.family == "newton":
            return 1.0 / (FOUR_PI * r)
        if self.family == "yukawa":
            return _yukawa_radial(r, math.sqrt(self.q), 0)[0]
        theta, dtheta = _yukawa_radial(r, math.sqrt(float(np.dot(self.lam, self.lam))), 1)
        phi = _radial_gradient(dtheta, z, r)
        for i, rate in enumerate(self.lam):
            phi[..., i] -= rate * theta
        return phi


# -- cauchy ------------------------------------------------------------------


def cauchy_E_components(points):
    """Cauchy kernel components, shape (..., 3)."""
    return KernelSpec("cauchy").values(points)


def cauchy_E_jacobian(points):
    """J[..., i, j] = d_i E_j in closed form."""
    pts, r = _radii(points)
    r3 = r[..., None, None] ** 3
    outer = pts[..., :, None] * pts[..., None, :]
    return -np.eye(3) / (FOUR_PI * r3) + 3 * outer / (FOUR_PI * r3 * r[..., None, None] ** 2)


# -- newton ------------------------------------------------------------------


def newton_N_components(points):
    """Newton kernel value and gradient, the screened kernel's at q = 0; the
    gradient is taken from the radial derivative, apart from the cauchy
    kernel it equals."""
    return yukawa_theta_components(points, 0.0)


# -- yukawa ------------------------------------------------------------------


def yukawa_theta_components(points, q):
    """Screened kernel value and gradient; q = 0 gives the Newton kernel."""
    if q < 0:
        raise ValueError("yukawa kernel requires q >= 0")
    pts, r = _radii(points)
    theta, dtheta = _yukawa_radial(r, math.sqrt(q), 1)
    return theta, _radial_gradient(dtheta, pts, r)


def yukawa_hessian(points, q):
    """H[..., i, j] = d_i d_j theta_q in closed form."""
    pts, r = _radii(points)
    _, dtheta, ddtheta = _yukawa_radial(r, math.sqrt(q), 2)
    hat = pts / r[..., None]
    outer = hat[..., :, None] * hat[..., None, :]
    radial = (ddtheta - dtheta / r)[..., None, None]
    return radial * outer + (dtheta / r)[..., None, None] * np.eye(3)


# -- vekua_phi -----------------------------------------------------------------


def vekua_phi_components(points, lam):
    """Phi = grad theta_q - lam theta_q with q = |lam|^2, shape (..., 3)."""
    return KernelSpec("vekua_phi", lam=lam).values(points)


def vekua_phi_jacobian(points, lam):
    """J[..., i, j] = d_i Phi_j in closed form."""
    lam = np.asarray(lam, dtype=float)
    q = float(np.dot(lam, lam))
    _, grad = yukawa_theta_components(points, q)
    hess = yukawa_hessian(points, q)
    return hess - grad[..., :, None] * lam[None, :]


# -- closed-form operator oracles ------------------------------------------------


def dirac_from_jacobian(jac):
    """Coefficients of D v for a vector field with jacobian J[..., i, j] = d_i v_j.

    D v = -(div v) + sum_{i<j} (d_i v_j - d_j v_i) e_i e_j.
    """
    jac = np.asarray(jac, dtype=float)
    out = np.zeros(jac.shape[:-2] + (8,))
    out[..., 0] = -np.trace(jac, axis1=-2, axis2=-1)
    for i in range(3):
        for j in range(i + 1, 3):
            out[..., (1 << i) | (1 << j)] = jac[..., i, j] - jac[..., j, i]
    return out


def fundamental_cauchy_residual(points, lam):
    """Residual of (D - lam C)(E / f) for f = exp(lam . x), away from 0.

    The weighted kernel E/f is annihilated by the Vekua operator with the
    constant coefficient lam; closed-form derivatives only.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.asarray(lam, dtype=float)
    inv_f = np.exp(-pts @ lam)
    E = cauchy_E_components(pts)
    JE = cauchy_E_jacobian(pts)
    # d_i (E_j / f) = (d_i E_j - lam_i E_j) / f
    JG = (JE - lam[:, None] * E[..., None, :]) * inv_f[..., None, None]
    G = E * inv_f[..., None]
    DG = dirac_from_jacobian(JG)
    # lam C (G) = lam * conj(G) = -lam * G for a pure vector G
    lam_arr = vector_to_array(np.broadcast_to(lam, G.shape))
    G_arr = vector_to_array(G)
    residual = DG + gp_array(lam_arr, G_arr)
    return np.max(np.abs(residual), axis=-1)


def vekua_phi_adjoint_residual(points, lam):
    """Residual of (D - M^lam C) Phi away from 0, with closed-form derivatives.

    By the operator factorization with constant coefficient lam, Phi is
    annihilated by the adjoint-side Vekua operator; for the pure vector Phi
    this reads D Phi + Phi lam = 0.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lam = np.asarray(lam, dtype=float)
    J = vekua_phi_jacobian(pts, lam)
    phi = vekua_phi_components(pts, lam)
    Dphi = dirac_from_jacobian(J)
    lam_arr = vector_to_array(np.broadcast_to(lam, phi.shape))
    phi_arr = vector_to_array(phi)
    residual = Dphi + gp_array(phi_arr, lam_arr)
    return np.max(np.abs(residual), axis=-1)


# -- spherical quadrature (for delta-normalization flux checks) -----------------------


def sphere_quadrature(radius, n_polar=32):
    """Gauss-Legendre x uniform-azimuth quadrature on the sphere |x| = radius.

    Returns positions (M, 3), outward unit normals (M, 3), weights (M,)
    summing to the sphere area.
    """
    mu, wmu = np.polynomial.legendre.leggauss(n_polar)
    phi = (np.arange(2 * n_polar) + 0.5) * (2.0 * math.pi / (2 * n_polar))
    wphi = 2.0 * math.pi / (2 * n_polar)
    MU, PHI = np.meshgrid(mu, phi, indexing="ij")
    W = np.broadcast_to(wmu[:, None] * wphi, MU.shape)
    sin_t = np.sqrt(1.0 - MU**2)
    normals = np.stack([sin_t * np.cos(PHI), sin_t * np.sin(PHI), MU], axis=-1).reshape(-1, 3)
    weights = (W * radius**2).ravel()
    return radius * normals, normals, weights


def yukawa_delta_flux(eps, q):
    """Flux -int_{|x|=eps} grad theta_q . normal ds, which tends to 1 as eps -> 0."""
    pos, normals, weights = sphere_quadrature(eps)
    _, grad = yukawa_theta_components(pos, q)
    return float(-np.sum(np.sum(grad * normals, axis=-1) * weights))
