"""Kernel tests: closed-form values, derivative identities at machine
precision, and delta-normalization fluxes by spherical quadrature.

Derivatives carry independent finite-difference oracles here even though
the library itself never differences a kernel.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vekua_lab import kernels as K


def random_points(rng, count=50, lo=0.3, hi=1.5):
    pts = rng.normal(size=(count, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts * (lo + (hi - lo) * rng.random((count, 1)))


# -- values -------------------------------------------------------------------


def test_cauchy_value_on_axis():
    E = K.cauchy_E_components([1.0, 0.0, 0.0])
    assert E == pytest.approx([-1.0 / (4 * math.pi), 0.0, 0.0], abs=1e-15)


def test_cauchy_odd():
    x = np.array([0.3, -0.2, 0.9])
    assert np.allclose(
        K.cauchy_E_components(x), -K.cauchy_E_components(-x), atol=0.0
    )


def test_cauchy_rejects_origin():
    with pytest.raises(ValueError):
        K.cauchy_E_components([0.0, 0.0, 0.0])


def test_newton_value_and_scaling():
    val, grad = K.newton_N_components([0.0, 0.0, 1.0])
    assert val == pytest.approx(1.0 / (4 * math.pi), abs=1e-15)
    val2, _ = K.newton_N_components([0.0, 0.0, 2.0])
    assert val2 == pytest.approx(val / 2.0, rel=1e-14)


def test_newton_gradient_equals_cauchy(rng):
    pts = random_points(rng, 100)
    _, grad = K.newton_N_components(pts)
    assert np.max(np.abs(grad - K.cauchy_E_components(pts))) <= 1e-12


def test_yukawa_value():
    val, _ = K.yukawa_theta_components([0.0, 0.0, 1.0], 1.0)
    assert val == pytest.approx(math.exp(-1.0) / (4 * math.pi), rel=1e-13)


def test_yukawa_q_to_zero_is_newton(rng):
    pts = random_points(rng, 20)
    val0, grad0 = K.yukawa_theta_components(pts, 0.0)
    valN, gradN = K.newton_N_components(pts)
    assert np.allclose(val0, valN, atol=0.0)
    assert np.allclose(grad0, gradN, atol=1e-16)
    small, _ = K.yukawa_theta_components(pts, 1e-10)
    assert np.max(np.abs(small - valN)) <= 1e-6


def test_yukawa_parameter_validation():
    with pytest.raises(ValueError):
        K.KernelSpec("yukawa", q=0.0)
    with pytest.raises(ValueError):
        K.yukawa_theta_components([1.0, 0.0, 0.0], -1.0)


def test_vekua_phi_reduces_to_cauchy(rng):
    pts = random_points(rng, 30)
    phi = K.vekua_phi_components(pts, [0.0, 0.0, 0.0])
    assert np.max(np.abs(phi - K.cauchy_E_components(pts))) <= 1e-15


def test_vekua_phi_needs_three_components():
    with pytest.raises(ValueError):
        K.vekua_phi_components(np.ones((4, 3)), [0.0, 1.0])


# -- derivative identities ---------------------------------------------------------


def test_cauchy_is_monogenic(rng):
    pts = random_points(rng, 100)
    assert np.max(np.abs(K.dirac_from_jacobian(K.cauchy_E_jacobian(pts)))) <= 1e-12


def test_cauchy_jacobian_against_finite_differences(rng):
    pts = random_points(rng, 10)
    J = K.cauchy_E_jacobian(pts)
    eps = 1e-6
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = eps
        fd = (K.cauchy_E_components(pts + shift) - K.cauchy_E_components(pts - shift)) / (
            2 * eps
        )
        assert np.max(np.abs(fd - J[:, i, :])) <= 1e-6


def test_yukawa_hessian_against_finite_differences(rng):
    pts = random_points(rng, 10)
    H = K.yukawa_hessian(pts, 2.0)
    eps = 1e-6
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = eps
        _, gp = K.yukawa_theta_components(pts + shift, 2.0)
        _, gm = K.yukawa_theta_components(pts - shift, 2.0)
        fd = (gp - gm) / (2 * eps)
        assert np.max(np.abs(fd - H[:, i, :])) <= 1e-5


def test_yukawa_satisfies_screened_equation(rng):
    # (-Delta + q) theta = 0 away from the origin, via the closed-form hessian
    pts = random_points(rng, 50)
    q = 1.7
    val, _ = K.yukawa_theta_components(pts, q)
    lap = np.trace(K.yukawa_hessian(pts, q), axis1=-2, axis2=-1)
    assert np.max(np.abs(-lap + q * val)) <= 1e-10


def test_fundamental_cauchy_identity(rng):
    pts = random_points(rng, 100)
    res = K.fundamental_cauchy_residual(pts, [0.0, 0.0, 1.0])
    assert np.max(res) <= 1e-12
    res2 = K.fundamental_cauchy_residual(pts, [0.5, -0.3, 0.8])
    assert np.max(res2) <= 1e-12


def test_vekua_phi_adjoint_identity(rng):
    pts = random_points(rng, 100)
    res = K.vekua_phi_adjoint_residual(pts, [0.0, 0.0, 1.0])
    assert np.max(res) <= 1e-12


def test_weighted_gradient_product_rule(rng):
    # f grad(h/f) == grad h - lam h for f = exp(lam . x), h the screened kernel
    lam = np.array([0.2, 0.4, -0.3])
    q = float(lam @ lam)
    pts = random_points(rng, 20)
    theta, grad = K.yukawa_theta_components(pts, q)
    lhs = grad - theta[:, None] * lam
    eps = 1e-6
    fd = np.empty_like(lhs)
    for i in range(3):
        shift = np.zeros(3)
        shift[i] = eps
        tp, _ = K.yukawa_theta_components(pts + shift, q)
        tm, _ = K.yukawa_theta_components(pts - shift, q)
        ratio_p = tp * np.exp(-(pts + shift) @ lam)
        ratio_m = tm * np.exp(-(pts - shift) @ lam)
        fd[:, i] = (ratio_p - ratio_m) / (2 * eps)
    f = np.exp(pts @ lam)
    assert np.max(np.abs(f[:, None] * fd - lhs)) <= 1e-5


# -- delta normalization -------------------------------------------------------------


def test_sphere_quadrature_area():
    _, _, w = K.sphere_quadrature(0.7, n_polar=24)
    assert np.sum(w) == pytest.approx(4 * math.pi * 0.49, rel=1e-12)


def test_newton_flux_is_one():
    for eps in (0.2, 0.05):
        pos, normals, w = K.sphere_quadrature(eps, n_polar=24)
        _, grad = K.newton_N_components(pos)
        flux = -np.sum(np.sum(grad * normals, axis=1) * w)
        assert flux == pytest.approx(1.0, rel=1e-12)


def test_yukawa_flux_tends_to_one():
    errors = [abs(K.yukawa_delta_flux(eps, 1.0) - 1.0) for eps in (0.2, 0.1, 0.05)]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    # error is O(eps): each halving must at least halve the error
    assert all(b <= 0.6 * a for a, b in zip(errors, errors[1:]))
    assert errors[-1] <= 2e-3


# -- kernel descriptors ---------------------------------------------------------------


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        K.KernelSpec("yukawa")
    with pytest.raises(ValueError):
        K.KernelSpec("yukawa", q=-2.0)
    with pytest.raises(ValueError):
        K.KernelSpec.theta(-2.0)
    with pytest.raises(ValueError):
        K.KernelSpec("vekua_phi")
    with pytest.raises(ValueError):
        K.KernelSpec("vekua_phi", lam=[0.0, 1.0])
    with pytest.raises(ValueError):
        K.KernelSpec("bessel")


def test_kernel_spec_zero_screening_and_grade():
    assert K.KernelSpec.theta(0.0).family == "newton"
    assert K.KernelSpec.theta(0.5).family == "yukawa"
    assert K.KernelSpec.phi(None).family == "cauchy"
    assert K.KernelSpec.phi([0.0, 0.0, 0.0]).family == "cauchy"
    assert K.KernelSpec.phi([0.0, 0.0, 1.0]).family == "vekua_phi"
    assert [K.KernelSpec.phi(None).grade1, K.KernelSpec.phi([0, 0, 1.0]).grade1] == [True, True]
    assert [K.KernelSpec.theta(0.0).grade1, K.KernelSpec.theta(1.0).grade1] == [False, False]


def test_kernel_spec_rejects_the_origin():
    for spec in (K.KernelSpec("cauchy"), K.KernelSpec("newton"), K.KernelSpec("yukawa", q=1.0),
                 K.KernelSpec("vekua_phi", lam=[0.0, 0.0, 1.0])):
        z = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError, match="origin"):
            spec.values(z)
        with pytest.raises(ValueError, match="origin"):
            spec.values(z, np.linalg.norm(z, axis=1))


@pytest.mark.parametrize("spec", [
    K.KernelSpec("cauchy"), K.KernelSpec("newton"), K.KernelSpec("yukawa", q=1.3),
    K.KernelSpec("vekua_phi", lam=[0.3, -0.2, 1.0])], ids=lambda spec: spec.family)
def test_kernel_spec_values_do_not_depend_on_the_offset_layout(spec, rng):
    # the engines hand the evaluator the column-major transpose of a (3, m)
    # coordinate array; it must agree bit for bit with C-ordered (m, 3)
    # offsets and with one 1-d offset at a time, and keep the layout
    coords = np.ascontiguousarray(random_points(rng, 64).T)
    offsets = np.ascontiguousarray(coords.T)
    want = spec.values(offsets)
    for got in (spec.values(coords.T), spec.values(coords.T, K.radii(coords.T)),
                np.array([spec.values(z) for z in offsets])):
        assert np.array_equal(got, want)
    if spec.grade1:
        assert spec.values(coords.T).flags.f_contiguous
    coords[:, 5] = 0.0
    with pytest.raises(ValueError, match="origin"):
        spec.values(coords.T)


@settings(max_examples=200, deadline=None)
@given(
    direction=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    .filter(lambda v: np.linalg.norm(v) > 0.1),
    radius=st.floats(1e-3, 10.0),
    q=st.one_of(st.just(0.0), st.floats(1e-12, 4.0)),
    lam=st.one_of(st.just([0.0, 0.0, 0.0]), st.lists(st.floats(-1.5, 1.5), min_size=3,
                                                       max_size=3)),
)
def test_kernel_spec_matches_closed_forms(direction, radius, q, lam):
    # the engines' evaluator, with its own radii and with radii handed in,
    # against the public closed-form functions and the formulas written out
    # with the math module; theta(0) is the newton kernel and phi(0) the
    # cauchy kernel, compared here with the q, lam -> 0 limits
    z = radius * np.asarray(direction) / np.linalg.norm(direction)
    r = math.sqrt(float(z @ z))
    lam = np.asarray(lam)
    kappa, kappa_l = math.sqrt(q), math.sqrt(float(lam @ lam))
    theta_l = math.exp(-kappa_l * r) / (4 * math.pi * r)
    grad_l = -(1 + kappa_l * r) * math.exp(-kappa_l * r) / (4 * math.pi * r**2) * z / r
    cases = [  # spec, public function, formula, scale
        (K.KernelSpec("cauchy"), K.cauchy_E_components(z[None]), -z / (4 * math.pi * r**3),
         1 / (4 * math.pi * r**2)),
        (K.KernelSpec("newton"), K.newton_N_components(z[None])[0], 1 / (4 * math.pi * r),
         1 / (4 * math.pi * r)),
        (K.KernelSpec.theta(q), K.yukawa_theta_components(z[None], q)[0],
         math.exp(-kappa * r) / (4 * math.pi * r), math.exp(-kappa * r) / (4 * math.pi * r)),
        # Phi = grad theta - lam theta can cancel; measure against its two terms
        (K.KernelSpec.phi(lam), K.vekua_phi_components(z[None], lam), grad_l - theta_l * lam,
         np.abs(grad_l).max() + theta_l * np.abs(lam).max()),
    ]
    for spec, public, formula, scale in cases:
        for got in (spec.values(z[None]), spec.values(z[None], np.array([r]))):
            assert got.shape == np.shape(public)
            assert np.all(np.abs(got - public) <= 1e-14 * scale)
            assert np.all(np.abs(got[0] - formula) <= 1e-14 * scale)
