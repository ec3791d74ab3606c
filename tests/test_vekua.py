"""Vekua machinery tests: profiles, residuals, the Beltrami pair, the
derived duality, bivector construction and the orthogonality pairing."""

import itertools

import numpy as np
import pytest
from oracles import _blade_sign_reference

from vekua_lab import fields as F
from vekua_lab import vekua as V
from vekua_lab.fields import BoxGrid, MultivectorField


def grid16():
    return BoxGrid.unit_cube(16)


# -- profiles -----------------------------------------------------------------


def test_exponential_profile_closed_forms():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    X = g.coords()
    assert np.allclose(p.f, np.exp(X[..., 2]), atol=0.0)
    assert np.allclose(p.alpha, np.broadcast_to([0, 0, 1.0], X.shape), atol=1e-14)
    assert np.allclose(p.q, 1.0, atol=0.0)
    assert np.min(p.f) >= 1.0
    pts = np.array([[0.1, 0.2, 0.3]])
    assert p.f_at(pts)[0] == pytest.approx(np.exp(0.3), rel=1e-14)


def _z_closed_forms(params, z):
    """f, df/dz and q = f'' / f of a z-kind, each written out for its kind."""
    if params["kind"] == "constant":
        return np.full(z.shape, params["value"]), np.zeros(z.shape), np.zeros(z.shape)
    a = params["a"]
    if params["kind"] == "linear_z":
        b = params["b"]
        return a + b * z, np.full(z.shape, b), np.zeros(z.shape)
    c = params["c"]
    f = a + c * z**2
    return f, 2.0 * c * z, 2.0 * c / f


@pytest.mark.parametrize("box", [
    BoxGrid.unit_cube(9), BoxGrid([-0.3, 0.1, -0.5], [0.7, 1.3, 1.5], [8, 9, 11]),
], ids=["cube", "anisotropic-z-spans-0"])
@pytest.mark.parametrize("spec", [
    {"kind": "constant"}, {"kind": "linear_z"}, {"kind": "quadratic_z"},
    {"kind": "constant", "value": -0.7}, {"kind": "linear_z", "a": 2.0, "b": -0.9},
    {"kind": "quadratic_z", "a": 1.5, "c": -0.6},
], ids=lambda spec: "-".join(map(str, spec.values())))
def test_z_kinds_build_their_closed_forms_bit_for_bit(spec, box):
    # one polynomial a + b z + c z^2 builds every z-kind; each must equal its
    # own closed form exactly (np.array_equal: a zero's sign does not count)
    p = V.make_profile(box, spec)
    z = box.coords()[..., 2]
    f, df, q = _z_closed_forms(V.resolve_profile(spec), z)
    grad_f = np.stack([np.zeros(z.shape), np.zeros(z.shape), df], axis=-1)
    assert np.array_equal(p.f, f)
    assert np.array_equal(p.grad_f, grad_f)
    assert np.array_equal(p.alpha, grad_f / f[..., None])
    assert np.array_equal(p.q, q)


def test_profile_away_from_zero_enforced():
    g = grid16()
    with pytest.raises(ValueError):
        V.ConductivityProfile.polynomial_z(g, 0.0, 1.0)  # f = 0 on the z = 0 face
    with pytest.raises(ValueError):
        V.ConductivityProfile.polynomial_z(g, 0.0)


@pytest.mark.parametrize("build", [
    lambda g: V.ConductivityProfile.polynomial_z(g, float("nan")),
    lambda g: V.ConductivityProfile.polynomial_z(g, float("inf")),
    lambda g: V.ConductivityProfile.exponential(g, [800.0, 0.0, 0.0]),  # f overflows
    lambda g: V.ConductivityProfile.exponential(g, [709.5, 0.0, 0.0]),  # grad f overflows
], ids=["nan", "inf", "inf-factor", "inf-gradient"])
def test_profile_rejects_non_finite_values(build):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        build(grid16())


def test_alpha_consistency_invariant():
    g = grid16()
    p = V.ConductivityProfile.polynomial_z(g, 1.0, c=0.5)
    assert np.max(np.abs(p.alpha - p.grad_f / p.f[..., None])) <= 1e-12


def test_beltrami_coefficient_ellipticity():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    mu = p.beltrami_mu()
    assert np.max(np.abs(mu.mu)) < 1.0
    with pytest.raises(ValueError):
        V.BeltramiCoefficient(np.array([0.2, 1.0]))


def test_make_profile_factory():
    g = grid16()
    assert np.array_equal(V.make_profile(g, {"kind": "constant", "value": 2.0}).f,
                          np.full(tuple(g.resolution), 2.0))
    exponential = V.make_profile(g, {"kind": "exponential"})
    assert np.allclose(exponential.alpha, [0.0, 0.0, 1.0], atol=1e-14)
    with pytest.raises(ValueError):
        V.make_profile(g, {"kind": "mystery"})


@pytest.mark.parametrize("spec", [{"kind": "constant", "vaule": 2.0},
                                  {"kind": "exponential", "lam": [0.0, float("nan"), 1.0]},
                                  {"kind": "linear_z", "a": [1.0, 2.0]}])
def test_make_profile_validates_its_spec(spec):
    # a misspelled key must not fall back to the default parameter
    with pytest.raises(ValueError, match="profile"):
        V.make_profile(grid16(), spec)


# -- residuals -----------------------------------------------------------------


def test_vekua_residual_scalar_solution():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    w = MultivectorField.from_scalar(g, p.f)
    res = V.vekua_residual(w, p.alpha)
    assert res.max() <= 2e-3


def test_vekua_residual_monogenic_zero_alpha():
    g = grid16()
    X = g.coords()
    w = MultivectorField.from_vector(
        g, np.stack([X[..., 1], X[..., 0], np.zeros_like(X[..., 0])], -1)
    )
    res = V.vekua_residual(w, np.zeros(3))
    assert res.max() <= 1e-12


# -- Beltrami pair ---------------------------------------------------------------


def test_beltrami_transform_examples():
    g = grid16()
    ones = np.ones(tuple(g.resolution))
    p2 = V.ConductivityProfile.polynomial_z(g, 2.0)
    w = MultivectorField.from_components(g, {1: ones})
    u = V.beltrami_transform(w, p2)
    assert np.allclose(u.values[..., 1], 2.0, atol=0.0)
    assert np.max(np.abs(p2.beltrami_mu().mu + 0.6)) <= 1e-15
    p1 = V.ConductivityProfile.polynomial_z(g, 1.0)
    w_mixed = MultivectorField.from_components(g, {0: ones, 3: 2 * ones})
    assert np.array_equal(V.beltrami_transform(w_mixed, p1).values, w_mixed.values)


def test_beltrami_transform_of_profile_is_one():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    w = MultivectorField.from_scalar(g, p.f)
    u = V.beltrami_transform(w, p)
    assert np.allclose(u.values[..., 0], 1.0, atol=1e-14)


def test_beltrami_residual_constants_and_mu_zero():
    g = grid16()
    const = MultivectorField.from_components(g, {0: np.full(tuple(g.resolution), 3.0)})
    mu0 = V.BeltramiCoefficient(np.zeros(tuple(g.resolution)))
    assert V.beltrami_residual(const, mu0).max() <= 1e-14
    # mu = 0 reduces the residual to plain monogenicity
    X = g.coords()
    w = MultivectorField.from_vector(
        g, np.stack([X[..., 1], X[..., 0], np.zeros_like(X[..., 0])], -1)
    )
    assert V.beltrami_residual(w, mu0).max() <= 1e-12


def test_beltrami_end_to_end_refinement():
    errs = []
    for r in (16, 32):
        g = BoxGrid.unit_cube(r)
        p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
        sol = V.ExponentialVekuaSolution([0.0, 0.0, 1.0])
        w = sol.as_field(g)
        u = V.beltrami_transform(w, p)
        errs.append(V.beltrami_residual(u, p.beltrami_mu()).max())
    assert errs[0] / errs[1] >= 3.0


# -- duality ----------------------------------------------------------------------


def _duality_holds(masks, signs):
    """Whether V = sum_k signs[k] v_k e_{masks[k]} has D V = curl v + (div v) e_123:
    e_i (signs[k] e_{masks[k]}) must be eps_{jik} e_j for i != k and e_123 for
    i == k, with blade signs from the insertion-sort oracle."""
    for k, i in itertools.product(range(3), repeat=2):
        blade = (1 << i) ^ masks[k]
        sign = _blade_sign_reference(1 << i, masks[k]) * signs[k]
        j = 3 - i - k
        expected = (0b111, 1) if i == k else (1 << j, (j - i) * (i - k) * (k - j) // 2)
        if (blade, sign) != expected:
            return False
    return True


def test_duality_orientation_is_derived():
    # the constant is the one signed assignment of the three bivectors with the
    # curl/div property, found here by search against an independent sign oracle
    found = [(masks, signs) for masks in itertools.permutations((0b011, 0b101, 0b110))
             for signs in itertools.product((1, -1), repeat=3) if _duality_holds(masks, signs)]
    assert found == [(V.DUALITY_MASKS, V.DUALITY_SIGNS)]


def test_duality_curl_div_property(rng):
    # defining property checked on random polynomial vector fields
    g = grid16()
    X = g.coords()
    coeff = rng.normal(size=(3, 3))
    v = np.stack(
        [
            coeff[k, 0] * X[..., 1] * X[..., 2]
            + coeff[k, 1] * X[..., 0]
            + coeff[k, 2] * X[..., 1] ** 2
            for k in range(3)
        ],
        axis=-1,
    )
    B = MultivectorField(g, V.vector_to_bivector(v))
    DB = F.dirac_D(B)
    curl = F.vector_curl(g, v)
    div = F.vector_divergence(g, v)
    sl = F.interior_slices(2)
    vec = DB.values[..., [0b001, 0b010, 0b100]]
    assert np.max(np.abs(vec[sl] - curl[sl])) <= 1e-10
    assert np.max(np.abs(DB.values[sl + (7,)] - div[sl])) <= 1e-10


# -- construction -------------------------------------------------------------------


def test_construct_constant_solution_gives_zero_bivector():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    u0 = np.full(tuple(g.resolution), 1.3)
    w, diag = V.construct_bivector_part(p, u0)
    assert diag["method"] == "closed_form"
    assert np.max(np.abs(w.values[..., 1:])) == 0.0
    assert np.allclose(w.sc(), 1.3 * p.f, atol=0.0)


def test_construct_closed_form_matches_hand_solution():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    sol = V.ExponentialVekuaSolution([0.0, 0.0, 1.0])
    X = g.coords()
    w, diag = V.construct_bivector_part(p, sol.u0(X), grad_u0=sol.grad_u0(X))
    # g = -e3 -> v = (x2 e1 - x1 e2)/2, fixed by the duality
    v_expected = 0.5 * np.stack(
        [X[..., 1], -X[..., 0], np.zeros_like(X[..., 0])], axis=-1
    )
    B_expected = V.vector_to_bivector(v_expected) / p.f[..., None]
    assert np.max(np.abs(w.values[..., 1:] - B_expected[..., 1:])) <= 1e-12


def test_construct_rejects_bad_scalar_data():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    X = g.coords()
    not_a_solution = X[..., 2] ** 2
    with pytest.raises(ValueError):
        V.construct_bivector_part(p, not_a_solution)


def test_construct_poisson_path_reports_diagnostics():
    # a harmonic u0 with non-constant flux takes the Poisson path
    g = grid16()
    p = V.ConductivityProfile.polynomial_z(g, 1.0)
    X = g.coords()
    w, diag = V.construct_bivector_part(p, X[..., 0] ** 2 - X[..., 1] ** 2)
    assert diag["method"] == "poisson"
    assert "div_v" in diag and "curl_v_minus_g" in diag
    assert diag["div_v"] <= 1e-10  # curl of a potential is divergence-free


def test_construct_poisson_path_assembles_one_operator(dirichlet_work):
    # the three components of the vector potential share one Laplacian
    g = grid16()
    X = g.coords()
    V.construct_bivector_part(V.ConductivityProfile.polynomial_z(g, 1.0), X[..., 0] * X[..., 1])
    assert dirichlet_work == {"__init__": 1, "solve": 3}


def test_construct_closed_form_requires_constant_source():
    g = grid16()
    p = V.ConductivityProfile.polynomial_z(g, 1.0)
    X = g.coords()
    u0 = X[..., 0] * X[..., 1]  # harmonic, but with non-constant flux
    _, diag = V.construct_bivector_part(p, u0)
    assert diag["method"] == "poisson"
    # a source constant to within constant_tol takes the closed form
    _, diag = V.construct_bivector_part(p, X[..., 0] + 1e-9 * u0, constant_tol=1e-6)
    assert diag["method"] == "closed_form"


def test_constructed_solution_residual_refines():
    errs = []
    for r in (16, 32):
        g = BoxGrid.unit_cube(r)
        p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
        sol = V.ExponentialVekuaSolution([0.0, 0.0, 1.0])
        X = g.coords()
        w, _ = V.construct_bivector_part(p, sol.u0(X), grad_u0=sol.grad_u0(X))
        norm = np.max(np.abs(p.alpha)) * w.max_norm()
        errs.append(V.vekua_residual(w, p.alpha).max() / norm)
    assert errs[-1] <= 0.03
    assert errs[0] / errs[1] >= 1.8


# -- orthogonality -------------------------------------------------------------------


def test_hodge_orthogonality_values():
    g = BoxGrid.unit_cube(32)
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    bump = F.bump_scalar(g, 3.1 * float(g.spacing[0]))
    w = MultivectorField.from_scalar(g, p.f)
    v = MultivectorField.from_components(g, {2: bump})
    val = V.hodge_orthogonality(w, v, p.alpha)
    assert abs(val) / (F.sc_norm(w) * F.sc_norm(v)) <= 0.01


def test_hodge_zero_test_function():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    w = MultivectorField.from_scalar(g, p.f)
    assert V.hodge_orthogonality(w, MultivectorField.zero(g), p.alpha) == 0.0


def test_hodge_rejects_boundary_support():
    g = grid16()
    p = V.ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    w = MultivectorField.from_scalar(g, p.f)
    bad = MultivectorField.from_scalar(g, np.ones(tuple(g.resolution)))
    with pytest.raises(ValueError):
        V.hodge_orthogonality(w, bad, p.alpha)


# -- closed-form family ----------------------------------------------------------------


def test_exponential_solution_flux_is_constant():
    sol = V.ExponentialVekuaSolution([0.0, 0.0, 2.0])
    pts = np.random.default_rng(0).random((20, 3))
    flux = sol.flux(pts)
    assert np.allclose(flux, flux[0], atol=0.0)
    # div(f^2 grad u0) = 0 follows from constancy of the flux
    assert np.allclose(
        sol.f(pts) ** 2 * sol.grad_u0(pts)[:, 2], flux[:, 2], rtol=1e-12
    )


def test_exponential_solution_solves_vekua():
    g = BoxGrid.unit_cube(24)
    lam = np.array([0.4, -0.3, 0.8])
    sol = V.ExponentialVekuaSolution(lam)
    p = V.ConductivityProfile.exponential(g, lam)
    w = sol.as_field(g)
    norm = np.max(np.abs(p.alpha)) * w.max_norm()
    assert V.vekua_residual(w, p.alpha).max() / norm <= 5e-3
