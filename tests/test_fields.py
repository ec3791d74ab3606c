"""Grid, field-operator and quadrature tests.

Stencil oracles: polynomial fields of degree <= 2 must be differentiated
exactly; smooth fields must show second-order refinement.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.interpolate import RegularGridInterpolator

from vekua_lab import fields as F
from vekua_lab.clifford import gp_array
from vekua_lab.fields import BoxGrid, MultivectorField

from oracles import Multivector, _blade_sign_reference


def unit_grid(r=10):
    return BoxGrid.unit_cube(r)


# -- grid invariants ----------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        BoxGrid([0, 0, 0], [1, 1, 1], [4, 16, 16])
    with pytest.raises(ValueError):
        BoxGrid([0, 0, 0], [1, 0, 1], [16, 16, 16])


@pytest.mark.parametrize("components", [2, 4])
def test_grid_is_three_dimensional(components):
    with pytest.raises(ValueError, match="3 components"):
        BoxGrid(np.zeros(components), np.ones(components), np.full(components, 8))


def test_field_values_carry_eight_blades():
    with pytest.raises(ValueError, match="does not match"):
        MultivectorField(unit_grid(8), np.zeros((8, 8, 8, 16)))


def test_grid_nodes_reproducible():
    g = BoxGrid([1.0, -2.0, 0.5], [2.0, 4.0, 1.0], [9, 17, 11])
    node = g.origin + np.array([3, 5, 7]) * g.spacing
    assert np.allclose(node, g.coords()[3, 5, 7], atol=0.0)
    assert np.allclose(g.spacing, [0.25, 0.25, 0.1])


def test_dual_grid_geometry():
    g = unit_grid(16)
    d = g.dual_grid()
    assert np.array_equal(d.resolution, g.resolution - 1)
    assert np.allclose(d.spacing, g.spacing)
    assert np.allclose(d.coords(), g.cell_centers())
    # an 8-node axis is valid, its 7 cell centers are not
    with pytest.raises(ValueError, match="dual grid of an axis with 8 nodes has 7 nodes"):
        BoxGrid([0.0] * 3, [1.0] * 3, [9, 8, 9]).dual_grid()


def test_distances():
    g = unit_grid()
    assert g.interior_distance([[0.5, 0.5, 0.5]])[0] == pytest.approx(0.5)
    assert g.exterior_distance([[1.5, 0.5, 0.5]])[0] == pytest.approx(0.5)
    assert g.exterior_distance([[0.5, 0.5, 0.5]])[0] == 0.0


# -- field container ------------------------------------------------------------


def test_field_shape_validation():
    g = unit_grid()
    with pytest.raises(ValueError):
        MultivectorField(g, np.zeros((10, 10, 10, 4)))


def test_field_immutable():
    g = unit_grid()
    w = MultivectorField.zero(g)
    with pytest.raises(ValueError):
        w.values[0, 0, 0, 0] = 1.0


def test_field_keeps_its_own_copy_of_a_callers_array(rng):
    # the constructor copies what a caller hands it; only the package's own
    # fresh results are taken over without a copy
    g = unit_grid()
    mine = rng.standard_normal(tuple(g.resolution) + (8,))
    kept = mine.copy()
    w = MultivectorField(g, mine)
    mine[...] = 7.0
    np.testing.assert_array_equal(w.values, kept)
    assert mine.flags.writeable
    v = MultivectorField(g, np.asfortranarray(kept))
    assert v.values.flags.c_contiguous and not v.values.flags.writeable


def test_field_product_matches_pointwise(rng):
    g = unit_grid(8)
    a_vals = rng.integers(-3, 4, (8, 8, 8, 8)).astype(float)
    b_vals = rng.integers(-3, 4, (8, 8, 8, 8)).astype(float)
    fa = MultivectorField(g, a_vals)
    fb = MultivectorField(g, b_vals)
    prod = fa * fb
    node = (2, 5, 1)
    expected = Multivector(3, a_vals[node]) * Multivector(3, b_vals[node])
    assert np.array_equal(prod.values[node], expected.coeffs)


# -- Dirac and Laplacian --------------------------------------------------------


def _dirac_scatter_oracle(w):
    """sum_i e_i d_i w with each blade of d_i w scattered one at a time,
    signed by the insertion-sort sign oracle."""
    out = np.zeros_like(w.values)
    for i in range(3):
        dv = np.gradient(w.values, w.grid.spacing[i], axis=i, edge_order=2)
        for blade in range(8):
            out[..., (1 << i) ^ blade] += _blade_sign_reference(1 << i, blade) * dv[..., blade]
    return out


@pytest.mark.parametrize("origin, extent, resolution", [
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [10, 10, 10]),
    ([0.2, -0.5, 1.0], [1.0, 2.0, 0.5], [9, 13, 11]),
    ([-1.5, 0.3, 2.0], [0.6, 1.7, 2.4], [12, 8, 15]),
])
def test_dirac_matches_blade_scatter_oracle(rng, origin, extent, resolution):
    g = BoxGrid(origin, extent, resolution)
    w = MultivectorField(g, rng.normal(size=tuple(g.resolution) + (8,)))
    assert np.array_equal(F.dirac_D(w).values, _dirac_scatter_oracle(w))


def test_dirac_monogenic_linear():
    g = unit_grid()
    X = g.coords()
    w = MultivectorField.from_vector(
        g, np.stack([X[..., 1], X[..., 0], np.zeros_like(X[..., 0])], axis=-1)
    )
    assert F.dirac_D(w).max_norm() <= 1e-13


def test_dirac_gradient_of_coordinate():
    g = unit_grid()
    X = g.coords()
    Dw = F.dirac_D(MultivectorField.from_scalar(g, X[..., 0]))
    assert np.allclose(Dw.values[..., 1], 1.0, atol=1e-12)
    other = np.delete(Dw.values, 1, axis=-1)
    assert np.max(np.abs(other)) <= 1e-12


def test_dirac_scalar_part_is_minus_divergence():
    g = unit_grid()
    X = g.coords()
    w = MultivectorField.from_vector(
        g, np.stack([X[..., 0], np.zeros_like(X[..., 0]), np.zeros_like(X[..., 0])], -1)
    )
    assert np.allclose(F.dirac_D(w).sc(), -1.0, atol=1e-12)


def test_div_vec_dirac_vanishes_smooth():
    # div Vec D w = 0 at stencil order.  The vector part of D w collects the
    # gradient of the scalar part and the curl-type image of the bivector
    # part; only the latter is divergence-free, so the property is stated
    # (and used) for fields without a scalar component.
    errs = []
    for r in (16, 32):
        g = unit_grid(r)
        X = g.coords()
        w = MultivectorField.from_components(
            g,
            {
                1: np.sin(X[..., 1]),
                0b011: np.cos(X[..., 2]) * X[..., 0],
                0b110: np.sin(X[..., 0]) * X[..., 1],
                0b111: np.cos(X[..., 1]),
            },
        )
        vec_part = F.dirac_D(w).values[..., [0b001, 0b010, 0b100]]
        div = F.vector_divergence(g, vec_part)
        errs.append(np.max(np.abs(div[F.interior_slices(2)])))
    # the discrete mixed differences commute, so the curl structure cancels
    # exactly, not merely at stencil order
    assert max(errs) <= 1e-12


def test_laplacian_quadratics_exact():
    g = unit_grid()
    X = g.coords()
    lap1 = F.laplacian(MultivectorField.from_scalar(g, X[..., 0] ** 2))
    assert np.allclose(lap1.sc(), 2.0, atol=1e-11)
    lap2 = F.laplacian(
        MultivectorField.from_scalar(g, X[..., 0] ** 2 + X[..., 1] ** 2 + X[..., 2] ** 2)
    )
    assert np.allclose(lap2.sc(), 6.0, atol=1e-11)


def test_laplacian_refinement_sine():
    errs = []
    for r in (16, 32):
        g = unit_grid(r)
        X = g.coords()
        w = MultivectorField.from_scalar(g, np.sin(np.pi * X[..., 0]))
        target = -np.pi**2 * np.sin(np.pi * X[..., 0])
        errs.append(np.max(np.abs(F.laplacian(w).sc() - target)))
    assert errs[0] / errs[1] >= 3.8


def test_dirac_of_gradient_is_minus_laplacian():
    errs = []
    for r in (16, 32):
        g = unit_grid(r)
        X = g.coords()
        w0 = np.sin(X[..., 0]) * np.cos(2 * X[..., 1])
        grad = F.scalar_gradient(g, w0)
        Dgrad = F.dirac_D(MultivectorField.from_vector(g, grad))
        lap = F.laplacian(MultivectorField.from_scalar(g, w0))
        sl = F.interior_slices(2)
        errs.append(np.max(np.abs(Dgrad.sc()[sl] + lap.sc()[sl])))
    scale = 5.0  # sup of the Laplacian of the test field
    assert errs[-1] <= 5e-3 * scale
    assert errs[0] / errs[-1] >= 3.0


# -- inner product ----------------------------------------------------------------


def test_sc_inner_constant_blades():
    g = unit_grid()
    ones = np.ones(tuple(g.resolution))
    e1 = MultivectorField.from_components(g, {1: ones})
    e2 = MultivectorField.from_components(g, {2: ones})
    assert F.sc_inner(e1, e1) == pytest.approx(1.0, abs=1e-12)
    assert F.sc_inner(e1, e2) == 0.0


def test_sc_inner_linear_oracle():
    g = unit_grid()
    X = g.coords()
    u = MultivectorField.from_scalar(g, X[..., 0])
    v = MultivectorField.from_scalar(g, np.ones(tuple(g.resolution)))
    assert F.sc_inner(u, v) == pytest.approx(0.5, abs=1e-12)


def test_sc_inner_symmetric_and_positive(rng):
    g = unit_grid(8)
    a = MultivectorField(g, rng.normal(size=(8, 8, 8, 8)))
    b = MultivectorField(g, rng.normal(size=(8, 8, 8, 8)))
    assert F.sc_inner(a, b) == F.sc_inner(b, a)
    assert F.sc_inner(a, a) > 0.0
    assert F.sc_inner(MultivectorField.zero(g), MultivectorField.zero(g)) == 0.0


def test_sc_inner_matches_explicit_conjugate_product(rng):
    # independent route: Sc(conj(u) v) via the full Clifford product
    g = unit_grid(8)
    u_vals = rng.normal(size=(8, 8, 8, 8))
    v_vals = rng.normal(size=(8, 8, 8, 8))
    u = MultivectorField(g, u_vals)
    v = MultivectorField(g, v_vals)
    explicit = gp_array(u.conjugate().values, v.values)[..., 0]
    direct = np.sum(u_vals * v_vals, axis=-1)
    assert np.allclose(explicit, direct, atol=1e-12)
    assert F.sc_inner(u, v) == pytest.approx(
        float(np.sum(explicit * g.trapezoid_weights())), abs=1e-12
    )


# -- boundary sampling --------------------------------------------------------------


def test_boundary_sampling_counts_and_area():
    g = unit_grid(10)
    bq = F.boundary_sampling(g)
    assert len(bq) == 6 * 9 * 9
    assert bq.weights.sum() == pytest.approx(6.0, rel=1e-12)
    per_face = [np.sum(bq.weights[rows]) for _, _, rows in bq.face_blocks]
    assert np.allclose(per_face, 1.0, rtol=1e-12)


def test_boundary_normals_are_axis_unit_vectors():
    g = unit_grid(10)
    bq = F.boundary_sampling(g)
    norms = np.linalg.norm(bq.normals, axis=1)
    assert np.allclose(norms, 1.0)
    assert np.all(np.max(np.abs(bq.normals), axis=1) == 1.0)


def test_closed_surface_normal_integral_vanishes():
    g = BoxGrid([0.2, -0.5, 1.0], [1.0, 2.0, 0.5], [9, 13, 11])
    bq = F.boundary_sampling(g)
    total = np.sum(bq.normals * bq.weights[:, None], axis=0)
    assert np.max(np.abs(total)) <= 1e-12


def test_boundary_sampling_override_density():
    g = unit_grid(10)
    bq = F.boundary_sampling(g, 32)
    assert len(bq) == 6 * 32 * 32
    assert bq.weights.sum() == pytest.approx(6.0, rel=1e-12)


def test_boundary_sampling_density_is_none_or_positive():
    g = unit_grid(10)
    assert len(F.boundary_sampling(g, None)) == 6 * 9 * 9
    assert len(F.boundary_sampling(g, 1)) == 6
    for cells in (0, -3):
        with pytest.raises(ValueError, match="cells_per_axis"):
            F.boundary_sampling(g, cells)


# -- helpers ------------------------------------------------------------------------


def test_cell_average_linear_exact():
    g = unit_grid(9)
    X = g.coords()
    avg = F.cell_average(X[..., 0], blade_axis=False)
    assert np.allclose(avg, g.cell_centers()[..., 0], atol=1e-14)


def test_bump_support():
    g = unit_grid(16)
    margin = 3.05 * g.spacing[0]
    bump = F.bump_scalar(g, margin)
    mask = np.ones(tuple(g.resolution), bool)
    mask[F.interior_slices(3)] = False
    assert not np.any(bump[mask])
    # the peak value 1 sits between nodes for even resolutions
    assert 0.5 < bump.max() <= 1.0
    # on 8 nodes a 3.1 h margin leaves no node inside the support: rejected,
    # not an all-zero "bump"
    g = unit_grid(8)
    with pytest.raises(ValueError, match="no node of a grid of resolution"):
        F.bump_scalar(g, 3.1 * g.spacing[0])


def test_trilinear_sample_linear_exact():
    g = unit_grid(9)
    X = g.coords()
    vals = 2.0 * X[..., 0] - X[..., 2]
    pts = np.array([[0.31, 0.67, 0.13], [0.5, 0.5, 0.5]])
    out = F.trilinear_sample(g, vals, pts)
    assert np.allclose(out, 2.0 * pts[:, 0] - pts[:, 2], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.2, 3.0), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 13), min_size=3, max_size=3),
    blades=st.sampled_from([None, 8]),
    seed=st.integers(0, 2**16),
)
def test_trilinear_sample_matches_regular_grid_interpolator(origin, extent, resolution,
                                                           blades, seed):
    # anisotropic boxes; random interior points, every node, and the nodes
    # of all six faces (the top faces sit in the last cell)
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    shape = tuple(g.resolution) + (() if blades is None else (blades,))
    vals = rng.normal(size=shape)
    X = g.coords()
    faces = [X[tuple(side if b == a else slice(None) for b in range(3))].reshape(-1, 3)
             for a in range(3) for side in (0, -1)]
    pts = np.vstack([g.origin + rng.random((64, 3)) * g.extent, X.reshape(-1, 3), *faces])
    got = F.trilinear_sample(g, vals, pts)
    want = RegularGridInterpolator(g.axes, vals, method="linear")(pts)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(vals))


def test_trilinear_sample_rejects_points_outside_the_box():
    g = BoxGrid([0.5, -1.0, 0.0], [1.0, 2.0, 0.5], [9, 10, 8])
    vals = np.zeros(tuple(g.resolution))
    assert F.trilinear_sample(g, vals, g.top).shape == (1,)
    for bad in (g.top + [0.0, 1e-9, 0.0], g.origin - [1e-9, 0.0, 0.0], [np.nan, 0.0, 0.2]):
        with pytest.raises(ValueError):
            F.trilinear_sample(g, vals, bad)


def test_curl_of_gradient_vanishes():
    g = unit_grid(16)
    X = g.coords()
    grad = F.scalar_gradient(g, np.sin(X[..., 0]) * X[..., 1])
    curl = F.vector_curl(g, grad)
    assert np.max(np.abs(curl[F.interior_slices(2)])) <= 1e-3



def test_face_nodes_and_boundary_values_match_the_whole_grid():
    # per-face coordinates are the whole grid's, bit for bit, in C order; a
    # boundary-values array is fn of them on every face and zero inside
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    X = g.coords()
    faces = list(F.face_nodes(g))
    assert [face[:3] for face in faces] == list(F.face_slabs())
    for _, _, slab, P in faces:
        assert P.flags.c_contiguous and np.array_equal(P, X[slab])
    lam = np.array([0.3, -1.2, 0.7])
    values = F.boundary_values(g, lambda P: np.exp(P @ lam))
    full = np.exp(X @ lam)
    inner = F.interior_slices(1)
    assert not np.any(values[inner])
    values[inner] = full[inner]
    assert np.array_equal(values, full)
