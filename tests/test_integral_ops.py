"""Quadrature-engine tests: volume potentials, boundary integrals, the full
representation residual, and the monogenic projection.

The heavy checks are refinement studies at desk-scale
resolutions; the analytic families (constants, linear monogenics, kernels
with exterior poles) provide the oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vekua_lab import fields as F
from vekua_lab import integral_ops as IO
from vekua_lab import kernels as K
from vekua_lab.clifford import gp_array, vector_to_array
from vekua_lab.fields import BoxGrid, MultivectorField, boundary_sampling
from vekua_lab.kernels import KernelSpec, cauchy_E_components


def quadratic_trace(pts):
    pts = np.atleast_2d(pts)
    out = np.zeros((pts.shape[0], 8))
    out[:, 2] = pts[:, 0] ** 2
    return out


# -- evaluation sets ---------------------------------------------------------


def test_evaluation_set_margins():
    g = BoxGrid.unit_cube(16)
    pts = IO.EvaluationSet.build(g, 5, 7, margin=0.2, seed=1)
    assert len(pts) == 12
    assert g.interior_distance(pts.interior_points).min() >= pts.margin - 1e-12
    assert g.exterior_distance(pts.points[~pts.is_interior]).min() >= pts.margin - 1e-12


def test_evaluation_set_rejects_violations():
    g = BoxGrid.unit_cube(16)
    with pytest.raises(ValueError):
        IO.EvaluationSet(
            np.array([[0.01, 0.5, 0.5]]), np.array([True]), margin=0.2, grid=g
        )
    with pytest.raises(ValueError):
        IO.EvaluationSet(
            np.array([[1.05, 0.5, 0.5]]), np.array([False]), margin=0.2, grid=g
        )


def test_evaluation_set_snapping():
    g = BoxGrid.unit_cube(16)
    pts = IO.EvaluationSet.build(g, 6, 2, margin=0.2, seed=3, snap_to_centers=True)
    centers = (pts.interior_points - g.origin) / g.spacing - 0.5
    assert np.allclose(centers, np.round(centers), atol=1e-9)


@pytest.mark.parametrize("resolution", [8, 10, 12, 24])
def test_evaluation_set_snaps_to_centers_inside_the_margin(resolution):
    # the nearest center of a point drawn just inside the margin can lie outside it
    boxes = [
        BoxGrid.unit_cube(resolution),
        BoxGrid([0.5, -1.0, 2.0], [1.0, 2.0, 1.5], [resolution, resolution + 3, resolution]),
    ]
    for g in boxes:
        margin = 0.2 * float(np.min(g.extent))
        for seed in range(10):
            pts = IO.EvaluationSet.build(g, 16, 2, margin=margin, seed=seed, snap_to_centers=True)
            centers = (pts.interior_points - g.origin) / g.spacing - 0.5
            assert np.allclose(centers, np.round(centers), atol=1e-9)
            assert g.interior_distance(pts.interior_points).min() >= margin - 1e-12


# -- teodorescu ---------------------------------------------------------------


def test_teodorescu_odd_symmetry_at_center():
    g = BoxGrid.unit_cube(16)
    ones = MultivectorField.from_scalar(g, np.ones(tuple(g.resolution)))
    T = IO.teodorescu(ones, [[0.5, 0.5, 0.5]])
    assert np.max(np.abs(T)) <= 1e-12


def test_teodorescu_empty_errors():
    g = BoxGrid.unit_cube(16)
    ones = MultivectorField.from_scalar(g, np.ones(tuple(g.resolution)))
    with pytest.raises(ValueError):
        IO.teodorescu(ones, np.zeros((0, 3)))


def test_teodorescu_right_inverse_refinement():
    errs = []
    for r in (16, 32, 64):
        g = BoxGrid.unit_cube(r)
        e1 = MultivectorField.from_components(g, {1: np.ones(tuple(g.resolution))})
        DT = F.dirac_D(IO.teodorescu_on_dual_grid(e1))
        depth = max(2, round(0.2 * (r - 2)))
        sl = F.interior_slices(depth)
        diff = DT.values[sl].copy()
        diff[..., 1] -= 1.0
        errs.append(np.max(np.abs(diff)))
    assert errs[1] <= 0.02
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


boxes = dict(
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
)
vector_kernels = st.one_of(
    st.just(KernelSpec("cauchy")),
    st.lists(st.floats(-1.5, 1.5), min_size=3, max_size=3)
    .filter(lambda lam: np.linalg.norm(lam) > 0.1)
    .map(lambda lam: KernelSpec("vekua_phi", lam=lam)),
)
kernel_specs = st.one_of(
    vector_kernels,
    st.just(KernelSpec("newton")),
    st.floats(0.05, 4.0).map(lambda q: KernelSpec("yukawa", q=q)),
)


# one kernel of each family
FAMILIES = (KernelSpec("cauchy"), KernelSpec("vekua_phi", lam=[0.3, -0.2, 1.0]),
            KernelSpec("newton"), KernelSpec("yukawa", q=1.3))


def random_cells(grid, blade, seed):
    """Normal cell values with all 8 blades, or only the given one."""
    vals = np.random.default_rng(seed).normal(size=tuple(grid.resolution - 1) + (8,))
    if blade is not None:
        vals[..., np.arange(8) != blade] = 0.0
    return vals


@settings(max_examples=20, deadline=None)
@given(kernel=vector_kernels, blade=st.one_of(st.none(), st.integers(0, 7)),
       seed=st.integers(0, 2**16), **boxes)
def test_lattice_engine_matches_direct_sum(kernel, origin, extent, resolution, blade, seed):
    # every cell center of an anisotropic box, its own cell dropped
    g = BoxGrid(origin, extent, resolution)
    vals = random_cells(g, blade, seed)
    got = IO._lattice_sum(kernel, g, vals)
    want = IO._volume_sum(kernel, g.cell_centers().reshape(-1, 3), g, vals)
    assert got.shape == vals.shape
    assert np.max(np.abs(got.reshape(-1, 8) - want)) <= 1e-13 * np.max(np.abs(want))


def kernel_terms(kernel, z):
    """Kernel at the C-ordered (m, 3) offsets z as (m, 8) coefficient stacks.

    Values come from the public closed-form functions, not the engines'
    column-major layout.
    """
    if kernel.family == "cauchy":
        return vector_to_array(K.cauchy_E_components(z))
    if kernel.family == "vekua_phi":
        return vector_to_array(K.vekua_phi_components(z, kernel.lam))
    if kernel.family == "newton":
        value = K.newton_N_components(z)[0]
    else:
        value = K.yukawa_theta_components(z, kernel.q)[0]
    out = np.zeros((len(z), 8))
    out[:, 0] = value
    return out


def oracle_volume(kernel, grid, cell_values, x):
    """Cell-by-cell terms K(y - x) g |cell| as one stacked Clifford product,
    the cell containing x left out.

    Returns the sum and the matching sum of absolute term coefficients.
    """
    keep = np.ones(cell_values.shape[:-1], dtype=bool)
    home = tuple(np.floor((x - grid.origin) / grid.spacing).astype(int))  # x's half-open cell
    if all(0 <= i < n for i, n in zip(home, keep.shape)):
        keep[home] = False
    g = cell_values[keep]
    rho = np.zeros((len(g), 8))
    rho[:, :g.shape[-1]] = g
    terms = gp_array(kernel_terms(kernel, grid.cell_centers()[keep] - x), rho)
    terms = terms[:, :g.shape[-1]] * grid.cell_volume
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)


@settings(max_examples=20, deadline=None)
@given(
    kernel=kernel_specs,
    inside=st.lists(st.floats(0.1, 0.9), min_size=3, max_size=3),
    outside=st.lists(st.sampled_from([-0.8, 0.5, 1.8]), min_size=3, max_size=3)
    .filter(lambda u: u != [0.5, 0.5, 0.5]),
    seed=st.integers(0, 2**16),
    **boxes,
)
def test_volume_sum_matches_cell_by_cell_oracle(
    kernel, origin, extent, resolution, inside, outside, seed
):
    # 8-blade cells for the grade-1 kernels, one scalar per cell for the scalar ones
    g = BoxGrid(origin, extent, resolution)
    vals = random_cells(g, None, seed)
    if kernel.family in ("newton", "yukawa"):
        vals = vals[..., :1]
    pts = g.origin + g.extent * np.array([inside, outside])
    got = IO._volume_sum(kernel, pts, g, vals)
    assert got.shape == (2, vals.shape[-1])
    for x, row in zip(pts, got):
        want, magnitude = oracle_volume(kernel, g, vals, x)
        assert np.all(np.abs(row - want) <= 1e-13 * magnitude.sum())


@pytest.mark.parametrize("kernel", FAMILIES, ids=lambda k: k.family)
def test_volume_sum_rejects_an_undropped_cell_center(kernel):
    # a point on a cell center puts the kernel's origin among the offsets: the
    # kernel table rejects it unless that column is dropped, as the sum does
    g = BoxGrid([0.1, -0.3, 0.2], [1.0, 0.8, 1.2], [8, 9, 10])
    center = g.cell_centers()[3, 4, 5]
    offsets = np.moveaxis(g.cell_centers(), -1, 0).reshape(3, -1) - center[:, None]
    with pytest.raises(ValueError, match="origin"):
        IO._kernel_table(kernel, offsets.copy())
    vals = random_cells(g, None, 0).reshape(-1, 8)
    assert np.all(np.isfinite(IO._volume_sum(kernel, [center], g, vals)))


@pytest.mark.parametrize("kernel", FAMILIES, ids=lambda k: k.family)
def test_sums_do_not_depend_on_the_input_layout(kernel):
    # Fortran-ordered points and strided trace or cell-value views give the
    # same boundary and volume sums, bit for bit
    g = BoxGrid([0.1, -0.3, 0.2], [1.0, 0.8, 1.2], [8, 9, 10])
    bq = boundary_sampling(g)
    pts = g.origin + g.extent * np.array([[0.4, 0.5, 0.6], [0.45, 0.55, 0.3], [1.8, 0.5, -0.8]])
    wide = np.random.default_rng(0).normal(size=(len(bq), 16))
    want = IO.cauchy_boundary(kernel, bq, wide[:, ::2].copy(), pts)
    assert np.array_equal(IO.cauchy_boundary(kernel, bq, wide[:, ::2], np.asfortranarray(pts)),
                          want)
    width = 8 if kernel.grade1 else 1
    cells = np.random.default_rng(1).normal(size=(int(np.prod(g.resolution - 1)), 16))
    want = IO._volume_sum(kernel, pts, g, cells[:, :2 * width:2].copy())
    assert np.array_equal(IO._volume_sum(kernel, np.asfortranarray(pts), g,
                                         cells[:, :2 * width:2]), want)


# -- boundary integrals -----------------------------------------------------------


def test_cauchy_boundary_constant_trace():
    g = BoxGrid.unit_cube(16)
    bq = boundary_sampling(g, 64)
    pts_in = np.array([[0.5, 0.5, 0.5], [0.3, 0.4, 0.6], [0.25, 0.7, 0.3]])
    pts_out = np.array([[1.4, 0.5, 0.5], [-0.3, 0.2, 0.8]])
    B_in = IO.cauchy_boundary(KernelSpec("cauchy"), bq, np.ones(len(bq)), pts_in)
    B_out = IO.cauchy_boundary(KernelSpec("cauchy"), bq, np.ones(len(bq)), pts_out)
    assert np.max(np.abs(B_in[:, 0] - 1.0)) <= 1e-3
    assert np.max(np.abs(B_out)) <= 1e-3


def test_cauchy_boundary_reproduces_linear_monogenic():
    g = BoxGrid.unit_cube(16)
    bq = boundary_sampling(g, 64)

    def wfn(p):
        p = np.atleast_2d(p)
        out = np.zeros((p.shape[0], 8))
        out[:, 1] = p[:, 1]
        out[:, 2] = p[:, 0]
        return out

    pts = np.array([[0.4, 0.55, 0.51], [0.7, 0.3, 0.4]])
    B = IO.cauchy_boundary(KernelSpec("cauchy"), bq, wfn(bq.positions), pts)
    assert np.max(np.abs(B - wfn(pts))) <= 2e-3


def test_cauchy_boundary_reproduces_exterior_pole_kernel():
    # w = E(. - x0) with an exterior pole is monogenic in the box
    g = BoxGrid.unit_cube(16)
    bq = boundary_sampling(g, 96)
    x0 = np.array([1.8, 0.4, 0.6])

    def wfn(p):
        return vector_to_array(cauchy_E_components(np.atleast_2d(p) - x0))

    pts = np.array([[0.5, 0.5, 0.5], [0.3, 0.6, 0.4]])
    B = IO.cauchy_boundary(KernelSpec("cauchy"), bq, wfn(bq.positions), pts)
    ref = wfn(pts)
    assert np.max(np.abs(B - ref)) <= 5e-3 * np.max(np.abs(ref))


def test_cauchy_boundary_rejects_near_boundary_points():
    # a point close to the boundary, and one exactly on a face sample
    g = BoxGrid.unit_cube(16)
    bq = boundary_sampling(g)
    for kernel in FAMILIES:
        for x in ([0.001, 0.5, 0.5], bq.positions[17]):
            with pytest.raises(ValueError, match="face-cell diameter"):
                IO.cauchy_boundary(kernel, bq, np.ones(len(bq)), [x])


@pytest.mark.parametrize("origin, extent, resolution", [
    ([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [10, 10, 10]),
    ([0.2, -0.5, 1.0], [1.0, 2.0, 0.5], [9, 13, 11]),
    ([-1.5, 0.3, 2.0], [0.6, 1.7, 2.4], [12, 8, 15]),
])
@pytest.mark.parametrize("cells", [None, 1, 5, 16])
def test_normal_fold_matches_grade1_product(rng, origin, extent, resolution, cells):
    # the face blocks tile the samples in (axis, side) order with normal
    # sign * e_axis, and the block shuffle is the Clifford product eta v
    bq = boundary_sampling(BoxGrid(origin, extent, resolution), cells)
    assert [(axis, sign) for axis, sign, _ in bq.face_blocks] == [
        (axis, sign) for axis in range(3) for sign in (-1.0, 1.0)]
    stops = [0] + [rows.stop for _, _, rows in bq.face_blocks]
    assert [rows.start for _, _, rows in bq.face_blocks] == stops[:-1]
    assert stops[-1] == len(bq)
    for axis, sign, rows in bq.face_blocks:
        assert np.all(bq.normals[rows] == sign * np.eye(3)[axis])
    # the fold works in place on a (m, cases, 8) buffer, case by case
    density = rng.normal(size=(len(bq), 2, 8))
    folded = density.copy()
    IO._normal_fold(bq, folded)
    for case in range(2):
        assert np.array_equal(folded[:, case],
                              gp_array(vector_to_array(bq.normals), density[:, case]))


def oracle_boundary(kernel, bq, trace, x):
    """Face-by-face terms K eta v w (grade-1 kernels) or k v w as stacked Clifford products.

    Returns the sum and the matching sum of absolute term coefficients,
    the scale that rounding is measured against.
    """
    rho = trace if trace.ndim == 2 else np.pad(trace[:, None], ((0, 0), (0, 7)))
    terms = kernel_terms(kernel, bq.positions - x)
    if kernel.grade1:
        terms = gp_array(terms, vector_to_array(bq.normals))
    terms = gp_array(terms, rho) * bq.weights[:, None]
    return terms.sum(axis=0), np.abs(terms).sum(axis=0)


@settings(max_examples=25, deadline=None)
@given(
    kernel=kernel_specs,
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.8, 1.6), min_size=3, max_size=3),
    resolution=st.lists(st.integers(9, 11), min_size=3, max_size=3),
    inside=st.lists(st.floats(0.4, 0.6), min_size=3, max_size=3),
    outside=st.lists(st.sampled_from([-0.8, 0.5, 1.8]), min_size=3, max_size=3)
    .filter(lambda u: u != [0.5, 0.5, 0.5]),
    scalar_trace=st.booleans(),
    cases=st.integers(2, 3),
    seed=st.integers(0, 2**16),
)
def test_cauchy_boundary_matches_face_by_face_oracle(
    kernel, origin, extent, resolution, inside, outside, scalar_trace, cases, seed
):
    # anisotropic box, per-axis face cells from the resolution, one interior
    # and one exterior point at least a face-cell diameter off the boundary;
    # each case of a stack of traces is its own single-trace call
    g = BoxGrid(origin, extent, resolution)
    bq = boundary_sampling(g)
    rng = np.random.default_rng(seed)
    traces = rng.normal(size=(cases, len(bq)) if scalar_trace else (cases, len(bq), 8))
    pts = g.origin + g.extent * np.array([inside, outside])
    stacked = IO.cauchy_boundary(kernel, bq, traces, pts)
    assert stacked.shape == (cases, 2, 8)
    for trace, stacked_rows in zip(traces, stacked):
        got = IO.cauchy_boundary(kernel, bq, trace, pts)
        assert got.shape == (2, 8)
        for x, row, stacked_row in zip(pts, got, stacked_rows):
            want, magnitude = oracle_boundary(kernel, bq, trace, x)
            bound = 1e-13 * magnitude.sum() + 1e-300
            assert np.all(np.abs(row - want) <= bound)
            assert np.all(np.abs(stacked_row - row) <= bound)


# -- borel-pompeiu ------------------------------------------------------------------


def borel_pompeiu_residual(v, pts, trace_fn, boundary):
    """Per-point max-coefficient norm of the Borel-Pompeiu residual
    T[Dv](x) + int_bdry E(y - x) eta v ds - (v(x) if interior), with the trace
    and v(x) from the closed form trace_fn of v."""
    T = IO.teodorescu(F.dirac_D(v), pts.points)
    B = IO.cauchy_boundary(KernelSpec("cauchy"), boundary, trace_fn(boundary.positions),
                           pts.points)
    target = np.where(pts.is_interior[:, None], trace_fn(pts.points), 0.0)
    return np.max(np.abs(T + B - target), axis=-1)


def test_borel_pompeiu_constant_field():
    g = BoxGrid.unit_cube(16)

    def cfn(p):
        p = np.atleast_2d(p)
        out = np.zeros((p.shape[0], 8))
        out[:, 0] = 2.0
        return out

    v = MultivectorField(g, cfn(g.coords().reshape(-1, 3)).reshape(16, 16, 16, 8))
    pts = IO.EvaluationSet.build(g, 4, 4, margin=0.2, seed=2, snap_to_centers=True)
    res = borel_pompeiu_residual(v, pts, trace_fn=cfn, boundary=boundary_sampling(g, 64))
    assert np.max(res) <= 2e-3 * 2.0


def test_borel_pompeiu_quadratic_refinement():
    errs = []
    for r in (16, 32):
        g = BoxGrid.unit_cube(r)
        v = MultivectorField(
            g, quadratic_trace(g.coords().reshape(-1, 3)).reshape(r, r, r, 8)
        )
        pts = IO.EvaluationSet.build(g, 8, 8, margin=0.2, seed=11, snap_to_centers=True)
        res = borel_pompeiu_residual(
            v, pts, trace_fn=quadratic_trace, boundary=boundary_sampling(g, 64)
        )
        rel = res / v.max_norm()
        errs.append(np.sqrt(np.mean(rel[pts.is_interior] ** 2)))
        assert np.max(rel[~pts.is_interior]) <= 0.02
        assert np.max(rel[pts.is_interior]) <= 0.02
    assert errs[0] / errs[1] >= 1.8



# -- s_alpha ---------------------------------------------------------------------------


def test_s_alpha_zero_coefficient_is_identity():
    g = BoxGrid.unit_cube(12)
    rng = np.random.default_rng(7)
    w = MultivectorField(g, rng.normal(size=(12, 12, 12, 8)))
    S = IO.s_alpha(w, MultivectorField.zero(g))
    assert np.max(np.abs(S.values - F.cell_average(w.values))) <= 1e-14


def test_s_alpha_linearity():
    g = BoxGrid.unit_cube(12)
    rng = np.random.default_rng(8)
    w1 = MultivectorField(g, rng.normal(size=(12, 12, 12, 8)))
    w2 = MultivectorField(g, rng.normal(size=(12, 12, 12, 8)))
    alpha = MultivectorField.from_vector(
        g, np.broadcast_to([0.0, 0.0, 1.0], (12, 12, 12, 3))
    )
    S12 = IO.s_alpha(w1 + w2, alpha)
    S1 = IO.s_alpha(w1, alpha)
    S2 = IO.s_alpha(w2, alpha)
    w1d = F.cell_average(w1.values)
    w2d = F.cell_average(w2.values)
    lhs = S12.values - w1d - w2d
    rhs = (S1.values - w1d) + (S2.values - w2d)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_s_alpha_produces_monogenic_field():
    errs = []
    for r in (16, 32, 64):
        g = BoxGrid.unit_cube(r)
        X = g.coords()
        f = np.exp(X[..., 2])
        w = MultivectorField.from_scalar(g, f)
        alpha = MultivectorField.from_vector(
            g, np.broadcast_to([0.0, 0.0, 1.0], tuple(g.resolution) + (3,))
        )
        DS = F.dirac_D(IO.s_alpha(w, alpha))
        depth = max(2, round(0.2 * (r - 2)))
        err = np.max(np.abs(DS.values[F.interior_slices(depth)]))
        errs.append(err / np.exp(1.0))  # grad f sup is e on the unit box
    assert errs[1] <= 0.03
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def test_s_alpha_grid_mismatch():
    g1 = BoxGrid.unit_cube(12)
    g2 = BoxGrid.unit_cube(16)
    with pytest.raises(ValueError):
        IO.s_alpha(MultivectorField.zero(g1), MultivectorField.zero(g2))
