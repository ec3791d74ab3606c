"""Solver and DtN tests: discrete oracles, weak-form properties and the
DtN interrelation."""

import gc
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

import oracles as O

from vekua_lab import cli
from vekua_lab import fields as F
from vekua_lab import pde as P
from vekua_lab.fields import BoxGrid
from vekua_lab.harness import default_seed
from vekua_lab.vekua import ConductivityProfile, make_profile


def grid16():
    return BoxGrid.unit_cube(16)


def ones(g):
    return np.ones(tuple(g.resolution))


# -- solvers -------------------------------------------------------------------


def test_conductivity_reproduces_linear():
    g = grid16()
    X = g.coords()
    u = P.DirichletOperator(g, sigma=ones(g)).solve(X[..., 0])
    assert np.max(np.abs(u - X[..., 0])) <= 1e-11


def test_conductivity_constant_trace():
    g = grid16()
    u = P.DirichletOperator(g, sigma=2.0 * ones(g)).solve(np.full(tuple(g.resolution), 3.7))
    assert np.max(np.abs(u - 3.7)) <= 1e-11


def test_conductivity_exponential_family():
    g = BoxGrid.unit_cube(32)
    X = g.coords()
    p = ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    exact = -np.exp(-2.0 * X[..., 2]) / 2.0
    u = P.DirichletOperator(g, sigma=p.f**2).solve(exact)
    assert np.max(np.abs(u - exact)) <= 0.02 * np.max(np.abs(exact))


def test_conductivity_rejects_nonpositive_coefficient():
    g = grid16()
    bad = ones(g)
    bad[3, 3, 3] = -1.0
    with pytest.raises(ValueError):
        P.DirichletOperator(g, sigma=bad).solve(ones(g))


@pytest.mark.parametrize("name", ["sigma", "q"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_operator_rejects_non_finite_coefficients(name, bad):
    # rejected at construction, naming the coefficient, with no warning on
    # the way: not at the first solve as a SolverError after 0 iterations
    g = grid16()
    coefficient = ones(g)
    coefficient[3, 4, 5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"coefficient {name} must be finite"):
            P.DirichletOperator(g, **{name: coefficient})


def test_schrodinger_harmonic_case():
    g = grid16()
    X = g.coords()
    w = P.DirichletOperator(g, q=np.zeros(tuple(g.resolution))).solve(X[..., 0])
    assert np.max(np.abs(w - X[..., 0])) <= 1e-11


def test_schrodinger_exponential_oracle():
    g = BoxGrid.unit_cube(32)
    X = g.coords()
    lam = np.array([0.0, 0.0, 1.0])
    exact = np.exp(X @ lam)
    w = P.DirichletOperator(g, q=np.full(tuple(g.resolution), 1.0)).solve(exact)
    assert np.max(np.abs(w - exact)) <= 0.02 * np.max(np.abs(exact))


def test_schrodinger_cgo_smoke_case():
    # harmonic exponential-oscillatory solution, q = 0
    g = BoxGrid.unit_cube(24)
    X = g.coords()
    s = 1.0
    exact = np.exp(s * X[..., 0]) * np.cos(s * X[..., 1])
    w = P.DirichletOperator(g, q=np.zeros(tuple(g.resolution))).solve(exact)
    assert np.max(np.abs(w - exact)) <= 5e-3 * np.max(np.abs(exact))


def test_solver_factorization_consistency():
    # -div(f^2 grad(w0/f)) = f (-Delta + q_f) w0: the two Dirichlet solvers
    # fed consistent data must agree nodewise at stencil order
    errs = []
    for r in (16, 32):
        g = BoxGrid.unit_cube(r)
        X = g.coords()
        p = ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
        trace = np.exp(X[..., 2]) + 0.3 * X[..., 0]
        w0_schrodinger = P.DirichletOperator(g, q=p.q).solve(trace)
        w0_conductivity = p.f * P.DirichletOperator(g, sigma=p.f**2).solve(trace / p.f)
        errs.append(
            np.max(np.abs(w0_schrodinger - w0_conductivity)) / np.max(np.abs(trace))
        )
    assert errs[-1] <= 5e-3
    assert errs[0] / errs[-1] >= 2.0


def test_poisson_with_volume_source():
    # -Delta u = 6 with the exact quadratic boundary trace
    g = grid16()
    X = g.coords()
    exact = -(X[..., 0] ** 2 + X[..., 1] ** 2 + X[..., 2] ** 2)
    u = P.DirichletOperator(g).solve(exact, rhs=np.full(tuple(g.resolution), 6.0))
    assert np.max(np.abs(u - exact)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["sigma", "q"]),
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_matrix_free_apply_matches_assembled_node_matrix(kind, origin, extent, resolution,
                                                         seed):
    # the solver's interior apply is K_II x and trace_rhs is -K_IB t, both
    # through the node flux, against the seven-band assembly
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    coefficient = np.exp(np.sin(X @ rng.normal(size=3)))
    op = (P.DirichletOperator(g, sigma=coefficient) if kind == "sigma"
          else P.DirichletOperator(g, q=coefficient))
    K_II, K_IB = O.node_matrix_blocks(op)
    x = rng.normal(size=K_II.shape[0])
    trace = rng.normal(size=tuple(g.resolution))
    want_apply = K_II @ x
    want_rhs = -(K_IB @ trace[~O.interior_mask(g)])
    assert np.linalg.norm(op._apply(x) - want_apply) <= 1e-14 * np.linalg.norm(want_apply)
    assert np.linalg.norm(op.trace_rhs(trace) - want_rhs) <= 1e-14 * np.linalg.norm(want_rhs)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["sigma", "q"]),
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_interior_flux_is_the_node_flux_on_interior_rows(kind, origin, extent, resolution,
                                                         seed):
    # the solver's interior rows take each node's operations in the node
    # flux's order, so they equal its interior rows bit for bit: `_apply`
    # on the interior of a random U, and `trace_rhs` (the layer next to the
    # boundary alone) on its boundary
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    coefficient = np.exp(np.sin(X @ rng.normal(size=3)))
    op = (P.DirichletOperator(g, sigma=coefficient) if kind == "sigma"
          else P.DirichletOperator(g, q=coefficient))
    inner = F.interior_slices(1)
    U = rng.normal(size=tuple(g.resolution))
    interior, boundary = U.copy(), U.copy()
    interior[~O.interior_mask(g)] = 0.0
    boundary[inner] = 0.0
    assert np.array_equal(op._apply(U[inner].ravel()), op._node_flux(interior)[inner].ravel())
    assert np.array_equal(op.trace_rhs(U), -op._node_flux(boundary)[inner].ravel())


def _coefficients(g, case):
    """(sigma, q) of a conductivity, a Schrodinger or a unit operator on g."""
    X = (g.coords() - g.origin) / g.extent
    smooth = np.sin(X @ [1.3, -0.7, 0.4])
    return {"sigma": (np.exp(0.8 * smooth + 0.3 * X[..., 2]), None),
            "q": (None, 20.0 * (1.0 + 0.5 * smooth)),
            "unit": (None, None)}[case]


@pytest.mark.parametrize("case", ["sigma", "q", "unit"])
def test_solver_workspace_matches_the_tensordot_and_out_of_place_oracles(case):
    # the copy-free sine contractions and the in-place CG updates give bit for
    # bit the values of tensordot transforms and new arrays per update, on an
    # anisotropic box; cg leaves the caller's b as it was
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [13, 10, 12])
    sigma, q = _coefficients(g, case)
    op = P.DirichletOperator(g, sigma=sigma, q=q)
    rng = np.random.default_rng(7)
    r = rng.normal(size=int(np.prod(op.shape)))
    assert np.array_equal(op._precondition(r), O.liouville_sine_preconditioner(op, r))
    X = g.coords()
    b = op.trace_rhs(np.cos(X @ [0.9, -1.1, 0.6]) + X[..., 0])
    given = b.copy()
    x, iterations = P.cg(op._apply, b, op._precondition)
    want, want_iterations = O.cg_out_of_place(
        op._apply, b, lambda v: O.liouville_sine_preconditioner(op, v))
    assert iterations == want_iterations >= 1
    assert np.array_equal(x, want)
    assert np.array_equal(b, given)


@pytest.mark.parametrize("q", [False, True])
def test_unit_sigma_is_a_broadcast_of_the_transverse_weights(q):
    # without sigma the coefficient and edge weights are read-only views of
    # at most 2-d data, and every operation gives bit for bit what explicit
    # ones give
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    res = tuple(g.resolution)
    potential = _coefficients(g, "q")[1] if q else None
    unit = P.DirichletOperator(g, q=potential)
    ones_op = P.DirichletOperator(g, sigma=np.ones(res), q=potential)
    assert unit.sigma.shape == res and unit.sigma.strides == (0, 0, 0)
    for a, (w, want) in enumerate(zip(unit.edge_weights, ones_op.edge_weights)):
        assert w.shape == want.shape and w.strides[a] == 0 and not w.flags.writeable
        assert np.array_equal(w, want)
    rng = np.random.default_rng(11)
    U = rng.normal(size=res)
    x = U[F.interior_slices(1)].ravel()
    assert np.array_equal(unit._apply(x), ones_op._apply(x))
    assert np.array_equal(unit.trace_rhs(U), ones_op.trace_rhs(U))
    assert np.array_equal(unit._node_flux(U), ones_op._node_flux(U))
    assert np.array_equal(unit.solve(U), ones_op.solve(U))


def test_preconditioner_is_built_by_the_first_solve_only():
    # a form's harmonic operator is never solved and builds no preconditioner
    g = BoxGrid([0.0, -0.3, 0.2], [1.0, 0.8, 1.1], [9, 10, 8])
    form = P.DtnForm.conductivity(make_profile(g, {"kind": "exponential"}))
    assert "_preconditioner" not in vars(form.op)
    form.matrix(cli._trace_basis(g, 3, 2024))
    assert "_preconditioner" in vars(form.op)
    assert "_preconditioner" not in vars(form._harmonic)


def _dirichlet_eigenvalues(g):
    """Sorted eigenvalues of the interior -Delta_h on a box grid."""
    nus = []
    for r, h in zip(g.resolution, g.spacing):
        k = np.arange(1, r - 1)
        nus.append((2.0 - 2.0 * np.cos(np.pi * k / (r - 1))) / h**2)
    return np.sort((nus[0][:, None, None] + nus[1][None, :, None]
                    + nus[2][None, None, :]).ravel())


@settings(max_examples=30, deadline=None)
@given(
    case=st.sampled_from(["sigma", "q_variable", "q_negative_mean", "q_constant"]),
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
    with_rhs=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_solve_matches_sparse_direct_oracle(case, origin, extent, resolution, with_rhs, seed):
    # anisotropic boxes (6-12 interior nodes per axis); the preconditioned
    # matrix-free solve against a sparse LU of the assembled interior system
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    a, b = rng.normal(size=3), rng.normal(size=3)
    smooth = np.sin(X @ a) * np.cos(X @ b)
    lam_min = _dirichlet_eigenvalues(g)[0]
    if case == "sigma":
        op = P.DirichletOperator(g, sigma=np.exp(0.8 * smooth + 0.3 * X[..., 2]))
    elif case == "q_variable":
        op = P.DirichletOperator(g, q=lam_min * (1.0 + smooth))
    elif case == "q_negative_mean":
        # q in [-0.75, -0.25] lam_min: negative mean, operator still SPD
        op = P.DirichletOperator(g, q=-lam_min * (0.5 + 0.25 * smooth))
    else:
        op = P.DirichletOperator(g, q=np.full(tuple(g.resolution), 3.0 * lam_min))
    trace = np.cos(X @ b) + X @ a
    rhs = lam_min * smooth if with_rhs else None
    u = op.solve(trace, rhs=rhs)
    inner = F.interior_slices(1)
    K_II, K_IB = O.node_matrix_blocks(op)
    rhs_b = -(K_IB @ trace[~O.interior_mask(g)]) + (0.0 if rhs is None else rhs[inner].ravel())
    x = u[inner].ravel()
    assert np.linalg.norm(K_II @ x - rhs_b) <= 1e-10 * np.linalg.norm(rhs_b)
    want = scipy.sparse.linalg.spsolve(K_II.tocsc(), rhs_b)
    assert np.linalg.norm(x - want) <= 1e-9 * np.linalg.norm(want)
    mask = np.ones(tuple(g.resolution), dtype=bool)
    mask[inner] = False
    assert np.array_equal(u[mask], trace[mask])


class _CountingCg:
    """Stands in for the `spla` namespace inside pde, recording the CG
    iteration count of every solve; the package's own cg, saved when this
    is built (before the monkeypatch), does the solving."""

    def __init__(self):
        self.counts = []
        self._cg = P.spla.cg

    def cg(self, *args, callback=None, **kwargs):
        self.counts.append(0)

        def count(xk):
            self.counts[-1] += 1
            if callback is not None:
                callback(xk)

        return self._cg(*args, callback=count, **kwargs)


@pytest.mark.parametrize("kind, profile, bound", [
    ("conductivity", "exponential", 8),
    ("conductivity", "quadratic_z", 8),
    ("schrodinger", "exponential", 1),  # q constant
    ("schrodinger", "linear_z", 1),  # f linear: q = 0
])
def test_solve_iteration_counts(monkeypatch, kind, profile, bound):
    linalg = _CountingCg()
    monkeypatch.setattr(P, "spla", linalg)
    g = BoxGrid.unit_cube(24)
    p = make_profile(g, {"kind": profile})
    form = P.DtnForm.conductivity(p) if kind == "conductivity" else P.DtnForm.schrodinger(p)
    traces = cli._trace_basis(g, 4, 2024)
    for trace in traces:
        form.solution(trace)
    assert len(linalg.counts) == 4 and all(1 <= n <= bound for n in linalg.counts)


def test_dtn_solves_each_operator_and_trace_once(monkeypatch):
    # a pairing solves only its first trace, with the form's operator, once: a
    # repeated pairing solves nothing, and the swapped pairing solves the other
    # trace
    linalg = _CountingCg()
    monkeypatch.setattr(P, "spla", linalg)
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    form = P.DtnForm.conductivity(make_profile(g, {"kind": "quadratic_z"}))
    phi, psi = cli._trace_basis(g, 2, 2024)
    first = form.pair(phi, psi)
    assert len(linalg.counts) == 1
    assert form.pair(phi, psi) == first
    assert len(linalg.counts) == 1
    swapped = form.pair(psi, phi)
    assert len(linalg.counts) == 2
    assert abs(swapped - first) <= 1e-8 * (abs(first) + 1.0)


def test_equal_boundary_values_share_one_read_only_solution(monkeypatch, rng):
    # a solve reads only the boundary of its trace: traces that agree there
    # cost one solve and get the very same array, which nothing may change
    linalg = _CountingCg()
    monkeypatch.setattr(P, "spla", linalg)
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    form = P.DtnForm.conductivity(make_profile(g, {"kind": "quadratic_z"}))
    trace = cli._trace_basis(g, 4, 2024)[3]
    other = trace.copy()
    other[F.interior_slices(1)] = rng.normal(size=other[F.interior_slices(1)].shape)
    U = form.solution(trace)
    assert form.solution(other) is U
    assert form.solution(np.asfortranarray(other)) is U
    assert len(linalg.counts) == 1
    assert not U.flags.writeable
    with pytest.raises(ValueError):
        U[0, 0, 0] = 1.0


def test_pairing_matrix_applies_one_node_flux_per_row(monkeypatch):
    # `matrix` holds U fixed along a row, so the one kept flux serves the
    # whole row: k flux evaluations for k^2 entries, and pairings with a new
    # U replace the kept flux instead of adding to it
    g = BoxGrid([0.0, -0.3, 0.2], [1.0, 0.8, 1.1], [9, 10, 8])
    form = P.DtnForm.conductivity(make_profile(g, {"kind": "exponential"}))
    traces = cli._trace_basis(g, 5, 2024)
    # solve first, so that only pairings reach the node flux
    for trace in traces:
        form.solution(trace)
    applied = []
    flux = form.op._node_flux
    monkeypatch.setattr(form.op, "_node_flux", lambda U: applied.append(U) or flux(U))
    form.matrix(traces)
    assert len(applied) == 5
    form.matrix(traces[:2])
    assert len(applied) == 7
    assert form._flux[0] is form.solution(traces[1])


def test_pairing_matrix_solves_while_no_flux_is_kept(monkeypatch):
    # the first row fetches every solution before its first pairing, so no
    # solve overlaps a kept flux
    g = BoxGrid([0.0, -0.3, 0.2], [1.0, 0.8, 1.1], [9, 10, 8])
    form = P.DtnForm.conductivity(make_profile(g, {"kind": "exponential"}))
    kept = []
    solve = form.op.solve
    monkeypatch.setattr(form.op, "solve", lambda trace: kept.append(form._flux[0]) or solve(trace))
    form.matrix(cli._trace_basis(g, 4, 2024))
    assert kept == [None] * 4


def test_operator_and_form_are_freed_without_the_cyclic_collector():
    # nothing the solver builds may point back at its operator from the
    # operator itself: with the cyclic collector off, dropping the last
    # reference frees an operator after a solve and a form after `matrix`
    g = BoxGrid([0.0, -0.3, 0.2], [1.0, 0.8, 1.1], [9, 10, 8])
    traces = cli._trace_basis(g, 2, 2024)
    enabled = gc.isenabled()
    gc.disable()
    try:
        op = P.DirichletOperator(g, sigma=make_profile(g, {"kind": "exponential"}).f ** 2)
        op.solve(traces[0])
        form = P.DtnForm.conductivity(make_profile(g, {"kind": "exponential"}))
        form.matrix(traces)
        refs = [weakref.ref(op), weakref.ref(form), weakref.ref(form.op)]
        del op, form
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        if enabled:
            gc.enable()


def test_solve_poisson_takes_one_iteration(monkeypatch):
    linalg = _CountingCg()
    monkeypatch.setattr(P, "spla", linalg)
    g = BoxGrid([0.5, -1.0, 0.0], [1.0, 2.0, 0.5], [10, 14, 12])
    X = g.coords()
    P.DirichletOperator(g).solve(X[..., 1] ** 2, rhs=np.sin(X[..., 0]) + 1.0)
    assert linalg.counts == [1]


def test_nan_trace_raises_at_once():
    # a NaN on the boundary reaches the right-hand side: the solve stops at
    # its first inner product, not after every allowed iteration
    g = BoxGrid.unit_cube(24)
    trace = np.zeros(tuple(g.resolution))
    trace[0, 5, 7] = np.nan
    with pytest.raises(P.SolverError, match=r"after [012] iterations at relative residual nan"):
        P.DirichletOperator(g).solve(trace)


@pytest.mark.parametrize("apply, precondition", [
    pytest.param(lambda x: -x, lambda r: r, id="negative-curvature"),
    pytest.param(lambda x: 0.0 * x, lambda r: r, id="zero-curvature"),
    pytest.param(lambda x: x, lambda r: 0.0 * r, id="zero-rho"),
    pytest.param(lambda x: x, lambda r: np.full_like(r, np.inf), id="infinite-rho"),
])
def test_cg_stops_at_a_breakdown(apply, precondition):
    # no division by a zero or non-finite inner product, and no iterate past it
    calls = []
    x, iterations = P.cg(apply, np.ones(5), precondition, callback=calls.append)
    assert (iterations, calls) == (0, [])
    assert np.array_equal(x, np.zeros(5))


def test_cg_solves_a_diagonal_system():
    d = np.linspace(1.0, 3.0, 7)
    b = np.cos(np.arange(7.0))
    x, iterations = P.cg(lambda v: d * v, b, lambda r: r)
    assert 1 <= iterations <= 7
    assert np.allclose(d * x, b, rtol=0.0, atol=1e-12)


def test_unsolvable_indefinite_operator_raises():
    # q = -(second-smallest eigenvalue of -Delta_h): the operator is
    # indefinite (the lowest mode goes negative) and singular, and the trace
    # x1 excites a null mode, so no nodal field meets the residual target
    g = BoxGrid.unit_cube(8)
    mu = _dirichlet_eigenvalues(g)
    q = np.full(tuple(g.resolution), -mu[1])
    result = None
    with pytest.raises(P.SolverError, match=r"after \d+ iterations at relative residual"):
        result = P.DirichletOperator(g, q=q).solve(g.coords()[..., 0])
    assert result is None


# -- extensions ---------------------------------------------------------------------


def test_coons_extension_interpolates_boundary():
    g = grid16()
    X = g.coords()
    data = np.sin(2 * X[..., 0]) + X[..., 1] * X[..., 2]
    ext = P.coons_extension(g, data)
    for axis in range(3):
        for side in (0, -1):
            slab = tuple(side if b == axis else slice(None) for b in range(3))
            assert np.max(np.abs(ext[slab] - data[slab])) <= 1e-12


# -- weak DtN forms -------------------------------------------------------------------


def test_dtn_energy_linear_trace():
    g = grid16()
    form = P.DtnForm(g, "conductivity", ones(g))
    X = g.coords()
    assert form.pair(X[..., 0], X[..., 0]) == pytest.approx(1.0, abs=1e-12)


def test_dtn_annihilates_constants_both_ways():
    g = grid16()
    p = ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    form = P.DtnForm.conductivity(p)
    X = g.coords()
    psi = np.sin(3 * X[..., 0]) + X[..., 1]
    assert abs(form.pair(ones(g), psi)) <= 1e-10
    assert abs(form.pair(psi, ones(g))) <= 1e-10


def test_dtn_symmetry_random_traces(rng):
    g = grid16()
    p = ConductivityProfile.exponential(g, [0.3, 0.0, 1.0])
    for kind in ("conductivity", "schrodinger"):
        form = (
            P.DtnForm.conductivity(p) if kind == "conductivity" else P.DtnForm.schrodinger(p)
        )
        X = g.coords()
        for _ in range(3):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            phi = np.sin(X @ a) + X @ b
            psi = np.cos(X @ b) - 0.5 * (X @ a) ** 2
            pq = form.pair(phi, psi)
            qp = form.pair(psi, phi)
            assert abs(pq - qp) <= 1e-8 * (abs(pq) + 1.0)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(["conductivity", "schrodinger"]),
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_dtn_pairing_reads_only_boundary_values(kind, origin, extent, resolution, seed):
    # anisotropic boxes: the pairing never reads the interior of its second
    # trace, and by Galerkin orthogonality it is the energy against any
    # extension of that trace's boundary values
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    a, b = rng.normal(size=3), rng.normal(size=3)
    form = P.DtnForm(g, kind, np.exp(np.sin(X @ a)))
    phi = np.sin(X @ a) + X @ b
    psi = np.cos(X @ b) + 0.5 * (X @ a) ** 2
    pairing = form.pair(phi, psi)
    noisy = psi.copy()
    noisy[F.interior_slices(1)] = rng.normal(size=noisy[F.interior_slices(1)].shape)
    assert form.pair(phi, noisy) == pairing
    U = form.solution(phi)
    extensions = {
        "harmonic": P.DirichletOperator(g).solve(psi),
        "coons": P.coons_extension(g, psi),
        "solution": form.solution(psi),
        "as given": psi,
    }
    for name, V in extensions.items():
        assert abs(form.energy(U, V) - pairing) <= 1e-8 * (abs(pairing) + 1.0), name


def test_dtn_schrodinger_flux_oracle():
    # q = |lam|^2, w0 = exp(lam.x): the weak pairing equals the closed-form
    # boundary flux integral of (lam . eta) w0 psi
    g = BoxGrid.unit_cube(32)
    X = g.coords()
    lam = np.array([0.0, 0.0, 1.0])
    p = ConductivityProfile.exponential(g, lam)
    form = P.DtnForm.schrodinger(p)
    w0 = np.exp(X @ lam)
    psi = X[..., 0] + 0.3
    pair_val = form.pair(w0, psi)
    flux = P.boundary_node_pairing(
        g, w0, psi, normal_component=np.broadcast_to(lam, X.shape)
    )
    assert abs(pair_val - flux) <= 0.03 * abs(flux)


def test_dtn_matrix_symmetry():
    g = BoxGrid.unit_cube(8)
    p = ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    form = P.DtnForm.conductivity(p)
    X = g.coords()
    traces = [X[..., 0], X[..., 1], np.sin(X[..., 0] + X[..., 2])]
    M = form.matrix(traces)
    assert np.max(np.abs(M - M.T)) <= 1e-10 * np.max(np.abs(M))


@pytest.mark.parametrize("kind", ["conductivity", "schrodinger"])
def test_dtn_energy_matches_per_edge_formula(rng, kind):
    g = BoxGrid([0.5, -1.0, 0.2], [1.0, 2.0, 0.5], [9, 12, 10])
    X = g.coords()
    coefficient = np.exp(np.sin(X @ rng.normal(size=3)))
    form = P.DtnForm(g, kind, coefficient)
    U, V = rng.normal(size=(2,) + tuple(g.resolution))
    want = O.energy_per_edge(g, form.op, U, V)
    assert form.energy(U, V) == pytest.approx(want, rel=1e-13)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["conductivity", "schrodinger"]),
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_node_flux_energy_matches_per_edge_formula(kind, origin, extent, resolution, seed):
    # |cell| V.K U is the per-edge sum by parts: for a cached solution U
    # (its node flux kept, so the second call reads the kept flux) and for an
    # arbitrary array, whose flux is never kept, so changing it in place
    # changes the value.  Errors are relative to the energy norms, the scale
    # of the form: a(W, V) of two random arrays can cancel to far below it.
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    form = P.DtnForm(g, kind, np.exp(np.sin(X @ rng.normal(size=3))))
    U = form.solution(np.sin(X @ rng.normal(size=3)) + X @ rng.normal(size=3))
    V, W = rng.normal(size=(2,) + tuple(g.resolution))

    def check(first):
        want = O.energy_per_edge(g, form.op, first, V)
        scale = np.sqrt(O.energy_per_edge(g, form.op, first, first)
                        * O.energy_per_edge(g, form.op, V, V))
        assert abs(form.energy(first, V) - want) <= 1e-13 * scale

    check(U)
    check(U)
    check(W)
    W += V
    check(W)


def test_cli_dtn_matrix_matches_per_edge_oracle(tmp_path, capsys):
    assert cli.main(["dtn", "--resolution", "16", "--out", str(tmp_path)]) == 0
    g = BoxGrid.unit_cube(16)
    op = P.DirichletOperator(g, sigma=make_profile(g, {"kind": "exponential"}).f ** 2)
    solutions = [op.solve(trace) for trace in cli._trace_basis(g, 8, default_seed())]
    want = np.array([[O.energy_per_edge(g, op, U, V) for V in solutions] for U in solutions])
    got = np.loadtxt(tmp_path / "dtn_matrix.csv", delimiter=",", skiprows=1)[:, 2]
    assert np.max(np.abs(got.reshape(8, 8) - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["conductivity", "schrodinger"]),
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_energy_is_galerkin_form_of_interior_system(kind, origin, extent, resolution, seed):
    # a(U, V) = |cell| V_I . (K_II U_I + K_IB U_B) for V zero on the boundary,
    # with K the assembled node matrix of the operator
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    form = P.DtnForm(g, kind, np.exp(np.sin(X @ rng.normal(size=3))))
    inner = F.interior_slices(1)
    U = rng.normal(size=tuple(g.resolution))
    V = np.zeros_like(U)
    V[inner] = rng.normal(size=V[inner].shape)
    op = form.op
    K_II, K_IB = O.node_matrix_blocks(op)
    want = g.cell_volume * float(V[inner].ravel() @ (K_II @ U[inner].ravel()
                                                     + K_IB @ U[~O.interior_mask(g)]))
    assert form.energy(U, V) == pytest.approx(want, rel=1e-12)


def test_dtn_invalid_kind():
    g = grid16()
    with pytest.raises(ValueError):
        P.DtnForm(g, "elastic", ones(g))


# -- DtN interrelation -----------------------------------------------------------------


def test_dtn_relation_constant_profile_exact():
    g = grid16()
    p = ConductivityProfile.constant(g, 2.0)
    X = g.coords()
    resid, _ = P.dtn_relation_residuals(p, [X[..., 0]], X[..., 0])[0]
    assert resid <= 1e-8


def test_dtn_relation_exponential_profile():
    residuals = []
    for r in (16, 32):
        g = BoxGrid.unit_cube(r)
        p = ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
        X = g.coords()
        resid, terms = P.dtn_relation_residuals(p, [X[..., 0]], X[..., 0])[0]
        residuals.append(resid)
        assert max(abs(t) for t in terms) > 0.1  # the terms themselves are O(1)
    assert residuals[-1] <= 0.05
    assert residuals[0] / residuals[-1] >= 1.8


def test_dtn_relation_zero_trace():
    g = grid16()
    p = ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    X = g.coords()
    resid, terms = P.dtn_relation_residuals(p, [np.zeros(tuple(g.resolution))], X[..., 0])[0]
    assert all(abs(t) <= 1e-12 for t in terms)


# -- boundary node pairing ----------------------------------------------------------------


def test_boundary_node_pairing_area():
    # v = 2x - 1 has v . eta = 1 on every face of the unit cube
    g = grid16()
    unit_flux = 2.0 * g.coords() - 1.0
    assert P.boundary_node_pairing(g, ones(g), ones(g), unit_flux) == pytest.approx(6.0, rel=1e-12)


def test_boundary_node_pairing_flux_weight():
    # int over the boundary of (e3 . eta) = 0 by symmetry
    g = grid16()
    field = np.broadcast_to([0.0, 0.0, 1.0], tuple(g.resolution) + (3,))
    val = P.boundary_node_pairing(g, ones(g), ones(g), normal_component=field)
    assert abs(val) <= 1e-12
