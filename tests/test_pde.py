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
from vekua_lab.vekua import PROFILE_FAMILIES, ConductivityProfile, make_profile


def grid16():
    return BoxGrid.unit_cube(16)


def ones(g):
    return np.ones(tuple(g.resolution))


# the DirichletOperator keyword that takes the coefficient of each DtN kind
COEFFICIENT = {"conductivity": "sigma", "schrodinger": "q"}


def node_flux_energy(op, U, V):
    """a(U, V) = |cell| V.K U of any two nodal arrays, through the operator's
    full node flux: the form a `DtnForm` reads on the boundary alone."""
    return op.grid.cell_volume * P._dot(V.ravel(), O.node_flux(op, U).ravel())


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


@pytest.mark.parametrize("rate", [354.0, -354.0])
def test_operator_rejects_a_sigma_whose_face_averages_leave_the_float_range(rate):
    # sigma = exp(2 rate x1) is finite and positive, but 2 s t in its
    # harmonic face averages overflows (or underflows to zero): refused at
    # construction, with no warning, not left to the solver
    g = grid16()
    sigma = np.exp(2.0 * rate * g.coords()[..., 0])
    assert np.all(np.isfinite(sigma) & (sigma > 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="harmonic face average"):
            P.DirichletOperator(g, sigma=sigma)


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


def _random_operator(kind, origin, extent, resolution, seed):
    """A DirichletOperator with a random smooth sigma, q or unit coefficient
    on an arbitrary box, and a random nodal array U on its grid."""
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    coefficient = np.exp(np.sin(X @ rng.normal(size=3)))
    op = P.DirichletOperator(g, **({} if kind == "unit" else {kind: coefficient}))
    return op, rng.normal(size=tuple(g.resolution))


BOXES = dict(
    kind=st.sampled_from(["sigma", "q", "unit"]),
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=40, deadline=None)
@given(region=st.lists(st.sampled_from(["every", "interior", "faces"]), min_size=3, max_size=3),
       **BOXES)
def test_rows_are_the_node_flux_on_their_region(kind, region, origin, extent, resolution, seed):
    # the one flux engine: `_rows` takes each node's operations in the full
    # node flux's order, so in any region (a kind per axis) it is the
    # oracle's rows byte for byte
    op, U = _random_operator(kind, origin, extent, resolution, seed)
    region = tuple({"every": slice(None), "interior": slice(1, -1),
                    "faces": slice(0, None, int(n) - 1)}[name]
                   for name, n in zip(region, op.grid.resolution))
    assert op._rows(U, region).tobytes() == O.node_flux(op, U)[region].tobytes()


@settings(max_examples=20, deadline=None)
@given(**BOXES)
def test_interior_flux_is_the_node_flux_on_interior_rows(kind, origin, extent, resolution,
                                                         seed):
    # the solver's interior rows are `_rows` of the interior, so they equal
    # the node flux's interior rows bit for bit: `_apply` on the interior of
    # a random U, and `trace_rhs` (the layer next to the boundary alone) on
    # its boundary, up to the sign of zero
    op, U = _random_operator(kind, origin, extent, resolution, seed)
    inner = F.interior_slices(1)
    interior, boundary = U.copy(), U.copy()
    interior[~O.interior_mask(op.grid)] = 0.0
    boundary[inner] = 0.0
    assert op._apply(U[inner].ravel()).tobytes() == O.node_flux(op, interior)[inner].tobytes()
    assert np.array_equal(op.trace_rhs(U), -O.node_flux(op, boundary)[inner].ravel())


@settings(max_examples=20, deadline=None)
@given(**BOXES)
def test_boundary_flux_is_the_node_flux_on_boundary_rows(kind, origin, extent, resolution, seed):
    # the DtN energy's boundary rows are three `_rows` calls, one per face
    # pair: bit for bit the full flux at every boundary node, in C order,
    # for a random U whose interior is nonzero
    op, U = _random_operator(kind, origin, extent, resolution, seed)
    want = O.node_flux(op, U)[~O.interior_mask(op.grid)]
    assert op.boundary_flux(U).tobytes() == want.tobytes()


def _coefficients(g, case):
    """(sigma, q) of a conductivity, a Schrodinger or a unit operator on g."""
    X = (g.coords() - g.origin) / g.extent
    smooth = np.sin(X @ [1.3, -0.7, 0.4])
    return {"sigma": (np.exp(0.8 * smooth + 0.3 * X[..., 2]), None),
            "q": (None, 20.0 * (1.0 + 0.5 * smooth)),
            "unit": (None, None)}[case]


ANISOTROPIC = ([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [13, 10, 12])


@pytest.mark.parametrize("case", ["sigma", "q", "unit"])
def test_solver_workspace_matches_the_dense_and_out_of_place_oracles(case):
    # the copy-free line-eigenbasis contractions give the preconditioner's
    # dense matrix, assembled from its definition, to rounding, and the
    # in-place CG updates give bit for bit the values of new arrays per
    # update, on an anisotropic box; cg leaves the caller's b as it was
    g = BoxGrid(*ANISOTROPIC)
    sigma, q = _coefficients(g, case)
    op = P.DirichletOperator(g, sigma=sigma, q=q)
    rng = np.random.default_rng(7)
    r = rng.normal(size=int(np.prod(op.shape)))
    want = O.line_eigenbasis_preconditioner(op) @ r
    assert np.linalg.norm(op._precondition(r) - want) <= 1e-12 * np.linalg.norm(want)
    X = g.coords()
    b = op.trace_rhs(np.cos(X @ [0.9, -1.1, 0.6]) + X[..., 0])
    given = b.copy()
    x, iterations = P.cg(op._apply, b, op._precondition)
    want, want_iterations = O.cg_out_of_place(op._apply, b, op._precondition)
    assert iterations == want_iterations >= 1
    assert np.array_equal(x, want)
    assert np.array_equal(b, given)


def assert_fast_path(tally, solves):
    """`solves` solves, each the verified preconditioner step: no fallback
    iteration, and every residual at most SOLVER_RTOL."""
    assert tally.solves == solves
    assert tally.fallback_iterations == 0
    assert 0.0 < tally.max_residual <= P.SOLVER_RTOL


@pytest.mark.parametrize("kind", ["conductivity", "schrodinger"])
@pytest.mark.parametrize("spec", [pytest.param({"kind": family}, id=family)
                                  for family in PROFILE_FAMILIES]
                         + [pytest.param({"kind": "exponential", "lam": [0.3, -0.7, 1.1]},
                                         id="exponential-oblique")])
@pytest.mark.parametrize("box", ["cube", "anisotropic"])
def test_every_profile_family_solves_in_one_iteration(kind, spec, box):
    # every family's Liouville-transformed operator is separable by axis, so
    # the line-eigenbasis preconditioner is its exact inverse: each solve is
    # the one preconditioner step x0 = M^-1 b, verified, and no solve falls
    # back to conjugate gradients
    g = BoxGrid.unit_cube(16) if box == "cube" else BoxGrid(*ANISOTROPIC)
    p = make_profile(g, spec)
    op = (P.DirichletOperator(g, sigma=p.f**2) if kind == "conductivity"
          else P.DirichletOperator(g, q=p.q))
    for trace in cli._trace_basis(g, 4, 2024):
        op.solve(trace)
    assert_fast_path(op.tally, solves=4)


@pytest.mark.parametrize("case", ["sigma", "q"])
@pytest.mark.parametrize("box", ["cube", "anisotropic"])
def test_non_separable_coefficients_take_no_more_iterations_than_liouville_sine(case, box):
    # for coefficients that are not separable by axis the line means are an
    # approximation: more than one iteration, but no more than the one global
    # mean of the Liouville-sine preconditioner takes
    g = BoxGrid.unit_cube(32) if box == "cube" else BoxGrid(*ANISOTROPIC)
    sigma, q = _coefficients(g, case)
    op = P.DirichletOperator(g, sigma=sigma, q=q)
    X = g.coords()
    b = op.trace_rhs(np.cos(X @ [0.9, -1.1, 0.6]) + X[..., 0])
    _, iterations = P.cg(op._apply, b, op._precondition)
    _, baseline = P.cg(op._apply, b, lambda v: O.liouville_sine_preconditioner(op, v))
    assert 1 < iterations <= baseline


def test_positive_potential_with_an_indefinite_separable_part_solves():
    # a positive spike: its line means put a negative potential far from the
    # spike, so the Kronecker sum of the line operators is indefinite, and
    # only the eigenvalue floor keeps the preconditioner positive definite
    g = BoxGrid(*ANISOTROPIC)
    X = (g.coords() - g.origin) / g.extent
    q = 3000.0 * np.exp(-np.sum((X - 0.2) ** 2, axis=-1) / (2 * 0.12**2))
    assert np.all(q > 0.0)
    op = P.DirichletOperator(g, q=q)
    assert np.linalg.eigvalsh(O.line_eigenbasis_preconditioner(op))[0] < 0.0
    trace = np.cos(g.coords() @ [0.9, -1.1, 0.6])
    U = op.solve(trace)
    K_II, K_IB = O.node_matrix_blocks(op)
    want = scipy.sparse.linalg.spsolve(K_II.tocsc(), -(K_IB @ trace[~O.interior_mask(g)]))
    assert np.linalg.norm(U[F.interior_slices(1)].ravel() - want) <= 1e-9 * np.linalg.norm(want)


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
    every = (slice(None),) * 3
    assert np.array_equal(unit._rows(U, every), ones_op._rows(U, every))
    assert np.array_equal(unit.solve(U), ones_op.solve(U))


@pytest.mark.parametrize("q", [False, True])
def test_a_unit_sigma_preconditioner_holds_1_over_f_as_a_scalar(q):
    # a unit sigma runs the general f = sqrt(sigma) code, which gives the
    # preconditioner of explicit ones bit for bit, but keeps 1/f as the float
    # 1.0: no interior array of ones lives as long as the operator
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    potential = _coefficients(g, "q")[1] if q else None
    bases, eigenvalues, inv_f = P.DirichletOperator(g, q=potential)._preconditioner
    want_bases, want_eigenvalues, want_inv_f = P.DirichletOperator(
        g, sigma=ones(g), q=potential)._preconditioner
    assert type(inv_f) is float and inv_f == 1.0
    assert np.array_equal(want_inv_f, np.ones(want_inv_f.shape))
    for (basis, _), (want, _) in zip(bases, want_bases):
        assert np.array_equal(basis, want)
    for got, want in zip(eigenvalues, want_eigenvalues):
        assert np.array_equal(got, want)


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


@pytest.mark.parametrize("kind, profile", [
    ("conductivity", "exponential"),
    ("conductivity", "quadratic_z"),
    ("schrodinger", "exponential"),  # q constant
    ("schrodinger", "linear_z"),  # f linear: q = 0
])
def test_dtn_form_solves_take_no_fallback_iteration(kind, profile):
    g = BoxGrid.unit_cube(24)
    p = make_profile(g, {"kind": profile})
    form = P.DtnForm.conductivity(p) if kind == "conductivity" else P.DtnForm.schrodinger(p)
    traces = cli._trace_basis(g, 4, 2024)
    for trace in traces:
        form.solution(trace)
    assert_fast_path(form.op.tally, solves=4)


def _separable_operator(kind):
    """A conductivity, Schrodinger or Poisson operator on the anisotropic box
    whose preconditioner is its exact inverse, and a trace to solve."""
    g = BoxGrid(*ANISOTROPIC)
    p = make_profile(g, {"kind": "quadratic_z"})
    op = {"conductivity": lambda: P.DirichletOperator(g, sigma=p.f**2),
          "schrodinger": lambda: P.DirichletOperator(g, q=p.q),
          "poisson": lambda: P.DirichletOperator(g)}[kind]()
    return op, cli._trace_basis(g, 4, 2024)[3]


@pytest.mark.parametrize("kind", ["conductivity", "schrodinger", "poisson"])
def test_a_separable_solve_applies_the_operator_and_preconditioner_once(monkeypatch, kind):
    # the preconditioner step is the solve, and its check is the interior
    # rows of the very array returned: no `_apply`, no conjugate-gradient
    # iteration
    op, trace = _separable_operator(kind)
    calls = []
    for name in ("_apply", "_precondition"):
        method = getattr(op, name)
        monkeypatch.setattr(op, name, lambda x, _name=name, _method=method:
                            calls.append(_name) or _method(x))
    rows = op._rows
    monkeypatch.setattr(op, "_rows",
                        lambda U, region: calls.append((U, region)) or rows(U, region))
    U = op.solve(trace)
    assert len(calls) == 2 and calls[0] == "_precondition"
    assert calls[1][0] is U and calls[1][1] == F.interior_slices(1)
    assert_fast_path(op.tally, solves=1)


@pytest.mark.parametrize("kind", ["conductivity", "schrodinger", "poisson"])
def test_a_missed_preconditioner_step_falls_back_to_conjugate_gradients(monkeypatch, kind):
    # the check can fail on a separable operator: x0 = M^-1 b off by 1e-6
    # relative at one node misses the residual target, and the solve drops
    # it and gives bit for bit what conjugate gradients from x = 0 give
    op, trace = _separable_operator(kind)
    precondition, first = op._precondition, []

    def perturbed(r):
        x = precondition(r)
        if not first:
            first.append(True)
            x[np.argmax(np.abs(x))] *= 1.0 + 1e-6
        return x

    monkeypatch.setattr(op, "_precondition", perturbed)
    U = op.solve(trace)
    x, iterations = P.cg(op._apply, op.trace_rhs(trace), precondition)
    assert np.array_equal(U[F.interior_slices(1)].ravel(), x)
    assert (op.tally.solves, op.tally.fallback_iterations) == (1, iterations)
    assert iterations >= 1
    assert 0.0 < op.tally.max_residual <= P.SOLVER_RTOL


@pytest.mark.parametrize("case", ["sigma", "q"])
@pytest.mark.parametrize("box", ["cube", "anisotropic"])
def test_a_non_separable_solve_falls_back_to_conjugate_gradients_from_zero(case, box):
    # the preconditioner step misses the residual target; the solve drops it
    # and gives bit for bit what conjugate gradients from x = 0 give
    g = BoxGrid.unit_cube(16) if box == "cube" else BoxGrid(*ANISOTROPIC)
    sigma, q = _coefficients(g, case)
    op = P.DirichletOperator(g, sigma=sigma, q=q)
    X = g.coords()
    trace = np.cos(X @ [0.9, -1.1, 0.6]) + X[..., 0]
    U = op.solve(trace)
    x, iterations = P.cg(op._apply, op.trace_rhs(trace), op._precondition)
    assert np.array_equal(U[F.interior_slices(1)].ravel(), x)
    assert (op.tally.solves, op.tally.fallback_iterations) == (1, iterations)
    assert iterations >= 1
    assert 0.0 < op.tally.max_residual <= P.SOLVER_RTOL


def test_dtn_solves_each_operator_and_trace_once():
    # a pairing solves only its first trace, with the form's operator, once: a
    # repeated pairing solves nothing, and the swapped pairing solves the other
    # trace
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    form = P.DtnForm.conductivity(make_profile(g, {"kind": "quadratic_z"}))
    phi, psi = cli._trace_basis(g, 2, 2024)
    first = form.pair(phi, psi)
    assert form.op.tally.solves == 1
    assert form.pair(phi, psi) == first
    assert form.op.tally.solves == 1
    swapped = form.pair(psi, phi)
    assert form.op.tally.solves == 2
    assert abs(swapped - first) <= 1e-8 * (abs(first) + 1.0)


def test_equal_boundary_values_share_one_read_only_solution(rng):
    # a solve reads only the boundary of its trace: traces that agree there
    # cost one solve and get the very same array, which nothing may change
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    form = P.DtnForm.conductivity(make_profile(g, {"kind": "quadratic_z"}))
    trace = cli._trace_basis(g, 4, 2024)[3]
    other = trace.copy()
    other[F.interior_slices(1)] = rng.normal(size=other[F.interior_slices(1)].shape)
    U = form.solution(trace)
    assert form.solution(other) is U
    assert form.solution(np.asfortranarray(other)) is U
    assert form.op.tally.solves == 1
    assert not U.flags.writeable
    with pytest.raises(ValueError):
        U[0, 0, 0] = 1.0


def _unsampled_boundary_node(form):
    """Flat index of a boundary node whose value the cache key does not hash."""
    sampled = np.zeros(len(form._boundary), bool)
    sampled[form._sample] = True
    return form._boundary[np.flatnonzero(~sampled)[0]]


@pytest.mark.parametrize("change", ["unsampled", "in_place", "signed_zero"])
def test_a_changed_boundary_byte_is_a_cache_miss(change):
    # the key hashes a sample of the boundary values but compares all their
    # bytes: a trace equal to a solved one at every sampled value, the solved
    # trace itself changed in place, and -0.0 against 0.0 each make a solve
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    form = P.DtnForm.conductivity(make_profile(g, {"kind": "quadratic_z"}))
    trace = cli._trace_basis(g, 4, 2024)[3]
    node = _unsampled_boundary_node(form)
    if change == "signed_zero":
        trace.flat[node] = 0.0
    U = form.solution(trace)
    if change == "in_place":
        other = trace
        trace.flat[node] += 1.0
    else:
        other = trace.copy()
        other.flat[node] = -0.0 if change == "signed_zero" else trace.flat[node] + 1.0
        keys = [P._BoundaryKey(t.ravel()[form._boundary], form._sample) for t in (trace, other)]
        assert hash(keys[0]) == hash(keys[1]) and keys[0] != keys[1]
    V = form.solution(other)
    assert V is not U and form.op.tally.solves == 2
    assert V.flat[node] == other.flat[node] and np.signbit(V.flat[node]) == np.signbit(other.flat[node])
    assert form.solution(other) is V and form.op.tally.solves == 2


def _paired_forms(how, monkeypatch, tmp_path):
    """The forms built, the number of boundary flux calls and the region of
    each flux `_rows` call made by a 4-trace pairing matrix, through
    `DtnForm.matrix` (run twice, the second time on 2 of its traces) or a
    `vekua-lab dtn --basis-size 4` export."""
    forms, calls, regions = [], [], []
    init = P.DtnForm.__init__
    monkeypatch.setattr(P.DtnForm, "__init__", lambda self, op: forms.append(self) or init(self, op))
    flux, rows = P.DirichletOperator.boundary_flux, P.DirichletOperator._rows
    monkeypatch.setattr(P.DirichletOperator, "boundary_flux",
                        lambda self, U: calls.append(U) or flux(self, U))
    monkeypatch.setattr(P.DirichletOperator, "_rows",
                        lambda self, U, region: regions.append(region) or rows(self, U, region))
    if how == "matrix":
        g = BoxGrid([0.0, -0.3, 0.2], [1.0, 0.8, 1.1], [9, 10, 8])
        form = P.DtnForm.conductivity(make_profile(g, {"kind": "exponential"}))
        traces = cli._trace_basis(g, 4, 2024)
        form.matrix(traces)
        form.matrix(traces[:2])
    else:
        assert cli.main(["dtn", "--basis-size", "4", "--out", str(tmp_path)]) == 0
    return forms, len(calls), regions


@pytest.mark.parametrize("how", ["matrix", "export"])
def test_pairing_matrix_computes_one_boundary_flux_per_trace(how, monkeypatch, tmp_path):
    # each trace's boundary flux is computed once, when it is solved, and
    # serves every pairing with its solution as U: the flux rows computed
    # are each solve's interior check and each boundary flux's three face
    # pairs, and no full-grid node flux
    forms, calls, regions = _paired_forms(how, monkeypatch, tmp_path)
    assert len(forms) == 1 and forms[0].op.tally.solves == 4
    assert calls == 4
    assert len(regions) == 4 + 4 * 3 and regions.count(F.interior_slices(1)) == 4
    assert (slice(None),) * 3 not in regions


@pytest.mark.parametrize("how", ["matrix", "export"])
def test_each_cached_solution_keeps_one_boundary_flux(how, monkeypatch, tmp_path):
    # a cached entry is the read-only solution, its boundary values and one
    # boundary-sized flux, bit for bit the node flux's boundary rows
    forms, _, _ = _paired_forms(how, monkeypatch, tmp_path)
    form = forms[0]
    assert len(form._solved) == len(form._by_array) == 4
    for solved in form._solved.values():
        assert form._by_array[id(solved.array)] is solved
        assert not solved.array.flags.writeable
        assert solved.boundary.tobytes() == solved.array.ravel()[form._boundary].tobytes()
        assert solved.flux.shape == (len(form._boundary),)
        want = O.node_flux(form.op, solved.array).ravel()[form._boundary]
        assert solved.flux.tobytes() == want.tobytes()


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


def test_solve_poisson_takes_one_iteration():
    # the Poisson operator is separable: one preconditioner step, verified
    g = BoxGrid([0.5, -1.0, 0.0], [1.0, 2.0, 0.5], [10, 14, 12])
    X = g.coords()
    op = P.DirichletOperator(g)
    op.solve(X[..., 1] ** 2, rhs=np.sin(X[..., 0]) + 1.0)
    assert_fast_path(op.tally, solves=1)


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
    form = P.DtnForm(P.DirichletOperator(g, sigma=ones(g)))
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
    # trace, and by Galerkin orthogonality it is the full energy, through the
    # node flux, against any extension of that trace's boundary values
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    a, b = rng.normal(size=3), rng.normal(size=3)
    form = P.DtnForm(P.DirichletOperator(g, **{COEFFICIENT[kind]: np.exp(np.sin(X @ a))}))
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
        for energy in (form.energy(U, V), node_flux_energy(form.op, U, V)):
            assert abs(energy - pairing) <= 1e-8 * (abs(pairing) + 1.0), name


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
    op = P.DirichletOperator(g, **{COEFFICIENT[kind]: coefficient})
    U, V = rng.normal(size=(2,) + tuple(g.resolution))
    want = O.energy_per_edge(g, op, U, V)
    assert node_flux_energy(op, U, V) == pytest.approx(want, rel=1e-13)


def test_energy_refuses_an_array_that_is_not_a_cached_solution():
    # `energy` reads the boundary flux kept with a solution of the form's
    # cache: a copy of one, its trace, another form's solution or an
    # arbitrary array as U is refused, while any V is read on its boundary
    g = BoxGrid([0.0, -0.3, 0.2], [1.0, 0.8, 1.1], [9, 10, 8])
    profile = make_profile(g, {"kind": "exponential"})
    form, other = P.DtnForm.conductivity(profile), P.DtnForm.schrodinger(profile)
    phi, psi = cli._trace_basis(g, 2, 2024)
    U = form.solution(phi)
    assert form.energy(U, psi) == form.pair(phi, psi)
    for bad in (U.copy(), phi, other.solution(phi), np.ones(tuple(g.resolution))):
        with pytest.raises(ValueError, match="needs U to be a solution"):
            form.energy(bad, psi)


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["conductivity", "schrodinger"]),
    origin=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    extent=st.lists(st.floats(0.3, 2.5), min_size=3, max_size=3),
    resolution=st.lists(st.integers(8, 14), min_size=3, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_node_flux_energy_matches_per_edge_formula(kind, origin, extent, resolution, seed):
    # |cell| V.K U is the per-edge sum by parts: through `DtnForm.energy`
    # for a cached solution U (its boundary flux kept with it, and read
    # again by the second call), and through the operator's node flux for
    # an arbitrary array, which keeps nothing, so changing it in place
    # changes the value.  Errors are relative to the energy norms, the scale
    # of the form: a(W, V) of two random arrays can cancel to far below it.
    g = BoxGrid(origin, extent, resolution)
    rng = np.random.default_rng(seed)
    X = (g.coords() - g.origin) / g.extent
    coefficient = np.exp(np.sin(X @ rng.normal(size=3)))
    form = P.DtnForm(P.DirichletOperator(g, **{COEFFICIENT[kind]: coefficient}))
    U = form.solution(np.sin(X @ rng.normal(size=3)) + X @ rng.normal(size=3))
    V, W = rng.normal(size=(2,) + tuple(g.resolution))

    def check(energy, first):
        want = O.energy_per_edge(g, form.op, first, V)
        scale = np.sqrt(O.energy_per_edge(g, form.op, first, first)
                        * O.energy_per_edge(g, form.op, V, V))
        assert abs(energy(first, V) - want) <= 1e-13 * scale

    def on_operator(first, V):
        return node_flux_energy(form.op, first, V)

    check(form.energy, U)
    check(form.energy, U)
    check(on_operator, W)
    W += V
    check(on_operator, W)


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
    coefficient = np.exp(np.sin(X @ rng.normal(size=3)))
    op = P.DirichletOperator(g, **{COEFFICIENT[kind]: coefficient})
    inner = F.interior_slices(1)
    U = rng.normal(size=tuple(g.resolution))
    V = np.zeros_like(U)
    V[inner] = rng.normal(size=V[inner].shape)
    K_II, K_IB = O.node_matrix_blocks(op)
    want = g.cell_volume * float(V[inner].ravel() @ (K_II @ U[inner].ravel()
                                                     + K_IB @ U[~O.interior_mask(g)]))
    assert node_flux_energy(op, U, V) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("kind", ["conductivity", "schrodinger"])
def test_each_dtn_kind_names_the_form_constructor_of_its_coefficient(kind):
    # `vekua-lab dtn --kind` calls getattr(DtnForm, kind): sigma = f^2 for a
    # conductivity form, the profile's q for a Schrodinger form, bit for bit
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    profile = make_profile(g, {"kind": "quadratic_z"})
    op = getattr(P.DtnForm, kind)(profile).op
    if kind == "conductivity":
        assert op.sigma.tobytes() == (profile.f ** 2).tobytes() and op.q is None
    else:
        assert np.array_equal(op.sigma, ones(g)) and op.q.tobytes() == profile.q.tobytes()


def test_cli_dtn_rejects_an_unknown_kind(tmp_path, capsys):
    # --kind names a DtnForm constructor; argparse admits only those names
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["dtn", "--kind", "elastic", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "argument --kind: invalid choice: 'elastic'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# -- DtN interrelation -----------------------------------------------------------------


def test_dtn_relation_constant_profile_exact():
    g = grid16()
    p = ConductivityProfile.polynomial_z(g, 2.0)
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
