"""Harness and CLI tests: configuration handling, report structure and
serialization, registry dispatch, and output files."""

import dataclasses
import json
import math
import os
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vekua_lab import cli, pde, runtime
from vekua_lab import harness as H
from vekua_lab import vekua as V
from vekua_lab.fields import BoxGrid, boundary_values

import oracles as O
from conftest import fresh_python


def test_config_validation():
    with pytest.raises(ValueError):
        H.SuiteConfig(identity="borel_pompeiu", resolutions=(32, 16))
    with pytest.raises(ValueError):
        H.SuiteConfig(identity="borel_pompeiu", interior_rel_tol=-1.0)


@pytest.mark.parametrize("field, value", [("n_interior", 0), ("n_exterior", -1)])
def test_config_rejects_bad_point_counts(field, value):
    with pytest.raises(ValueError, match=field):
        H.SuiteConfig.defaults("borel_pompeiu", **{field: value})


@pytest.mark.parametrize("resolutions", [(), (7,), (4, 16), [6, 12]])
def test_config_rejects_missing_or_coarse_resolutions(resolutions):
    with pytest.raises(ValueError, match="resolutions"):
        H.SuiteConfig.defaults("borel_pompeiu", resolutions=resolutions)
    with pytest.raises(ValueError, match="resolutions"):
        H.run_identity("borel_pompeiu", resolutions=resolutions)


@pytest.mark.parametrize("cells", [-1, 0, 7])
def test_config_rejects_too_few_boundary_cells(cells):
    with pytest.raises(ValueError, match="boundary_cells"):
        H.SuiteConfig.defaults("cauchy_constant", boundary_cells=cells)
    assert H.SuiteConfig.defaults("cauchy_constant", boundary_cells=8).boundary_cells == 8


@pytest.mark.parametrize("identity", ["cauchy_constant", "cauchy_vekua", "green_vekua"])
@pytest.mark.parametrize("cells", [8, 12])
def test_face_cell_sweep_below_sixteen_cells(identity, cells):
    # every level of the sweep keeps at least MIN_BOUNDARY_CELLS face cells, whose
    # diameter stays inside the default evaluation margin
    cfg = H.SuiteConfig.defaults(identity, boundary_cells=cells, resolutions=(10, 12))
    report = H.run_identity(identity, cfg)
    assert min(row["level"] for row in report.rows) >= H.MIN_BOUNDARY_CELLS
    assert min(H._face_cell_sweep(cfg)) >= H.MIN_BOUNDARY_CELLS
    assert H._face_cell_sweep(H.SuiteConfig.defaults(identity, boundary_cells=16)) == [8, 16]


@pytest.mark.parametrize("fraction", [-0.1, 0.0, 0.5, 0.6, float("nan")])
def test_config_rejects_margin_fraction_outside_open_half(fraction):
    with pytest.raises(ValueError, match="margin_fraction"):
        H.SuiteConfig.defaults("cauchy_constant", margin_fraction=fraction)


@pytest.mark.parametrize("seed", [-1, -2024])
def test_config_rejects_negative_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        H.SuiteConfig.defaults("cauchy_constant", seed=seed)
    assert H.SuiteConfig.defaults("cauchy_constant", seed=0).seed == 0


@pytest.mark.parametrize("field, value", [
    ("resolutions", (16.7, 32)), ("boundary_cells", 64.5), ("boundary_cells", float("nan")),
    ("n_interior", 2.5), ("n_exterior", True), ("seed", 1.5), ("seed", True),
    ("interior_rel_tol", float("nan")), ("exterior_abs_tol", float("inf")),
    ("refinement_ratio", float("inf")),
    pytest.param("interior_rel_tol", 10**400, id="interior_rel_tol-int-beyond-float"),
])
def test_config_rejects_inexact_counts_and_non_finite_tolerances(field, value):
    # counts must be integers (not bools), tolerances finite; none may be
    # truncated, recorded as given or left to fail later inside numpy
    with pytest.raises(ValueError, match=field):
        H.SuiteConfig.defaults("cauchy_constant", **{field: value})


@pytest.mark.parametrize("profile", [
    {"kind": "gaussian"}, {"kind": ["exponential"]}, "exponential",
    {"kind": "exponential", "lamda": [1, 0, 0]}, {"kind": "constant", "lam": [0.0, 0.0, 1.0]},
    {"kind": "exponential", "lam": [1.0, 0.0]}, {"lam": [0.0, float("nan"), 1.0]},
    {"lam": "abc"}, {"lam": [0.0, True, 1.0]}, {"kind": "linear_z", "a": [1.0]},
    {"kind": "constant", "value": float("inf")},
    {"kind": "constant", "value": 10**400}, {"lam": [10**400, 0, 0]},
])
def test_config_rejects_bad_profiles(profile):
    # an unknown kind, a key of no family (a misspelt lam would run the
    # default) and parameters that are not the family's finite numbers
    with pytest.raises(ValueError, match="profile"):
        H.SuiteConfig.defaults("cauchy_vekua", profile=profile)


def test_config_records_valid_profiles_resolved():
    # the config holds the resolved spec: the kind and every parameter of its
    # family, defaults filled in, reals as floats and sequences as tuples
    for profile, resolved in [
            ({"lam": [0, 0, 1]}, {"kind": "exponential", "lam": (0.0, 0.0, 1.0)}),
            ({"kind": "quadratic_z", "c": 0.25}, {"kind": "quadratic_z", "a": 1.0, "c": 0.25}),
            ({"kind": "exponential", "lam": np.array([0.5, 0.0, 1.0])},
             {"kind": "exponential", "lam": (0.5, 0.0, 1.0)}),
            ({"b": np.int64(2), "kind": "linear_z"}, {"kind": "linear_z", "a": 1.0, "b": 2.0})]:
        kept = H.SuiteConfig.defaults("dtn_relation", profile=dict(profile)).profile
        assert list(kept.items()) == list(resolved.items())
        for key, value in resolved.items():
            assert type(kept[key]) is type(value)
            if type(value) is tuple:
                assert all(type(v) is float for v in kept[key])


def test_a_config_holds_its_own_read_only_profile(monkeypatch):
    # a profile edited after validation would skip the box check and the
    # domain rules, and one dict handed to run_suite would reach every check
    cfg = H.SuiteConfig.defaults("dtn_relation")
    with pytest.raises(TypeError):
        cfg.profile["lam"] = [400.0, 0.0, 0.0]
    assert cfg.profile["lam"] == (0.0, 0.0, 1.0)
    configs = []
    monkeypatch.setattr(H, "_report", lambda cfg: configs.append(cfg) or cfg)
    profile = {"kind": "exponential", "lam": [0.0, 0.5, 1.0]}
    H.run_suite(["dtn_relation", "cauchy_vekua"], parallel=False, profile=profile)
    first, second = configs
    assert first.profile is not second.profile and first.profile == second.profile
    profile["lam"][0] = 400.0
    assert first.profile["lam"] == second.profile["lam"] == (0.0, 0.5, 1.0)


@pytest.mark.parametrize("profile", [
    {"kind": "exponential", "lam": [800.0, 0.0, 0.0]},  # exp(lam . x) overflows
    {"kind": "exponential", "lam": [0.0, -720.0, 0.0]},  # and vanishes
    {"kind": "linear_z", "a": 1.0, "b": -2.2},  # f = 1 - 2.2 z changes sign
    {"kind": "linear_z", "a": 0.0, "b": 1.0},  # f = z is zero on the z = 0 face
    {"kind": "quadratic_z", "a": 1.0, "c": -1.5},
    {"kind": "constant", "value": 0.0},
])
def test_config_refuses_profiles_that_vanish_or_overflow_on_the_box(profile):
    # checked in closed form on SuiteConfig.grid's box, not only where a
    # check happens to build the profile on its nodes
    with pytest.raises(ValueError, match="profile"):
        H.SuiteConfig.defaults("dtn_relation", profile=profile)


def test_box_check_refuses_a_quadratic_that_changes_sign_only_at_its_vertex():
    # f = z^2 - 0.1 is positive at both ends of z in [-0.5, 0.5] and negative
    # at its vertex z = 0; on [0.5, 1.5] the vertex lies outside the range
    spec = {"kind": "quadratic_z", "a": -0.1, "c": 1.0}
    with pytest.raises(ValueError, match=r"at z = \[-0\.5, 0\.5, 0\.0\] on the box"):
        V.check_profile_on_box(spec, [0.0, 0.0, -0.5], [1.0, 1.0, 0.5])
    assert V.check_profile_on_box(spec, [0.0, 0.0, 0.5], [1.0, 1.0, 1.5]) == V.resolve_profile(spec)


@pytest.mark.parametrize("profile", [
    {"kind": "exponential", "lam": [800.0, 0.0, 0.0]},
    {"kind": "linear_z", "a": 1.0, "b": -2.2},
])
def test_suite_refuses_an_overflowing_or_vanishing_profile_before_any_check(
        monkeypatch, tmp_path, profile):
    ran = []
    monkeypatch.setattr(H, "run_identity", lambda identity, *a, **k: ran.append(identity))
    with pytest.raises(ValueError, match="profile"):
        H.run_suite(parallel=False, profile=profile, output_dir=str(tmp_path))
    assert ran == [] and list(tmp_path.iterdir()) == []


def test_config_bounds_the_conductivity_and_gradient_of_an_exponential_profile():
    # exp(400 x1) itself is finite on the unit cube, but the conductivity
    # f^2 = exp(800 x1) is not; that of exp(354 x1) is, but the product of
    # two conductivities in a harmonic face mean is not; just inside the
    # bound every derived field is finite, the operator's face weights too
    for rate in (400.0, 354.0, 178.0):
        with pytest.raises(ValueError, match=r"f\^2 = exp\(2 lam \. x\)"):
            H.SuiteConfig.defaults("dtn_relation",
                                   profile={"kind": "exponential", "lam": [rate, 0.0, 0.0]})
    spec = {"kind": "exponential", "lam": [177.0, 0.0, 0.0]}
    H.SuiteConfig.defaults("dtn_relation", profile=spec)
    p = V.make_profile(BoxGrid.unit_cube(8), spec)
    assert np.all(np.isfinite(p.f**2) & (p.f**2 > 0.0)) and np.all(np.isfinite(p.grad_f))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        weights = pde.DirichletOperator(p.grid, sigma=p.f**2).edge_weights
    assert all(np.all(np.isfinite(w) & (w > 0.0)) for w in weights)
    # on a box this thin lam . x stays small, and only |grad f| = |lam| f overflows
    with pytest.raises(ValueError, match="profile"):
        V.check_profile_on_box({"kind": "exponential", "lam": [1e302, 0.0, 0.0]},
                               [0.0] * 3, [1e-300] * 3)
    V.check_profile_on_box({"kind": "exponential", "lam": [1e302, 0.0, 0.0]},
                           [0.0] * 3, [1e-303] * 3)


@pytest.mark.parametrize("identity, cause", [
    ("teodorescu_inverse", "the dual grid of an axis with 8 nodes"),
    ("s_alpha", "the dual grid of an axis with 8 nodes"),
    ("hodge_orthogonality", "no node of a grid of resolution"),
])
def test_config_refuses_resolutions_a_check_cannot_be_built_on(monkeypatch, tmp_path,
                                                               identity, cause):
    # declared at registration, refused when the config is made: no check runs
    ran = []
    monkeypatch.setattr(H, "run_identity", lambda name, *a, **k: ran.append(name))
    with pytest.raises(ValueError, match=f"^{cause}.*; resolutions: identity '{identity}' "
                                         "cannot run at resolution 8$"):
        H.SuiteConfig.defaults(identity, resolutions=(8, 16))
    with pytest.raises(ValueError, match="resolutions"):
        H.run_suite([identity], parallel=False, resolutions=(8, 16), output_dir=str(tmp_path))
    assert ran == [] and list(tmp_path.iterdir()) == []
    H.SuiteConfig.defaults(identity, resolutions=(9, 16))


def test_only_the_dual_grid_and_bump_checks_declare_a_grid_domain():
    refused = set()
    for name in H.IDENTITIES:
        try:
            H.SuiteConfig.defaults(name, resolutions=(8, 10))
        except ValueError as err:
            assert str(err).endswith(f"identity {name!r} cannot run at resolution 8")
            refused.add(name)
    assert refused == {"teodorescu_inverse", "s_alpha", "hodge_orthogonality"}


@pytest.mark.parametrize("identity, lam, cause", [
    ("vekua_pipeline", [19.0, 0.0, 0.0], "Beltrami coefficient"),  # |mu| rounds to 1
    ("vekua_pipeline", [0.0, -19.0, 0.0], "Beltrami coefficient"),
    ("vekua_pipeline", [0.0, 0.0, 0.0], "rotation field"),  # nothing to lift
    ("vekua_pipeline", [1e-7, 0.0, 0.0], "rotation field"),
    ("difference_identities", [150.0, 0.0, 0.0], "times the rate"),  # 1.5 lam leaves the box check
    ("green_vekua", [0.0, -60.0, 0.0], "solves the conductivity problem"),  # the CG stalls
    ("green_vekua", [30.0, -25.0, 0.0], "solves the conductivity problem"),
    ("s_alpha", [0.0, 0.0, 0.0], "normalizes its residual"),  # max |grad f| = 0
    ("s_alpha", [1e-9, 0.0, 0.0], "normalizes its residual"),
])
def test_config_refuses_a_profile_its_check_cannot_run_with(monkeypatch, tmp_path, identity,
                                                            lam, cause):
    # declared at registration, refused when the config is made: no check runs
    ran = []
    monkeypatch.setattr(H, "run_identity", lambda name, *a, **k: ran.append(name))
    profile = {"kind": "exponential", "lam": lam}
    with pytest.raises(ValueError, match=f"^profile: .*{cause}"):
        H.SuiteConfig.defaults(identity, profile=profile)
    with pytest.raises(ValueError, match=cause):
        H.run_suite([identity], parallel=False, profile=profile, output_dir=str(tmp_path))
    assert ran == [] and list(tmp_path.iterdir()) == []
    H.SuiteConfig.defaults("dtn_relation", profile=profile)  # no such domain


def test_four_checks_declare_a_profile_domain():
    # rates that pass the box check, each outside one or more profile domains
    refused = set()
    for lam in ([0.0, 0.0, 0.0], [19.0, 0.0, 0.0], [0.0, -60.0, 0.0], [150.0, 0.0, 0.0]):
        for name in H.IDENTITIES:
            try:
                H.SuiteConfig.defaults(name, profile={"lam": lam})
            except ValueError as err:
                assert str(err).startswith("profile: ") and f"identity {name!r}" in str(err)
                refused.add(name)
    assert refused == {"vekua_pipeline", "difference_identities", "green_vekua", "s_alpha"}
    H.SuiteConfig.defaults("vekua_pipeline", profile={"lam": [18.0, 0.0, 0.0]})
    H.SuiteConfig.defaults("vekua_pipeline", profile={"lam": [0.0, 0.0, -1e-5]})
    H.SuiteConfig.defaults("difference_identities", profile={"lam": [118.0, 0.0, 0.0]})
    H.SuiteConfig.defaults("green_vekua", profile={"lam": [0.0, -50.0, 0.0]})
    H.SuiteConfig.defaults("green_vekua", profile={"lam": [25.0, -25.0, 0.0]})
    H.SuiteConfig.defaults("s_alpha", profile={"lam": [0.0, 0.0, -1e-8]})


def test_green_vekua_runs_up_to_its_solver_reach():
    # lam . x spanning GREEN_SOLVE_REACH runs to finite rows; a span of 55,
    # which the config refuses, stalls the weak arm's solve at resolution 32
    reach = {"lam": [0.0, -H.GREEN_SOLVE_REACH, 0.0]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _finite_numbers(H.run_identity("green_vekua", profile=reach).rows)
    steep = [0.0, -55.0, 0.0]
    with pytest.raises(ValueError, match="solves the conductivity problem"):
        H.SuiteConfig.defaults("green_vekua", profile={"lam": steep})
    grid = BoxGrid.unit_cube(32)
    form = pde.DtnForm.conductivity(V.make_profile(grid, {"kind": "exponential", "lam": steep}))
    with pytest.raises(pde.SolverError):
        form.solution(boundary_values(grid, V.ExponentialVekuaSolution(np.array(steep)).u0))


# the eight checks that integrate boundary layers, and the face samplings
# each integrates over
BOUNDARY_LAYER_CHECKS = {
    "cauchy_constant": "sweep", "borel_pompeiu": "boundary", "scalar_bp": "boundary",
    "scalar_bp_adjoint": "boundary", "cauchy_vekua": "sweep", "green_vekua": "faces and sweep",
    "integral_cauchy": "faces", "schrodinger_reconstruction": "faces",
}


def test_a_margin_inside_the_face_cells_is_refused_before_any_check(monkeypatch, tmp_path):
    # at the defaults 0.05 is inside the 16-cell level of cauchy_constant's
    # face-cell sweep, whose boundary layer would refuse the evaluation
    # points once the check had started
    ran = []
    monkeypatch.setattr(H, "run_identity", lambda name, *a, **k: ran.append(name))
    with pytest.raises(ValueError, match="^margin_fraction 0.05 keeps evaluation points 0.05 from "
                                         "the boundary of the resolution-16 grid, less than the "
                                         "diameter 0.0883883 of the 16 face cells per axis "
                                         "identity 'cauchy_constant' integrates"):
        H.run_suite(parallel=False, margin_fraction=0.05, output_dir=str(tmp_path))
    assert ran == [] and list(tmp_path.iterdir()) == []
    refused = set()  # below every face-cell diameter at the defaults
    for name in H.IDENTITIES:
        try:
            H.SuiteConfig.defaults(name, margin_fraction=0.01)
        except ValueError as err:
            assert f"identity {name!r} integrates boundary layers over" in str(err)
            refused.add(name)
    assert refused == set(BOUNDARY_LAYER_CHECKS)


@pytest.mark.parametrize("identity, sampling", BOUNDARY_LAYER_CHECKS.items())
def test_the_margin_rule_reads_the_face_samplings_its_check_builds(identity, sampling):
    # at 8 boundary cells the sweep and the boundary quadrature have 8 face
    # cells per axis, diameter sqrt(2)/8 = 0.177; a resolution-9 level's
    # faces have 16, diameter 0.0884
    size = dict(resolutions=(9, 10), boundary_cells=8)
    H.SuiteConfig.defaults(identity, margin_fraction=0.18, **size)
    if sampling == "faces":
        H.SuiteConfig.defaults(identity, margin_fraction=0.11, **size)
    else:
        with pytest.raises(ValueError, match="diameter 0.176777 of the 8 face cells"):
            H.SuiteConfig.defaults(identity, margin_fraction=0.17, **size)
    if "faces" in sampling:
        with pytest.raises(ValueError, match="resolution-9 grid, .* the 16 face cells"):
            H.SuiteConfig.defaults(identity, margin_fraction=0.088, resolutions=(9, 10))


@pytest.mark.parametrize("grid", [BoxGrid.unit_cube(9), BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1],
                                                                 [13, 10, 12])],
                         ids=["cube", "anisotropic"])
@pytest.mark.parametrize("cells", [8, 13, 64])
def test_face_cell_diameter_is_the_samplings_own(grid, cells):
    # the margin rule's diameter is the sampling's, and the diagonal of the
    # face cells its samples span
    bq = H.boundary_sampling(grid, cells)
    spanned = max(math.hypot(*(grid.extent[t] / len(np.unique(bq.positions[rows, t]))
                               for t in range(3) if t != axis))
                  for axis, _, rows in bq.face_blocks)
    assert H.face_cell_diameter(grid, cells) == bq.max_cell_diameter
    assert bq.max_cell_diameter == pytest.approx(spanned, rel=1e-15)


def test_config_refuses_a_margin_with_no_cell_center_inside():
    # snapped evaluation points sit on cell centers inside the margin: 10
    # cells per axis (resolution 11) have none within 1e-4 of the middle,
    # 9 cells (resolution 10) have one on it
    with pytest.raises(ValueError, match="^margin_fraction 0.4999 leaves no cell center inside "
                                         "the margin of the resolution-11 grid"):
        H.SuiteConfig.defaults("difference_identities", resolutions=(10, 11),
                               margin_fraction=0.4999)
    H.SuiteConfig.defaults("difference_identities", resolutions=(10, 12), margin_fraction=0.4999)


def test_default_configs_and_family_parameters_pass_the_box_check():
    for name in H.IDENTITIES:
        H.SuiteConfig.defaults(name)
    for kind, (_, params) in V.PROFILE_FAMILIES.items():
        H.SuiteConfig.defaults("dtn_relation", profile={"kind": kind, **params})
    V.check_profile_on_box({"kind": "linear_z", "a": -1.0, "b": 0.5}, [0.0] * 3, [1.0] * 3)


def _finite_numbers(value):
    """Every number in a nested report value is finite."""
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


# profile parameters from the middle of each family's range out to its
# edges on the unit cube: a factor near exp(+-177), where f^4 leaves the
# float range; a + b z or a + c z^2 at zero on the z = 1 face (t = 1) or
# just past it; rates lam near the Beltrami (18), f^4 (177) and zero edges
_SIGN = st.sampled_from([1.0, -1.0])
_SCALE = st.one_of(st.floats(0.1, 3.0), st.sampled_from([1e-300, 1e-77, 1e-76, 1e76, 1e77, 1e300]))
_RATIO = st.one_of(st.floats(-2.0, 2.0), st.floats(0.999, 1.001))
_RATE = st.one_of(st.floats(-20.0, 20.0), st.floats(-200.0, 200.0),
                  st.sampled_from([0.0, 1e-300, 1e-7, 1e-5]))
_EDGE_PROFILES = st.one_of(
    st.builds(lambda lam: {"kind": "exponential", "lam": lam},
              st.lists(_RATE, min_size=3, max_size=3)),
    st.builds(lambda sign, a, t: {"kind": "linear_z", "a": sign * a, "b": -sign * a * t},
              _SIGN, _SCALE, _RATIO),
    st.builds(lambda sign, a, t: {"kind": "quadratic_z", "a": sign * a, "c": -sign * a * t},
              _SIGN, _SCALE, _RATIO),
    st.builds(lambda sign, value: {"kind": "constant", "value": sign * value}, _SIGN, _SCALE),
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(resolutions=st.lists(st.integers(8, 12), min_size=1, max_size=2, unique=True).map(sorted),
       margin=st.one_of(st.floats(1e-9, 1e-3), st.floats(0.499, 0.5 - 1e-9)),
       profile=_EDGE_PROFILES)
def _refused_or_runs_finite(identity, resolutions, margin, profile):
    try:
        cfg = H.SuiteConfig.defaults(identity, profile=profile, resolutions=resolutions,
                                     boundary_cells=8, margin_fraction=margin)
    except ValueError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = H.run_identity(identity, cfg)
    assert report.rows and _finite_numbers(report.rows)


def test_a_config_at_the_edge_of_the_domain_is_refused_or_runs_finite():
    # a config either fails at construction, naming its field, or runs to a
    # report whose rows are all finite, with no floating-point warning on
    # the way; whether the check passes is not asked.  Every identity gets
    # its own 60 examples
    for identity in H.IDENTITIES:
        _refused_or_runs_finite(identity)


def _needs_exponential():
    return {name for name, check in H.IDENTITIES.items() if H._exponential in check.domain}


def test_exponential_family_is_required_before_any_check_runs(monkeypatch, tmp_path):
    # the identities declare at registration that they need the family, so
    # a suite with another family fails before its first check
    assert _needs_exponential() == {
        "scalar_bp", "scalar_bp_adjoint", "cauchy_vekua", "green_vekua",
        "schrodinger_reconstruction", "vekua_pipeline", "hodge_orthogonality",
        "difference_identities", "s_alpha"}
    constant = {"kind": "constant", "value": 2.0}
    ran = []
    monkeypatch.setattr(H, "run_identity", lambda identity, *a, **k: ran.append(identity))
    with pytest.raises(ValueError, match="needs the exponential closed-form family"):
        H.run_suite(profile=constant, output_dir=str(tmp_path))
    assert ran == [] and list(tmp_path.iterdir()) == []


def test_checks_without_the_family_requirement_accept_a_constant_profile():
    constant = {"kind": "constant", "value": 2.0}
    for name in set(H.IDENTITIES) - _needs_exponential():
        assert H.SuiteConfig.defaults(name, profile=constant).profile == constant
    # the DtN interrelation is exact for a constant profile
    report = H.run_identity("dtn_relation", profile=constant, resolutions=(8, 10))
    assert report.passed
    assert max(row["interior_error"] for row in report.rows) <= 1e-8
    assert cli.PROFILE_CHOICES == tuple(V.PROFILE_FAMILIES)


def test_a_config_cannot_be_changed_after_it_was_validated():
    # a config edited after construction would skip its checks: a rate whose
    # conductivity overflows, no interior points
    cfg = H.SuiteConfig.defaults("dtn_relation", resolutions=(8, 10))
    for f in dataclasses.fields(cfg):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    with pytest.raises(ValueError, match="profile"):
        dataclasses.replace(cfg, profile={"lam": [400, 0, 0]})
    with pytest.raises(ValueError, match="n_interior"):
        dataclasses.replace(cfg, n_interior=0)
    assert dataclasses.replace(cfg, output_dir="d").output_dir == "d"


def test_config_accepts_numpy_integers():
    cfg = H.SuiteConfig.defaults("cauchy_constant", resolutions=(np.int64(16), 32),
                                 boundary_cells=np.int32(32), seed=np.int64(7))
    assert cfg.resolutions == (16, 32) and all(type(r) is int for r in cfg.resolutions)


def test_identity_runs_without_exterior_points():
    # at (10, 12) the refinement gate fails whatever the exterior count; the
    # interior rows must not depend on it, and no exterior error is measured
    size = dict(resolutions=(10, 12), n_interior=4)
    report = H.run_identity("borel_pompeiu", n_exterior=0, **size)
    assert [row["exterior_error"] for row in report.rows] == [0.0] * 4
    assert all(p["kind"] == "interior" for p in report.points)
    with_exterior = H.run_identity("borel_pompeiu", n_exterior=4, **size)
    assert ([row["interior_error"] for row in report.rows]
            == [row["interior_error"] for row in with_exterior.rows])


def test_config_defaults_and_hash():
    cfg = H.SuiteConfig.defaults("cauchy_constant")
    assert cfg.interior_rel_tol == 1e-3
    assert len(cfg.config_hash()) == 16
    cfg2 = H.SuiteConfig.defaults("cauchy_constant")
    assert cfg.config_hash() == cfg2.config_hash()
    cfg3 = H.SuiteConfig.defaults("cauchy_constant", seed=999)
    assert cfg.config_hash() != cfg3.config_hash()


def test_equal_computations_hash_equal(monkeypatch):
    # the hash names the computation: not the spelling of a count, a real or
    # the profile, nor where the reports go
    monkeypatch.delenv("VEKUA_LAB_SEED", raising=False)
    cfg = H.SuiteConfig.defaults("cauchy_constant")
    assert cfg.config_hash() == "b378d89b836ff8b2"
    for overrides in [
            dict(n_interior=np.int64(6), n_exterior=np.int32(6), boundary_cells=np.int64(64),
                 seed=np.int64(2024), resolutions=(np.int64(16), np.uint8(32))),
            dict(profile={"kind": "exponential", "lam": [0.0, 0.0, 1.0]}),
            dict(profile={"kind": "exponential", "lam": (0.0, 0.0, 1.0)}),
            dict(profile={"kind": "exponential", "lam": np.array([0.0, 0.0, 1.0])}),
            dict(profile={"kind": "exponential", "lam": [0, 0, 1]}),
            dict(profile={"lam": [0.0, 0.0, 1.0]}), dict(profile={}),
            dict(output_dir="x"),
            dict(n_interior=np.int64(6), seed=np.int64(2024), output_dir="x",
                 profile={"lam": [0, 0, 1]})]:
        assert H.SuiteConfig.defaults("cauchy_constant", **overrides).config_hash() == \
            cfg.config_hash(), overrides
    assert dataclasses.replace(cfg, output_dir="reports").config_hash() == cfg.config_hash()
    assert (H.SuiteConfig.defaults("cauchy_constant", refinement_ratio=2).config_hash()
            == H.SuiteConfig.defaults("cauchy_constant", refinement_ratio=2.0).config_hash())
    for overrides in [dict(seed=2025), dict(profile={"lam": [0.0, 0.5, 1.0]}),
                      dict(resolutions=(16, 24)), dict(interior_rel_tol=2e-3),
                      dict(refinement_ratio=2.0)]:
        assert H.SuiteConfig.defaults("cauchy_constant", **overrides).config_hash() != \
            cfg.config_hash(), overrides


def test_config_seed_from_environment(monkeypatch):
    monkeypatch.setenv("VEKUA_LAB_SEED", "777")
    cfg = H.SuiteConfig.defaults("borel_pompeiu")
    assert cfg.seed == 777


def _cli_usage_error(capsys, argv):
    """Standard error of a CLI call that must exit 2 with a usage line."""
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: vekua-lab")
    return err


def test_invalid_seed_fails_loudly(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("VEKUA_LAB_SEED", "abc")
    with pytest.raises(ValueError, match="VEKUA_LAB_SEED"):
        H.SuiteConfig.defaults("borel_pompeiu")
    assert "VEKUA_LAB_SEED" in _cli_usage_error(
        capsys, ["dtn", "--resolution", "8", "--basis-size", "4", "--out", str(tmp_path)])


@pytest.mark.parametrize("raw", ["-1", "-3"])
def test_negative_seed_variable_fails_loudly(monkeypatch, tmp_path, capsys, raw):
    monkeypatch.setenv("VEKUA_LAB_SEED", raw)
    with pytest.raises(ValueError, match="VEKUA_LAB_SEED must be >= 0"):
        H.default_seed()
    assert "VEKUA_LAB_SEED must be >= 0" in _cli_usage_error(
        capsys, ["dtn", "--resolution", "8", "--basis-size", "4", "--out", str(tmp_path)])


@pytest.mark.parametrize("raw", ["abc", "1.5", "0", "-2"])
def test_invalid_thread_count_fails_loudly(monkeypatch, raw):
    monkeypatch.setenv("VEKUA_LAB_THREADS", raw)
    with pytest.raises(ValueError, match="VEKUA_LAB_THREADS"):
        H.run_suite(["cauchy_constant"])


def test_environment_parsers(monkeypatch):
    monkeypatch.delenv("VEKUA_LAB_SEED", raising=False)
    monkeypatch.delenv("VEKUA_LAB_THREADS", raising=False)
    assert H.default_seed() == H.DEFAULT_SEED
    assert H.thread_cap() is None
    monkeypatch.setenv("VEKUA_LAB_SEED", "0")
    monkeypatch.setenv("VEKUA_LAB_THREADS", "3")
    assert H.default_seed() == 0
    assert H.thread_cap() == 3


def _suite_json_by_thread_count(monkeypatch, names, **size):
    """run_suite's reports without runtimes, serial under VEKUA_LAB_THREADS=1
    and on a two-worker pool under 2."""
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("VEKUA_LAB_THREADS", threads)
        reports = {name: r.to_dict() for name, r in H.run_suite(names, **size).items()}
        for report in reports.values():
            del report["runtime_seconds"]
        runs[threads] = json.dumps(reports, default=float, sort_keys=True)
    return runs


def test_reports_identical_across_thread_counts(monkeypatch):
    names = ["cauchy_constant", "teodorescu_inverse", "s_alpha", "dtn_relation"]
    size = dict(resolutions=(10, 12), n_interior=4, n_exterior=4, boundary_cells=16)
    runs = _suite_json_by_thread_count(monkeypatch, names, **size)
    assert runs["1"] == runs["2"]


def test_reports_identical_across_thread_counts_at_default_sizes(monkeypatch):
    # at (16, 32) the CG vectors are long enough for a threaded BLAS to split
    # its dot products, so this fails unless serial checks hold BLAS at one
    # thread exactly as pooled ones do
    runs = _suite_json_by_thread_count(monkeypatch, ["dtn_relation", "cauchy_constant"])
    assert runs["1"] == runs["2"]


class _BlasRecorder:
    """Stands in for one OpenBLAS: its thread count and every count set."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        return self.threads

    def set(self, threads):
        self.calls.append(threads)
        self.threads = threads


def _fake_openblas(monkeypatch, *counts):
    recorders = [_BlasRecorder(n) for n in counts]
    libs = tuple(runtime._BlasLibrary(f"fake{k}", r.get, r.set) for k, r in enumerate(recorders))
    monkeypatch.setattr(runtime, "_openblas_libraries", lambda: libs)
    return recorders


def test_blas_hold_sets_one_thread_and_restores(monkeypatch):
    # over two libraries, each held and given back its own count
    first, second = _fake_openblas(monkeypatch, 2, 4)
    with runtime.POLICY:
        assert (first.threads, second.threads) == (1, 1)
        with runtime.POLICY:  # a nested hold keeps the outer one's counts
            assert (first.threads, second.threads) == (1, 1)
        assert (first.threads, second.threads) == (1, 1)
    assert (first.threads, second.threads) == (2, 4)
    assert first.calls == [1, 2] and second.calls == [1, 4]
    with pytest.raises(ZeroDivisionError):
        with runtime.POLICY:
            assert first.threads == 1
            1 / 0
    assert (first.threads, second.threads) == (2, 4)


def test_blas_hold_around_checks(monkeypatch):
    # serial and pooled checks alike run inside a hold, and a raising check
    # leaves the library at its own count
    (blas,) = _fake_openblas(monkeypatch, 2)
    seen = []
    report = H._report

    def probe(cfg):
        if cfg.identity == "scalar_bp":
            raise RuntimeError("broken check")
        seen.append(blas.threads)
        return report(cfg)

    monkeypatch.setattr(H, "_report", probe)
    monkeypatch.setenv("VEKUA_LAB_THREADS", "2")
    size = dict(resolutions=(10, 12), n_interior=4, n_exterior=4, boundary_cells=16)
    H.run_identity("cauchy_constant", **size)
    H.run_suite(["cauchy_constant"], **size)
    with pytest.raises(RuntimeError, match="broken check"):
        H.run_suite(["cauchy_constant", "scalar_bp"], **size)
    assert seen == [1, 1, 1]
    assert blas.threads == 2


def test_dtn_command_runs_blas_on_one_thread(monkeypatch, tmp_path):
    # `vekua-lab dtn` holds BLAS too: every Dirichlet solve sees each library
    # at one thread, and each gets its own count back when the command
    # returns, and when it exits 2 on a ValueError (a negative seed)
    first, second = _fake_openblas(monkeypatch, 2, 4)
    seen = []
    solve = pde.DirichletOperator.solve

    def probe(op, *args, **kwargs):
        seen.append((first.threads, second.threads))
        return solve(op, *args, **kwargs)

    monkeypatch.setattr(pde.DirichletOperator, "solve", probe)
    argv = ["dtn", "--resolution", "8", "--basis-size", "3", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert seen == [(1, 1)] * 3
    assert (first.threads, second.threads) == (2, 4)
    monkeypatch.setenv("VEKUA_LAB_SEED", "-1")
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert (first.threads, second.threads) == (2, 4)
    assert first.calls == [1, 2, 1, 2] and second.calls == [1, 4, 1, 4]


def test_blas_holds_from_two_threads_interleave(monkeypatch):
    # thread a opens, b opens, a closes while b is inside, b closes: b still
    # sees one thread, and the count a found comes back only after b closes
    libs = _fake_openblas(monkeypatch, 3, 5)
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    seen = []

    def a():
        with runtime.POLICY:
            a_open.set()
            b_open.wait(60)
        a_closed.set()

    def b():
        a_open.wait(60)
        with runtime.POLICY:
            b_open.set()
            a_closed.wait(60)
            seen.append([blas.threads for blas in libs])

    threads = [threading.Thread(target=a), threading.Thread(target=b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert seen == [[1, 1]]
    assert [blas.threads for blas in libs] == [3, 5]


def test_blas_holds_from_many_threads_restore_once(monkeypatch):
    # holds opened and closed from more threads than cores, with frequent
    # thread switches: the count is 1 inside every hold and restored after
    # the last; a lost update would leave 1 or restore 3 under an open hold
    libs = _fake_openblas(monkeypatch, 3, 5)
    inside = []
    start = threading.Barrier(4, timeout=60)

    def worker():
        start.wait()
        for _ in range(2000):
            with runtime.POLICY:
                time.sleep(0)  # let another thread open or close a hold here
                inside.append(tuple(blas.threads for blas in libs))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert inside == [(1, 1)] * 8000
    assert [blas.threads for blas in libs] == [3, 5]


def test_blas_hold_without_library(monkeypatch, tmp_path):
    # no scipy-openblas found, or a file by that name nothing loaded: the
    # hold runs its body and touches nothing
    assert runtime._openblas_in(str(tmp_path)) == []
    (tmp_path / "libscipy_openblas64_-0.so").write_bytes(b"not a library")
    assert runtime._openblas_in(str(tmp_path)) == []
    monkeypatch.setattr(runtime, "_openblas_libraries", lambda: ())
    with runtime.POLICY:
        pass
    assert runtime.POLICY._open == 0


def test_pooled_identities_see_one_blas_thread(monkeypatch):
    # numpy's wheel links scipy-openblas; if discovery stops finding it (a
    # renamed library or symbol) the hold would silently do nothing.  It is
    # the one library held: the package runs no other BLAS
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {blas.get('name')}, not scipy-openblas")
    libs = runtime._openblas_libraries()
    numpy_libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    assert [os.path.dirname(lib.path) for lib in libs] == [numpy_libs]
    saved = [lib.get_threads() for lib in libs]
    seen = []
    report = H._report

    def probe(cfg):
        if cfg.identity == "cauchy_constant":
            seen.append([lib.get_threads() for lib in libs])
        return report(cfg)

    monkeypatch.setattr(H, "_report", probe)
    monkeypatch.setenv("VEKUA_LAB_THREADS", "2")
    size = dict(resolutions=(10, 12), n_interior=4, n_exterior=4, boundary_cells=16)
    try:
        for lib in libs:  # a count above 1 for the hold to lower, whatever the CPU count
            lib.set_threads(2)
        H.run_suite(["cauchy_constant", "scalar_bp"], **size)
        assert seen == [[1] * len(libs)]
        assert [lib.get_threads() for lib in libs] == [2] * len(libs)
    finally:
        for lib, threads in zip(libs, saved):
            lib.set_threads(threads)


def test_dtn_matrix_identical_across_blas_thread_counts():
    # outside any hold, the library at 1 and at 2 threads.  The solver's inner
    # products sum with einsum, but the preconditioner's matrix products
    # (`pde._contract`), the whole of a profile family's solve, run BLAS
    # np.dot; a `dtn` export is thread-count independent because the process
    # policy holds BLAS at one thread, and outside that hold the pairings come
    # out the same at both counts too
    probe = (
        "import sys\n"
        "from vekua_lab import cli, pde\n"
        "from vekua_lab.fields import BoxGrid\n"
        "from vekua_lab.vekua import make_profile\n"
        "g = BoxGrid.unit_cube(48)\n"
        "form = pde.DtnForm.schrodinger(make_profile(g, {'kind': 'linear_z'}))\n"
        "print(form.matrix(cli._trace_basis(g, 8, 2024)).tobytes().hex())\n"
    )
    matrices = []
    for threads in ("1", "2"):
        done = fresh_python(probe, OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr
        matrices.append(done.stdout)
    assert matrices[0] == matrices[1]


def test_no_scipy_at_run_time(tmp_path):
    # scipy is a test dependency only: the CLI, a DtN export and an identity
    # check load none of it
    probe = (
        "import sys\n"
        "import vekua_lab.cli as cli\n"
        "from vekua_lab import harness\n"
        "assert cli.main(['dtn', '--out', sys.argv[1]]) == 0\n"
        "assert harness.run_identity('dtn_relation').passed\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "sys.exit(f'scipy loaded: {loaded}' if loaded else 0)\n"
    )
    done = fresh_python(probe, str(tmp_path))
    assert done.returncode == 0, done.stderr


def test_seed_from_environment_reaches_dtn(monkeypatch, tmp_path):
    monkeypatch.setenv("VEKUA_LAB_SEED", "777")
    seeds = []
    trace_basis = cli._trace_basis

    def recording(grid, size, seed):
        seeds.append(seed)
        return trace_basis(grid, size, seed)

    monkeypatch.setattr(cli, "_trace_basis", recording)
    assert cli.main(["dtn", "--resolution", "8", "--basis-size", "4", "--out", str(tmp_path)]) == 0
    assert seeds == [777]


def test_config_from_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "identity": "operator_consistency",
                "resolutions": [16, 32],
                "interior_rel_tol": 0.04,
                "profile": {"kind": "exponential", "lam": [0, 0, 1.0]},
            }
        )
    )
    cfg = H.SuiteConfig.from_json(path)
    assert cfg.identity == "operator_consistency"
    assert cfg.interior_rel_tol == 0.04


@pytest.mark.parametrize("identity", ["cauchy_constant", "operator_consistency"])
def test_config_file_keeps_the_identity_defaults(tmp_path, identity):
    # keys a file leaves out take the identity's tolerances, not the class defaults
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"resolutions": [16, 32]}))
    cfg = H.SuiteConfig.from_json(path, identity=identity)
    assert cfg == H.SuiteConfig.defaults(identity, resolutions=(16, 32))
    for key, value in H.IDENTITIES[identity].tolerances.items():
        assert getattr(cfg, key) == value != getattr(H.SuiteConfig(identity), key)


def test_config_file_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"identity": "cauchy_constant", "bogus": 1, "resolution": 16}))
    with pytest.raises(ValueError, match=r"unknown config keys \['bogus', 'resolution'\]"):
        H.SuiteConfig.from_json(path)


def test_config_file_must_hold_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps([["identity", "cauchy_constant"]]))
    with pytest.raises(ValueError, match="must be an object, got list"):
        H.SuiteConfig.from_json(path, identity="cauchy_constant")


def test_empty_suite_selection_runs_nothing(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(H, "run_identity", lambda identity, *a, **k: ran.append(identity))
    for parallel in (True, False):
        with pytest.raises(ValueError, match="no identities selected"):
            H.run_suite([], parallel=parallel)
    assert "no identities selected" in _cli_usage_error(capsys, ["suite", ","])
    assert ran == []


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        H.run_identity("fourier_inversion")
    with pytest.raises(ValueError, match="unknown identity 'fourier_inversion'"):
        H.SuiteConfig("fourier_inversion")


def test_suite_refuses_an_identity_named_twice(monkeypatch, tmp_path, capsys):
    # it would run twice, on two pool threads, into one output directory
    ran = []
    monkeypatch.setattr(H, "run_identity", lambda name, *a, **k: ran.append(name))
    with pytest.raises(ValueError, match=r"selected more than once: \['cauchy_constant'\]"):
        H.run_suite(["cauchy_constant"] * 2)
    err = _cli_usage_error(capsys, ["suite", "cauchy_constant,cauchy_constant,operator_consistency",
                                    "--out", str(tmp_path)])
    assert "identities selected more than once: ['cauchy_constant']" in err
    assert ran == [] and list(tmp_path.iterdir()) == []


def test_suite_refuses_a_bare_string_of_identities(monkeypatch):
    # list("cauchy_constant") would be read as one unknown identity per character
    ran = []
    monkeypatch.setattr(H, "run_identity", lambda name, *a, **k: ran.append(name))
    with pytest.raises(ValueError) as err:
        H.run_suite("cauchy_constant")
    assert str(err.value) == ("identities must be a list of identity names, "
                              "got 'cauchy_constant'")
    assert ran == []


def test_overrides_next_to_a_config_are_rejected(monkeypatch):
    # an override cannot amend a given config: the call fails before the check runs
    cfg = H.SuiteConfig.defaults("cauchy_constant")
    monkeypatch.setattr(H, "_report", lambda cfg: pytest.fail("the check ran"))
    with pytest.raises(ValueError, match=r"overrides \['seed'\] given with a config"):
        H.run_identity("cauchy_constant", cfg, seed=5)


def test_unsupported_profile_rejected(monkeypatch):
    # refused when the config is made, and a config made for an identity
    # that takes the profile does not reach the check
    profile = {"kind": "quadratic_z", "a": 1.0, "c": 0.5}
    with pytest.raises(ValueError, match="needs the exponential"):
        H.SuiteConfig.defaults("cauchy_vekua", profile=profile)
    cfg = H.SuiteConfig.defaults("dtn_relation", profile=profile)
    monkeypatch.setattr(H, "_report", lambda cfg: pytest.fail("the check ran"))
    with pytest.raises(ValueError, match="'cauchy_vekua' given with a config made for "
                                         "'dtn_relation'"):
        H.run_identity("cauchy_vekua", cfg)


def test_a_config_made_for_another_identity_is_refused(monkeypatch, tmp_path):
    # run_identity would otherwise run one check under another identity's
    # label, tolerances and config hash; nothing runs and nothing is written
    cfg = H.SuiteConfig.defaults("borel_pompeiu", output_dir=str(tmp_path), resolutions=(10, 12))
    monkeypatch.setattr(H, "_report", lambda cfg: pytest.fail("the check ran"))
    with pytest.raises(ValueError, match="'cauchy_constant' given with a config made for "
                                         "'borel_pompeiu'"):
        H.run_identity("cauchy_constant", cfg)
    assert list(tmp_path.iterdir()) == []


def test_report_files_written(tmp_path):
    report = H.run_identity("operator_consistency", output_dir=str(tmp_path))
    out = tmp_path / "operator_consistency"
    assert (out / "report.json").exists()
    assert (out / "errors.csv").exists()
    assert (out / "convergence.csv").exists()
    data = json.loads((out / "report.json").read_text())
    assert data["identity"] == "operator_consistency"
    assert data["provenance"]["config_hash"]
    assert data["passed"] is True
    assert report.runtime_seconds > 0.0


def test_reports_are_reproducible():
    r1 = H.run_identity("cauchy_constant")
    r2 = H.run_identity("cauchy_constant")
    for a, b in zip(r1.rows, r2.rows):
        assert a["interior_error"] == b["interior_error"]
        assert a["exterior_error"] == b["exterior_error"]


def test_convergence_study_table():
    report = H.run_identity("operator_consistency")
    assert report.passed
    table = H.convergence_table(report)
    hs = [row["h"] for row in table if row["case"] == "smooth"]
    assert hs == sorted(hs, reverse=True)
    orders = [row["order"] for row in table if row["order"] is not None]
    assert any(o > 1.8 for o in orders)


def test_reconstruction_dispatch():
    report = H.run_identity("schrodinger_reconstruction")
    assert report.passed


def test_run_suite_subset(tmp_path, monkeypatch):
    # each pooled identity hands the heap it freed back once it is done
    trims = []
    monkeypatch.setattr(runtime, "_malloc_trim", lambda: trims.append)
    monkeypatch.setenv("VEKUA_LAB_THREADS", "2")
    reports = H.run_suite(
        ["cauchy_constant", "operator_consistency"], output_dir=str(tmp_path)
    )
    assert set(reports) == {"cauchy_constant", "operator_consistency"}
    assert all(r.passed for r in reports.values())
    assert trims == [0, 0]
    with pytest.raises(ValueError):
        H.run_suite(["nonsense"])


def test_run_suite_validates_every_config_before_any_check(monkeypatch):
    # a bad override raises once, in the caller, before the pool starts
    calls = []
    monkeypatch.setattr(H, "_report", calls.append)
    monkeypatch.setenv("VEKUA_LAB_THREADS", "2")
    with pytest.raises(ValueError, match="output_dir"):
        H.run_suite(["cauchy_constant", "operator_consistency"], output_dir=5)
    assert calls == []


def test_newton_gradient_gate_sees_the_cauchy_kernel(monkeypatch):
    # the newton gradient is the screened kernel's radial derivative, not the
    # cauchy evaluator, so a cauchy kernel off by a relative 1e-6 shows
    values = H.KernelSpec.values

    def scaled(spec, *args, **kwargs):
        out = values(spec, *args, **kwargs)
        return out * (1 + 1e-6) if spec.family == "cauchy" else out

    monkeypatch.setattr(H.KernelSpec, "values", scaled)
    report = H.run_identity("factorizations", resolutions=(10, 12))
    assert report.extras["grad_newton_vs_cauchy"] > 1e-12


# -- CLI -----------------------------------------------------------------------


def test_cli_verify_exit_code(capsys):
    code = cli.main(["verify", "operator_consistency"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] operator_consistency" in out
    assert "measured order" in out


def test_cli_verify_writes_into_out(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"resolutions": [10, 12]}))
    out = tmp_path / "d"
    cli.main(["verify", "operator_consistency", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "operator_consistency" / "report.json").read_text())
    cfg = H.SuiteConfig.defaults("operator_consistency", resolutions=(10, 12), output_dir=str(out))
    assert report["provenance"]["config_hash"] == cfg.config_hash()


def test_cli_convergence(capsys):
    code = cli.main(["convergence", "cauchy_constant"])
    out = capsys.readouterr().out
    assert code == 0
    assert "order=" in out


def test_cli_suite_list(tmp_path, capsys):
    code = cli.main(
        ["suite", "cauchy_constant,operator_consistency", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "2/2 identity checks passed" in out
    assert (tmp_path / "cauchy_constant" / "report.json").exists()


def test_cli_dtn_export(tmp_path, capsys):
    code = cli.main(
        [
            "dtn",
            "--profile",
            "exponential",
            "--resolution",
            "9",
            "--basis-size",
            "4",
            "--out",
            str(tmp_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    matrix = np.loadtxt(tmp_path / "dtn_matrix.csv", delimiter=",", skiprows=1)
    assert matrix.shape == (16, 3)
    dense = matrix[:, 2].reshape(4, 4)
    assert np.max(np.abs(dense - dense.T)) <= 1e-8 * np.max(np.abs(dense))
    traces = (tmp_path / "traces.csv").read_text().splitlines()
    assert traces[0].startswith("node_index,face,x1,x2,x3")
    assert len(traces) == 1 + 6 * 81


@pytest.mark.parametrize("flag, value", [("--basis-size", "0"), ("--basis-size", "-3"),
                                         ("--resolution", "7"), ("--resolution", "x")])
def test_cli_dtn_rejects_bad_sizes(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["dtn", flag, value, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# config files read by the rejected-input cases, by name: an unknown key, and
# fields of the wrong type, a bool among them, that must not crash or pass
BAD_CONFIGS = {
    "bad.json": {"bogus": 1},
    "resolutions.json": {"resolutions": 16},
    "margin.json": {"margin_fraction": "0.2"},
    "output_dir.json": {"output_dir": 5},
    "interior.json": {"interior_rel_tol": True},
    "exterior.json": {"exterior_abs_tol": True},
    "ratio.json": {"refinement_ratio": True},
    "coarse.json": {"resolutions": [8, 16]},
    "zero_rate.json": {"profile": {"kind": "exponential", "lam": [0, 0, 0]}},
    "thin_margin.json": {"margin_fraction": 0.05},
    "huge.json": {"interior_rel_tol": 10**400},
}


@pytest.mark.parametrize("argv, message", [
    (["suite", "nonsense"], "unknown identities: ['nonsense']"),
    (["suite", ","], "no identities selected"),
    (["verify", "cauchy_constant", "--config", "bad.json"],
     "bad.json: unknown config keys ['bogus']"),
] + [(["verify", "cauchy_constant", "--config", name], message) for name, message in [
    ("resolutions.json", "resolutions must be a list of integers, got 16"),
    ("margin.json", "margin_fraction must be a real number, got '0.2'"),
    ("output_dir.json", "output_dir must be a string or null, got 5"),
    ("interior.json", "interior_rel_tol must be a real number, got True"),
    ("exterior.json", "exterior_abs_tol must be a real number, got True"),
    ("ratio.json", "refinement_ratio must be a real number, got True"),
]] + [
    # resolution 8 is a valid config, but too coarse for these checks
    (["verify", "hodge_orthogonality", "--config", "coarse.json"],
     "no node of a grid of resolution [8, 8, 8] lies inside the support of a bump"),
    (["verify", "teodorescu_inverse", "--config", "coarse.json"],
     "the dual grid of an axis with 8 nodes has 7 nodes"),
    (["verify", "s_alpha", "--config", "coarse.json"],
     "the dual grid of an axis with 8 nodes has 7 nodes"),
    # valid configs outside the domain of one check: refused, not run
    (["verify", "s_alpha", "--config", "zero_rate.json"],
     "profile: identity 's_alpha' normalizes its residual by max |grad f|"),
    (["verify", "cauchy_constant", "--config", "thin_margin.json"],
     "margin_fraction 0.05 keeps evaluation points 0.05 from the boundary"),
    # an int beyond the float range: a usage error, not an OverflowError
    (["verify", "cauchy_constant", "--config", "huge.json"],
     "interior_rel_tol must be a real number, got 1000"),
])
def test_cli_reports_rejected_input_as_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    # input rejected after parsing exits like an argparse error: a usage line
    # and status 2, not a traceback
    for name, config in BAD_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    assert f"vekua-lab: error: {message}" in _cli_usage_error(capsys, argv)


def _traces_csv_per_node(grid, traces):
    """traces.csv as the per-node writer produced it: one row per boundary
    node and face, each value looked up by rounding the node position."""
    lines = ["node_index,face,x1,x2,x3," + ",".join(f"t{k}" for k in range(len(traces)))]
    coords = grid.coords()
    idx = 0
    for axis in range(3):
        for side_id, side in enumerate((0, -1)):
            slab = tuple(side if b == axis else slice(None) for b in range(3))
            for p in coords[slab].reshape(-1, 3):
                index = tuple(np.round((p - grid.origin) / grid.spacing).astype(int))
                vals = ",".join(f"{trace[index]:.10e}" for trace in traces)
                lines.append(f"{idx},{2 * axis + side_id},{p[0]:.10g},{p[1]:.10g},{p[2]:.10g},{vals}")
                idx += 1
    return "\n".join(lines) + "\n"


def test_cli_dtn_traces_csv_matches_per_node_writer(tmp_path, capsys):
    assert cli.main(["dtn", "--resolution", "8", "--basis-size", "5", "--out", str(tmp_path)]) == 0
    grid = BoxGrid.unit_cube(8)
    want = _traces_csv_per_node(grid, cli._trace_basis(grid, 5, H.default_seed()))
    assert (tmp_path / "traces.csv").read_text() == want


@pytest.mark.parametrize("size", [1, 3, 4, 8])
@pytest.mark.parametrize("grid", [BoxGrid.unit_cube(9),
                                  BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [13, 10, 12]),
                                  BoxGrid([0.4, -1.3, 0.2], [2.1, 0.7, 1.3], [50, 41, 45])],
                         ids=["cube", "anisotropic", "anisotropic-large"])
def test_trace_rows_format_coordinates_as_the_per_value_writer(grid, size):
    # coordinate text formatted once per axis value, and the other traces'
    # text from the word-table kernel, give the bytes of every value
    # formatted where it is written, with and without non-coordinate traces
    # after t0..t2; the large box has 12,290 boundary rows, so 5-digit node
    # indices, and a negative coordinate axis
    traces = cli._trace_basis(grid, size, 2024)
    want = "".join(O.trace_rows_per_value(grid, traces))
    assert "".join(cli._trace_rows(grid, traces)) == want


def _e10_text(values):
    """The text of each value by `cli._e10_words`, its null padding removed."""
    return [row.tobytes().replace(b"\0", b"").decode("ascii")
            for row in cli._e10_words(np.asarray(values, dtype=float))]


def _neighbours(x, k):
    """The 2k + 1 floats nearest x, x among them."""
    below, above = [x], [x]
    for _ in range(k):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return below[:0:-1] + above


def test_e10_words_match_the_percent_format_and_reach_its_fallback(monkeypatch):
    # 10^5 random values, exponents over +-40 and uniform in [-2, 2], and
    # edge values: zeros, a subnormal, extremes and non-finite values, 1e+-22
    # and 1e+-23, the neighbours of the smallest and largest values whose
    # scale is an exact power of ten (1e-12, 1e33) and of powers where log10
    # needs its correction, both sides of the carry into the exponent at
    # 9.99999999995, fast-path carries, and exact binary ties (round half to
    # even) that only the fallback decides
    rng = np.random.default_rng(2024)
    spread = rng.uniform(1, 10, 50_000) * 10.0 ** rng.integers(-40, 41, 50_000)
    spread *= rng.choice([-1.0, 1.0], 50_000)
    undecided = [0.0, -0.0, 5e-324, 1e-300, 1.7e308, np.inf, -np.inf, np.nan,
                 12345678901.5, 12345678902.5, -12345678901.5]
    edges = undecided + [1e22, -1e22, 1e-22, 1e23, -1e23, 1e-23]
    for x in (1e-12, 1e10, 1e11, 1e33, 9.99999999995):
        edges += _neighbours(x, 5)
    edges += [9.999999999996 * 10.0**k for k in range(-12, 33, 4)]
    uniform = rng.uniform(-2, 2, 50_000)
    values = np.concatenate([spread, uniform, edges])
    slow = []
    fallback = cli._e10_fallback

    def recorded(v):
        slow.extend(v.tolist())
        return fallback(v)

    monkeypatch.setattr(cli, "_e10_fallback", recorded)
    got = _e10_text(values)
    bad = [(v, text) for v, text in zip(values.tolist(), got) if text != ",%.10e" % v]
    assert not bad, bad[:5]
    assert set(map(repr, undecided)) <= set(map(repr, slow))
    assert _e10_text([12345678901.5, 12345678902.5]) == [",1.2345678902e+10"] * 2
    # among ordinary values the fallback is the exception: a fraction within
    # 1e-3 of one half sends about 0.2% of the uniform values there
    slow.clear()
    _e10_text(uniform)
    assert 0 < len(slow) < 0.005 * len(uniform)


def test_importing_the_cli_builds_no_text_table(tmp_path):
    # the word tables of traces.csv are built on the first export, not at
    # import, which the benchmark's setup time measures
    probe = (
        "import sys\n"
        "import vekua_lab.cli as cli\n"
        "tables = [f for f in vars(cli).values() if hasattr(f, 'cache_info')]\n"
        "before = [f.cache_info().currsize for f in tables]\n"
        "assert cli.main(['dtn', '--resolution', '8', '--out', sys.argv[1]]) == 0\n"
        "print(len(tables), before, [f.cache_info().currsize for f in tables])\n"
    )
    done = fresh_python(probe, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "4 [0, 0, 0, 0] [1, 1, 1, 1]"


def test_trace_basis_is_a_whole_grid_evaluation_on_the_boundary():
    # each trace holds, bit for bit, the boundary values of the same
    # expression evaluated on the whole grid, and a zero interior
    g = BoxGrid([-0.2, 0.1, 0.3], [1.2, 0.9, 1.1], [10, 9, 11])
    X = g.coords()
    rng = np.random.default_rng(2024)
    want = [X[..., a] for a in range(3)]
    for _ in range(3):
        a, b = rng.normal(size=3), rng.normal(size=3)
        want.append(np.sin(X @ a) + np.cos(X @ b))
    inside = np.zeros(tuple(g.resolution), dtype=bool)
    inside[1:-1, 1:-1, 1:-1] = True
    traces = cli._trace_basis(g, 6, 2024)
    assert len(traces) == 6 and len(cli._trace_basis(g, 2, 2024)) == 2
    for got, full in zip(traces, want):
        assert np.array_equal(got[~inside].view(np.int64), full[~inside].view(np.int64))
        assert not np.any(got[inside])


def test_dtn_export_holds_at_most_thirty_nodal_arrays(tmp_path, capsys):
    # the profile, the form and the full-grid trace evaluations are not held
    # while later stages run, traces.csv is written one face at a time, the
    # form is built before the traces exist, its unit-coefficient operator
    # holds broadcast weights and no preconditioner, a solve holds only its
    # CG vectors, and no flux is kept while `matrix` solves: 28.4 nodal
    # arrays at resolution 32
    res = 32
    argv = ["dtn", "--resolution", str(res), "--out", str(tmp_path)]
    assert cli.main(argv) == 0  # first use of the process policy is not the export's
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 30 * 8 * res**3


def test_dtn_exit_status_gates_the_symmetry_defect(monkeypatch, tmp_path, capsys):
    argv = ["dtn", "--resolution", "8", "--basis-size", "4", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    assert f"seed={H.default_seed()}" in printed and "[FAIL]" not in printed
    matrix = (tmp_path / "dtn_matrix.csv").read_bytes()
    energy = pde.DtnForm.energy

    def asymmetric(form, U, V):
        return energy(form, U, V) * (1.0 + 1e-6 * (float(np.sum(U)) > float(np.sum(V))))

    monkeypatch.setattr(pde.DtnForm, "energy", asymmetric)
    assert cli.main(argv) == 1
    assert "[FAIL] relative symmetry defect above 1e-08" in capsys.readouterr().out
    assert (tmp_path / "dtn_matrix.csv").read_bytes() != matrix  # written all the same


def test_cli_config_override(tmp_path, capsys):
    cfg = {
        "identity": "cauchy_constant",
        "resolutions": [16],
        "boundary_cells": 32,
        "interior_rel_tol": 0.01,
        "exterior_abs_tol": 0.01,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["verify", "cauchy_constant", "--config", str(path)])
    assert code == 0


# (identity, case) pairs whose levels are face-cell counts on the finest grid
FACE_CELL_CASES = {("cauchy_constant", "constant-trace"), ("cauchy_vekua", "scalar-solution"),
                   ("cauchy_vekua", "full-solution"), ("green_vekua", "strong-flux")}


def test_every_identity_passes_on_an_anisotropic_box(monkeypatch):
    # the harness takes every grid from SuiteConfig.grid and every h from its level
    origin, extent = [-0.2, 0.1, 0.3], [1.2, 0.9, 1.1]
    monkeypatch.setattr(H.SuiteConfig, "grid",
                        lambda self, res: BoxGrid(origin, extent, [res] * 3))
    reports = H.run_suite(parallel=True)
    assert [name for name, report in reports.items() if not report.passed] == []
    for name, report in reports.items():
        for row in report.rows:
            if (name, row["case"]) in FACE_CELL_CASES:
                assert row["h"] == max(extent) / row["level"]
            else:
                assert row["h"] == max(e / (row["level"] - 1) for e in extent)


def test_levels_share_forms_and_solved_extensions(dirichlet_work):
    # one Schrodinger form (its operator and the harmonic one) per resolution,
    # shared by both rates
    assert H.run_identity("schrodinger_reconstruction").passed
    assert dirichlet_work["__init__"] == 4
    # per resolution: 2 traces x 2 forms (a pairing solves nothing for its
    # second trace); the constant-profile extra adds 2
    dirichlet_work.clear()
    assert H.run_identity("dtn_relation").passed
    assert dirichlet_work["solve"] == 10


def test_boundary_layer_checks_make_one_call_per_kernel_and_level(monkeypatch):
    # cases that share faces and points share the call: borel_pompeiu and
    # cauchy_vekua stack their two traces, schrodinger_reconstruction its two
    # rates per kernel, integral_cauchy its four cases on the Cauchy layer and
    # its three strong ones on the Newton layer
    calls = {}
    layer = H.cauchy_boundary

    def counted(*args, **kwargs):
        calls[identity] = calls.get(identity, 0) + 1
        return layer(*args, **kwargs)

    monkeypatch.setattr(H, "cauchy_boundary", counted)
    for identity in H.IDENTITIES:
        assert H.run_identity(identity).passed
    assert calls == {"cauchy_constant": 3, "borel_pompeiu": 2, "scalar_bp": 2,
                     "scalar_bp_adjoint": 2, "cauchy_vekua": 3, "green_vekua": 8,
                     "integral_cauchy": 4, "schrodinger_reconstruction": 4}


def test_integral_cauchy_solves_each_level_once(dirichlet_work):
    # the weak arm's interior samples are the solution its form's pairings
    # use: per resolution one solve and the form's two assemblies, nothing more
    cfg = H.SuiteConfig.defaults("integral_cauchy")
    assert H.run_identity("integral_cauchy", cfg).passed
    assert dirichlet_work == {"__init__": 2 * len(cfg.resolutions), "solve": len(cfg.resolutions)}


def test_every_suite_solve_is_the_verified_preconditioner_step(monkeypatch):
    # every operator the identities solve with is separable (a profile family's
    # or the Poisson operator), so no solve of the suite falls back to
    # conjugate gradients
    operators = []
    init = pde.DirichletOperator.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        operators.append(self)

    monkeypatch.setattr(pde.DirichletOperator, "__init__", recorded)
    for identity in H.IDENTITIES:
        assert H.run_identity(identity).passed
    solved = [op.tally for op in operators if op.tally.solves]
    assert sum(t.solves for t in solved) == 43
    assert all(t.fallback_iterations == 0 and 0.0 < t.max_residual <= pde.SOLVER_RTOL
               for t in solved)


@pytest.mark.parametrize("identity", ["vekua_pipeline", "s_alpha", "green_vekua",
                                      "schrodinger_reconstruction", "factorizations",
                                      "hodge_orthogonality"])
def test_one_profile_per_level(monkeypatch, identity):
    # every case and extra reads its level's one profile; the finest-level
    # (vekua_pipeline) or coarsest-level (s_alpha) extra reuses it too
    builds = 0
    original = H.ConductivityProfile.__init__

    def counted(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(H.ConductivityProfile, "__init__", counted)
    cfg = H.SuiteConfig.defaults(identity)
    assert H.run_identity(identity, cfg).passed
    assert builds == len(cfg.resolutions)
