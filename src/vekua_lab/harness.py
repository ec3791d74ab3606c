"""Verification harness: runs every supported integral identity end to end,
measures convergence under refinement, and emits machine-readable reports.

Each identity check is data for one case x level runner: per level it maps
every case to a reconstruction (values and targets at an evaluation set with
interior flags) or one scalar residual, cases on one face sampling sharing a
stacked boundary layer, and names its gates and extras.  The runner builds
the rows, per-point residuals and refinement orders and sets `passed`.
Interior errors are relative to the largest interior target magnitude;
exterior magnitudes are normalized by the same scale, so "exterior 5%"
means five percent of the interior signal.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import json
import math
import numbers
import os
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import __version__
from .fields import (
    MIN_RESOLUTION, BoxGrid, MultivectorField, boundary_sampling, boundary_values, bump_factors,
    bump_scalar, cell_average, dirac_D, face_cell_diameter, interior_slices, laplacian, sc_norm,
    scalar_gradient, trilinear_sample, vector_divergence,
)
from .integral_ops import (
    EvaluationSet, cauchy_boundary, margin_centers, scalar_volume_potential, s_alpha, teodorescu,
    teodorescu_on_dual_grid, vector_volume_potential,
)
from .kernels import (
    KernelSpec, cauchy_E_components, fundamental_cauchy_residual, newton_N_components,
    vekua_phi_adjoint_residual, yukawa_delta_flux,
)
from .pde import DirichletOperator, DtnForm, SOLVER_RTOL, dtn_relation_residuals
from .runtime import POLICY, pooled
from .vekua import (
    ConductivityProfile, ExponentialVekuaSolution, PROFILE_FAMILIES, adjoint_vekua_operator,
    beltrami_residual, beltrami_transform, check_profile_on_box, construct_bivector_part,
    exponent_range, hodge_orthogonality, is_finite_real, make_profile, vekua_operator,
    vekua_residual,
)

DEFAULT_SEED = 2024
# Smallest boundary_cells a config accepts; a face-cell sweep raises every level to it.
MIN_BOUNDARY_CELLS = 8


def _env_int(name, default, minimum):
    """Integer value (at least `minimum`) of an environment variable; unset or
    empty gives the default."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def default_seed():
    """VEKUA_LAB_SEED (at least 0), or DEFAULT_SEED when it is unset."""
    return _env_int("VEKUA_LAB_SEED", DEFAULT_SEED, minimum=0)


def thread_cap():
    """VEKUA_LAB_THREADS (at least 1), or None when it is unset."""
    return _env_int("VEKUA_LAB_THREADS", None, minimum=1)


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs for one identity check: profile, resolutions, tolerances, output.

    Frozen, so the validation of `__post_init__` holds for the config's
    life: the generic fields and the box check first, then its identity's
    domain rules.  Fields are stored canonical: counts `int`, reals `float`,
    resolutions a tuple of `int`, the profile its resolved spec, read-only."""

    identity: str
    profile: Mapping = field(default_factory=lambda: {"kind": "exponential"})
    resolutions: tuple = (16, 32)
    margin_fraction: float = 0.2
    interior_rel_tol: float = 0.05
    exterior_abs_tol: float = 0.05
    refinement_ratio: float = 1.8
    n_interior: int = 6
    n_exterior: int = 6
    boundary_cells: int = 64
    seed: int | None = None
    output_dir: str | None = None

    def __post_init__(self):
        check = _registered(self.identity)
        if not isinstance(self.resolutions, (list, tuple)):
            raise ValueError(f"resolutions must be a list of integers, got {self.resolutions!r}")
        if not self.resolutions:
            raise ValueError("resolutions must be non-empty")
        counts = [("resolutions", r, MIN_RESOLUTION) for r in self.resolutions] + [
            ("n_interior", self.n_interior, 1), ("n_exterior", self.n_exterior, 0),
            ("boundary_cells", self.boundary_cells, MIN_BOUNDARY_CELLS),
            ("seed", default_seed() if self.seed is None else self.seed, 0)]
        for name, value, minimum in counts:
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or value < minimum):
                raise ValueError(f"{name}: {value!r} is not an integer >= {minimum}")
            if name != "resolutions":
                object.__setattr__(self, name, int(value))
        object.__setattr__(self, "resolutions", tuple(int(r) for r in self.resolutions))
        if any(b <= a for a, b in zip(self.resolutions, self.resolutions[1:])):
            raise ValueError("resolutions must be strictly increasing")
        for name in ("margin_fraction", "interior_rel_tol", "exterior_abs_tol", "refinement_ratio"):
            value = getattr(self, name)
            if not is_finite_real(value):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not value > 0:
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not 0.0 < self.margin_fraction < 0.5:
            raise ValueError(f"margin_fraction must be in (0, 0.5), got {self.margin_fraction}")
        if self.output_dir is not None and not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string or null, got {self.output_dir!r}")
        for res in self.resolutions:
            grid = self.grid(res)
            first, last = margin_centers(grid, _margin(self, grid))
            if np.any(last < first):
                raise ValueError(f"margin_fraction {self.margin_fraction} leaves no cell center "
                                 f"inside the margin of the resolution-{res} grid, where "
                                 "snapped evaluation points sit")
        object.__setattr__(self, "profile", check_profile_on_box(self.profile, *_box(self)))
        for rule in check.domain:
            rule(self)

    @classmethod
    def defaults(cls, identity, **overrides):
        return cls(identity=identity, **{**_registered(identity).tolerances, **overrides})

    @classmethod
    def from_json(cls, path, identity=None):
        """The config of a JSON object: its keys override the identity's defaults."""
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"{path}: the top level must be an object, got {type(data).__name__}")
        if unknown := sorted(set(data) - {f.name for f in fields(cls)}):
            raise ValueError(f"{path}: unknown config keys {unknown}")
        if identity is not None:
            data["identity"] = identity
        return cls.defaults(**data)

    def config_hash(self):
        """The hash of the computation: every field but output_dir, which is hashed as null."""
        payload = json.dumps({**vars(self), "profile": dict(self.profile), "output_dir": None},
                             sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def grid(self, res):
        """The grid of every check level at resolution `res`: the harness's one domain rule."""
        return BoxGrid.unit_cube(res)


@dataclass
class CheckReport:
    """Outcome of one identity check, serializable to JSON/CSV."""

    identity: str
    statement: str
    passed: bool
    tolerances: dict
    rows: list
    orders: dict
    extras: dict
    points: list
    norms: str
    runtime_seconds: float
    provenance: dict

    def to_dict(self):
        """The report's fields by name; the values are the report's own
        objects, not copies."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def write_json(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict(), indent=2, default=float))

    def write_errors_csv(self, path):
        with open(path, "w") as fh:
            fh.write("case,level,kind,x1,x2,x3,residual\n")
            for p in self.points:
                fh.write(
                    f"{p['case']},{p['level']},{p['kind']},"
                    f"{p['x'][0]:.12g},{p['x'][1]:.12g},{p['x'][2]:.12g},{p['residual']:.6e}\n"
                )

    def write_convergence_csv(self, path):
        with open(path, "w") as fh:
            fh.write("case,level,h,interior_error,order\n")
            for row in convergence_table(self):
                order = "" if row["order"] is None else row["order"]
                fh.write(f"{row['case']},{row['level']},{row['h']},{row['error']:.6e},{order}\n")


def convergence_table(report: CheckReport):
    """(case, level, h, error, order) rows grouped by case; the order of a row
    is measured against the previous level of its case."""
    by_case = {}
    for row in report.rows:
        by_case.setdefault(row["case"], []).append(row)
    return [{"case": case, "level": row["level"], "h": row["h"], "error": row["interior_error"],
             "order": report.orders[case][k - 1] if k and case in report.orders else None}
            for case, rows in by_case.items() for k, row in enumerate(rows)]


def _orders(errors, floor=1e-14):
    return [math.log2(max(a, floor) / max(b, floor)) for a, b in zip(errors, errors[1:])]


def _ratio_ok(errors, required, floor=1e-12):
    """Refinement ratios, treating already-converged (rounding floor) levels as passing."""
    return all(b <= floor or not a / b < required for a, b in zip(errors, errors[1:]))


def _exponential_rate(cfg):
    """The rate lam of the config's exponential profile; the family's default
    rate for a profile of another kind."""
    return np.array(cfg.profile.get("lam", PROFILE_FAMILIES["exponential"][1]["lam"]))


# -- domain rules: rule(cfg) raises a ValueError for a config a check cannot run --


def _box(cfg):
    """The (lower, upper) corners of the box every level grid of the config spans."""
    box = cfg.grid(MIN_RESOLUTION)
    return box.origin, box.top


def _margin(cfg, grid):
    """How far from the boundary of `grid` the config's evaluation points stand."""
    return cfg.margin_fraction * float(np.min(grid.extent))


def _exponential(cfg):
    """The check compares with the exponential family's closed forms."""
    if (kind := cfg.profile["kind"]) != "exponential":
        raise ValueError(f"profile: identity {cfg.identity!r} needs the exponential closed-form "
                         f"family, got profile kind {kind!r}")


def _every_grid(grid_rule):
    """The rule that grid_rule(grid) passes on every level grid, as the
    check is built on it."""
    def rule(cfg):
        for res in cfg.resolutions:
            try:
                grid_rule(cfg.grid(res))
            except ValueError as err:
                raise ValueError(f"{err}; resolutions: identity {cfg.identity!r} cannot run "
                                 f"at resolution {res}") from None
    return rule


def _margin_clears(faces=False, boundary=False, sweep=False):
    """The rule that evaluation points, margin_fraction * min(extent) from the
    boundary, stand at least one face-cell diameter from every face sample
    of the samplings the check integrates boundary layers over, as
    `cauchy_boundary` requires: a level's faces, its boundary quadrature or
    the face-cell sweep."""
    def rule(cfg):
        fixed = (([cfg.boundary_cells] if boundary else [])
                 + (_face_cell_sweep(cfg) if sweep else []))
        for res in cfg.resolutions:
            grid = cfg.grid(res)
            margin = _margin(cfg, grid)
            cells = min(fixed + ([_face_cells(res)] if faces else []))
            if margin < (diameter := face_cell_diameter(grid, cells)):
                raise ValueError(
                    f"margin_fraction {cfg.margin_fraction} keeps evaluation points {margin:.6g} "
                    f"from the boundary of the resolution-{res} grid, less than the diameter "
                    f"{diameter:.6g} of the {cells} face cells per axis identity "
                    f"{cfg.identity!r} integrates boundary layers over")
    return rule


def _hodge_bump_margin(grid):
    return 3.1 * float(np.max(grid.spacing))


def _has_hodge_bump(grid):
    """A node of the grid lies inside the support of hodge_orthogonality's
    bump."""
    bump_factors(grid, _hodge_bump_margin(grid))


def _interior_samples(grid, nodal, pts: EvaluationSet):
    """Interpolate nodal data at interior evaluation points, zero outside."""
    out = np.zeros(len(pts))
    if np.any(pts.is_interior):
        out[pts.is_interior] = trilinear_sample(grid, nodal, pts.interior_points)
    return out


def _dtn_pairings(form, trace_nodal, pts, kernel_trace):
    """Weak DtN pairing of the trace with the boundary trace kernel_trace(c, x), per point x."""
    return np.array([
        form.pair(trace_nodal, boundary_values(form.grid, lambda c: kernel_trace(c, x)))
        for x in pts.points])


# -- the case x level runner ------------------------------------------------------


class Recon(NamedTuple):
    """A reconstruction at an evaluation set; targets count at interior points only."""

    pts: EvaluationSet
    values: np.ndarray
    targets: np.ndarray | float


class Plan(NamedTuple):
    """What a check hands the runner: results (case, level, h, outcome) in row
    order, where an outcome is a Recon, a scalar residual or a (residual, extra
    row fields) pair; gates, name -> predicate(rows by case, extras, cfg)."""

    results: list
    gates: dict
    extras: dict = {}


class Level:
    """A refinement level built once for every case of a check: grid, h (largest spacing),
    margin depth, and on first use evaluation sets, faces (2 (res - 1) cells per axis),
    the config's boundary quadrature and the config's profile on the grid."""

    def __init__(self, cfg, res):
        self.cfg, self.value, self.grid = cfg, res, cfg.grid(res)
        self.h = float(np.max(self.grid.spacing))
        self.depth = max(2, round(cfg.margin_fraction * (res - 2)))
        self._points = {}

    def points(self, snap=True):
        """The seeded evaluation set; snapped interior points sit on cell centers."""
        if snap not in self._points:
            cfg = self.cfg
            self._points[snap] = EvaluationSet.build(
                self.grid, cfg.n_interior, cfg.n_exterior, seed=cfg.seed, snap_to_centers=snap,
                margin=_margin(cfg, self.grid))
        return self._points[snap]

    @functools.cached_property
    def faces(self):
        return boundary_sampling(self.grid, _face_cells(self.value))

    @functools.cached_property
    def boundary(self):
        return boundary_sampling(self.grid, self.cfg.boundary_cells)

    @functools.cached_property
    def profile(self):
        return make_profile(self.grid, self.cfg.profile)

    def face_cell_sweep(self):
        """Levels that keep this grid and its evaluation sets and refine the faces
        alone, with h the largest extent over the face cells."""
        sweep = []
        for cells in _face_cell_sweep(self.cfg):
            level = copy.copy(self)
            level.value, level.h = cells, float(np.max(self.grid.extent)) / cells
            level.faces = boundary_sampling(self.grid, cells)
            sweep.append(level)
        return sweep


def _sweep(levels, outcomes):
    """Case-major results; outcomes(level) maps each case to its outcome."""
    results = _per_level(levels, outcomes)
    cases = list(dict.fromkeys(case for case, *_ in results))
    return sorted(results, key=lambda result: cases.index(result[0]))


def _per_level(levels, outcomes):
    """Level-major results; outcomes(level) maps each case to its outcome."""
    return [(case, lv.value, lv.h, out) for lv in levels for case, out in outcomes(lv).items()]


def _face_cells(res):
    """Face cells per axis of a level at resolution res: two per grid cell."""
    return 2 * (res - 1)


def _face_cell_sweep(cfg):
    cells = cfg.boundary_cells
    return sorted({max(MIN_BOUNDARY_CELLS, level) for level in (cells // 4, cells // 2, cells)})


def _interior(*cases, tol=None):
    """Gate: the finest-level interior error of each case (default all) is within tol."""
    return lambda by_case, extras, cfg: all(
        by_case[c][-1]["interior_error"] <= (cfg.interior_rel_tol if tol is None else tol)
        for c in cases or by_case)


def _exterior(finest=False):
    """Gate: the exterior error of every row (finest levels only) is within tolerance."""
    return lambda by_case, extras, cfg: all(
        r["exterior_error"] <= cfg.exterior_abs_tol
        for rows in by_case.values() for r in (rows[-1:] if finest else rows))


def _refines(*cases, ratio=None):
    """Gate: the interior rms errors of each case (default all) shrink by the ratio."""
    return lambda by_case, extras, cfg: all(
        _ratio_ok([r["interior_l2"] for r in by_case[c]], ratio or cfg.refinement_ratio)
        for c in cases or by_case)


def _extra_within(key, bound):
    """Gate: a recorded extra is at most `bound`."""
    return lambda by_case, extras, cfg: extras[key] <= bound


class IdentityCheck(NamedTuple):
    """What an identity is: its plan function (cfg, levels) -> Plan, the
    norms of its residuals, its statement, the tolerances its configs
    default to, and its domain, rules rule(cfg) that `SuiteConfig` applies
    in order."""

    plan: Callable
    norms: str
    statement: str
    tolerances: Mapping
    domain: tuple


IDENTITIES = {}  # identity -> IdentityCheck, in suite order


def _check(identity, norms, statement, tolerances=None, domain=()):
    """Register a plan function as the check of `identity`."""
    def register(plan):
        IDENTITIES[identity] = IdentityCheck(plan, norms, statement,
                                             MappingProxyType(tolerances or {}), domain)
        return plan
    return register


def _registered(identity):
    try:
        return IDENTITIES[identity]
    except (KeyError, TypeError):
        raise ValueError(f"unknown identity {identity!r}; known: {sorted(IDENTITIES)}") from None


def _report(cfg: SuiteConfig) -> CheckReport:
    """The report of the check of cfg.identity, on levels built here once,
    one per resolution, for all of its cases."""
    check = IDENTITIES[cfg.identity]
    t0 = time.monotonic()
    plan = check.plan(cfg, [Level(cfg, res) for res in cfg.resolutions])
    rows, points, by_case = [], [], {}
    for case, level, h, outcome in plan.results:
        row = {"case": case, "level": level, "h": h}
        if isinstance(outcome, Recon):
            inside = outcome.pts.is_interior
            targets = np.where(inside, outcome.targets, 0.0)
            scale = float(np.max(np.abs(targets[inside]))) or 1.0
            err = np.abs(np.asarray(outcome.values, dtype=float) - targets) / scale
            row.update(
                interior_error=float(np.max(err[inside])),
                interior_l2=float(np.sqrt(np.mean(err[inside] ** 2))),
                exterior_error=float(np.max(err[~inside])) if np.any(~inside) else 0.0)
            points += [{"case": case, "level": level,
                        "kind": "interior" if flag else "exterior",
                        "x": [float(c) for c in x], "residual": float(e)}
                       for x, flag, e in zip(outcome.pts.points, inside, err)]
        else:
            error, more = outcome if isinstance(outcome, tuple) else (outcome, {})
            row.update(interior_error=error, interior_l2=error, exterior_error=0.0, **more)
        rows.append(row)
        by_case.setdefault(case, []).append(row)
    extras = dict(plan.extras)
    return CheckReport(
        identity=cfg.identity,
        statement=check.statement,
        passed=all(gate(by_case, extras, cfg) for gate in plan.gates.values()),
        tolerances={key: getattr(cfg, key) for key in
                    ("interior_rel_tol", "exterior_abs_tol", "refinement_ratio")},
        rows=rows,
        orders={case: _orders([r["interior_l2"] for r in case_rows])
                for case, case_rows in by_case.items() if len(case_rows) >= 2},
        extras=extras,
        points=points,
        norms=check.norms,
        runtime_seconds=time.monotonic() - t0,
        provenance={"config_hash": cfg.config_hash(), "build": __version__},
    )


# -- identity checks ------------------------------------------------------------


@_check("cauchy_constant", "max and rms over evaluation points of |Sc - target|",
        "Boundary integral of the Cauchy kernel against the outward normal reproduces the "
        "constant 1 inside the box and 0 outside.",
        tolerances=dict(interior_rel_tol=1e-3, exterior_abs_tol=1e-3),
        domain=(_margin_clears(sweep=True),))
def check_cauchy_constant(cfg: SuiteConfig, levels):
    def outcomes(lv):
        pts = lv.points(snap=False)
        layer = cauchy_boundary(KernelSpec("cauchy"), lv.faces, np.ones(len(lv.faces)), pts.points)
        return {"constant-trace": Recon(pts, layer[:, 0], 1.0)}

    return Plan(_sweep(levels[-1].face_cell_sweep(), outcomes),
                {"interior": _interior(), "exterior": _exterior(finest=True)},
                {"face_cells": _face_cell_sweep(cfg)})


def _coefficients(pts, blades):
    """(m, 8) coefficient rows at points; blades(x, y, z) maps blade masks to values."""
    pts = np.atleast_2d(pts)
    out = np.zeros((pts.shape[0], 8))
    for mask, values in blades(*pts.T).items():
        out[:, mask] = values
    return out


def _quadratic_trace(pts):
    return _coefficients(pts, lambda x, y, z: {2: x**2})


def _constant_trace(pts):
    # the e13 component exercises non-paravector blades
    return _coefficients(pts, lambda x, y, z: {0: 1.0, 5: 0.5})


def _nodal(grid, fn):
    """Multivector field of a pointwise coefficient function on the grid nodes."""
    res = tuple(grid.resolution)
    return MultivectorField(grid, fn(grid.coords().reshape(-1, 3)).reshape(res + (8,)))


@_check("borel_pompeiu", "max-coefficient norm per point, relative to the sup norm of v",
        "The volume transform of D v plus the boundary Cauchy integral of the trace reproduces v "
        "at interior points and vanishes at exterior points.",
        tolerances=dict(interior_rel_tol=0.02, exterior_abs_tol=0.02),
        domain=(_margin_clears(boundary=True),))
def check_borel_pompeiu(cfg: SuiteConfig, levels):
    traces = {"constant": _constant_trace, "quadratic": _quadratic_trace}

    # residual T[Dv] + int_bdry E(y - x) eta v ds - (v(x) if interior), per point
    def outcomes(lv):
        pts, bq = lv.points(), lv.boundary
        layers = cauchy_boundary(KernelSpec("cauchy"), bq,
                                 np.stack([fn(bq.positions) for fn in traces.values()]), pts.points)
        recons = {}
        for (case, fn), layer in zip(traces.items(), layers):
            v = _nodal(lv.grid, fn)
            residual = (teodorescu(dirac_D(v), pts.points) + layer
                        - np.where(pts.is_interior[:, None], fn(pts.points), 0.0))
            recons[case] = Recon(pts, np.max(np.abs(residual), axis=-1) / v.max_norm(), 0.0)
        return recons

    return Plan(_sweep(levels, outcomes),
                {"interior": _interior("quadratic"), "exterior": _exterior(),
                 "refinement": _refines("quadratic")})


@_check("teodorescu_inverse", "max-coefficient norm over the margin-interior dual lattice",
        "The volume transform against the Cauchy kernel is a right inverse of the Dirac operator; "
        "the transform of a constant vanishes at the box center.",
        tolerances=dict(interior_rel_tol=0.02, exterior_abs_tol=0.02),
        domain=(_every_grid(BoxGrid.dual_grid),))
def check_teodorescu_inverse(cfg: SuiteConfig, levels):
    def residual(lv):
        g = MultivectorField.from_components(lv.grid, {1: np.ones(tuple(lv.grid.resolution))})
        DT = dirac_D(teodorescu_on_dual_grid(g))
        diff = DT.values[interior_slices(lv.depth)].copy()
        diff[..., 1] -= 1.0
        return {"right-inverse": float(np.max(np.abs(diff)))}

    grid = levels[-1].grid
    constant = MultivectorField.from_scalar(grid, np.ones(tuple(grid.resolution)))
    center = teodorescu(constant, [grid.origin + grid.extent / 2])
    return Plan(_sweep(levels, residual),
                {"interior": _interior(), "refinement": _refines(),
                 "odd-symmetry": _extra_within("odd_symmetry_at_center", 1e-12)},
                {"odd_symmetry_at_center": float(np.max(np.abs(center)))})


def _smooth_test_field(grid):
    X = grid.coords()
    pi = math.pi
    return MultivectorField.from_components(grid, {
        0: np.sin(pi * X[..., 0]) * np.cos(pi * X[..., 1]),
        1: np.sin(pi * X[..., 2]),
        6: np.cos(pi * X[..., 0]) * np.sin(pi * X[..., 1]),  # e23
        7: np.exp(X[..., 2]) * 0.25,
    })


def _quadratic_field(grid):
    X = grid.coords()
    base = X[..., 0] ** 2 + X[..., 1] * X[..., 2] - 0.5 * X[..., 2] ** 2
    return MultivectorField.from_components(grid, {0: base, 1: base, 6: base})


def _squared_dirac_defect(w):
    """Sup of D^2 w + Delta w over nodes two layers in."""
    combo = dirac_D(dirac_D(w)) + laplacian(w)
    return float(np.max(np.abs(combo.values[interior_slices(2)])))


@_check("operator_consistency", "sup norm over interior nodes (two layers in)",
        "The squared Dirac operator equals minus the componentwise Laplacian: exact on "
        "quadratics, second order on smooth fields.",
        tolerances=dict(refinement_ratio=2.0**1.9))
def check_operator_consistency(cfg: SuiteConfig, levels):
    # exactness is resolution independent; the coarsest grid keeps the 1/h^2
    # roundoff amplification of nested second differences smallest
    quad_err = _squared_dirac_defect(_quadratic_field(levels[0].grid))
    smooth = lambda lv: {"smooth": _squared_dirac_defect(_smooth_test_field(lv.grid))}
    return Plan(_sweep(levels, smooth),
                {"quadratic": _extra_within("quadratic_error", 1e-12), "refinement": _refines()},
                {"quadratic_error": quad_err})


def _mixed_smooth_trace(pts):
    return _coefficients(pts, lambda x, y, z: {
        0: np.sin(2.0 * x) + y**2, 2: np.cos(z) * x, 3: 0.5 * y * z, 7: 0.3 * np.sin(y)})


def _scalar_bp_plan(cfg, levels, adjoint):
    """Scalar-part representation: boundary kernel integral minus volume term."""
    lam = _exponential_rate(cfg)
    case = "adjoint-weighted" if adjoint else "screened-kernel"

    def outcomes(lv):
        grid, pts, bq = lv.grid, lv.points(), lv.boundary
        v = _nodal(grid, _mixed_smooth_trace)
        target = _mixed_smooth_trace(pts.points)[:, 0]
        if adjoint:
            # kernel E/f folds the 1/f weight into trace and integrand;
            # the operator side is D - M^alpha C and the target Sc v / f.
            trace = _mixed_smooth_trace(bq.positions) / np.exp(bq.positions @ lam)[:, None]
            B = cauchy_boundary(KernelSpec("cauchy"), bq, trace, pts.points)
            m = adjoint_vekua_operator(v, lam).values / np.exp(grid.coords() @ lam)[..., None]
            V = vector_volume_potential(pts.points, grid, cell_average(m), lam=None)
            target = target * (1.0 / np.exp(pts.points @ lam))
        else:
            trace = _mixed_smooth_trace(bq.positions)
            B = cauchy_boundary(KernelSpec("vekua_phi", lam=lam), bq, trace, pts.points)
            m = vekua_operator(v, lam).values
            V = vector_volume_potential(pts.points, grid, cell_average(m), lam=lam)
        return {case: Recon(pts, B[:, 0] - V[:, 0], target)}

    return Plan(_sweep(levels, outcomes),
                {"interior": _interior(), "exterior": _exterior(), "refinement": _refines()},
                {"lam": lam.tolist()})


@_check("scalar_bp", "relative to the interior sup of the scalar target",
        "Boundary integral of the screened grade-1 kernel minus its volume integral against (D - "
        "alpha C) v recovers the scalar part of v inside and vanishes outside.",
        domain=(_exponential, _margin_clears(boundary=True)))
def check_scalar_bp(cfg: SuiteConfig, levels):
    return _scalar_bp_plan(cfg, levels, adjoint=False)


@_check("scalar_bp_adjoint", "relative to the interior sup of the scalar target",
        "Boundary integral of the conjugate-weighted Cauchy kernel minus its volume integral "
        "against the adjoint operator image recovers Sc v / f (the 1/f delta weight of the kernel "
        "is part of the statement).",
        domain=(_exponential, _margin_clears(boundary=True)))
def check_scalar_bp_adjoint(cfg: SuiteConfig, levels):
    return _scalar_bp_plan(cfg, levels, adjoint=True)


@_check("cauchy_vekua", "relative to the interior sup of the scalar part",
        "For solutions of the Vekua equation, the boundary integral of the screened grade-1 "
        "kernel alone recovers the scalar part inside and vanishes outside.",
        tolerances=dict(refinement_ratio=2.0), domain=(_exponential, _margin_clears(sweep=True)))
def check_cauchy_vekua(cfg: SuiteConfig, levels):
    lam = _exponential_rate(cfg)
    sol = ExponentialVekuaSolution(lam)
    kernel = KernelSpec("vekua_phi", lam=lam)
    solutions = {
        "scalar-solution": lambda p: np.pad(np.exp(np.atleast_2d(p) @ lam)[:, None],
                                            ((0, 0), (0, 7))),
        "full-solution": lambda p: sol.w_coeffs(np.atleast_2d(p)),
    }

    def outcomes(lv):
        pts, bq = lv.points(snap=False), lv.faces
        layers = cauchy_boundary(kernel, bq,
                                 np.stack([fn(bq.positions) for fn in solutions.values()]),
                                 pts.points)
        return {case: Recon(pts, layer[:, 0], fn(pts.points)[:, 0])
                for (case, fn), layer in zip(solutions.items(), layers)}

    return Plan(_sweep(levels[-1].face_cell_sweep(), outcomes),
                {"interior": _interior(), "exterior": _exterior(finest=True),
                 "refinement": _refines()},
                {"face_cells": _face_cell_sweep(cfg), "lam": lam.tolist()})


# the weak arm of green_vekua solves the conductivity problem with the trace
# u0 = -exp(-2 lam . x) / 2; the solve meets SOLVER_RTOL at every resolution
# from 8 to 64 while lam . x spans at most this much on the box (along y a
# span of 55 fails at resolution 32, 53 at 48 and 52 at 64)
GREEN_SOLVE_REACH = 50.0


def _green_solve_reaches(cfg):
    """The profile domain of green_vekua: lam . x spans at most
    GREEN_SOLVE_REACH on the box."""
    lam = _exponential_rate(cfg)
    low, high = exponent_range(lam, *_box(cfg))
    if not high - low <= GREEN_SOLVE_REACH:
        raise ValueError(
            f"profile: identity 'green_vekua' solves the conductivity problem of its weak arm, "
            f"with trace -exp(-2 lam . x) / 2, to the relative residual {SOLVER_RTOL:g} only "
            f"while lam . x spans at most {GREEN_SOLVE_REACH:g} on the box; lam {lam.tolist()} "
            f"takes lam . x over [{low:.6g}, {high:.6g}]")


@_check("green_vekua", "relative to the interior sup of the scalar part",
        "The scalar part of a Vekua solution is reproduced by the boundary integral of the vector "
        "kernel against the trace plus the flux term, in both its strong (pointwise conormal "
        "flux) and weak (volume-energy DtN pairing) forms.",
        tolerances=dict(refinement_ratio=2.0),
        domain=(_exponential, _green_solve_reaches, _margin_clears(faces=True, sweep=True)))
def check_green_vekua(cfg: SuiteConfig, levels):
    lam = _exponential_rate(cfg)
    sol = ExponentialVekuaSolution(lam)
    phi, theta = KernelSpec("vekua_phi", lam=lam), KernelSpec.theta(float(lam @ lam))

    def strong(lv):
        bq, pts = lv.faces, lv.points(snap=False)
        flux_b = np.sum(sol.flux(bq.positions) * bq.normals, axis=1)
        vals = (cauchy_boundary(phi, bq, sol.w0(bq.positions), pts.points)[:, 0]
                + cauchy_boundary(theta, bq, flux_b / sol.f(bq.positions), pts.points)[:, 0])
        return {"strong-flux": Recon(pts, vals, sol.w0(pts.points))}

    def weak(lv):
        bq, pts = lv.faces, lv.points(snap=False)
        form = DtnForm.conductivity(lv.profile)
        vals = cauchy_boundary(phi, bq, sol.w0(bq.positions), pts.points)[:, 0] + _dtn_pairings(
            form, boundary_values(lv.grid, sol.u0), pts,
            lambda c, x: theta.values(c - x) / sol.f(c))
        return {"weak-dtn": Recon(pts, vals, sol.w0(pts.points))}

    return Plan(_sweep(levels[-1].face_cell_sweep(), strong) + _sweep(levels, weak),
                {"interior": _interior(), "exterior": _exterior(),
                 "refinement": _refines("strong-flux")},
                {"lam": lam.tolist()})


@_check("integral_cauchy", "relative to the interior sup of the solution",
        "Conductivity solutions are reproduced from their trace, their conormal flux against the "
        "Newton kernel and a volume correction weighted by the log-gradient of the profile; the "
        "flux term is also evaluated weakly as a DtN pairing.",
        domain=(_margin_clears(faces=True),))
def check_integral_cauchy(cfg: SuiteConfig, levels):
    cauchy, newton = KernelSpec("cauchy"), KernelSpec("newton")
    lam = _exponential_rate(cfg)
    sol = ExponentialVekuaSolution(lam)
    a, b = 1.0, 0.5
    strong_cases = {  # case: (profile, closed-form solution u0, its gradient)
        "strong-harmonic": ({"kind": "constant", "value": 1.0}, lambda p: np.atleast_2d(p)[:, 0],
                            lambda p: np.broadcast_to([1.0, 0.0, 0.0], np.atleast_2d(p).shape)),
        "strong-exponential": ({"kind": "exponential", "lam": lam}, sol.u0, sol.grad_u0),
        "strong-linear": ({"kind": "linear_z", "a": a, "b": b},
                          lambda p: -1.0 / (b * (a + b * np.atleast_2d(p)[:, 2])),
                          lambda p: np.outer(1.0 / (a + b * np.atleast_2d(p)[:, 2]) ** 2,
                                             [0.0, 0.0, 1.0])),
    }

    trace_fn = lambda c: c[..., 0] + 0.3 * c[..., 1]  # the weak arm's trace

    def outcomes(lv):
        # face sampling refines with the volume so every term is O(h^2); the
        # strong cases and the weak arm share one Cauchy layer, the strong
        # cases one Newton layer
        grid, pts, bq = lv.grid, lv.points(), lv.faces
        traces = [u0_fn for _, u0_fn, _ in strong_cases.values()] + [trace_fn]
        layers = cauchy_boundary(cauchy, bq, np.stack([fn(bq.positions) for fn in traces]),
                                 pts.points)[..., 0]
        fluxes = np.stack([np.sum(grad_fn(bq.positions) * bq.normals, axis=1)
                           for *_, grad_fn in strong_cases.values()])
        strong = layers[:-1] + cauchy_boundary(newton, bq, fluxes, pts.points)[..., 0]
        centers, recons = grid.cell_centers().reshape(-1, 3), {}
        for (case, (spec, u0_fn, grad_fn)), layer in zip(strong_cases.items(), strong):
            rho = np.sum(make_profile(grid, spec).alpha_at(centers) * grad_fn(centers), axis=-1)
            recons[case] = Recon(pts, layer + 2.0 * scalar_volume_potential(pts.points, grid, rho),
                                 u0_fn(pts.points))

        # weak arm: discrete solution, DtN pairing for the flux, any W^{1,inf} profile
        profile = make_profile(grid, {"kind": "quadratic_z", "a": 1.0, "c": 0.5})
        trace_nodal = trace_fn(grid.coords())
        form = DtnForm.conductivity(profile)
        u0_disc = form.solution(trace_nodal)
        rho_nodal = np.sum(profile.alpha * scalar_gradient(grid, u0_disc), axis=-1)
        vol_term = 2.0 * scalar_volume_potential(pts.points, grid,
                                                 cell_average(rho_nodal, blade_axis=False))
        f_at = lambda c: profile.f_at(c.reshape(-1, 3)).reshape(c.shape[:-1])
        vals = layers[-1] + _dtn_pairings(
            form, trace_nodal, pts, lambda c, x: newton.values(c - x) / f_at(c) ** 2)
        return {**recons, "weak-quadratic": Recon(pts, vals + vol_term,
                                                  _interior_samples(grid, u0_disc, pts))}

    return Plan(_sweep(levels, outcomes),
                {"interior": _interior(), "exterior": _exterior(finest=True),
                 "refinement": _refines(ratio=1.2)})


@_check("schrodinger_reconstruction", "relative to the interior sup of the solution",
        "Solutions of the screened Laplace equation are reproduced from their trace against the "
        "gradient of the screened kernel plus the weak DtN pairing with the kernel trace; "
        "exterior points give zero.",
        domain=(_exponential, _margin_clears(faces=True)))
def check_schrodinger_reconstruction(cfg: SuiteConfig, levels):
    lam = _exponential_rate(cfg)
    q = float(lam @ lam)
    rates = {
        "axis-exponential": lam,
        "rotated-exponential": np.linalg.norm(lam) * np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
    }
    phi, theta = KernelSpec("vekua_phi", lam=lam), KernelSpec.theta(q)

    def outcomes(lv):
        pts, bq = lv.points(snap=False), lv.faces
        # one form for both rates; its solution cache keeps their traces apart
        form = DtnForm.schrodinger(lv.profile)
        phi0_b = np.stack([np.exp(bq.positions @ rate) for rate in rates.values()])
        # -sum (grad theta_q . eta) phi0 w, with grad theta_q = Phi_lam + lam theta_q
        layers = (cauchy_boundary(phi, bq, phi0_b, pts.points)[..., 0]
                  - cauchy_boundary(theta, bq, (bq.normals @ lam) * phi0_b, pts.points)[..., 0])
        return {case: Recon(pts, layer + _dtn_pairings(form, np.exp(lv.grid.coords() @ rate), pts,
                                                       lambda c, x: theta.values(c - x)),
                            np.exp(pts.points @ rate))
                for (case, rate), layer in zip(rates.items(), layers)}

    return Plan(_sweep(levels, outcomes),
                {"interior": _interior(), "exterior": _exterior(finest=True),
                 "refinement": _refines(ratio=1.2)},
                {"lam": lam.tolist(), "q": q})


@_check("factorizations", "sup norms at interior nodes; kernel residuals at random points",
        "Applying the two perturbed Dirac operators in sequence to a scalar equals the screened "
        "Laplacian: exact for the quadratic constant-coefficient case, second order for smooth "
        "log-gradient coefficients; the weighted Cauchy kernel and the screened vector kernel are "
        "annihilated by their operators at machine precision.",
        tolerances=dict(refinement_ratio=2.0**0.9))
def check_factorizations(cfg: SuiteConfig, levels):
    # symbolic case: constant alpha = c e1, h0 = x1^2, both sides -2 + c^2 x1^2;
    # stencils are exact on quadratics, so the coarsest grid suffices and keeps
    # the 1/h^2 roundoff amplification smallest
    c = 0.7
    alpha = [c, 0.0, 0.0]
    grid = levels[0].grid
    X = grid.coords()
    h0 = MultivectorField.from_scalar(grid, X[..., 0] ** 2)
    outer = adjoint_vekua_operator(vekua_operator(h0, alpha), alpha).values
    closed = -2.0 + c**2 * X[..., 0] ** 2
    sym_err = float(np.max(np.abs(outer[..., 0] - closed))) + float(np.max(np.abs(outer[..., 1:])))

    # smooth operator check with alpha = grad f / f
    def smooth(lv):
        profile = lv.profile
        X = lv.grid.coords()
        h_vals = np.sin(2.0 * X[..., 0]) * np.cos(X[..., 1]) + 0.5 * np.sin(X[..., 2]) * X[..., 0]
        h0 = MultivectorField.from_scalar(lv.grid, h_vals)
        rhs = adjoint_vekua_operator(vekua_operator(h0, profile.alpha), profile.alpha).values
        lhs = -laplacian(h0).values[..., 0] + profile.q * h_vals
        sl = interior_slices(2)
        scale = float(np.max(np.abs(lhs[sl]))) or 1.0
        residual = (float(np.max(np.abs(rhs[sl + (0,)] - lhs[sl])))
                    + float(np.max(np.abs(rhs[sl + (slice(1, None),)])))) / scale
        return {"smooth-log-gradient": residual}

    # kernel identities at machine precision, closed-form derivatives
    rng = np.random.default_rng(cfg.seed)
    pts = rng.normal(size=(100, 3))
    radii = np.linalg.norm(pts, axis=1, keepdims=True)
    pts = pts / radii * (0.3 + 1.2 * rng.random((100, 1)))
    lam = _exponential_rate(cfg)
    flux_errors = [abs(yukawa_delta_flux(eps, float(lam @ lam) or 1.0) - 1.0)
                   for eps in (0.2, 0.1, 0.05)]
    return Plan(
        [("symbolic-quadratic", levels[0].value, levels[0].h, sym_err)]
        + _sweep(levels, smooth),
        {
            "symbolic": _interior("symbolic-quadratic", tol=1e-12),
            "refinement": _refines("smooth-log-gradient"),
            "kernel": _extra_within("kernel_residual", 1e-12),
            "adjoint-kernel": _extra_within("adjoint_kernel_residual", 1e-12),
            "newton-gradient": _extra_within("grad_newton_vs_cauchy", 1e-12),
            "delta-flux": lambda by_case, extras, cfg: all(
                b <= 0.6 * a for a, b in zip(flux_errors, flux_errors[1:])),
        },
        {
            "kernel_residual": float(np.max(fundamental_cauchy_residual(pts, lam))),
            "adjoint_kernel_residual": float(np.max(vekua_phi_adjoint_residual(pts, lam))),
            "grad_newton_vs_cauchy":
                float(np.max(np.abs(newton_N_components(pts)[1] - cauchy_E_components(pts)))),
            "delta_flux_errors": flux_errors,
        },
    )


# the Beltrami coefficient (1 - f^2) / (1 + f^2) is below 1 in magnitude as a
# float only while f^2 is within about 2^(+-53) = exp(+-36.7)
BELTRAMI_LOG_F = 18.0
# the lifted rotation field f^2 grad u0 = lam must stand well above the
# rounding of a discrete solution's stencil divergence, about 1e-11 / h^2
MIN_ROTATION = 1e-6


def _lifts_to_a_beltrami_field(cfg):
    """The profile domain of vekua_pipeline: f^2 = exp(2 lam . x) within
    exp(+-2 BELTRAMI_LOG_F) on the box, so the Beltrami coefficient is
    elliptic as a float, and |lam| at least MIN_ROTATION, so the rotation
    field that the lift inverts is not lost in the solver's rounding."""
    lam = _exponential_rate(cfg)
    low, high = exponent_range(lam, *_box(cfg))
    if not (max(-low, high) <= BELTRAMI_LOG_F and np.max(np.abs(lam)) >= MIN_ROTATION):
        raise ValueError(
            f"profile: identity 'vekua_pipeline' needs lam . x within +-{BELTRAMI_LOG_F:g} on "
            f"the box, where the Beltrami coefficient (1 - f^2) / (1 + f^2) stays below 1 in "
            f"magnitude, and max |lam_i| >= {MIN_ROTATION:g}, so the lifted rotation field "
            f"is not zero; lam {lam.tolist()} takes lam . x over [{low:.6g}, {high:.6g}]")


@_check("vekua_pipeline", "residuals normalized by coefficient and field sup norms",
        "A scalar conductivity solution lifts to a full Vekua solution through the derived "
        "bivector duality; the lifted field satisfies the Vekua equation, its Beltrami transform "
        "satisfies the Beltrami equation, and its scalar part over f satisfies the conductivity "
        "equation, all at stencil order.",
        tolerances=dict(interior_rel_tol=0.03), domain=(_exponential, _lifts_to_a_beltrami_field))
def check_vekua_pipeline(cfg: SuiteConfig, levels):
    lam = _exponential_rate(cfg)
    sol = ExponentialVekuaSolution(lam)

    def residuals(lv):
        grid, profile = lv.grid, lv.profile
        coords = grid.coords()
        w, _ = construct_bivector_part(profile, sol.u0(coords), grad_u0=sol.grad_u0(coords))
        alpha_scale = float(np.max(np.abs(profile.alpha)))
        vres = float(np.max(vekua_residual(w, profile.alpha))) / (alpha_scale * w.max_norm())
        u = beltrami_transform(w, profile)
        du_scale = float(np.max(np.abs(dirac_D(u).values))) or 1.0
        bres = float(np.max(beltrami_residual(u, profile.beltrami_mu()))) / du_scale
        u0n = w.sc() / profile.f
        cond = vector_divergence(grid, profile.f[..., None] ** 2 * scalar_gradient(grid, u0n))
        flux_scale = float(np.max(np.abs(profile.f**2))) * (
            float(np.max(np.abs(scalar_gradient(grid, u0n)))) or 1.0)
        cres = (float(np.max(np.abs(cond[interior_slices(2)])))
                * float(np.min(grid.extent)) / flux_scale)
        return {"vekua-residual": vres, "beltrami-residual": bres, "conductivity-residual": cres}

    # discrete-solver variant and the bivector-free degenerate case, recorded
    grid, profile = levels[-1].grid, levels[-1].profile
    u0_disc = DirichletOperator(grid, sigma=profile.f**2).solve(sol.u0(grid.coords()))
    # stencil gradients of the discrete solution keep the source constant
    # only to second order, so the constancy gate is opened to match
    w_disc, _ = construct_bivector_part(profile, u0_disc, constant_tol=0.05)
    vres_disc = (float(np.max(vekua_residual(w_disc, profile.alpha)))
                 / (float(np.max(np.abs(profile.alpha))) * w_disc.max_norm()))
    ratio_field = MultivectorField.from_scalar(grid, 2.5 * profile.f).sc() / profile.f
    bivector_free_dev = float(np.max(np.abs(ratio_field - ratio_field.mean())))
    return Plan(_per_level(levels, residuals),
                {"interior": _interior(),
                 "refinement": _refines("vekua-residual", "beltrami-residual"),
                 "bivector-free": _extra_within("bivector_free_deviation", 1e-12)},
                {"discrete_solution_residual": vres_disc,
                 "bivector_free_deviation": bivector_free_dev})


@_check("hodge_orthogonality", "pairing normalized by the L2 norms of the two fields",
        "The scalar pairing of a Vekua solution against the deformed Dirac image of a compactly "
        "supported field vanishes: solutions and the deformed-operator range split the space "
        "orthogonally.",
        tolerances=dict(interior_rel_tol=0.01),
        domain=(_exponential, _every_grid(_has_hodge_bump)))
def check_hodge_orthogonality(cfg: SuiteConfig, levels):
    lam = _exponential_rate(cfg)

    def normalized(w, v, alpha):
        return abs(hodge_orthogonality(w, v, alpha)) / (sc_norm(w) * sc_norm(v))

    def pairings(lv):
        grid, profile = lv.grid, lv.profile
        X = grid.coords()
        bump = bump_scalar(grid, margin=_hodge_bump_margin(grid))
        blades = lambda comps: MultivectorField.from_components(grid, comps)
        return {
            "exponential-profile": normalized(MultivectorField.from_scalar(grid, profile.f),
                                              blades({2: bump}), profile.alpha),
            "monogenic-classical": normalized(
                blades({0: np.ones_like(bump), 1: X[..., 1], 2: X[..., 0]}), blades({1: bump}),
                np.zeros(3)),
            "full-solution": normalized(ExponentialVekuaSolution(lam).as_field(grid),
                                        blades({2: bump, 3: 0.5 * bump}), profile.alpha),
        }

    return Plan(_per_level(levels, pairings), {"interior": _interior()})


@_check("dtn_relation", "residual normalized by the largest of the three terms",
        "The conductivity DtN of the f-scaled trace equals f times the Schrodinger DtN minus the "
        "normal-gradient boundary weight, in weak form; exact for constant profiles.")
def check_dtn_relation(cfg: SuiteConfig, levels):
    traces = {
        "linear": lambda X: X[..., 0],
        "trig": lambda X: np.sin(2.0 * X[..., 0]) * np.cos(X[..., 1]) + 0.5 * X[..., 2],
    }

    def residuals(lv):
        X = lv.grid.coords()
        found = dtn_relation_residuals(lv.profile, [fn(X) for fn in traces.values()], X[..., 0])
        return {name: (resid, {"terms": list(terms)})
                for name, (resid, terms) in zip(traces, found)}

    grid = levels[0].grid
    X = grid.coords()
    [(const_resid, _)] = dtn_relation_residuals(ConductivityProfile.polynomial_z(grid, 2.0),
                                                [X[..., 0]], X[..., 0])
    return Plan(_per_level(levels, residuals),
                {"interior": _interior(),
                 "constant-profile": _extra_within("constant_profile_residual", 1e-8)},
                {"constant_profile_residual": const_resid})


# the falsification arm of difference_identities separates the DtN forms of
# the config's profile and of the exponential profile with this many times
# its rate
GAP_RATE_FACTOR = 1.5


def _steeper_profile_fits(cfg):
    """The profile domain of difference_identities: the exponential profile
    with GAP_RATE_FACTOR times the config's rate passes the box check too."""
    steeper = {"kind": "exponential", "lam": (GAP_RATE_FACTOR * _exponential_rate(cfg)).tolist()}
    try:
        check_profile_on_box(steeper, *_box(cfg))
    except ValueError as err:
        raise ValueError(f"{err}; identity 'difference_identities' also builds the profile "
                         f"with {GAP_RATE_FACTOR:g} times the rate") from None


@_check("difference_identities",
        "absolute errors normalized by the solution sup; gap in pairing units",
        "With equal boundary data the difference-of-potential and Newton-potential identities are "
        "trivially zero on both sides (equal DtN forces equal profiles, so no nontrivial instance "
        "exists); distinct profiles separate the DtN pairings by a recorded gap.",
        domain=(_exponential, _steeper_profile_fits))
def check_difference_identities(cfg: SuiteConfig, levels):
    finest = levels[-1]
    grid, pts = finest.grid, finest.points()
    lam = _exponential_rate(cfg)
    coords = grid.coords()
    rng = np.random.default_rng(cfg.seed)
    sampled = lambda nodal: _interior_samples(grid, nodal, pts)

    profile_f = finest.profile
    profile_g = ConductivityProfile.exponential(grid, lam)
    trace = np.exp(coords @ lam) + 0.3 * coords[..., 0]
    w_f = DirichletOperator(grid, q=profile_f.q).solve(trace)
    w_g = DirichletOperator(grid, q=profile_g.q).solve(trace)

    # difference-of-potentials identity, trivially forced arm
    dq = cell_average(profile_g.q - profile_f.q, blade_axis=False)
    integrand = dq * cell_average(w_f, blade_axis=False)
    lhs = scalar_volume_potential(pts.points, grid, integrand, q=float(lam @ lam))
    potential_err = float(np.max(np.abs(lhs - (sampled(w_f) - sampled(w_g))))) / (
        float(np.max(np.abs(sampled(w_f)))) or 1.0)

    # Newton-potential identity, trivially forced arm
    u_f = DirichletOperator(grid, sigma=profile_f.f**2).solve(trace / profile_f.f)
    u_g = DirichletOperator(grid, sigma=profile_g.f**2).solve(trace / profile_g.f)
    rho = (np.sum(profile_f.alpha * scalar_gradient(grid, u_f), axis=-1)
           - np.sum(profile_g.alpha * scalar_gradient(grid, u_g), axis=-1))
    newton_lhs = 2.0 * scalar_volume_potential(pts.points, grid,
                                               cell_average(rho, blade_axis=False))
    newton_err = float(np.max(np.abs(newton_lhs - (sampled(u_f) - sampled(u_g))))) / (
        float(np.max(np.abs(sampled(u_f)))) or 1.0)

    # falsification arm: distinct profiles must separate the DtN forms
    form_f = DtnForm.conductivity(profile_f)
    form_h = DtnForm.conductivity(ConductivityProfile.exponential(grid, GAP_RATE_FACTOR * lam))
    gap = pair_scale = 0.0
    for _ in range(10):
        a, b = rng.normal(size=3), rng.normal(size=3)
        phi, psi = np.sin(coords @ a) + coords @ b / 3.0, np.cos(coords @ b)
        pf, ph = form_f.pair(phi, psi), form_h.pair(phi, psi)
        gap = max(gap, abs(pf - ph))
        pair_scale = max(pair_scale, abs(pf), abs(ph))

    trivial_tol = 1e-6
    return Plan(
        [("potential-difference-trivial", finest.value, finest.h, potential_err),
         ("newton-potential-trivial", finest.value, finest.h, newton_err)],
        {"trivial": _interior(tol=trivial_tol),
         "dtn-gap": lambda by_case, extras, cfg: extras["dtn_gap"] > extras["dtn_gap_threshold"]},
        {"dtn_gap": gap, "dtn_gap_threshold": 10.0 * SOLVER_RTOL * max(1.0, pair_scale),
         "trivial_tolerance": trivial_tol},
    )


# s_alpha divides its Dirac residual by max |grad f| = max |lam_i| max f; below
# this rate the residual is rounding over rate (at (16, 32) it fails its
# refinement gate at 1e-12 and reads 0.7, not 2e-3, at 1e-20; from 1e-8 up
# its rows agree with those at 1e-2 within 0.2%)
MIN_S_ALPHA_RATE = 1e-8


def _normalizes_the_residual(cfg):
    """The profile domain of s_alpha: max |lam_i| >= MIN_S_ALPHA_RATE."""
    lam = _exponential_rate(cfg)
    if not np.max(np.abs(lam)) >= MIN_S_ALPHA_RATE:
        raise ValueError(
            f"profile: identity 's_alpha' normalizes its residual by max |grad f| = "
            f"max |lam_i| max f, which needs max |lam_i| >= {MIN_S_ALPHA_RATE:g}; got lam "
            f"{lam.tolist()}")


@_check("s_alpha", "Dirac norm on the margin-interior dual lattice over the gradient sup",
        "Subtracting the volume transform of alpha conj(w) from a Vekua solution produces a "
        "monogenic field: the stencil Dirac of the result decays under refinement; with alpha = 0 "
        "the map is the identity.",
        tolerances=dict(interior_rel_tol=0.03),
        domain=(_exponential, _normalizes_the_residual, _every_grid(BoxGrid.dual_grid)))
def check_s_alpha(cfg: SuiteConfig, levels):
    def residual(lv):
        profile = lv.profile
        S = s_alpha(MultivectorField.from_scalar(profile.grid, profile.f), profile.alpha_field())
        DS = dirac_D(S).values[interior_slices(lv.depth)]
        return {"scalar-solution":
                float(np.max(np.abs(DS))) / float(np.max(np.abs(profile.grad_f)))}

    grid = levels[0].grid
    w = MultivectorField.from_scalar(grid, levels[0].profile.f)
    identity_dev = float(np.max(np.abs(s_alpha(w, MultivectorField.zero(grid)).values
                                       - cell_average(w.values))))
    return Plan(_sweep(levels, residual),
                {"interior": _interior(), "refinement": _refines(),
                 "zero-alpha": _extra_within("identity_at_zero_alpha", 1e-12)},
                {"identity_at_zero_alpha": identity_dev})


# -- entry points -------------------------------------------------------------------


def run_identity(identity, cfg: SuiteConfig | None = None, **overrides) -> CheckReport:
    """Run one identity check under the process policy (see `runtime`),
    writing its report files when the config names an output directory.
    Overrides build the default config; they cannot amend a given one."""
    if cfg is None:
        cfg = SuiteConfig.defaults(identity, **overrides)
    elif overrides:
        raise ValueError(f"overrides {sorted(overrides)} given with a config; "
                         "set them on the config instead")
    elif cfg.identity != identity:
        raise ValueError(f"identity {identity!r} given with a config made for "
                         f"{cfg.identity!r}; build the config for {identity!r}")
    with POLICY:
        report = _report(cfg)
    if cfg.output_dir:
        out = os.path.join(cfg.output_dir, identity)
        os.makedirs(out, exist_ok=True)
        report.write_json(os.path.join(out, "report.json"))
        report.write_errors_csv(os.path.join(out, "errors.csv"))
        report.write_convergence_csv(os.path.join(out, "convergence.csv"))
    return report


def run_suite(identities=None, parallel=True, **overrides):
    """Run many distinct identities (None: all), in parallel across identities
    when allowed.

    Every identity's config is built, and so validated, before any check
    runs.  The pool is the calling process and workers forked for the call,
    VEKUA_LAB_THREADS processes in all (default: one per CPU), and runs under
    the process policy (see `runtime`); with 1 the checks run one by one in
    the calling process.  A check's report comes back pickled from the
    worker that ran it."""
    if isinstance(identities, str):
        raise ValueError(f"identities must be a list of identity names, got {identities!r}")
    names = list(IDENTITIES) if identities is None else list(identities)
    if not names:
        raise ValueError("no identities selected")
    unknown = [n for n in names if n not in IDENTITIES]
    if unknown:
        raise ValueError(f"unknown identities: {unknown}")
    repeated = sorted({name for name in names if names.count(name) > 1}, key=names.index)
    if repeated:
        raise ValueError(f"identities selected more than once: {repeated}")
    workers = min(len(names), thread_cap() or os.cpu_count() or 1)
    configs = {name: SuiteConfig.defaults(name, **overrides) for name in names}
    if parallel and workers > 1:
        return dict(zip(names, pooled(lambda name: run_identity(name, configs[name]),
                                      names, workers)))
    return {name: run_identity(name, configs[name]) for name in names}
