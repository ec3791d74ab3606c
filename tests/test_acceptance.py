"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints one PASS/FAIL line (run with -s or -rA to see them all).
The criteria are property- and convergence-based; tolerances are pinned
here, not configurable.
"""

import time

import numpy as np
import pytest

from vekua_lab import clifford as cl
from vekua_lab import harness as H
from vekua_lab import kernels as K
from vekua_lab import pde as P
from vekua_lab.clifford import Multivector
from vekua_lab.fields import BoxGrid
from vekua_lab.vekua import ConductivityProfile

_SUITE_START = time.monotonic()
_LINES = []


def _verdict(number, name, ok, detail):
    line = f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    _LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _summary():
    yield
    total = time.monotonic() - _SUITE_START
    print("\n".join(_LINES))
    print(f"acceptance suite wall time: {total:.1f}s")


def test_criterion_01_algebra_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(11)
    ok = True
    for n in (3, 4, 5, 8):
        for i in range(1, n + 1):
            ei = Multivector.basis_vector(i, n)
            sq = ei * ei
            ok &= sq.coeffs[0] == -1.0 and np.count_nonzero(sq.coeffs) == 1
            for j in range(i + 1, n + 1):
                ej = Multivector.basis_vector(j, n)
                ok &= not np.any((ei * ej + ej * ei).coeffs)
    for n in (3, 4):
        blades = [Multivector.blade(m, 1.0, n) for m in range(1 << n)]
        for a in blades:
            for b in blades:
                ab = a * b
                for c in blades:
                    ok &= (ab * c).isclose(a * (b * c), 0.0)
    for n in (3, 4):
        for _ in range(50):
            a = Multivector(n, rng.integers(-5, 6, 1 << n).astype(float))
            b = Multivector(n, rng.integers(-5, 6, 1 << n).astype(float))
            ok &= cl.conjugate(a * b).isclose(cl.conjugate(b) * cl.conjugate(a), 0.0)
    for n in (3, 4, 8):
        tab = cl.tables(n)
        expected = np.where(np.isin(tab.grades % 4, (0, 3)), 1.0, -1.0)
        ok &= np.array_equal(tab.conj_signs, expected)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _verdict(1, "algebra exactness", ok, f"exact, {elapsed:.2f}s < 5s")


def test_criterion_02_operator_consistency():
    report = H.run_identity("operator_consistency", resolutions=(16, 32))
    errs = [r["interior_error"] for r in report.rows if r["case"] == "smooth"]
    order = report.orders["smooth"][0]
    quad = report.extras["quadratic_error"]
    ok = order >= 1.9 and quad <= 1e-12 and report.passed
    _verdict(
        2,
        "operator consistency",
        ok,
        f"order {order:.2f} >= 1.9, quadratic error {quad:.2e} <= 1e-12",
    )


def test_criterion_03_cauchy_theorem_constant():
    t0 = time.monotonic()
    report = H.run_identity("cauchy_constant", boundary_cells=64)
    final = [r for r in report.rows if r["level"] == 64]
    interior = max(r["interior_error"] for r in final)
    exterior = max(r["exterior_error"] for r in final)
    elapsed = time.monotonic() - t0
    ok = interior <= 1e-3 and exterior <= 1e-3 and elapsed < 10.0
    _verdict(
        3,
        "boundary reproduction of constants",
        ok,
        f"interior {interior:.2e}, exterior {exterior:.2e} <= 1e-3, {elapsed:.1f}s < 10s",
    )


def test_criterion_04_borel_pompeiu():
    t0 = time.monotonic()
    report = H.run_identity("borel_pompeiu", resolutions=(16, 32))
    quad = [r for r in report.rows if r["case"] == "quadratic"]
    interior32 = quad[-1]["interior_error"]
    exterior = max(r["exterior_error"] for r in report.rows)
    ratio = quad[0]["interior_l2"] / quad[-1]["interior_l2"]
    elapsed = time.monotonic() - t0
    ok = interior32 <= 0.02 and exterior <= 0.02 and ratio >= 1.8 and elapsed < 120.0
    _verdict(
        4,
        "volume + boundary representation",
        ok,
        f"interior {interior32:.2e} <= 2%, exterior {exterior:.2e}, "
        f"ratio {ratio:.2f} >= 1.8, {elapsed:.0f}s < 120s",
    )


def test_criterion_05_kernel_identities():
    rng = np.random.default_rng(H.default_seed())
    pts = rng.normal(size=(100, 3))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= 0.3 + 1.2 * rng.random((100, 1))
    res = float(np.max(K.fundamental_cauchy_residual(pts, [0.0, 0.0, 1.0])))
    grad_dev = float(
        np.max(np.abs(K.newton_N_components(pts)[1] - K.cauchy_E_components(pts)))
    )
    flux_errs = [abs(K.yukawa_delta_flux(eps, 1.0) - 1.0) for eps in (0.2, 0.1, 0.05)]
    flux_ok = all(b <= 0.6 * a for a, b in zip(flux_errs, flux_errs[1:]))
    ok = res <= 1e-12 and grad_dev <= 1e-12 and flux_ok
    _verdict(
        5,
        "kernel identities at machine precision",
        ok,
        f"weighted-kernel residual {res:.2e}, grad-Newton dev {grad_dev:.2e}, "
        f"flux errors {['%.1e' % e for e in flux_errs]}",
    )


def test_criterion_06_factorization():
    report = H.run_identity("factorizations", resolutions=(16, 32))
    sym = [r for r in report.rows if r["case"] == "symbolic-quadratic"][0]
    order = report.orders["smooth-log-gradient"][0]
    ok = sym["interior_error"] <= 1e-12 and order >= 0.9
    _verdict(
        6,
        "operator factorization on scalars",
        ok,
        f"symbolic {sym['interior_error']:.2e} <= 1e-12, smooth order {order:.2f} >= 0.9",
    )


def test_criterion_07_vekua_pipeline():
    report = H.run_identity("vekua_pipeline", resolutions=(16, 32))
    by_case = {}
    for row in report.rows:
        by_case.setdefault(row["case"], []).append(row["interior_error"])
    vres = by_case["vekua-residual"][-1]
    bres = by_case["beltrami-residual"][-1]
    cres = by_case["conductivity-residual"][-1]
    v_order = report.orders["vekua-residual"][0]
    b_order = report.orders["beltrami-residual"][0]
    ok = (
        vres <= 0.03
        and v_order > 0.0
        and bres <= 0.03
        and b_order > 0.0
        and cres <= 0.03
    )
    _verdict(
        7,
        "main Vekua pipeline",
        ok,
        f"vekua {vres:.2e} (order {v_order:.2f}), beltrami {bres:.2e} "
        f"(order {b_order:.2f}), conductivity {cres:.2e}",
    )


def test_criterion_08_reconstruction_identities():
    rep_ic = H.run_identity("integral_cauchy", resolutions=(16, 32))
    rep_sr = H.run_identity("schrodinger_reconstruction", resolutions=(16, 32))
    ok = True
    details = []
    for label, rep in (("green-type", rep_ic), ("screened", rep_sr)):
        finest = [r for r in rep.rows if r["level"] == 32]
        interior = max(r["interior_error"] for r in finest)
        exterior = max(r["exterior_error"] for r in finest)
        improving = all(
            orders and orders[0] > 0.0 for orders in rep.orders.values()
        )
        ok &= interior <= 0.05 and exterior <= 0.05 and improving
        details.append(f"{label}: int {interior:.2e}, ext {exterior:.2e}")
    _verdict(8, "reconstruction identities", ok, "; ".join(details))


def test_criterion_09_dtn_properties():
    g = BoxGrid.unit_cube(16)
    X = g.coords()
    profile = ConductivityProfile.exponential(g, [0.0, 0.0, 1.0])
    rng = np.random.default_rng(H.default_seed())
    sym_dev = 0.0
    for kind in ("conductivity", "schrodinger"):
        form = (
            P.DtnForm.conductivity(profile)
            if kind == "conductivity"
            else P.DtnForm.schrodinger(profile)
        )
        for _ in range(3):
            a, b = rng.normal(size=3), rng.normal(size=3)
            phi = np.sin(X @ a) + X @ b
            psi = np.cos(X @ b)
            pq, qp = form.pair(phi, psi), form.pair(psi, phi)
            sym_dev = max(sym_dev, abs(pq - qp) / (abs(pq) + 1.0))
    form_c = P.DtnForm.conductivity(profile)
    const_dev = max(
        abs(form_c.pair(np.ones(tuple(g.resolution)), X[..., 0])),
        abs(form_c.pair(X[..., 0], np.ones(tuple(g.resolution)))),
    )

    g32 = BoxGrid.unit_cube(32)
    X32 = g32.coords()
    prof32 = ConductivityProfile.exponential(g32, [0.0, 0.0, 1.0])
    relation32, _ = P.dtn_relation_residuals(prof32, [X32[..., 0]], X32[..., 0])[0]
    const_prof = ConductivityProfile.constant(g, 2.0)
    relation_const, _ = P.dtn_relation_residuals(const_prof, [X[..., 0]], X[..., 0])[0]

    ok = (
        sym_dev <= 1e-8
        and const_dev <= 1e-8
        and relation32 <= 0.05
        and relation_const <= 1e-8
    )
    _verdict(
        9,
        "DtN properties",
        ok,
        f"symmetry {sym_dev:.1e}, constants {const_dev:.1e}, "
        f"relation {relation32:.2e} <= 5%, constant-profile {relation_const:.1e}",
    )


def test_criterion_10_hodge_orthogonality():
    report = H.run_identity("hodge_orthogonality", resolutions=(16, 32))
    finest = [r for r in report.rows if r["level"] == 32]
    worst = max(r["interior_error"] for r in finest)
    ok = worst <= 0.01
    _verdict(10, "orthogonal splitting", ok, f"normalized pairing {worst:.2e} <= 1%")


def test_criterion_11_difference_identities():
    report = H.run_identity("difference_identities", resolutions=(16, 32))
    trivial = max(r["interior_error"] for r in report.rows)
    gap = report.extras["dtn_gap"]
    threshold = report.extras["dtn_gap_threshold"]
    ok = trivial <= report.extras["trivial_tolerance"] and gap > threshold
    _verdict(
        11,
        "difference identities",
        ok,
        f"trivial arm {trivial:.2e}, recorded DtN gap {gap:.3e} > {threshold:.1e}",
    )
