"""The pinned benchmark workloads and the checks on their outputs.

Every problem-size field is passed explicitly, so a change of program
defaults cannot resize a workload.  The seed reaches the program only as
`SuiteConfig.seed` (suite) or `VEKUA_LAB_SEED` (DtN export).

An operation is one identity check or one DtN export.  It fails if it
raises, if its report says `passed: false`, if the CLI exits non-zero, or,
on the seed the reference was recorded at, if its output drifts from
`reference.json`.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
import traceback

from vekua_lab import cli, harness

# Seed `reference.json` was recorded at (the program's default seed).
REFERENCE_SEED = 2024
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Numbers match when |a - b| <= RTOL * max(|a|, |b|) + ATOL.  Residuals of
# solver-based checks carry the CG error (rtol 1e-12 times a condition
# number near 1e3, magnified by the 1e-3 error normalisation), about 1e-6
# relative; any change of quadrature or stencil moves them by far more.
# ATOL covers quantities sitting at the rounding floor (kernel identities,
# odd-symmetry residuals), all of them normalised to O(1) scale.
RTOL = 1e-6
ATOL = 1e-10
# DtN matrices compare entrywise against RTOL times the largest entry;
# the pairing is symmetric up to solver tolerance.
SYMMETRY_TOL = 1e-8

# The identity catalogue, in the order `vekua-lab suite all` runs it.
SUITE_IDENTITIES = (
    "cauchy_constant",
    "borel_pompeiu",
    "teodorescu_inverse",
    "operator_consistency",
    "scalar_bp",
    "scalar_bp_adjoint",
    "cauchy_vekua",
    "green_vekua",
    "integral_cauchy",
    "schrodinger_reconstruction",
    "factorizations",
    "vekua_pipeline",
    "hodge_orthogonality",
    "dtn_relation",
    "difference_identities",
    "s_alpha",
)
# The two checks built on the dual-grid direct volume sum.  At resolutions
# (16, 32) each takes 66-75 s, more than a benchmark run may measure, so
# suite_all runs them at (10, 20), about 4 s each: even resolutions keep
# the box center on a cell center, which their odd-symmetry gate needs.
LATTICE_IDENTITIES = ("teodorescu_inverse", "s_alpha")
PROFILE = {"kind": "exponential", "lam": [0.0, 0.0, 1.0]}
SUITE_SIZE = {
    "resolutions": (16, 32),
    "n_interior": 6,
    "n_exterior": 6,
    "boundary_cells": 64,
    "margin_fraction": 0.2,
}
LATTICE_SIZE = dict(SUITE_SIZE, resolutions=(10, 20))


def _close(a, b, rtol=RTOL, atol=ATOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def drift(got, want, path=""):
    """Paths at which `got` differs from `want` beyond rounding."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [path or "/"]
        return [p for key in want for p in drift(got[key], want[key], f"{path}/{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [path or "/"]
        return [p for k, (g, w) in enumerate(zip(got, want)) for p in drift(g, w, f"{path}/{k}")]
    if isinstance(want, bool) or not isinstance(want, (int, float)):
        return [] if got == want else [path or "/"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [path or "/"]
    if math.isnan(want) or math.isnan(got):
        return [] if math.isnan(want) and math.isnan(got) else [path or "/"]
    return [] if _close(got, want) else [path or "/"]


def _load_reference(workload):
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)[workload]


def _fail(op, why):
    print(f"FAILED {op}: {why}", file=sys.stderr)


class IdentityWorkload:
    """Identity checks through `harness.run_suite(parallel=True)`, reports written.

    `parts` is a sequence of (identities, sizes); each part is one
    `run_suite` call.
    """

    def __init__(self, name, parts):
        self.name = name
        self.parts = parts
        self.identities = tuple(n for names, _ in parts for n in names)

    def run(self, out_dir, seed):
        for names, sizes in self.parts:
            try:
                harness.run_suite(list(names), parallel=True, seed=seed,
                                  output_dir=out_dir, profile=dict(PROFILE), **sizes)
            except Exception:  # a raising identity has no report: the check counts it
                traceback.print_exc()

    def outputs(self, out_dir):
        """Compared part of each report.json; None where a report is missing
        or incomplete, False where the check did not pass."""
        found = {}
        for name in self.identities:
            base = os.path.join(out_dir, name)
            try:
                with open(os.path.join(base, "report.json")) as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                found[name] = None
                continue
            if not all(os.path.isfile(os.path.join(base, f))
                       for f in ("errors.csv", "convergence.csv")):
                found[name] = None
            elif report.get("passed") is not True:
                found[name] = False
            else:
                found[name] = {k: report.get(k) for k in ("rows", "orders", "extras")}
        return found

    def check(self, out_dir, seed, _status):
        """(attempted, failed) for one pass."""
        reference = _load_reference(self.name) if seed == REFERENCE_SEED else None
        failed = 0
        for name, got in self.outputs(out_dir).items():
            if got is None:
                why = "no complete report written"
            elif got is False:
                why = "identity check did not pass"
            elif reference is not None and (paths := drift(got, reference[name])):
                why = f"drift from reference at {paths[:5]}"
            else:
                continue
            _fail(name, why)
            failed += 1
        return len(self.identities), failed


class DtnExport:
    """`vekua-lab dtn` exports through `cli.main`, one per (kind, profile)."""

    name = "dtn_export"

    def __init__(self, exports, resolution, basis_size):
        self.exports = exports
        self.resolution = resolution
        self.basis_size = basis_size

    @staticmethod
    def export_dir(out_dir, kind, profile):
        return os.path.join(out_dir, f"{kind}-{profile}")

    def run(self, out_dir, seed):
        os.environ["VEKUA_LAB_SEED"] = str(seed)
        status = {}
        for kind, profile in self.exports:
            argv = ["dtn", "--profile", profile, "--kind", kind,
                    "--resolution", str(self.resolution), "--basis-size", str(self.basis_size),
                    "--out", self.export_dir(out_dir, kind, profile)]
            try:
                with contextlib.redirect_stdout(sys.stderr):
                    status[(kind, profile)] = cli.main(argv)
            except Exception:  # counted as failed by the check
                traceback.print_exc()
                status[(kind, profile)] = None
        return status

    def read_matrix(self, out_dir, kind, profile):
        with open(os.path.join(self.export_dir(out_dir, kind, profile), "dtn_matrix.csv")) as fh:
            rows = list(csv.DictReader(fh))
        k = self.basis_size
        matrix = [[None] * k for _ in range(k)]
        for row in rows:
            matrix[int(row["i"])][int(row["j"])] = float(row["value"])
        return matrix

    def outputs(self, out_dir):
        """Pairing matrix of each export, keyed `kind-profile`."""
        return {f"{kind}-{profile}": self.read_matrix(out_dir, kind, profile)
                for kind, profile in self.exports}

    def _problem(self, out_dir, kind, profile, expected):
        """Why an export is wrong, or None."""
        try:
            matrix = self.read_matrix(out_dir, kind, profile)
            path = os.path.join(self.export_dir(out_dir, kind, profile), "traces.csv")
            with open(path) as fh:
                table_lines = sum(1 for _ in fh)
        except (OSError, ValueError, KeyError, IndexError) as err:
            return f"unreadable output: {err}"
        flat = [v for row in matrix for v in row]
        if any(v is None or not math.isfinite(v) for v in flat):
            return "matrix has missing or non-finite entries"
        # one row per boundary node and face, plus the header
        if table_lines != 1 + 6 * self.resolution**2:
            return f"traces.csv has {table_lines} lines"
        scale = max(abs(v) for v in flat) or 1.0
        k = self.basis_size
        asym = max(abs(matrix[i][j] - matrix[j][i]) for i in range(k) for j in range(k))
        if asym > SYMMETRY_TOL * scale:
            return f"symmetry defect {asym / scale:.3e}"
        if expected is not None:
            worst = max(abs(a - b) for a, b in zip(flat, (v for row in expected for v in row)))
            if worst > RTOL * scale:
                return f"drift from reference {worst / scale:.3e}"
        return None

    def check(self, out_dir, seed, status):
        """(attempted, failed) for one pass."""
        reference = _load_reference(self.name) if seed == REFERENCE_SEED else None
        failed = 0
        for kind, profile in self.exports:
            if status.get((kind, profile)) != 0:
                why = f"exit status {status.get((kind, profile))}"
            else:
                expected = reference[f"{kind}-{profile}"] if reference is not None else None
                why = self._problem(out_dir, kind, profile, expected)
            if why is not None:
                _fail(f"dtn {kind} {profile}", why)
                failed += 1
        return len(self.exports), failed


WORKLOADS = {
    workload.name: workload
    for workload in (
        # The headline user action, `vekua-lab suite all`, on the 2-worker pool.
        IdentityWorkload("suite_all", (
            (tuple(n for n in SUITE_IDENTITIES if n not in LATTICE_IDENTITIES), SUITE_SIZE),
            (LATTICE_IDENTITIES, LATTICE_SIZE),
        )),
        # Bound by Dirichlet solves and the CLI's CSV tables; no integrals.
        DtnExport(
            (("conductivity", "exponential"), ("conductivity", "quadratic_z"),
             ("schrodinger", "exponential"), ("schrodinger", "linear_z")),
            resolution=48,
            basis_size=8,
        ),
    )
}
