"""Command-line front end: verify identities, run convergence studies,
run the whole suite, and export Dirichlet-to-Neumann data.

Exit status is 0 exactly when every asserted check passed, and 2, with a
usage line, for rejected input.  Reports land in --out (or the config's
output_dir) as report.json, errors.csv and convergence.csv per identity.
VEKUA_LAB_SEED seeds randomized point and trace selection; VEKUA_LAB_THREADS
only sizes the thread pool that `suite` (run_suite) runs identities in.
Identity checks (`verify`, `convergence`, `suite`) run BLAS on one thread, so
that pool is their only parallelism; `dtn` leaves the BLAS library's own
thread count alone, and its exports do not depend on it: the Dirichlet
solver sums its inner products with einsum, not a threaded BLAS dot.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .fields import MIN_RESOLUTION, BoxGrid, face_slabs
from .harness import (
    IDENTITIES,
    SuiteConfig,
    convergence_study,
    default_seed,
    run_identity,
    run_suite,
)
from .pde import DtnForm
from .vekua import PROFILE_FAMILIES, make_profile

PROFILE_CHOICES = tuple(PROFILE_FAMILIES)


def _load_config(identity, args):
    if getattr(args, "config", None):
        cfg = SuiteConfig.from_json(args.config, identity=identity)
    else:
        cfg = SuiteConfig.defaults(identity)
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    return cfg


def _print_report(report):
    flag = "PASS" if report.passed else "FAIL"
    print(f"[{flag}] {report.identity}  ({report.runtime_seconds:.1f}s)")
    print(f"       {report.statement}")
    for row in report.rows:
        extras = ""
        if row.get("exterior_error"):
            extras = f"  exterior {row['exterior_error']:.3e}"
        print(
            f"       {row['case']:>28} @ {row['level']:>3}: "
            f"interior {row['interior_error']:.3e}{extras}"
        )
    for case, orders in report.orders.items():
        if orders:
            pretty = ", ".join(f"{o:.2f}" for o in orders)
            print(f"       {case:>28} measured order: {pretty}")
    for key, val in report.extras.items():
        print(f"       {key} = {val}")


def _cmd_verify(args):
    report = run_identity(args.identity, _load_config(args.identity, args))
    _print_report(report)
    return 0 if report.passed else 1


def _cmd_convergence(args):
    cfg = _load_config(args.identity, args)
    report, table = convergence_study(args.identity, cfg)
    _print_report(report)
    print("       h, error, order:")
    for row in table:
        order = "-" if row["order"] is None else f"{row['order']:.2f}"
        print(f"       {row['case']:>28}  h={row['h']:.4g}  err={row['error']:.4e}  order={order}")
    return 0 if report.passed else 1


def _cmd_suite(args):
    names = (list(IDENTITIES) if args.target == "all"
             else [n.strip() for n in args.target.split(",") if n.strip()])
    reports = run_suite(names, **({"output_dir": args.out} if args.out else {}))
    failures = 0
    for name in names:
        _print_report(reports[name])
        failures += 0 if reports[name].passed else 1
    total = len(names)
    print(f"\n{total - failures}/{total} identity checks passed")
    return 0 if failures == 0 else 1


def _trace_basis(grid: BoxGrid, size, seed):
    rng = np.random.default_rng(seed)
    X = grid.coords()
    # contiguous copies: DtnForm keys its cache on each trace's boundary values
    traces = [np.ascontiguousarray(X[..., a]) for a in range(3)]
    while len(traces) < size:
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        traces.append(np.sin(X @ a) + np.cos(X @ b))
    return traces[:size]


def _trace_rows(grid: BoxGrid, traces):
    """traces.csv data lines, one text block per face: every boundary node
    once per face it lies on (edges and corners repeat, matching the
    per-face quadratures), faces in the order (axis, low/high side), nodes
    in C order within a face.  Each block is one %-format of the face's
    (nodes, 5 + traces) table."""
    coords = grid.coords()
    row = "%d,%d,%.10g,%.10g,%.10g," + ",".join(["%.10e"] * len(traces)) + "\n"
    blocks = []
    start = 0
    for axis, high, slab in face_slabs():
        pos = coords[slab].reshape(-1, 3)
        m = len(pos)
        table = np.column_stack([np.arange(start, start + m), np.full(m, 2 * axis + high), pos]
                                + [trace[slab].ravel() for trace in traces])
        blocks.append((row * m) % tuple(table.ravel().tolist()))
        start += m
    return blocks


def _cmd_dtn(args):
    grid = BoxGrid.unit_cube(args.resolution)
    profile = make_profile(grid, {"kind": args.profile})
    form = (DtnForm.conductivity if args.kind == "conductivity" else DtnForm.schrodinger)(profile)
    traces = _trace_basis(grid, args.basis_size, default_seed())
    matrix = form.matrix(traces)
    sym = float(np.max(np.abs(matrix - matrix.T)) / (np.max(np.abs(matrix)) + 1e-300))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    mpath = os.path.join(out_dir, "dtn_matrix.csv")
    with open(mpath, "w") as fh:
        fh.write("i,j,value\n")
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                fh.write(f"{i},{j},{matrix[i, j]:.12e}\n")
    tpath = os.path.join(out_dir, "traces.csv")
    with open(tpath, "w") as fh:
        fh.write("node_index,face,x1,x2,x3," + ",".join(f"t{k}" for k in range(len(traces))) + "\n")
        fh.writelines(_trace_rows(grid, traces))
    print(f"wrote {mpath} and {tpath}")
    print(f"profile={args.profile} kind={args.kind} resolution={args.resolution}")
    print(f"relative symmetry defect: {sym:.3e}")
    return 0


def _int_at_least(minimum):
    """argparse type: an integer no smaller than `minimum`."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vekua-lab",
        description="Numerical verification of Clifford-analytic integral identities",
    )
    parser.add_argument("--version", action="version", version=f"vekua-lab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one identity check")
    p_verify.add_argument("identity", choices=sorted(IDENTITIES))
    p_verify.add_argument("--config", help="JSON config file")
    p_verify.add_argument("--out", help="output directory for reports")
    p_verify.set_defaults(func=_cmd_verify)

    p_conv = sub.add_parser("convergence", help="refinement study for one identity")
    p_conv.add_argument("identity", choices=sorted(IDENTITIES))
    p_conv.add_argument("--config", help="JSON config file")
    p_conv.add_argument("--out", help="output directory for reports")
    p_conv.set_defaults(func=_cmd_convergence)

    p_suite = sub.add_parser("suite", help="run many identity checks")
    p_suite.add_argument("target", help="'all' or a comma-separated identity list")
    p_suite.add_argument("--out", help="output directory for reports")
    p_suite.set_defaults(func=_cmd_suite)

    p_dtn = sub.add_parser("dtn", help="export DtN pairing data for a profile")
    p_dtn.add_argument("--profile", choices=PROFILE_CHOICES, default="exponential")
    p_dtn.add_argument("--kind", choices=("conductivity", "schrodinger"),
                       default="conductivity")
    p_dtn.add_argument("--resolution", type=_int_at_least(MIN_RESOLUTION), default=12)
    p_dtn.add_argument("--basis-size", type=_int_at_least(1), default=8)
    p_dtn.add_argument("--out", help="output directory")
    p_dtn.set_defaults(func=_cmd_dtn)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:  # input rejected after parsing: reported like argparse's own
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
