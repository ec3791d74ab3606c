"""Command-line front end: verify identities, run convergence studies,
run the whole suite, and export Dirichlet-to-Neumann data.

Exit status is 0 exactly when every asserted check passed (for `dtn`, the
symmetry of its pairing matrix), and 2, with a usage line, for rejected
input.  Reports land in --out (or the config's output_dir) as report.json,
errors.csv and convergence.csv per identity.
VEKUA_LAB_SEED seeds randomized point and trace selection; VEKUA_LAB_THREADS
only sizes the thread pool that `suite` (run_suite) runs identities in.
Every command runs under the process policy (see `runtime`), which
importing this module does not apply.  A `dtn` export would not depend on
the BLAS thread count either way: the Dirichlet solver sums its inner
products with einsum, not a threaded BLAS dot.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .fields import MIN_RESOLUTION, BoxGrid, boundary_values, face_nodes
from .harness import (
    IDENTITIES,
    SuiteConfig,
    convergence_table,
    default_seed,
    run_identity,
    run_suite,
)
from .pde import DtnForm
from .runtime import POLICY
from .vekua import PROFILE_FAMILIES, make_profile

PROFILE_CHOICES = tuple(PROFILE_FAMILIES)
# largest relative asymmetry |M - M^T| / |M| of an exported pairing matrix;
# the pairing is symmetric up to the solver tolerance
DTN_SYMMETRY_TOL = 1e-8


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


def _cmd_identity(args):
    """`verify` and `convergence`: run one identity; `convergence` adds its
    (h, error, order) table."""
    report = run_identity(args.identity, _load_config(args.identity, args))
    _print_report(report)
    if args.command == "convergence":
        print("       h, error, order:")
        for row in convergence_table(report):
            order = "-" if row["order"] is None else f"{row['order']:.2f}"
            print(f"       {row['case']:>28}  h={row['h']:.4g}  err={row['error']:.4e}  "
                  f"order={order}")
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
    """`size` Dirichlet traces given on the boundary nodes, their interior
    zero: a solve, the solution cache key and traces.csv read nothing else.
    The coordinates x1, x2, x3, then sin(X @ a) + cos(X @ b) with a, b drawn
    from the seed's normal stream, each evaluated one face at a time
    (`boundary_values`), which gives the values of a whole-grid evaluation
    bit for bit without building one."""
    rng = np.random.default_rng(seed)
    traces = [boundary_values(grid, lambda X, a=a: X[..., a]) for a in range(min(size, 3))]
    while len(traces) < size:
        a = rng.normal(size=3)
        b = rng.normal(size=3)
        traces.append(boundary_values(grid, lambda X: np.sin(X @ a) + np.cos(X @ b)))
    return traces


def _trace_rows(grid: BoxGrid, traces):
    """traces.csv data lines, yielded one text block per face, so only one
    face's text is held at a time: every boundary node once per face it lies
    on (edges and corners repeat, matching the per-face quadratures), faces
    in the order (axis, low/high side), nodes in C order within a face.
    Each block is one %-format of the face's (nodes, 5 + traces) table,
    its coordinates built for that face alone (`face_nodes`)."""
    row = "%d,%d,%.10g,%.10g,%.10g," + ",".join(["%.10e"] * len(traces)) + "\n"
    start = 0
    for axis, high, slab, X in face_nodes(grid):
        pos = X.reshape(-1, 3)
        m = len(pos)
        table = np.column_stack([np.arange(start, start + m), np.full(m, 2 * axis + high), pos]
                                + [trace[slab].ravel() for trace in traces])
        yield (row * m) % tuple(table.ravel().tolist())
        start += m


def _dtn_form(grid: BoxGrid, family, kind):
    """The DtN form of a profile family and kind.  The profile is only an
    argument of the form's constructor, freed once the form is built."""
    form = DtnForm.conductivity if kind == "conductivity" else DtnForm.schrodinger
    return form(make_profile(grid, {"kind": family}))


def _cmd_dtn(args):
    """Write dtn_matrix.csv and traces.csv; exit 1 when the pairing matrix is
    not symmetric to DTN_SYMMETRY_TOL relative to its largest entry.  The
    form is built before the traces are drawn, so the profile and the build's
    temporaries are gone before the traces exist, and it is freed, with its
    operators and cached solutions, before either CSV is written."""
    grid = BoxGrid.unit_cube(args.resolution)
    seed = default_seed()
    form = _dtn_form(grid, args.profile, args.kind)
    traces = _trace_basis(grid, args.basis_size, seed)
    matrix = form.matrix(traces)
    del form
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
    print(f"profile={args.profile} kind={args.kind} resolution={args.resolution} seed={seed}")
    print(f"relative symmetry defect: {sym:.3e}")
    if not sym <= DTN_SYMMETRY_TOL:  # written so that a NaN defect fails too
        print(f"[FAIL] relative symmetry defect above {DTN_SYMMETRY_TOL:g}")
        return 1
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

    for command, summary in (("verify", "run one identity check"),
                             ("convergence", "refinement study for one identity")):
        p_identity = sub.add_parser(command, help=summary)
        p_identity.add_argument("identity", choices=sorted(IDENTITIES))
        p_identity.add_argument("--config", help="JSON config file")
        p_identity.add_argument("--out", help="output directory for reports")
        p_identity.set_defaults(func=_cmd_identity)

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
        with POLICY:
            return args.func(args)
    except ValueError as err:  # input rejected after parsing: reported like argparse's own
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
