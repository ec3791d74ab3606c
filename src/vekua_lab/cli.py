"""Command-line front end: verify identities, run convergence studies,
run the whole suite, and export Dirichlet-to-Neumann data.

Exit status is 0 exactly when every asserted check passed (for `dtn`, the
symmetry of its pairing matrix), and 2, with a usage line, for rejected
input.  Reports land in --out (or the config's output_dir) as report.json,
errors.csv and convergence.csv per identity.
VEKUA_LAB_SEED seeds randomized point and trace selection; VEKUA_LAB_THREADS
only sizes the process pool that `suite` (run_suite) runs identities on:
the calling process and VEKUA_LAB_THREADS - 1 forked workers.
Every command runs under the process policy (see `runtime`), which
importing this module does not apply.  A `dtn` export does not depend on
the BLAS thread count because that policy holds BLAS at one thread while
it runs: the Dirichlet solver's preconditioner, which is the whole solve
for every profile family, contracts with BLAS `np.dot` (`pde._contract`).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import __version__
from .fields import MIN_RESOLUTION, BoxGrid, boundary_values, face_slabs
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
    cfg = (SuiteConfig.from_json(args.config, identity=identity) if args.config
           else SuiteConfig.defaults(identity))
    return dataclasses.replace(cfg, output_dir=args.out) if args.out else cfg


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


# 10**k for 0 <= k <= 22, the powers of ten that binary64 holds exactly
_EXACT_POWERS = np.array([float(10**k) for k in range(23)])


def _words(texts, width=None):
    """Each ASCII text null-padded to `width` bytes (a multiple of 4; by
    default the longest text's length rounded up to one), as one row of
    width / 4 uint32 words."""
    width = width or -(-max(map(len, texts)) // 4) * 4
    data = b"".join(text.encode("ascii").ljust(width, b"\0") for text in texts)
    return np.frombuffer(data, dtype=np.uint32).reshape(len(texts), width // 4)


@functools.cache
def _lead_words():
    """',', the sign, the first digit and '.', at 10 * negative + digit."""
    return _words([f",{sign}{d}." for sign in ("", "-") for d in range(10)]).ravel()


@functools.cache
def _group_words():
    """Four digits, at their value."""
    return _words([f"{g:04d}" for g in range(10**4)]).ravel()


@functools.cache
def _tail_words():
    """The last two digits, 'e' and the exponent's sign, at
    100 * (exponent negative) + digits."""
    return _words([f"{d:02d}e{sign}" for sign in "+-" for d in range(100)]).ravel()


@functools.cache
def _exponent_words():
    """Two exponent digits, at the exponent's absolute value."""
    return _words([f"{e:02d}" for e in range(100)]).ravel()


def _scale(a, k):
    """a * 10**k, |k| <= 22, in one correctly rounded multiply or divide."""
    power = _EXACT_POWERS[np.abs(k)]
    return np.where(k >= 0, a * power, a / power)


def _e10_fallback(values):
    """_e10_words of values by Python's correctly rounded %-format."""
    return _words([",%.10e" % v for v in values.tolist()], 20)


def _e10_words(values):
    """',%.10e' % v of every float v of `values`, as five null-padded
    uint32 words (the text is at most 19 bytes): ',', sign, first digit
    and '.'; two groups of four digits; the last two digits, 'e' and the
    exponent's sign; the exponent's digits.  The exponent e comes from
    log10, corrected once; s = |v| * 10**(10 - e) is one correctly rounded
    operation, so it errs by at most half an ulp of a number below 2**37,
    about 7.6e-6, and rounding it to an integer gives the 11 digits of the
    correctly rounded %-format unless its fraction lies within 1e-3 of one
    half.  Those values, zero (of either sign), non-finite values, values
    whose 10**(10 - e) is not an exact binary64 power of ten, and any whose
    s misses [1e10, 1e11) (so nothing rests on log10's accuracy) go
    through `_e10_fallback`."""
    values = np.ravel(values)
    a = np.abs(values)
    fast = np.isfinite(a) & (a > 0)
    a = np.where(fast, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    with np.errstate(over="ignore"):  # a first guess of e far outside the exact powers
        s = _scale(a, np.clip(10 - e, -22, 22))
    e += (s >= 1e11).astype(np.int64) - (s < 1e10)
    fast &= np.abs(10 - e) <= 22
    e[~fast], a[~fast] = 0, 1.0
    s = _scale(a, 10 - e)
    m = np.rint(s)
    fast &= (s >= 1e10) & (s < 1e11) & (np.abs(s - m) < 0.499)
    carry = m == 1e11
    e += carry
    m = np.where(fast & ~carry, m, 1e10).astype(np.int64)
    first, rest = np.divmod(m, 10**10)
    high, rest = np.divmod(rest, 10**6)
    low, last = np.divmod(rest, 100)
    words = np.empty((len(values), 5), dtype=np.uint32)
    words[:, 0] = _lead_words()[10 * (values < 0) + first]
    words[:, 1] = _group_words()[high]
    words[:, 2] = _group_words()[low]
    words[:, 3] = _tail_words()[100 * (e < 0) + last]
    words[:, 4] = _exponent_words()[np.abs(e)]
    slow = np.flatnonzero(~fast)
    if len(slow):
        words[slow] = _e10_fallback(values[slow])
    return words


def _index_words(start, m, digits, face):
    """'<node index>,<face>' for the node indices start..start+m-1, each
    index right-aligned in `digits` bytes after leading null bytes, as rows
    of uint32 words."""
    text = np.zeros((m, -(-(digits + 2) // 4) * 4), dtype=np.uint8)
    powers = 10 ** np.arange(digits - 1, -1, -1)
    index = np.arange(start, start + m)[:, None]
    text[:, :digits] = index // powers % 10 + ord("0")
    text[:, :digits - 1][index < powers[:-1]] = 0
    text[:, digits:digits + 2] = np.frombuffer(f",{face}".encode("ascii"), dtype=np.uint8)
    return text.view(np.uint32)


def _trace_rows(grid: BoxGrid, traces):
    """traces.csv data lines for the traces of `_trace_basis`, yielded one
    text block per face, so only one face's text is held at a time: every
    boundary node once per face it lies on (edges and corners repeat,
    matching the per-face quadratures), faces in the order (axis, low/high
    side), nodes in C order within a face.  A face's rows are built as a
    table of null-padded uint32 words, one row per line, and its text is
    the table's bytes without the nulls.  The node coordinates x1, x2, x3
    and the coordinate traces t0..t2 are `grid.axes` values bit for bit
    (see `fields.face_nodes`), so each axis's values are %-formatted once
    per export and gathered into the rows; the other traces go through
    `_e10_words`."""
    coordinate_traces = min(len(traces), 3)
    specs = [(",%.10g", a) for a in range(3)] + [(",%.10e", a) for a in range(coordinate_traces)]
    columns = []
    for spec, a in specs:
        columns.append((a, _words([spec % v for v in grid.axes[a]])))
    rest = traces[coordinate_traces:]
    n = grid.resolution
    digits = len(str(2 * (n[0] * n[1] + n[0] * n[2] + n[1] * n[2]) - 1))
    newline = _words(["\n"])
    start = 0
    for axis, high, slab in face_slabs():
        first, second = (b for b in range(3) if b != axis)
        m = n[first] * n[second]
        pieces = [_index_words(start, m, digits, 2 * axis + high)]
        for a, words in columns:
            if a == axis:
                pieces.append(np.broadcast_to(words[slab[axis]], (m, words.shape[1])))
            elif a == first:
                pieces.append(np.repeat(words, n[second], axis=0))
            else:
                pieces.append(np.tile(words, (n[first], 1)))
        if rest:
            values = np.stack([trace[slab].ravel() for trace in rest], axis=1)
            pieces.append(_e10_words(values).reshape(m, -1))
        pieces.append(np.broadcast_to(newline, (m, 1)))
        text = np.concatenate(pieces, axis=1).view(np.uint8).ravel()
        yield text[text != 0].tobytes().decode("ascii")
        start += m


def _cmd_dtn(args):
    """Write dtn_matrix.csv and traces.csv; exit 1 when the pairing matrix is
    not symmetric to DTN_SYMMETRY_TOL relative to its largest entry.  The
    form is built before the traces are drawn, so the profile and the build's
    temporaries are gone before the traces exist, and it is freed, with its
    operators and cached solutions, before either CSV is written."""
    grid = BoxGrid.unit_cube(args.resolution)
    seed = default_seed()
    # --kind names the form's constructor; the profile is freed once the form is built
    form = getattr(DtnForm, args.kind)(make_profile(grid, {"kind": args.profile}))
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
