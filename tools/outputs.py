"""Fingerprint every file a fixed set of vekua-lab commands writes.

With VEKUA_LAB_SEED=2024 it runs `suite all`, `convergence cauchy_constant`
and `dtn --resolution 48` for every profile family and both kinds, each
writing to a relative --out path under a fresh temporary working
directory.  It prints one `sha256  path` line per file, sorted by path; a
report.json is hashed without its `runtime_seconds` line, the only field
that changes from run to run.
Two trees write the same outputs exactly when their listings are equal:

    PYTHONPATH=src python3 tools/outputs.py > change.txt
    PYTHONPATH=/path/to/parent/src python3 tools/outputs.py > parent.txt
    diff parent.txt change.txt

With `--keep DIR` the commands run in DIR (created if missing) instead of
a temporary directory, and their outputs stay there; the listing is the
same.  A change whose numbers move only at rounding can then compare the
two trees file by file:

    PYTHONPATH=/path/to/parent/src python3 tools/outputs.py --keep parent-out
    PYTHONPATH=src python3 tools/outputs.py --keep change-out
    PYTHONPATH=src python3 tools/outputs.py --compare parent-out change-out

`--compare PARENT CHANGE` runs nothing.  For each file whose digest differs
between the two trees it prints the largest relative and absolute move of
a numeric JSON field or CSV cell, a relative move being |a - b| /
max(|a|, |b|), and flags a `passed` that flipped, any other changed field
or cell, a number that became or stopped being finite among them (naming
up to five, a JSON field by its dotted key path such as
`provenance.config_hash`, a CSV cell as line:column), and a file that
only one tree has.

The package is imported from PYTHONPATH.  Command output goes to stderr;
the exit status is 1 when any command exits non-zero, or, with --compare,
when a file is flagged.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import tempfile

from vekua_lab import cli
from vekua_lab.vekua import PROFILE_FAMILIES

SEED = "2024"
KINDS = ("conductivity", "schrodinger")


def commands():
    """(argv, output directory) of every command, in run order."""
    yield ["suite", "all"], "suite"
    yield ["convergence", "cauchy_constant"], "convergence"
    for profile in PROFILE_FAMILIES:
        for kind in KINDS:
            yield (["dtn", "--profile", profile, "--kind", kind, "--resolution", "48"],
                   os.path.join("dtn", f"{profile}-{kind}"))


def digest(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "report.json":
        data = b"".join(line for line in data.splitlines(keepends=True)
                        if not line.lstrip().startswith(b'"runtime_seconds":'))
    return hashlib.sha256(data).hexdigest()


def run_in(work):
    """Run every command with `work` as the working directory and print the
    listing; return the (argv, status) of each command that failed."""
    failed = []
    start = os.getcwd()
    os.chdir(work)
    try:
        for argv, out in commands():
            with contextlib.redirect_stdout(sys.stderr):
                status = cli.main(argv + ["--out", out])
            if status:
                failed.append((argv, status))
        listing = sorted(os.path.relpath(os.path.join(root, name))
                         for root, _, names in os.walk(".") for name in names)
        for path in listing:
            print(f"{digest(path)}  {path}")
    finally:
        os.chdir(start)
    return failed


def files(root):
    return {os.path.relpath(os.path.join(top, name), root)
            for top, _, names in os.walk(root) for name in names}


def leaves(path):
    """Every field of a JSON file by its key path, or every cell of a CSV
    file by its (line, column)."""
    def walk(node, at):
        if isinstance(node, (dict, list)):
            for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
                yield from walk(child, at + (key,))
        else:
            yield at, node

    with open(path) as fh:
        if path.endswith(".json"):
            return dict(walk(json.load(fh), ()))
        return {(f"{n}:{k}",): cell for n, line in enumerate(fh)
                for k, cell in enumerate(line.rstrip("\n").split(","))}


def place(at):
    """The dotted key path of a leaf."""
    return ".".join(map(str, at))


def number(value):
    """The float of a JSON number or a numeric CSV cell, else None."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def moves(old, new):
    """(largest relative move and its place, largest absolute move, whether
    `passed` flipped, the places of other changes) between the leaves of two
    files."""
    rel, where, absolute = 0.0, None, 0.0
    flipped, other = False, []
    for at in sorted(old.keys() | new.keys(), key=str):
        a, b = old.get(at), new.get(at)
        # json.load reads NaN as a float that equals nothing, itself included
        both_nan = all(isinstance(v, float) and math.isnan(v) for v in (a, b))
        if a == b or both_nan or at[-1] == "runtime_seconds":
            continue
        x, y = number(a), number(b)
        if at[-1] == "passed":
            flipped = True
        elif x is None or y is None or not (math.isfinite(x) and math.isfinite(y)):
            other.append(at)
        elif x != y:
            absolute = max(absolute, abs(x - y))
            if abs(x - y) / max(abs(x), abs(y)) > rel:
                rel, where = abs(x - y) / max(abs(x), abs(y)), at
    return rel, where, absolute, flipped, other


def compare(parent, change):
    """Print the moves of every file that differs; True when one is flagged."""
    flagged = False
    for path in sorted(files(parent) | files(change)):
        old, new = os.path.join(parent, path), os.path.join(change, path)
        if not (os.path.exists(old) and os.path.exists(new)):
            print(f"{path}: only in {old if os.path.exists(old) else new}")
            flagged = True
        elif digest(old) != digest(new):
            rel, where, absolute, flipped, other = moves(leaves(old), leaves(new))
            notes = ["passed flipped"] if flipped else []
            if other:
                notes.append(f"{len(other)} other change(s): "
                             + ", ".join(map(place, other[:5])) + (", ..." if other[5:] else ""))
            move = (f"largest move {rel:.2e} relative (at {place(where)}), {absolute:.2e} absolute"
                    if where else "no numeric move")
            print(f"{path}: {move}" + "".join(f"; {note}" for note in notes))
            flagged |= bool(notes)
    return flagged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--keep", metavar="DIR",
                       help="run in DIR and keep the outputs there")
    group.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                       help="compare the outputs of two --keep runs")
    args = parser.parse_args(argv)
    if args.compare:
        return 1 if compare(*args.compare) else 0
    os.environ["VEKUA_LAB_SEED"] = SEED
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
        failed = run_in(args.keep)
    else:
        with tempfile.TemporaryDirectory() as work:
            failed = run_in(work)
    for argv, status in failed:
        print(f"vekua-lab {' '.join(argv)} exited {status}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
