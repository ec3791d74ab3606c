"""Fingerprint every file a fixed set of vekua-lab commands writes.

With VEKUA_LAB_SEED=2024 it runs `suite all`, `convergence cauchy_constant`
and `dtn --resolution 48` for every profile family and both kinds, each
with a relative --out path under a fresh temporary working directory
(`config_hash` hashes `output_dir`, so relative paths keep the hashes
independent of where the checkout lives).  It prints one `sha256  path`
line per file, sorted by path; a report.json is hashed without its
`runtime_seconds` line, the only field that changes from run to run.
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

The package is imported from PYTHONPATH.  Command output goes to stderr;
the exit status is 1 when any command exits non-zero.
"""

import argparse
import contextlib
import hashlib
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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keep", metavar="DIR",
                        help="run in DIR and keep the outputs there")
    args = parser.parse_args(argv)
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
