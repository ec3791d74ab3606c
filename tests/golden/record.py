"""Record the golden report set that tests/test_golden_reports.py compares against.

    PYTHONPATH=src python3 tests/golden/record.py

Runs every identity check at one small fixed size and writes its report
dict, without `runtime_seconds`, to `tests/golden/<identity>.json`.  A
refactor that must not change any report is checked against these files;
re-record them only with this script, and only when a report is meant to
change.  Some checks legitimately fail at this size; their reports are
recorded all the same.
"""

from __future__ import annotations

import json
import os
import sys

from vekua_lab import harness

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
SIZE = dict(resolutions=(12, 16), n_interior=4, n_exterior=4, boundary_cells=16, seed=2024)


def golden_report(identity):
    """The report dict of one identity at the golden size, JSON round-tripped."""
    report = harness.run_identity(identity, **SIZE).to_dict()
    del report["runtime_seconds"]
    return json.loads(json.dumps(report, default=float))


def golden_path(identity):
    return os.path.join(GOLDEN_DIR, f"{identity}.json")


def main():
    for identity in harness.IDENTITIES:
        with open(golden_path(identity), "w") as fh:
            json.dump(golden_report(identity), fh, indent=1)
            fh.write("\n")
        print(f"wrote {golden_path(identity)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
