"""Record perfbench/reference.json: the outputs the correctness gate compares
against on the reference seed.

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter the numbers, and say so in
the change's notes; a speed-up must leave them unchanged to rounding.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import RUNS_DIR, load_program


def main():
    load_program()
    import workloads

    seed = workloads.REFERENCE_SEED
    reference = {"seed": seed}
    os.makedirs(RUNS_DIR, exist_ok=True)
    for name, workload in workloads.WORKLOADS.items():
        out_dir = tempfile.mkdtemp(prefix="reference-", dir=RUNS_DIR)
        try:
            status = workload.run(out_dir, seed)
            # seed=None: apply the gates without comparing to a reference
            attempted, failed = workload.check(out_dir, None, status)
            if failed:
                raise SystemExit(f"{name}: {failed} of {attempted} operations failed; "
                                 "not recording a reference")
            reference[name] = workload.outputs(out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
