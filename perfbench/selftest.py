"""Self-test of the benchmark's tracer and metric lists.

    python3 perfbench/selftest.py

Runs two small operations twice each under the tracer and checks that the
exact span counts repeat and equal the known call structure:
`cauchy_constant` at its defaults makes 3 `cauchy_boundary` calls (one per
face-cell level); `vekua-lab dtn --basis-size 4` makes 2 assemblies (the
form's operator and the harmonic one), 4 solves, 16 energies and 32
`DtnForm.solution` calls (two per pairing, all but the first per trace
served from the cache).  Also checks that BENCHMARK.json lists exactly the
metrics run.py reports.
"""

from __future__ import annotations

import collections
import contextlib
import json
import os
import shutil
import sys
import tempfile

from run import END_TO_END_UNITS, ROOT, RUNS_DIR, load_program

EXPECTED = {
    "cauchy_constant": {"integral_ops.cauchy_boundary": 3},
    "dtn": {
        "pde.DirichletOperator.assemble": 2,
        "pde.DirichletOperator.solve": 4,
        "pde.DtnForm.energy": 16,
        "pde.DtnForm.solution": 32,
    },
}


def traced_counts(operation):
    """Span counts by name, and the spans, of one traced call of `operation`."""
    import layers
    from tracer import Tracer

    tracer = Tracer()
    layers.install(tracer)
    try:
        operation()
    finally:
        tracer.uninstall()
    return collections.Counter(s.name for s in tracer.spans), tracer.spans


def _cauchy_constant():
    from vekua_lab import harness

    report = harness.run_identity("cauchy_constant")
    if not report.passed:
        raise AssertionError("cauchy_constant did not pass")


def _dtn(out_dir):
    from vekua_lab import cli

    def operation():
        with contextlib.redirect_stdout(sys.stderr):
            status = cli.main(["dtn", "--basis-size", "4", "--out", out_dir])
        if status != 0:
            raise AssertionError(f"dtn exited with {status}")
    return operation


def _span_tree_problems(spans):
    problems = []
    for span in spans:
        if span.parent is None:
            continue
        if not span.parent.start <= span.start <= span.end <= span.parent.end:
            problems.append(f"{span.name} not inside its parent {span.parent.name}")
        if not span.name.startswith("harness.identity.") and span.trace != span.parent.trace:
            problems.append(f"{span.name} left the trace of its parent {span.parent.name}")
    return problems


def main():
    load_program()
    import layers
    import workloads

    problems = []
    os.makedirs(RUNS_DIR, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="selftest-", dir=RUNS_DIR)
    try:
        operations = {"cauchy_constant": _cauchy_constant, "dtn": _dtn(out_dir)}
        for label, operation in operations.items():
            first, spans = traced_counts(operation)
            second, _ = traced_counts(operation)
            problems += _span_tree_problems(spans)
            if first != second:
                problems.append(f"{label}: span counts differ between runs: {first - second}"
                                f" / {second - first}")
            for name, want in EXPECTED[label].items():
                if first[name] != want:
                    problems.append(f"{label}: {name} made {first[name]} calls, expected {want}")
            print(f"{label}: " + ", ".join(f"{n}={first[n]}" for n in EXPECTED[label]))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    per_layer = [m["name"] for m in declared["per_layer"]]
    if per_layer != layers.metric_names(workloads.SUITE_IDENTITIES):
        problems.append("BENCHMARK.json per_layer differs from layers.metric_names()")
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END_UNITS:
        problems.append("BENCHMARK.json end_to_end differs from run.py's metrics")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
