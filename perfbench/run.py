"""vekua-lab benchmark: one pinned workload per run, checked against a reference.

    python3 perfbench/run.py --workload suite_all --seed 2024 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's own `src/`.  A run sets up (times `import vekua_lab.cli` in
fresh interpreters), then repeats whole passes of the workload until
`--seconds` of measured time have elapsed, checks every pass's outputs and
prints a provenance line (thread settings as found, library versions,
commit, seed, per-pass wall times) and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones:
  setup_s      median import time of vekua_lab.cli over SETUP_SAMPLES
               fresh interpreters
  wall_s       median wall time of a pass, first call into the program
               to the last report or CSV file written
  cpu_s        median user + system CPU time of the process (all
               threads) over the same interval
  peak_rss_mb  peak resident memory of the process, MiB
  pass_ratio   operations passed / attempted (1 - the failure ratio)
With `--trace 1` the same passes run with every layer wrapped (see
layers.py) and the metrics are per-layer, averaged per pass; the spans go
to .perfbench-runs/trace-<workload>-seed<n>.jsonl.

The benchmark sets no BLAS or OpenMP thread variable: thread contention
is part of what it measures, and the values found are recorded in the
provenance line printed before the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")
SETUP_SAMPLES = 3
IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import vekua_lab.cli\n"
    "print(repr(time.perf_counter() - t0))\n"
)
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "pass_ratio": "ratio"}
THREAD_VARIABLES = ("VEKUA_LAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def load_program():
    """Put the checkout's src/ first on the import path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "vekua_lab", "__init__.py")):
        raise SystemExit(f"perfbench: no vekua_lab sources under {SRC}")
    sys.path.insert(0, SRC)
    import vekua_lab

    if not os.path.realpath(vekua_lab.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"perfbench: imported vekua_lab from {vekua_lab.__file__}, not {SRC}")


def measure_setup():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _source_digest():
    digest = hashlib.sha256()
    package = os.path.join(SRC, "vekua_lab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(seed, found_env):
    import numpy
    import scipy
    from vekua_lab import integral_ops

    return {
        "nproc": len(os.sched_getaffinity(0)),
        **found_env,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": integral_ops.HAVE_NUMBA,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    found_env = {name: os.environ.get(name) for name in THREAD_VARIABLES}

    load_program()
    import layers
    import workloads
    from tracer import Tracer, per_span_cost

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    setup_s = measure_setup()
    prov = provenance(args.seed, found_env)

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
    os.makedirs(RUNS_DIR, exist_ok=True)
    walls, cpus = [], []
    attempted = failed = 0
    while sum(walls) < args.seconds:
        out_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
        try:
            c0, t0 = os.times(), time.perf_counter()
            status = workload.run(out_dir, args.seed)
            t1, c1 = time.perf_counter(), os.times()
            n_ops, n_failed = workload.check(out_dir, args.seed, status)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        walls.append(t1 - t0)
        cpus.append((c1.user - c0.user) + (c1.system - c0.system))
        attempted += n_ops
        failed += n_failed

    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": 1.0 - failed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    else:
        tracer.uninstall()
        metrics = layers.per_layer(tracer.spans, workloads.SUITE_IDENTITIES, sum(walls),
                                   per_span_cost())
        for name, metric in metrics.items():
            if layers.UNITS[name.rsplit(".", 1)[1]] != "ratio":
                metric["value"] /= len(walls)
        tracer.write(os.path.join(RUNS_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"),
                     {"workload": args.workload, "passes": len(walls), "provenance": prov})

    print(json.dumps({"provenance": prov, "workload": args.workload, "pass_wall_s": walls}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
