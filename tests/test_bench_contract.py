"""The benchmark's traced run wraps package functions by name (see
perfbench/layers.py).  These tests resolve every name it wraps, so a
refactor that drops or renames a traced target fails here rather than in a
benchmark run; the benchmark's own selftest runs here too.  perfbench/ is
only read."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        mp.setattr(sys, "dont_write_bytecode", True)
        yield importlib.import_module("layers"), importlib.import_module("tracer")


def package(module):
    return importlib.import_module(f"vekua_lab.{module}")


def test_traced_functions_resolve(bench):
    layers, _ = bench
    for module, function, work, _ in layers.FUNCTIONS:
        target = getattr(package(module), function, None)
        assert callable(target), f"vekua_lab.{module}.{function}"
        if work is not None:
            # the work counter is called with the target's own arguments
            counted = [p.name for p in inspect.signature(work).parameters.values()
                       if p.kind is p.POSITIONAL_OR_KEYWORD]
            leading = list(inspect.signature(target).parameters)[:len(counted)]
            assert counted == leading, f"vekua_lab.{module}.{function}"


def test_traced_methods_resolve(bench):
    layers, _ = bench
    for module, cls, method, _, _ in layers.METHODS:
        owner = getattr(package(module), cls)
        assert callable(owner.__dict__.get(method)), f"vekua_lab.{module}.{cls}.{method}"


def test_entry_points_and_probes_resolve(bench):
    _, tracer = bench
    for entry in ("harness.run_identity",) + tracer.ENTRY_NAMES:
        module, function = entry.split(".")
        assert callable(getattr(package(module), function, None)), entry
    assert callable(package("pde").spla.cg)
    assert isinstance(package("integral_ops").HAVE_NUMBA, bool)


def _listing(root):
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, files in os.walk(root) for f in files + [""])


def test_benchmark_selftest_passes():
    # span pins and the BENCHMARK.json metric lists, checked against this checkout
    before = _listing(PERFBENCH)
    done = subprocess.run([sys.executable, os.path.join(PERFBENCH, "selftest.py")],
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert _listing(PERFBENCH) == before
