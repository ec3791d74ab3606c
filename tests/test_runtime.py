"""The process policy: the first command or check of a process keeps freed
arrays in the process under glibc, importing the package does not, and
elsewhere the heap policy is a no-op; `pooled` trims after every item.  The
BLAS half of the hold is tested in test_harness.py."""

import types

import pytest

from vekua_lab import harness as H
from vekua_lab import runtime

from conftest import fresh_python

# Minor page faults of 20 rounds of six freshly allocated and freed 4 MiB
# arrays, once after a bare import and twice after one small command.
PROBE = """
import resource, sys, tempfile
import numpy as np
import vekua_lab.cli
from vekua_lab import cli, harness

def faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        arrays = [np.ones(1 << 19) for _ in range(6)]
        del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

bare = faults()
if sys.argv[1] == "dtn":
    with tempfile.TemporaryDirectory() as out:
        cli.main(["dtn", "--resolution", "8", "--basis-size", "2", "--out", out])
else:
    harness.run_identity("cauchy_constant")
print(bare, faults(), faults())
"""


@pytest.mark.skipif(getattr(runtime._libc(), "gnu_get_libc_version", None) is None,
                    reason="the heap policy applies only under glibc")
@pytest.mark.parametrize("command", ["dtn", "identity"])
def test_first_command_keeps_freed_pages_and_import_does_not(command):
    done = fresh_python(PROBE, command)
    assert done.returncode == 0, done.stderr
    bare, _, warm = map(int, done.stdout.split()[-3:])
    # glibc's default thresholds hand the freed arrays back to the kernel
    # and fault them in again: tens of thousands of faults
    assert bare > 10_000
    # under the policy they are reused from the arena
    assert warm < 1_000


@pytest.fixture
def no_glibc(monkeypatch):
    """A C library with mallopt and malloc_trim but no gnu_get_libc_version;
    the policy is re-armed before and after the test."""
    calls = {"mallopt": [], "malloc_trim": []}
    libc = types.SimpleNamespace(
        mallopt=lambda *args: calls["mallopt"].append(args) or 1,
        malloc_trim=lambda pad: calls["malloc_trim"].append(pad) or 0,
    )
    monkeypatch.setattr(runtime, "_libc", lambda: libc)
    runtime._keep_freed_pages.cache_clear()
    runtime._malloc_trim.cache_clear()
    yield calls
    runtime._keep_freed_pages.cache_clear()
    runtime._malloc_trim.cache_clear()


def test_policy_is_a_no_op_without_glibc(no_glibc, monkeypatch):
    monkeypatch.setenv("VEKUA_LAB_THREADS", "2")
    reports = H.run_suite(["cauchy_constant", "operator_consistency"])
    assert all(r.passed for r in reports.values())
    assert no_glibc["mallopt"] == []
    # the pool's trim does not depend on glibc: it runs wherever the symbol is
    assert no_glibc["malloc_trim"] == [0, 0]


def test_pooled_keeps_order_trims_each_item_and_runs_past_a_raise(monkeypatch):
    trims, ran = [], []
    monkeypatch.setattr(runtime, "_malloc_trim", lambda: trims.append)

    def square(k):
        ran.append(k)
        if k < 0:
            raise KeyError(k)
        return k * k

    assert runtime.pooled(square, [3, 1, 4], 2) == [9, 1, 16]
    assert trims == [0, 0, 0]
    with pytest.raises(KeyError, match="-1"):
        runtime.pooled(square, [-1, 2, -3], 2)
    assert sorted(ran) == [-3, -1, 1, 2, 3, 4]
    assert trims == [0] * 6
    assert runtime.POLICY._open == 0
