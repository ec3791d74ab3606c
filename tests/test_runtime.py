"""The process policy: the first command or check of a process keeps freed
arrays in the process under glibc, importing the package does not, and
elsewhere the heap policy is a no-op.  The BLAS half of the hold is tested in test_harness.py.  The pool: items come
back in order from the caller and its forked workers, the first raising
item raises, and a worker that cannot send an item back, or dies in it,
raises an error naming the item, with every worker reaped.

What a forked worker does to its copy of the caller's objects stays in the
worker, so these tests see workers through what comes back: results,
exceptions, and a `ProcessLog` file that any process appends to."""

import os
import signal
import time
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
def no_glibc(monkeypatch, process_log):
    """A C library with mallopt but no gnu_get_libc_version, logging each
    call in any process; yields the logged arguments.  The policy is
    re-armed before and after the test."""
    libc = types.SimpleNamespace(mallopt=lambda *args: process_log.append(args) or 1)
    monkeypatch.setattr(runtime, "_libc", lambda: libc)
    runtime._keep_freed_pages.cache_clear()
    yield process_log.read
    runtime._keep_freed_pages.cache_clear()


def test_policy_is_a_no_op_without_glibc(no_glibc, monkeypatch):
    monkeypatch.setenv("VEKUA_LAB_THREADS", "2")
    reports = H.run_suite(["cauchy_constant", "operator_consistency"])
    assert all(r.passed for r in reports.values())
    assert no_glibc() == []


def test_pooled_keeps_order_and_runs_past_a_raise(process_log):
    def square(k):
        process_log.append(k)
        if k < 0:
            raise KeyError(k)
        return k * k

    assert runtime.pooled(square, [3, 1, 4], 2) == [9, 1, 16]
    with pytest.raises(KeyError, match="-1"):
        runtime.pooled(square, [-1, 2, -3], 2)
    assert sorted(process_log.read()) == [-3, -1, 1, 2, 3, 4]
    assert runtime.POLICY._open == 0


def _split(process_log, in_child, in_caller=lambda item: item):
    """An fn for `pooled` that runs `in_child` on the items a forked worker
    claims, logging (item, pid) first, and `in_caller` on the caller's; the
    caller's first item waits until a worker has started one, so a worker
    runs at least one item."""
    caller = os.getpid()

    def fn(item):
        if os.getpid() != caller:
            process_log.append((item, os.getpid()))
            return in_child(item)
        deadline = time.monotonic() + 60
        while not process_log.read():
            assert time.monotonic() < deadline, "no worker process started an item"
            time.sleep(0.001)
        return in_caller(item)

    return fn


def _first_child_item(process_log, items):
    """The first item in order that a worker ran, and the worker's pid."""
    return min(process_log.read(), key=lambda logged: items.index(logged[0]))


def _assert_reaped(pid):
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    assert runtime.POLICY._open == 0


def test_pooled_returns_items_in_order_from_every_process(process_log):
    fn = _split(process_log, lambda k: (k * k, "worker"), lambda k: (k * k, "caller"))
    got = runtime.pooled(fn, range(10), 2)
    assert [value for value, _ in got] == [k * k for k in range(10)]
    assert "worker" in {where for _, where in got}
    assert sorted(k for k, _ in process_log.read()) == [k for k, (_, where) in enumerate(got)
                                                         if where == "worker"]
    for _, pid in process_log.read():
        _assert_reaped(pid)


def test_pooled_claims_each_item_once_with_more_workers_than_cores(process_log):
    # a lost update of the shared claim counter would run an item twice or
    # never: 4 processes on 2 cores race for 5000 items
    def ran(k):
        process_log.append(k)
        return k

    assert runtime.pooled(ran, range(5000), 4) == list(range(5000))
    assert sorted(process_log.read()) == list(range(5000))


def test_pooled_serial_without_fork_or_a_second_worker(monkeypatch):
    here = lambda item: (item, os.getpid())
    assert runtime.pooled(here, "ab", 1) == [("a", os.getpid()), ("b", os.getpid())]
    monkeypatch.delattr(os, "fork")
    assert runtime.pooled(here, "ab", 2) == [("a", os.getpid()), ("b", os.getpid())]


def test_pooled_raises_the_first_raising_item_in_order(process_log):
    def odd_raises(k):
        if k % 2:
            raise ValueError(k)
        return k

    fn = _split(process_log, odd_raises, odd_raises)
    with pytest.raises(ValueError, match="^1$"):
        runtime.pooled(fn, range(8), 2)


def test_pooled_raises_a_worker_exception_with_its_traceback(process_log):
    def in_child(item):
        raise ValueError(f"bad {item}")

    with pytest.raises(ValueError, match="^bad [ab]$") as raised:
        runtime.pooled(_split(process_log, in_child), ["a", "b"], 2)
    cause = raised.value.__cause__
    assert isinstance(cause, runtime._WorkerTraceback)
    assert ", in in_child\n" in str(cause) and "ValueError: bad" in str(cause)


def _unpicklable_exception(item):
    exc = ValueError(item)
    exc.hook = lambda: None
    raise exc


@pytest.mark.parametrize("in_child, what", [
    (_unpicklable_exception, r"exception ValueError\('\w+'\)"),
    (lambda item: (lambda: item), "result"),
])
def test_pooled_names_the_item_whose_outcome_cannot_come_back(process_log, in_child, what):
    items = ["cauchy_constant", "scalar_bp", "dtn_relation"]
    with pytest.raises(RuntimeError, match=f"its {what} cannot be sent back") as raised:
        runtime.pooled(_split(process_log, in_child), items, 2)
    item, pid = _first_child_item(process_log, items)
    assert str(raised.value).startswith(f"{item!r}: ")
    _assert_reaped(pid)


@pytest.mark.parametrize("die, ending", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), f"killed by signal {int(signal.SIGKILL)}"),
])
def test_pooled_names_the_item_whose_worker_died(process_log, die, ending):
    items = ["cauchy_constant", "scalar_bp", "dtn_relation"]

    def in_child(item):
        die()
        time.sleep(60)  # not reached

    with pytest.raises(RuntimeError, match="its worker process ended before sending it back "
                                           f"\\(workers ended with {ending}\\)") as raised:
        runtime.pooled(_split(process_log, in_child), items, 2)
    item, pid = _first_child_item(process_log, items)
    assert str(raised.value).startswith(f"{item!r}: ")
    _assert_reaped(pid)


def test_pooled_kills_and_reaps_its_workers_when_the_caller_raises(process_log):
    class Stop(BaseException):
        pass

    def in_caller(item):
        raise Stop

    t0 = time.monotonic()
    with pytest.raises(Stop):
        runtime.pooled(_split(process_log, lambda item: time.sleep(60), in_caller), "ab", 2)
    assert time.monotonic() - t0 < 30
    (_, pid), = process_log.read()
    _assert_reaped(pid)


def test_importing_the_cli_loads_no_pool_machinery():
    # `pooled` forks with os alone; a multiprocessing import costs about a
    # tenth of the package's import time
    done = fresh_python("import sys\nimport vekua_lab.cli\n"
                        "print([m for m in ('multiprocessing', 'concurrent.futures')"
                        " if m in sys.modules])")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[-1] == "[]"
