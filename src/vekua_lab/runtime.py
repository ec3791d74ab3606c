"""The package's process policy, applied by one hold (`POLICY`), and the
process pool `run_suite` runs identities on (`pooled`).

`cli.main` and `run_identity` each open the hold once, and `pooled` opens
it before it forks its workers, which inherit it; importing the module
applies nothing.

* BLAS runs on one thread while any hold is open: the OpenBLAS of numpy's
  wheel, the only BLAS the package runs, is set through its exported
  set-num-threads symbol and gets its own count back when the last hold
  closes.  The `pooled` processes are the only parallelism: BLAS threads on
  top of them oversubscribe the cores, and on a lone `dtn` export they cost
  CPU time for no wall time.  Where numpy links another BLAS, nothing is held.
* Freed arrays stay in the process from the first hold on.  Under glibc,
  M_MMAP_THRESHOLD goes to 32 MiB and M_TRIM_THRESHOLD to 64 MiB (setting
  one alone stops glibc adjusting the other), so the checks' many short
  numpy passes reuse cache-warm arena pages instead of faulting in fresh
  zeroed ones.  This is process-wide and never undone; other C libraries
  number mallopt's parameters differently, so there it does nothing.
* `pooled` runs its items on the calling process and on processes forked
  for the call, not on threads: threads of one interpreter share its lock
  and ran the checks slower than processes do.  A worker's memory leaves
  with it, and the caller keeps the freed pages of its own items as it
  keeps any others, so a process that calls `pooled` again and again holds
  about what its first call left resident.
"""

from __future__ import annotations

import functools
import os
import pickle
import sys
import threading
from typing import NamedTuple

import numpy as np

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# (parameter, value): allocations below 32 MiB come from the arena, and the
# arena keeps up to 64 MiB of free space at its top
_HEAP_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


class _BlasLibrary(NamedTuple):
    path: str
    get_threads: object  # () -> int
    set_threads: object  # (int) -> None


def _openblas_in(directory):
    """The scipy-openblas builds under `directory` that this process has
    loaded, with their exported thread-count getter and setter."""
    import ctypes
    import glob

    found = []
    for path in sorted(glob.glob(os.path.join(directory, "libscipy_openblas*"))):
        try:  # RTLD_NOLOAD: a copy nothing loaded runs no threads
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for suffix in ("64_", ""):  # 64-bit-integer builds, then LP64 (32-bit wheels)
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append(_BlasLibrary(path, get, put))
                break
    return found


@functools.cache
def _openblas_libraries():
    """The OpenBLAS numpy loaded from its wheel's `numpy.libs` directory;
    empty when numpy links some other BLAS."""
    site_packages = os.path.dirname(os.path.dirname(np.__file__))
    return tuple(_openblas_in(os.path.join(site_packages, "numpy.libs")))


@functools.cache
def _libc():
    """The process's C library symbols, or None where the process has no
    global symbol table (Windows)."""
    import ctypes

    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


@functools.cache
def _keep_freed_pages():
    """Set the heap thresholds, once per process; a no-op unless the C
    library is glibc."""
    import ctypes

    libc = _libc()
    if getattr(libc, "gnu_get_libc_version", None) is None:
        return
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in _HEAP_POLICY:
        if mallopt(param, value) != 1:
            raise OSError(f"mallopt({param}, {value}) failed")


class _PolicyHold:
    """Holds nest and may open from many threads: the first open applies the
    heap policy (once per process), saves each OpenBLAS's thread count and
    sets it to 1; the last close restores the counts.  One thread everywhere
    keeps reports from depending on how they were run: a threaded BLAS
    reduction splits its sum by thread count."""

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._open == 0:
                _keep_freed_pages()
                self._saved = tuple((lib, lib.get_threads()) for lib in _openblas_libraries())
                for lib, _ in self._saved:
                    lib.set_threads(1)
            self._open += 1

    def __exit__(self, *exc):
        with self._lock:
            self._open -= 1
            if self._open == 0:
                for lib, threads in self._saved:
                    lib.set_threads(threads)
                self._saved = ()


POLICY = _PolicyHold()


def _outcome(fn, item):
    """fn(item) as (True, value), or (False, exception) if it raised."""
    try:
        return True, fn(item)
    except Exception as exc:
        return False, exc


def _claim(counter):
    """The index of the next unclaimed item, from a counter in the unlinked
    file `counter`, which forked processes share: it is advanced under a
    POSIX record lock, which the kernel releases if its holder dies."""
    import fcntl

    fd = counter.fileno()
    fcntl.lockf(fd, fcntl.LOCK_EX)
    try:
        k = int.from_bytes(os.pread(fd, 8, 0), "little")
        os.pwrite(fd, (k + 1).to_bytes(8, "little"), 0)
    finally:
        fcntl.lockf(fd, fcntl.LOCK_UN)
    return k


class _WorkerTraceback(Exception):
    """The traceback of an exception raised in a worker process, as text;
    set as the cause of that exception where it is raised again."""


def _serve(fn, items, counter, out):
    """A forked worker: run claimed items, appending each (index, pickled
    outcome) to `out`, until none is left; then leave with os._exit, so
    nothing of the caller's stack or exit handlers runs here.  An outcome
    that cannot be pickled is sent as a RuntimeError naming its item."""
    import traceback

    status = 1
    try:
        while (k := _claim(counter)) < len(items):
            ok, value = _outcome(fn, items[k])
            shown = None if ok else "".join(traceback.format_exception(value))
            try:
                data = pickle.dumps((ok, value, shown))
            except Exception as exc:
                what = "result" if ok else f"exception {value!r}"
                data = pickle.dumps((False, RuntimeError(
                    f"{items[k]!r}: its {what} cannot be sent back from its worker "
                    f"process: {exc!r}"), shown))
            pickle.dump((k, data), out)
            out.flush()
        status = 0
    finally:
        try:
            _flush_stdio()
        finally:
            os._exit(status)


def _received(out, items, outcomes):
    """Fill `outcomes` from a reaped worker's file."""
    out.seek(0)
    while True:
        try:
            k, data = pickle.load(out)
        except (EOFError, pickle.UnpicklingError):  # the end, or a write cut short
            return
        try:
            ok, value, shown = pickle.loads(data)
        except Exception as exc:
            ok, value, shown = False, RuntimeError(
                f"{items[k]!r}: its outcome from its worker process cannot be "
                f"unpickled: {exc!r}"), None
        if shown is not None:
            value.__cause__ = _WorkerTraceback(shown)
        outcomes[k] = ok, value


def _flush_stdio():
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _ended(status):
    code = os.waitstatus_to_exitcode(status)
    return f"killed by signal {-code}" if code < 0 else f"exit status {code}"


def pooled(fn, items, workers):
    """[fn(item) for item in items], run under the hold on the calling
    process and on up to `workers - 1` processes forked at the start of the
    call (serially where os.fork is missing).  The children inherit `fn` and
    `items`, so neither is pickled; each process runs the next unclaimed
    item until none is left, and a child sends each result, or exception,
    back pickled.  Every item runs even when an earlier one raises; the
    first raising item, in order, raises, and an item whose worker died
    raises a RuntimeError naming it.  Every child is reaped, or killed and
    reaped, before the call returns or raises.  A child holds only the
    thread that forked it, so the items must not need a lock that another
    thread of the caller may hold."""
    import signal
    import tempfile

    items = list(items)
    count = min(workers, len(items)) if hasattr(os, "fork") else 1
    outcomes = [None] * len(items)
    children = {}  # pid -> the file it sends its outcomes on
    ended = []  # how each reaped child ended
    with POLICY, tempfile.TemporaryFile() as counter:
        _flush_stdio()  # what is buffered now is the caller's to write, not a child's
        try:
            for _ in range(count - 1):
                out = tempfile.TemporaryFile()
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items, counter, out)
                children[pid] = out
            while (k := _claim(counter)) < len(items):
                outcomes[k] = _outcome(fn, items[k])
            for pid in list(children):
                _, status = os.waitpid(pid, 0)
                out = children.pop(pid)
                ended.append(_ended(status))
                _received(out, items, outcomes)
                out.close()
        finally:  # after a raise in the caller, children still running are killed
            for pid, out in children.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                out.close()
    for k, outcome in enumerate(outcomes):
        if outcome is None:
            raise RuntimeError(f"{items[k]!r}: its worker process ended before sending "
                               f"it back (workers ended with {', '.join(ended)})")
        ok, value = outcome
        if not ok:
            raise value
    return [value for _, value in outcomes]
