"""The package's process policy, applied by one hold (`POLICY`).

`cli.main` and `run_identity` each open the hold once, and `pooled` holds it
around its thread pool; importing the module applies nothing.

* BLAS runs on one thread while any hold is open: the OpenBLAS of numpy's
  wheel, the only BLAS the package runs, is set through its exported
  set-num-threads symbol and gets its own count back when the last hold
  closes.  The `pooled` workers are the only parallelism: BLAS threads on
  top of them oversubscribe the cores, and on a lone `dtn` export they cost
  CPU time for no wall time.  Where numpy links another BLAS, nothing is held.
* Freed arrays stay in the process from the first hold on.  Under glibc,
  M_MMAP_THRESHOLD goes to 32 MiB and M_TRIM_THRESHOLD to 64 MiB (setting
  one alone stops glibc adjusting the other), so the checks' many short
  numpy passes reuse cache-warm arena pages instead of faulting in fresh
  zeroed ones.  This is process-wide and never undone; other C libraries
  number mallopt's parameters differently, so there it does nothing.
* A `pooled` worker trims the heap (malloc_trim) after each item: each
  worker allocates from its own arena, so without the trim the resident
  size would depend on how the items interleave.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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
def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    import ctypes

    trim = getattr(_libc(), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


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


def pooled(fn, items, workers):
    """[fn(item) for item in items], run on `workers` threads under the hold;
    each worker trims the heap after each item.  Every item runs even when
    an earlier one raises; the first raising item, in order, raises."""

    def run(item):
        try:
            return fn(item)
        finally:
            if (trim := _malloc_trim()) is not None:
                trim(0)

    with POLICY, ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, item) for item in items]
        return [future.result() for future in futures]
