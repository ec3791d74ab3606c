"""The package's BLAS thread policy: every command runs BLAS on one thread.

While a hold (`ONE_THREAD`) is open, the OpenBLAS that numpy loads from its
wheel, the only BLAS the package runs, is held at one thread through its
exported set-num-threads symbol, and it gets its own count back when the
last hold closes.  Parallelism comes from the `run_suite` pool alone: BLAS
threads on top of its workers oversubscribe the cores, and on a lone
command (a `dtn` export) they cost CPU time for no wall time at these
sizes.  Where numpy links some other BLAS the hold does nothing.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import NamedTuple

import numpy as np


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
    empty when numpy links some other BLAS.  It is the only BLAS the package
    runs: nothing in it imports scipy."""
    site_packages = os.path.dirname(os.path.dirname(np.__file__))
    return tuple(_openblas_in(os.path.join(site_packages, "numpy.libs")))


class _BlasThreadHold:
    """Holds every loaded OpenBLAS at one thread while any hold is open.

    The first of overlapping holds saves each library's thread count and sets
    it to 1; the last restores the saved counts.  So holds nest (`cli.main`
    around a command, `run_suite` around its pool, `run_identity` on each
    worker), and holds opened from unrelated threads cannot restore a count
    under one another.  One thread everywhere also keeps results from
    depending on the thread count: a threaded BLAS reduction splits its sum
    by thread count, which would make serial and pooled reports differ."""

    def __init__(self):
        self._lock = threading.Lock()
        self._open = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._open == 0:
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


ONE_THREAD = _BlasThreadHold()
