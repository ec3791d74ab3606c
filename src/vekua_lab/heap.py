"""The package's heap policy: freed arrays stay in the process for reuse.

The checks are many short numpy passes over arrays of a few hundred kB to a
few MB: multivector fields, kernel tables, solver vectors.  glibc's default
malloc thresholds adapt to them by handing freed temporaries back to the
kernel, unmapping them or trimming them off the top of the heap, so the next
temporary of that size is faulted in again, zeroed, page by page.

The first time a command or check starts (`cli.main`, `run_suite`,
`run_identity`), `keep_freed_pages` sets M_MMAP_THRESHOLD to 32 MiB and
M_TRIM_THRESHOLD to 64 MiB.  Freed temporaries then go back to the malloc
arena and are reused while still cache-warm.  Both thresholds are set
because setting either alone turns off glibc's dynamic adjustment of the
other.  The policy is process-wide and is not undone; importing the package
sets nothing.  It applies only under glibc: other C libraries number
mallopt's parameters differently, so there it does nothing.

A `run_suite` pool worker still hands the heap pages an identity freed back
to the kernel once the identity is done (`release_freed_pages`): each worker
allocates from its own arena, so without the trim the resident size of a
suite run would depend on how the workers' checks interleave.
"""

from __future__ import annotations

import functools

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# (parameter, value): allocations below 32 MiB come from the arena, and the
# arena keeps up to 64 MiB of free space at its top
_POLICY = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 64 << 20))


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
def keep_freed_pages():
    """Apply the heap policy, once per process; a no-op unless the C library
    is glibc."""
    import ctypes

    libc = _libc()
    if getattr(libc, "gnu_get_libc_version", None) is None:
        return
    mallopt = libc.mallopt
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    for param, value in _POLICY:
        if mallopt(param, value) != 1:
            raise OSError(f"mallopt({param}, {value}) failed")


def release_freed_pages():
    """Hand the free pages of every malloc arena back to the kernel, where the
    C library can (glibc's malloc_trim)."""
    if (trim := _malloc_trim()) is not None:
        trim(0)
