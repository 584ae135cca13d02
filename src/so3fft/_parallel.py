"""Worker-count policy shared by the harness and the CLI.

The cap comes from, in order: an explicit argument, the SO3FFT_THREADS
environment variable, then the CPUs this process may run on.  A cap of 0
means "auto".  A map, at any worker count, sets numpy's OpenBLAS to one
thread, a process-wide setting, and restores the previous count when it
returns or raises; a BLAS with no such setter (MKL, Accelerate) is left
as it is.  Trials are seeded independently, so the worker count never
changes numerical results, only wall-clock time.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from functools import cache

from .grids import _checked_int

THREADS_ENV = "SO3FFT_THREADS"

_blas_lock = threading.Lock()
_blas_depth = _blas_saved = 0  # maps running now; the BLAS count before the first


def resolve_threads(requested: int | None = None) -> int:
    """Turn a requested worker count (None/0 = auto) into a concrete one."""
    if requested is None:
        raw = os.environ.get(THREADS_ENV, "0")
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # an int, numpy integers included; 0 means auto
    return _checked_int(requested, "thread count", 0) or max(1, cpus or 1)


@cache
def _blas_api():
    """numpy's OpenBLAS thread-count (get, set) functions, or None."""
    from numpy._core import _multiarray_umath

    lib = ctypes.CDLL(_multiarray_umath.__file__)  # dlsym also searches its dependencies
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def blas_threads() -> int | None:
    """BLAS threads :func:`parallel_map` runs its items under; None: no setter."""
    return None if _blas_api() is None else 1


def _scope_blas(step: int) -> None:
    """Count a map in (+1) or out (-1): the first in saves the BLAS thread
    count and sets 1, the last out restores it."""
    global _blas_depth, _blas_saved
    get, put = _blas_api() or (None, None)
    with _blas_lock:
        if put and step > 0 and not _blas_depth:
            _blas_saved = get()
            put(1)
        _blas_depth += step
        if put and step < 0 and not _blas_depth:
            put(_blas_saved)


def parallel_map(fn, items, threads: int):
    """Map preserving input order; degrades to a plain loop for one worker."""
    items = list(items)
    _scope_blas(+1)  # before the pool starts; the count comes back after it joins
    try:
        if threads <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    finally:
        _scope_blas(-1)
