"""Worker-count policy shared by the harness and the CLI.

The cap comes from, in order: an explicit argument, the SO3FFT_THREADS
environment variable, then the machine's CPU count.  A cap of 0 means
"auto".  Trials are seeded independently, so the worker count never
changes numerical results, only wall-clock time.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .grids import _checked_int

THREADS_ENV = "SO3FFT_THREADS"


def resolve_threads(requested: int | None = None) -> int:
    """Turn a requested worker count (None/0 = auto) into a concrete one."""
    if requested is None:
        raw = os.environ.get(THREADS_ENV, "0")
        try:
            requested = int(raw)
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    # an int, numpy integers included; 0 means auto
    return _checked_int(requested, "thread count", 0) or max(1, os.cpu_count() or 1)


def parallel_map(fn, items, threads: int):
    """Map preserving input order; degrades to a plain loop for one worker."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
