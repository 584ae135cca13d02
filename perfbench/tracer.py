"""Span recorder for the traced benchmark run.

The recorder never touches the library's source.  ``install`` replaces each
traced public function in every ``so3fft.*`` namespace that binds it with a
wrapper that records a span, and returns a function that puts the originals
back.  The harness closures look their callees up as module globals, and
the CLI's dispatch table is patched in place, so both reach the wrappers.

A span is a dict with ``id``, ``parent``, ``op``, ``name``, ``start`` and
``end`` (``perf_counter_ns``, which on Linux reads the system-wide monotonic
clock, so spans from CLI child processes line up with the parent's) plus
optional attributes read from arguments and return values.  Parent tracking
is thread-local; the ``parallel_map`` wrapper hands its span to the pool's
worker threads, so each trial's spans nest under that call.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

# module -> public functions recorded as spans named "<module>.<function>";
# parallel_map records "parallel.*" spans, since metric names must start
# with a letter
TRACED = {
    "gft": ("s2_fft_forward", "s2_fft_inverse", "so3_fft_forward", "so3_fft_inverse"),
    "correlation": (
        "multichannel_correlate",
        "rotate_so3_spectral",
        "relu_spatial",
        "so3_integrate",
    ),
    "harmonics": ("build_tables", "cached_tables", "wigner_D_matrices"),
    "signals": ("crc64", "read_container", "write_container", "project_image"),
    "harness": ("run_equivariance",),
    "_parallel": ("parallel_map",),
}


class Recorder:
    """Collects spans in memory; thread-safe, one instance per process."""

    def __init__(self, id_prefix: str = ""):
        self.spans: list[dict] = []
        self._prefix = id_prefix
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack, local.root, local.op = [], None, None
        return local

    def context(self) -> tuple[str | None, object]:
        """(innermost open span id, operation id) of the calling thread."""
        st = self._state()
        return (st.stack[-1]["id"] if st.stack else st.root), st.op

    @contextmanager
    def adopt(self, parent: str | None, op):
        """Run the body as if nested under ``parent`` in operation ``op``;
        used by worker threads and by CLI child processes."""
        st = self._state()
        saved = st.stack, st.root, st.op
        st.stack, st.root, st.op = [], parent, op
        try:
            yield
        finally:
            st.stack, st.root, st.op = saved

    def begin(self, name: str, **attrs) -> dict:
        st = self._state()
        with self._lock:
            span_id = f"{self._prefix}{next(self._ids)}"
        parent = st.stack[-1]["id"] if st.stack else st.root
        span = {"id": span_id, "parent": parent, "op": st.op, "name": name}
        span.update(attrs)
        st.stack.append(span)
        span["start"] = time.perf_counter_ns()
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        st = self._state()
        if not st.stack or st.stack[-1] is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        st.stack.pop()
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        sp = self.begin(name, **attrs)
        try:
            yield sp
        finally:
            self.end(sp)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")


def load_spans(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# wrappers


def _attrs_for(name: str):
    """Return f(args, result) -> dict of attributes for one traced function,
    read from arguments and return values only."""
    if name.endswith("_fft_forward"):
        return lambda args, res: {"bytes": args[0].samples.nbytes + res.data.nbytes}
    if name.endswith("_fft_inverse"):
        return lambda args, res: {
            "bytes": args[0].data.nbytes + res.samples.nbytes,
            "imag_residue": float(res.imag_residue),
        }
    if name == "crc64":
        return lambda args, res: {"bytes": len(args[0])}
    if name in ("read_container", "write_container"):
        return lambda args, res: {"bytes": os.path.getsize(args[0])}
    if name == "build_tables":
        return lambda args, res: {
            "bytes": int(res.weights.nbytes + sum(blk.nbytes for blk in res.d))
        }
    return None


def _wrap(rec: Recorder, span_name: str, fn, attrs_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sp = rec.begin(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(sp)
        if attrs_fn is not None:
            sp.update(attrs_fn(args, result))
        return result

    return traced


def _wrap_parallel_map(rec: Recorder, fn):
    @functools.wraps(fn)
    def traced(item_fn, items, threads):
        items = list(items)
        workers = 1 if threads <= 1 or len(items) <= 1 else min(threads, len(items))
        with rec.span("parallel.parallel_map", items=len(items), workers=workers):
            parent, op = rec.context()

            def run_item(item):
                with rec.adopt(parent, op), rec.span("parallel.item"):
                    return item_fn(item)

            return fn(run_item, items, threads)

    return traced


def _library_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "so3fft" or name.startswith("so3fft.")
    ]


def _rebind(mapping: dict) -> None:
    """Replace ``old`` by ``new`` for every ``id(old) -> (old, new)`` entry,
    wherever a library module binds it: as a module global, or as a value
    in a module-level dict such as the CLI's dispatch table."""
    for mod in _library_modules():
        for key, value in list(vars(mod).items()):
            if id(value) in mapping:
                setattr(mod, key, mapping[id(value)][1])
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if id(v) in mapping:
                        value[k] = mapping[id(v)][1]


def install(rec: Recorder):
    """Wrap every TRACED function everywhere it is bound; return ``restore``."""
    import so3fft  # noqa: F401  (loads every module the package re-exports)

    # the mappings hold both functions, which keeps every id unique
    forward, backward = {}, {}
    for module, names in TRACED.items():
        source = sys.modules[f"so3fft.{module}"]
        for name in names:
            original = getattr(source, name)
            if name == "parallel_map":
                wrapper = _wrap_parallel_map(rec, original)
            else:
                wrapper = _wrap(rec, f"{module}.{name}", original, _attrs_for(name))
            forward[id(original)] = (original, wrapper)
            backward[id(wrapper)] = (wrapper, original)
    _rebind(forward)
    return lambda: _rebind(backward)


# ---------------------------------------------------------------------------
# self time


def union_length(intervals) -> int:
    total, cur_start, cur_end = 0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def exclusive_times(spans) -> dict[str, int]:
    """Per span id: duration minus the union of its children's intervals
    (children running concurrently in the trial pool are counted once)."""
    children: dict[str, list] = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {
        sp["id"]: sp["end"] - sp["start"] - union_length(children.get(sp["id"], ()))
        for sp in spans
    }


def wall_shares(spans) -> dict[str, float]:
    """Per span id: its share of wall-clock time.

    At each instant the elapsed time goes to the spans that are open and
    have no open child, split equally between them.  For code running in
    one thread this equals :func:`exclusive_times`; with trials running in
    parallel, concurrent spans split the instant, so the shares of all
    spans add up to the time covered by the top-level spans.
    """
    events = []
    for sp in spans:
        events.append((sp["start"], 1, sp["id"]))
        events.append((sp["end"], 0, sp["id"]))
    events.sort()  # at equal times, closes (0) before opens (1)
    parent_of = {sp["id"]: sp["parent"] for sp in spans}
    open_children: dict[str, int] = {}
    active: set[str] = set()
    share = {sp["id"]: 0.0 for sp in spans}
    last = None
    for t, is_open, span_id in events:
        if last is not None and t > last and active:
            leaves = [s for s in active if not open_children.get(s)]
            dt = (t - last) / len(leaves)
            for s in leaves:
                share[s] += dt
        last = t
        parent = parent_of[span_id]
        if is_open:
            active.add(span_id)
            if parent in parent_of:
                open_children[parent] = open_children.get(parent, 0) + 1
        else:
            active.discard(span_id)
            if parent in parent_of:
                open_children[parent] -= 1
    return share
