"""Tests for the benchmark's span recorder.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import importlib
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Recorder, exclusive_times, install, union_length, wall_shares  # noqa: E402


def span(id_, parent, start, end, name="x"):
    return {"id": id_, "parent": parent, "op": 0, "name": name, "start": start, "end": end}


def test_self_time_subtracts_overlapping_child_coverage():
    # two trials from the pool overlap on [20, 30]; the second has a child
    spans = [
        span("pm", None, 0, 100),
        span("t1", "pm", 10, 30),
        span("t2", "pm", 20, 50),
        span("g", "t2", 40, 45),
    ]
    excl = exclusive_times(spans)
    assert excl == {"pm": 60, "t1": 20, "t2": 25, "g": 5}

    share = wall_shares(spans)
    assert share["pm"] == pytest.approx(60)  # same as its exclusive time
    assert share["t1"] == pytest.approx(10 + 5)  # the overlap is split
    assert share["t2"] == pytest.approx(5 + 10 + 5)
    assert share["g"] == pytest.approx(5)
    assert sum(share.values()) == pytest.approx(100)


def test_shares_add_up_to_top_level_coverage():
    rng = np.random.default_rng(0)
    spans = []
    for top in range(3):
        start = int(rng.integers(0, 500))
        end = start + int(rng.integers(50, 300))
        spans.append(span(f"top{top}", None, start, end))
        for c in range(4):  # children may overlap one another
            cs = int(rng.integers(start, end))
            spans.append(span(f"c{top}.{c}", f"top{top}", cs, int(rng.integers(cs, end + 1))))
    coverage = union_length([(s["start"], s["end"]) for s in spans if s["parent"] is None])
    assert sum(wall_shares(spans).values()) == pytest.approx(coverage)


def test_pool_worker_spans_nest_under_the_trial():
    from so3fft._parallel import parallel_map

    rec = Recorder()
    traced_map = tracer._wrap_parallel_map(rec, parallel_map)
    barrier = threading.Barrier(2, timeout=10)

    def trial(i):
        barrier.wait()  # both trials run at once, in two worker threads
        with rec.span("work", thread=threading.get_ident()):
            return i * i

    with rec.adopt(None, 7), rec.span("outer"):
        assert traced_map(trial, range(2), 2) == [0, 1]

    by_name = {}
    for sp in rec.spans:
        by_name.setdefault(sp["name"], []).append(sp)
    (pm,) = by_name["parallel.parallel_map"]
    (outer,) = by_name["outer"]
    assert pm["parent"] == outer["id"] and pm["items"] == 2 and pm["workers"] == 2
    items = by_name["parallel.item"]
    assert {sp["parent"] for sp in items} == {pm["id"]}
    assert {sp["parent"] for sp in by_name["work"]} == {sp["id"] for sp in items}
    assert {sp["op"] for sp in rec.spans} == {7}
    assert threading.get_ident() not in {sp["thread"] for sp in by_name["work"]}


def _bindings():
    """Every so3fft.* global and dispatch-table entry outside the CLI module,
    by identity."""
    out = {}
    for mod in tracer._library_modules():
        if mod.__name__ == "so3fft.cli":
            continue
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = id(value)
            if isinstance(value, dict):
                for k, v in value.items():
                    out[(mod.__name__, key, k)] = id(v)
    return out


def test_install_wraps_everywhere_and_restore_undoes_it():
    import so3fft
    import so3fft.harness as harness

    sys.modules.pop("so3fft.cli", None)  # the CLI is imported under tracing
    before = _bindings()
    rec = Recorder()
    restore = install(rec)
    try:
        cli = importlib.import_module("so3fft.cli")
        wrapper = so3fft.correlation.multichannel_correlate
        assert hasattr(wrapper, "__wrapped__")
        assert harness.multichannel_correlate is wrapper is so3fft.multichannel_correlate
        forward = cli._TRANSFORMS[("so3", "forward", "fast")]
        assert hasattr(forward, "__wrapped__")
        sig = so3fft.SO3Signal(2, np.random.default_rng(1).standard_normal((1, 4, 4, 4)))
        so3fft.so3_fft_inverse(forward(sig))
        names = [sp["name"] for sp in rec.spans]
        assert names.count("gft.so3_fft_forward") == 1
        inverse = next(sp for sp in rec.spans if sp["name"] == "gft.so3_fft_inverse")
        assert inverse["imag_residue"] >= 0.0 and inverse["bytes"] > 0
    finally:
        restore()

    after = _bindings()  # may hold new entries: so3fft.cli, a cached table
    assert {key: after.get(key) for key in before} == before
    assert not any(hasattr(fn, "__wrapped__") for fn in vars(cli).values())
    assert not any(hasattr(fn, "__wrapped__") for fn in cli._TRANSFORMS.values())
    recorded = len(rec.spans)
    so3fft.so3_fft_forward(sig)
    cli._TRANSFORMS[("so3", "forward", "fast")](sig)
    assert len(rec.spans) == recorded  # untraced calls record nothing


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
