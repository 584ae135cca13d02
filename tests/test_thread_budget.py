"""The trial pool owns one thread budget: BLAS runs single-threaded inside
every map, the previous count comes back afterwards, the auto worker count
follows the CPUs this process may use, and the Wigner unfold maps are not
kept past a handful of degrees."""

import csv
import json
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from so3fft import _parallel, harmonics
from so3fft._parallel import THREADS_ENV, blas_threads, parallel_map, resolve_threads
from so3fft.harness import (
    EquivarianceConfig,
    run_equivariance,
    write_reports_csv,
    write_reports_jsonl,
)


@pytest.fixture
def blas():
    """numpy's BLAS thread functions, set to 2 threads for the test and put
    back afterwards."""
    api = _parallel._blas_api()
    if api is None:
        pytest.skip("numpy's BLAS exports no thread-count setter")
    get, put = api
    before = get()
    put(2)
    try:
        yield get, put
    finally:
        put(before)


def test_trial_deltas_do_not_depend_on_the_worker_count():
    cfg = EquivarianceConfig(bandwidth=16, layers=2, trials=2, with_relu=True, seed=0)
    one, two = run_equivariance(cfg, threads=1), run_equivariance(cfg, threads=2)
    assert one.trial_deltas == two.trial_deltas
    assert one.delta == two.delta


@pytest.mark.parametrize("threads", [1, 2])
def test_items_run_single_threaded_and_the_count_comes_back(blas, threads):
    get, _ = blas
    assert parallel_map(lambda _: get(), range(4), threads) == [1] * 4
    assert get() == 2


@pytest.mark.parametrize("threads", [1, 2])
def test_count_comes_back_after_a_map_that_raises(blas, threads):
    get, _ = blas

    def fail(i):
        if i == 1:
            raise RuntimeError("trial failed")
        return i

    with pytest.raises(RuntimeError, match="trial failed"):
        parallel_map(fail, range(3), threads)
    assert get() == 2


def test_count_comes_back_after_two_maps_at_once(blas):
    get, _ = blas
    all_in = threading.Barrier(4, timeout=30)  # both items of both maps
    second_left = threading.Event()
    out = {}

    def first(_):
        all_in.wait()
        assert second_left.wait(timeout=30)
        return get()  # the second map has left, this one has not

    def second(_):
        all_in.wait()
        return get()

    def map_items(fn):
        out[fn.__name__] = parallel_map(fn, range(2), 2)

    runs = {fn.__name__: threading.Thread(target=map_items, args=(fn,)) for fn in (first, second)}
    for thread in runs.values():
        thread.start()
    runs["second"].join(timeout=60)
    assert not runs["second"].is_alive()
    assert get() == 1  # the first map is still running
    second_left.set()
    runs["first"].join(timeout=60)
    assert not runs["first"].is_alive()
    assert out == {"first": [1, 1], "second": [1, 1]}
    assert get() == 2


def test_many_maps_at_once_never_lose_the_count(blas):
    get, _ = blas
    seen, interval = [], sys.getswitchinterval()

    def maps():
        for _ in range(40):
            seen.extend(parallel_map(lambda _: get(), range(3), 3))

    sys.setswitchinterval(1e-6)
    try:
        runs = [threading.Thread(target=maps) for _ in range(8)]
        for thread in runs:
            thread.start()
        for thread in runs:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in runs)
    assert seen == [1] * (8 * 40 * 3)
    assert get() == 2


@pytest.mark.parametrize("threads", [1, 4])
def test_no_setter_maps_in_order_and_changes_nothing(monkeypatch, threads):
    api = _parallel._blas_api()

    def count():
        return None if api is None else api[0]()

    before, seen = count(), []
    monkeypatch.setattr(_parallel, "_blas_api", lambda: None)

    def square(x):
        seen.append(count())
        return x * x

    assert parallel_map(square, range(10), threads) == [x * x for x in range(10)]
    assert seen == [before] * 10
    assert count() == before
    assert blas_threads() is None


def test_report_records_workers_and_blas_threads(tmp_path):
    report = run_equivariance(
        EquivarianceConfig(bandwidth=2, channels=1, trials=2, seed=0), threads=2
    )
    record = report.to_record()
    assert record["workers"] == 2
    assert record["blas_threads"] == blas_threads()
    write_reports_jsonl([report], tmp_path / "r.jsonl")
    line = json.loads((tmp_path / "r.jsonl").read_text())
    assert (line["workers"], line["blas_threads"]) == (2, blas_threads())
    write_reports_csv([report], tmp_path / "r.csv")
    with open(tmp_path / "r.csv", newline="") as fh:
        row = next(csv.DictReader(fh))
    assert row["workers"] == "2"
    assert row["blas_threads"] == ("" if blas_threads() is None else str(blas_threads()))


def test_auto_workers_count_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv(THREADS_ENV, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert resolve_threads(0) == 3
    assert resolve_threads() == 3
    assert resolve_threads(7) == 7
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert resolve_threads(0) == 64


def test_unfold_cache_keeps_only_a_few_degrees():
    keep = 4  # entries the cache may hold
    degrees = range(55, 61)
    betas = np.array([0.4, 1.3])
    harmonics._unfold.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for l_max in degrees:
            harmonics.wigner_d_stack(l_max, betas)  # the stack is freed at once
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert harmonics._unfold.cache_info().currsize <= keep
    allowed = sum(a.nbytes for l_max in degrees[-keep:] for a in harmonics._unfold(l_max, True))
    # slack: Python's free list of pairs (2000 of them) may keep blocks traced here
    assert held <= allowed + (256 << 10)
