"""The harness's memory cap counts one trial working set for every trial in
flight, min(workers, trials), and refuses through the package's one cap
check, before any table is built.  Traced peaks stay under the estimate at
1, 2 and 4 workers."""

import re
import tracemalloc

import pytest

from so3fft import harness
from so3fft._parallel import THREADS_ENV
from so3fft.harmonics import ResourceLimitError
from so3fft.harness import (
    HARNESS_MEMORY_CAP,
    EquivarianceConfig,
    estimate_run_bytes,
    run_equivariance,
)


class TablesBuilt(Exception):
    pass


@pytest.fixture
def no_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise TablesBuilt

    monkeypatch.setattr(harness, "cached_tables", refuse)


def test_over_cap_refuses_before_any_table(no_tables):
    huge = EquivarianceConfig(bandwidth=256, channels=64, trials=1)
    with pytest.raises(ResourceLimitError, match="over the cap") as info:
        run_equivariance(huge, threads=1)
    assert re.search(r"need ~\d+ MB, over the cap of 4295 MB$", str(info.value))


# one trial's working set fits under the cap, eight in flight do not
WIDE = EquivarianceConfig(bandwidth=64, channels=4, trials=8)


def test_the_cap_counts_every_trial_in_flight(no_tables):
    assert harness._run_bytes(WIDE, 1) <= HARNESS_MEMORY_CAP < harness._run_bytes(WIDE, 8)
    with pytest.raises(ResourceLimitError, match="over the cap"):
        run_equivariance(WIDE, threads=8)
    with pytest.raises(TablesBuilt):  # one worker passes the cap
        run_equivariance(WIDE, threads=1)


def test_trials_bound_the_trials_in_flight(no_tables):
    one = EquivarianceConfig(bandwidth=64, channels=4, trials=1)
    assert harness._run_bytes(one, 8) == harness._run_bytes(one, 1)
    with pytest.raises(TablesBuilt):
        run_equivariance(one, threads=8)


@pytest.mark.parametrize("workers", [1, 2, 8])
def test_estimate_is_at_the_default_worker_count(monkeypatch, workers):
    monkeypatch.setenv(THREADS_ENV, str(workers))
    assert estimate_run_bytes(WIDE) == harness._run_bytes(WIDE, workers)


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_traced_peak_stays_under_the_estimate(workers):
    cfg = EquivarianceConfig(bandwidth=16, channels=4, trials=4, with_relu=True)
    tracemalloc.start()
    try:
        run_equivariance(cfg, threads=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= harness._run_bytes(cfg, workers)
