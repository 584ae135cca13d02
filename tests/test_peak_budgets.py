"""Two peaks the memory caps now count: the first read of a table's
``shells`` (the degree-major rows and their gathered copy, twice the held
layout, refused over the table cap before the recurrence runs, from the one
shells-bytes formula ``build_tables`` also reads), and the Wigner stack
chunks of every resampling rotation in flight in the equivariance harness."""

import tracemalloc

import pytest

from so3fft import harmonics, harness
from so3fft.grids import ring_weights
from so3fft.harmonics import ResourceLimitError, WignerTables, build_tables
from so3fft.harness import EquivarianceConfig, run_equivariance


class RowsComputed(Exception):
    pass


@pytest.fixture
def no_rows(monkeypatch):
    def refuse(*args, **kwargs):
        raise RowsComputed

    monkeypatch.setattr(harmonics, "_shell_rows", refuse)


def test_shells_over_the_cap_are_refused_before_computing(no_rows):
    with pytest.raises(ResourceLimitError, match="shells at bandwidth 150 need ~2754 MB"):
        WignerTables(150, ring_weights(150)).shells


@pytest.mark.parametrize("columns", ["all", "zero"])
def test_shells_at_bandwidth_128_pass_the_cap(no_rows, columns):
    with pytest.raises(RowsComputed):
        WignerTables(128, ring_weights(128), columns).shells


def test_tables_and_shells_read_one_shell_formula(monkeypatch, no_rows):
    monkeypatch.setattr(harmonics, "_shell_bytes", lambda b, columns: 1 << 40)
    with pytest.raises(ResourceLimitError, match="d tables and shells"):
        build_tables(2)
    with pytest.raises(ResourceLimitError, match="shells at bandwidth 2"):
        WignerTables(2, ring_weights(2)).shells


@pytest.mark.parametrize("b,columns", [(32, "all"), (64, "zero")])
def test_shells_estimate_is_the_traced_peak(b, columns):
    tables = WignerTables(b, ring_weights(b), columns)
    tracemalloc.start()
    try:
        layout = sum(rows.nbytes for rows in tables.shells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert layout == harmonics._shell_bytes(b, columns)
    assert abs(peak / (2 * layout) - 1) < 0.01


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_resampling_peak_stays_under_the_estimate(workers):
    cfg = EquivarianceConfig(
        bandwidth=8, channels=2, trials=workers, rotation_source="resampling"
    )
    tracemalloc.start()
    try:
        run_equivariance(cfg, threads=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= harness._run_bytes(cfg, workers)
