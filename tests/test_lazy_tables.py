"""One Wigner-d recurrence serves every layout: the fast transforms build
only the half shell rows, and ``WignerTables.d`` is built the first time
something reads it (or handed over by ``read_container``)."""

from collections import OrderedDict

import numpy as np
import pytest

from so3fft import harmonics
from so3fft.correlation import make_correlation_plan, multichannel_correlate
from so3fft.gft import (
    S2Signal,
    SO3Signal,
    s2_fft_forward,
    s2_fft_inverse,
    so3_fft_forward,
    so3_fft_inverse,
)
from so3fft.grids import beta_samples
from so3fft.harmonics import build_tables, wigner_d_stack
from so3fft.signals import read_container, write_container


def noise(cls, bandwidth, channels, seed=0):
    axes = 2 if cls is S2Signal else 3
    shape = (channels,) + (2 * bandwidth,) * axes
    return cls(bandwidth, np.random.default_rng(seed).standard_normal(shape))


def assert_d_is_the_stack(tables):
    b = tables.bandwidth
    want = wigner_d_stack(b - 1, beta_samples(b), tables.columns)
    assert len(tables.d) == b
    for got, blk in zip(tables.d, want):
        np.testing.assert_array_equal(got, blk)


@pytest.mark.parametrize("columns", ["all", "zero"])
@pytest.mark.parametrize("bandwidth", [1, 3, 8])
def test_fast_transforms_never_build_d(bandwidth, columns):
    tables = build_tables(bandwidth, columns=columns)
    assert set(vars(tables)) == {"bandwidth", "weights", "columns"}
    if columns == "all":
        fwd, inv, signal = so3_fft_forward, so3_fft_inverse, noise(SO3Signal, bandwidth, 2)
    else:
        fwd, inv, signal = s2_fft_forward, s2_fft_inverse, noise(S2Signal, bandwidth, 2)
    inv(fwd(signal, tables), tables)
    assert "shells" in vars(tables)
    assert "d" not in vars(tables)
    assert_d_is_the_stack(tables)
    assert vars(tables)["d"] is tables.d


@pytest.mark.parametrize("cls", [S2Signal, SO3Signal])
def test_correlation_through_a_plan_never_builds_d(cls, monkeypatch):
    monkeypatch.setattr(harmonics, "_TABLE_CACHE", OrderedDict())
    plan = make_correlation_plan(6, 4)
    multichannel_correlate(noise(cls, 6, 4, seed=1), noise(cls, 6, 2), plan)
    used = [plan.tables_out, plan.tables_in_s2 if cls is S2Signal else plan.tables_in]
    for tables in used:
        assert "shells" in vars(tables)
        assert "d" not in vars(tables)
    for tables in used:
        assert_d_is_the_stack(tables)


@pytest.mark.parametrize("columns", ["all", "zero"])
def test_every_shell_row_is_its_table_entry_at_b32(columns):
    # the deep end of the degree recurrence, where rounding has had the
    # most steps to differ between two evaluation orders
    tables = build_tables(32, columns=columns)
    for s, rows in enumerate(tables.shells):
        for l in range(s, 32):
            blk = tables.d[l]
            mid = blk.shape[2] // 2
            want = blk[:, l + s, mid : mid + rows.shape[0]].T
            np.testing.assert_array_equal(rows[:, l - s], want)


@pytest.mark.parametrize("bandwidth", [1, 4])
def test_container_tables_serve_the_fast_transforms(bandwidth, tmp_path):
    path = tmp_path / "tables.ssf"
    write_container(path, build_tables(bandwidth))
    back = read_container(path)
    assert "d" in vars(back)
    payload = back.weights.base  # the one array the file was read into
    assert payload is not None and payload.size == back.weights.size + sum(b.size for b in back.d)
    assert all(np.shares_memory(blk, payload) for blk in back.d)
    signal = noise(SO3Signal, bandwidth, 3, seed=bandwidth)
    want = so3_fft_forward(signal, build_tables(bandwidth))
    got = so3_fft_forward(signal, back)
    np.testing.assert_array_equal(got.data, want.data)
    np.testing.assert_array_equal(
        so3_fft_inverse(got, back).samples,
        so3_fft_inverse(want, build_tables(bandwidth)).samples,
    )
