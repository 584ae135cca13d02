"""Column-aware Wigner tables: the sphere reads only the n = 0 column."""

from collections import OrderedDict

import numpy as np
import pytest

from so3fft import harmonics
from so3fft.cli import main
from so3fft.correlation import make_correlation_plan, multichannel_correlate
from so3fft.gft import (
    S2Signal,
    SO3Signal,
    s2_dft_forward,
    s2_fft_forward,
    s2_fft_inverse,
    so3_fft_forward,
)
from so3fft.grids import beta_samples
from so3fft.harmonics import (
    ResourceLimitError,
    build_tables,
    cached_tables,
    estimate_table_bytes,
    wigner_d_stack,
)
from so3fft.signals import read_container, write_container


def _rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.fixture
def fresh_cache(monkeypatch):
    monkeypatch.setattr(harmonics, "_TABLE_CACHE", OrderedDict())


@pytest.mark.parametrize("b", [1, 2, 3, 8, 64])
def test_zero_column_stack_matches_full_stack_on_grid(b):
    betas = beta_samples(b)
    full = wigner_d_stack(b - 1, betas)
    zero = wigner_d_stack(b - 1, betas, "zero")
    assert len(zero) == b
    for l, (z, f) in enumerate(zip(zero, full)):
        assert z.shape == (2 * b, 2 * l + 1, 1)
        np.testing.assert_allclose(z[:, :, 0], f[:, :, l], rtol=0, atol=1e-14)


def test_zero_column_stack_matches_full_stack_to_high_degree():
    betas = np.array([0.02, 1.2, np.pi / 2, 3.1])
    full = wigner_d_stack(127, betas)
    zero = wigner_d_stack(127, betas, "zero")
    for l, (z, f) in enumerate(zip(zero, full)):
        np.testing.assert_allclose(z[:, :, 0], f[:, :, l], rtol=0, atol=1e-14)


def test_unknown_column_set_is_rejected():
    with pytest.raises(ValueError, match="columns"):
        wigner_d_stack(3, [0.5], "odd")
    with pytest.raises(ValueError, match="columns"):
        cached_tables(3, "odd")


def test_zero_column_tables_size_and_layout():
    for b in (1, 4, 64):
        assert estimate_table_bytes(b, "zero") == 16 * b**3
    tables = build_tables(5, columns="zero")
    assert tables.columns == "zero"
    assert [d.shape for d in tables.d] == [(10, 2 * l + 1, 1) for l in range(5)]
    assert sum(d.nbytes for d in tables.d) == estimate_table_bytes(5, "zero")


def test_cache_keeps_column_sets_apart(fresh_cache):
    zero = cached_tables(6, "zero")
    full = cached_tables(6)
    assert zero is not full
    assert zero.columns == "zero" and full.columns == "all"
    assert cached_tables(6, "zero") is zero
    assert cached_tables(6, "all") is full
    assert set(harmonics._TABLE_CACHE) == {(6, "zero"), (6, "all")}


def test_zero_column_cap_refuses_before_allocating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tables were computed despite the cap")

    monkeypatch.setattr(harmonics, "wigner_d_stack", refuse)
    cap = estimate_table_bytes(16, "zero") - 1
    with pytest.raises(ResourceLimitError):
        build_tables(16, memory_cap_bytes=cap, columns="zero")


def test_write_container_refuses_zero_column_tables(tmp_path):
    path = tmp_path / "tables.ssf"
    with pytest.raises(ValueError, match="n = 0 column"):
        write_container(path, build_tables(4, columns="zero"))
    assert not path.exists()
    # full tables still round-trip
    write_container(path, build_tables(4))
    back = read_container(path)
    assert back.columns == "all"
    for got, want in zip(back.d, build_tables(4).d):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("b", [1, 2, 5, 16])
def test_s2_transforms_with_full_tables_match_default(b, fresh_cache):
    rng = np.random.default_rng(b)
    f = S2Signal(b, rng.standard_normal((3, 2 * b, 2 * b)))
    full = build_tables(b)
    default = s2_fft_forward(f)
    explicit = s2_fft_forward(f, full)
    assert _rel(explicit.data, default.data) <= 1e-13
    assert _rel(s2_fft_inverse(default, full).samples, s2_fft_inverse(default).samples) <= 1e-13
    assert _rel(s2_dft_forward(f, full).data, s2_dft_forward(f).data) <= 1e-13
    # the defaults never built the full table
    assert (b, "all") not in harmonics._TABLE_CACHE


def test_so3_transform_refuses_zero_column_tables():
    f = SO3Signal(3, np.zeros((1, 6, 6, 6)))
    with pytest.raises(ValueError, match="n = 0 column"):
        so3_fft_forward(f, build_tables(3, columns="zero"))


def test_s2_plan_never_builds_full_input_tables(monkeypatch, fresh_cache):
    calls = []
    real_build = harmonics.build_tables

    def recording(bandwidth, *args, **kwargs):
        calls.append((bandwidth, kwargs.get("columns", "all")))
        return real_build(bandwidth, *args, **kwargs)

    monkeypatch.setattr(harmonics, "build_tables", recording)
    b_in, b_out = 12, 6
    plan = make_correlation_plan(b_in, b_out)
    rng = np.random.default_rng(0)
    f = S2Signal(b_in, rng.standard_normal((2, 2 * b_in, 2 * b_in)))
    bank = S2Signal(b_in, rng.standard_normal((6, 2 * b_in, 2 * b_in)))
    out = multichannel_correlate(bank, f, plan, out_channels=3)
    assert out.channels == 3 and out.bandwidth == b_out
    assert (b_in, "all") not in calls
    assert (b_in, "zero") in calls
    # the plan pins the tables it used: an emptied cache rebuilds nothing
    pinned = plan.tables_in_s2
    harmonics._TABLE_CACHE.clear()
    calls.clear()
    multichannel_correlate(bank, f, plan, out_channels=3)
    assert calls == []
    assert plan.tables_in_s2 is pinned and pinned.columns == "zero"


def test_inverse_transform_summary_reports_imag_residue(tmp_path, capsys):
    b = 4
    signal = S2Signal(b, np.random.default_rng(1).standard_normal((1, 2 * b, 2 * b)))
    src, spec, back = tmp_path / "in.ssf", tmp_path / "spec.ssf", tmp_path / "back.ssf"
    write_container(src, signal)

    def transform(direction, source, target):
        argv = ["transform", "--kind", "s2", "--dir", direction]
        assert main([*argv, "--input", str(source), "--output", str(target)]) == 0
        return capsys.readouterr().out.strip()

    assert "imag_residue" not in transform("forward", src, spec)
    line = transform("inverse", spec, back)
    want = s2_fft_inverse(read_container(spec)).imag_residue
    assert line.endswith(f" imag_residue={want:.3e}")
