"""The fast engine's FFT layout: the gamma frequency n sits at index
n mod 2b, as the FFT leaves it, and neither direction holds more transient
memory than one grid's worth plus its output; the harness transforms its
filter banks one output channel at a time."""

import tracemalloc

import numpy as np
import pytest

import so3fft.harness as harness
from so3fft.gft import (
    SO3Spectrum,
    SO3Signal,
    so3_dft_forward,
    so3_dft_inverse,
    so3_fft_forward,
    so3_fft_inverse,
)
from so3fft.harmonics import cached_tables
from so3fft.harness import EquivarianceConfig, run_equivariance


def unit_spectrum(b, l, m, n):
    """A real signal's spectrum with a unit coefficient at (l, m, n) and its
    mirror (-1)^(m-n) at (l, -m, -n)."""
    spectrum = SO3Spectrum.zeros(b)
    block = spectrum.block(0, l)
    block[-m + l, -n + l] = (-1.0) ** (m - n)
    block[m + l, n + l] = 1.0
    return spectrum


@pytest.mark.parametrize("b", [1, 2, 3, 5])
@pytest.mark.parametrize("m, n", [(0, 1), (0, -1), (1, -1)])
def test_edge_columns_match_direct_and_round_trip(b, m, n):
    # (l, m, n) = (b-1, 0, +-(b-1)) and (b-1, b-1, -(b-1)): the columns at
    # the wrap of the gamma index
    l = b - 1
    spectrum = unit_spectrum(b, l, m * l, n * l)
    tables = cached_tables(b)
    fast = so3_fft_inverse(spectrum, tables)
    direct = so3_dft_inverse(spectrum, tables)
    np.testing.assert_allclose(fast.samples, direct.samples, rtol=0, atol=1e-12)
    back = so3_fft_forward(fast, tables)
    np.testing.assert_allclose(back.data, spectrum.data, rtol=0, atol=1e-12)
    np.testing.assert_allclose(
        back.data, so3_dft_forward(fast, tables).data, rtol=0, atol=1e-12
    )


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# tracemalloc peaks of the fast SO(3) transforms at b = 8, k = 20 when their
# FFTs wrote through transposed views (measured with numpy 2.4); writing
# contiguous arrays may not hold more than 5% above them
STRIDED_PEAKS = {"forward": 1_433_472, "inverse": 1_595_746}


def test_fast_transforms_hold_no_more_transient_memory():
    b, k = 8, 20
    tables = cached_tables(b)
    signal = SO3Signal(b, np.random.default_rng(0).standard_normal((k,) + (2 * b,) * 3))
    spectrum = so3_fft_forward(signal, tables)
    so3_fft_inverse(spectrum, tables)  # warm the cached index maps
    peaks = {
        "forward": traced_peak(lambda: so3_fft_forward(signal, tables)),
        "inverse": traced_peak(lambda: so3_fft_inverse(spectrum, tables)),
    }
    for direction, peak in peaks.items():
        assert peak <= 1.05 * STRIDED_PEAKS[direction], (direction, peak)


def test_harness_never_holds_a_whole_bank_grid(monkeypatch):
    config = EquivarianceConfig(bandwidth=8, channels=6, layers=1, trials=1)
    b, k, n = 8, 6, 16
    widths = []

    def recording_forward(signal, tables=None):
        widths.append(signal.channels)
        return so3_fft_forward(signal, tables)

    monkeypatch.setattr(harness, "so3_fft_forward", recording_forward)
    run_equivariance(config, threads=1)  # warm the tables and index maps
    assert widths and max(widths) == k
    peak = traced_peak(lambda: run_equivariance(config, threads=1))
    # transforming the bank whole held its k*k-channel samples and their
    # FFT grid at once
    whole_bank = k * k * (n**3 * 8 + (b + 1) * n * n * 16)
    assert peak < whole_bank
