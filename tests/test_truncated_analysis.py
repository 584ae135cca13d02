"""Truncated analysis: a fast forward asked for ``bandwidth_out`` returns the
full forward's ``.truncated(bandwidth_out)``, computing only those degrees,
and correlations analyse only the degrees below their output bandwidth."""

import numpy as np
import pytest

from so3fft import correlation
from so3fft.correlation import make_correlation_plan, multichannel_correlate
from so3fft.gft import (
    GuardError,
    S2Signal,
    S2Spectrum,
    SO3Signal,
    SO3Spectrum,
    s2_dft_forward,
    s2_fft_forward,
    so3_dft_forward,
    so3_dft_inverse,
    so3_fft_forward,
)
from so3fft.harmonics import cached_tables

FORWARDS = {
    "s2": (S2Signal, 2, s2_fft_forward, s2_dft_forward, S2Spectrum),
    "so3": (SO3Signal, 3, so3_fft_forward, so3_dft_forward, SO3Spectrum),
}


def grid_noise(domain, bandwidth, channels, seed=0):
    cls, axes = FORWARDS[domain][:2]
    rng = np.random.default_rng(seed)
    return cls(bandwidth, rng.standard_normal((channels,) + (2 * bandwidth,) * axes))


def rel_err(got, want):
    return np.max(np.abs(got - want)) / max(1e-300, np.max(np.abs(want)))


CASES = [
    (domain, full, b, c, k)
    for domain, full in (("s2", False), ("s2", True), ("so3", False))
    for b in (1, 2, 3, 8, 16)
    for c in sorted({1, max(1, b // 2), b})
    for k in (1, 3)
]


@pytest.mark.parametrize(
    "domain, full, b, c, k",
    CASES,
    ids=[f"{d}{'-full' if f else ''}-b{b}-c{c}-k{k}" for d, f, b, c, k in CASES],
)
def test_truncated_forward_matches_the_truncated_full_forward(domain, full, b, c, k):
    forward = FORWARDS[domain][2]
    signal = grid_noise(domain, b, k, seed=10 * b + c)
    # the sphere forward serves with its default n = 0 tables and with full ones
    tables = cached_tables(b) if full else None
    want = forward(signal, tables).truncated(c)
    got = forward(signal, tables, bandwidth_out=c)
    assert type(got) is type(want)
    assert (got.bandwidth, got.channels) == (c, k)
    assert rel_err(got.data, want.data) <= 1e-12


@pytest.mark.parametrize("domain", FORWARDS)
@pytest.mark.parametrize("b", [1, 2, 5, 8])
def test_full_bandwidth_and_none_are_bit_identical(domain, b):
    forward = FORWARDS[domain][2]
    signal = grid_noise(domain, b, 2, seed=b)
    plain = forward(signal).data
    for same in (forward(signal, bandwidth_out=b), forward(signal, None, bandwidth_out=None)):
        assert np.array_equal(same.data.view(np.float64), plain.view(np.float64))


def test_truncated_forward_leaves_its_input_alone():
    signal = grid_noise("so3", 6, 2, seed=4)
    before = signal.samples.copy()
    so3_fft_forward(signal, bandwidth_out=3)
    assert np.array_equal(signal.samples, before)


def reference_correlation(bank, f, k_out, b_out):
    """The per-degree product over direct-transform spectra, synthesised by
    the direct inverse: ``C^l[o] = sum_k fhat^l_k @ conj(psihat^l_ok).T``."""
    domain = "s2" if isinstance(f, S2Signal) else "so3"
    direct, spectrum_cls = FORWARDS[domain][3:]
    fs = direct(f)
    ps = bank if isinstance(bank, spectrum_cls) else direct(bank)
    out = SO3Spectrum.zeros(b_out, k_out)
    for l in range(b_out):
        f_l = fs.columns(l)
        p_l = ps.columns(l).reshape(k_out, f.channels, 2 * l + 1, -1)
        out.blocks(l)[:] = np.einsum("kmn,okpn->omp", f_l, p_l.conj())
    return so3_dft_inverse(out).samples


@pytest.mark.parametrize("as_spectrum", [False, True], ids=["bank-signal", "bank-spectrum"])
@pytest.mark.parametrize("domain", FORWARDS)
@pytest.mark.parametrize("b_in, b_out", [(4, 2), (5, 3), (6, 1), (4, 4)])
def test_correlation_matches_the_direct_reference(domain, b_in, b_out, as_spectrum):
    k_in, k_out = 2, 3
    f = grid_noise(domain, b_in, k_in, seed=1)
    bank = grid_noise(domain, b_in, k_in * k_out, seed=2)
    if as_spectrum:
        bank = FORWARDS[domain][2](bank)
    want = reference_correlation(bank, f, k_out, b_out)
    plan = make_correlation_plan(b_in, b_out)
    for got in (
        multichannel_correlate(bank, f, plan, out_channels=k_out),
        multichannel_correlate(bank, f, bandwidth_out=b_out),
    ):
        assert got.bandwidth == b_out and got.channels == k_out
        assert rel_err(got.samples, want) <= 1e-11


@pytest.mark.parametrize("domain", FORWARDS)
def test_guard_still_trips_on_a_non_hermitian_bank_spectrum(domain):
    b_in, b_out = 5, 3
    f = grid_noise(domain, b_in, 1, seed=5)
    bank = FORWARDS[domain][2](grid_noise(domain, b_in, 2, seed=6))
    # an imaginary part at (l, 0, 0), l = 2 < b_out, breaks the symmetry
    centre = (bank._count(2) + bank._count(3)) // 2
    bank.data[:, centre] += 1j * (1.0 + np.max(np.abs(bank.data)))
    with pytest.raises(GuardError, match="residue"):
        multichannel_correlate(bank, f, bandwidth_out=b_out)


@pytest.mark.parametrize("domain", FORWARDS)
def test_correlation_asks_the_public_forwards_for_its_output_bandwidth(domain, monkeypatch):
    forward = FORWARDS[domain][2]
    asked = []

    def spy(signal, tables=None, bandwidth_out=None):
        asked.append(bandwidth_out)
        return forward(signal, tables, bandwidth_out=bandwidth_out)

    monkeypatch.setattr(correlation, forward.__name__, spy)
    f = grid_noise(domain, 5, 2, seed=7)
    multichannel_correlate(grid_noise(domain, 5, 4, seed=8), f, bandwidth_out=3)
    assert asked == [3, 3]  # the signal, then the bank given as a signal
