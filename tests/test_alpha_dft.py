"""The fast engine's alpha stage is a product with a cached real DFT matrix
over the rows it keeps: it matches the half-spectrum ``rfft``/``irfft``
formulation it replaced (a copy of which is kept here as the reference),
drops Im F_0 as ``irfft`` does, and its matrices are read-only, sized by
the output bandwidth and bounded in number."""

import numpy as np
import pytest

import so3fft.gft as gft
from so3fft.gft import (
    IMAG_RESIDUE_TOL,
    S2Signal,
    S2Spectrum,
    SO3Signal,
    SO3Spectrum,
    s2_fft_forward,
    s2_fft_inverse,
    so3_fft_forward,
    so3_fft_inverse,
)
from so3fft.harmonics import cached_tables

BANDWIDTHS = [1, 2, 3, 8, 16, 33, 64]
KINDS = {
    "s2": (S2Signal, S2Spectrum, s2_fft_forward, s2_fft_inverse),
    "so3": (SO3Signal, SO3Spectrum, so3_fft_forward, so3_fft_inverse),
}


def output_bandwidths(b):
    return sorted({1, max(1, b // 2), b})


def random_signal(kind, b, k, seed=0):
    signal_cls = KINDS[kind][0]
    rng = np.random.default_rng((seed, b, k))
    return signal_cls(b, rng.standard_normal((k,) + (2 * b,) * signal_cls._axes))


def grid_samples(signal):
    # the engine's (K, 2b, 2b, G) view: a sphere signal has G = 1
    return signal.samples if isinstance(signal, SO3Signal) else signal.samples[..., None]


def reference_forward(samples, spectrum_cls, bandwidth_out):
    """The half-spectrum formulation: an alpha ``rfft`` over every row, the
    rows m < c kept, a gamma FFT and one weighted gather per shell part."""
    k, n, _, gammas = samples.shape
    b, c = n // 2, bandwidth_out
    t = gft._resolve_tables(b, None, gammas)
    fc = np.fft.rfft(samples, axis=2, norm="forward")[:, :, :c]  # [channel, j, m, n mod G]
    fc = np.fft.fft(fc, axis=3, norm="forward")
    pos, mirror, parity, sign, _ = gft._shell_order(c, spectrum_cls)
    coeffs = np.empty((len(pos), 2 * k))
    for rows, (gm, gn), cf in gft._shell_products(t, c, gammas, coeffs):
        grid = np.multiply(fc[:, :, gm, gn].T, t.weights[:, None], order="C")
        np.matmul(rows, grid.view(np.float64), out=cf)
    coeffs = np.conjugate(coeffs.view(np.complex128)) * sign[:, None]
    out = spectrum_cls.zeros(c, k)
    out.data[:, mirror] = (parity[:, None] * coeffs.conj()).T
    out.data[:, pos] = coeffs.T
    return out


def reference_inverse(spectrum, gammas):
    """The half-spectrum formulation: the shell GEMMs into b + 1 rows (the
    row m = b zero), a gamma ``ifft`` and an alpha ``irfft``."""
    b, k = spectrum.bandwidth, spectrum.channels
    t = gft._resolve_tables(b, None, gammas)
    coeffs, residue = gft._hermitian_rows(spectrum)
    sign, deg = gft._shell_order(b, type(spectrum))[3:]
    coeffs = np.conjugate(coeffs) * (sign * deg)[:, None]
    fc = np.zeros((b + 1, gammas, 2 * b, k), dtype=np.complex128)
    for rows, at, c in gft._shell_products(t, b, gammas, coeffs.view(np.float64)):
        np.matmul(rows.transpose(0, 2, 1), c, out=fc.view(np.float64)[at])
    fc = np.fft.ifft(fc.transpose(3, 2, 0, 1), axis=3, norm="forward")
    real = np.fft.irfft(fc, 2 * b, axis=2, norm="forward")
    return real if gammas > 1 else real[..., 0], residue


def relative(got, want):
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("b", BANDWIDTHS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_forward_matches_the_rfft_formulation(kind, b, k):
    signal = random_signal(kind, b, k)
    _, spectrum_cls, forward, _ = KINDS[kind]
    for c in output_bandwidths(b):
        got = forward(signal, bandwidth_out=c)
        want = reference_forward(grid_samples(signal), spectrum_cls, c)
        assert got.bandwidth == c
        assert relative(got.data, want.data) <= 1e-13, (c, relative(got.data, want.data))


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("b", BANDWIDTHS)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_inverse_matches_the_irfft_formulation(kind, b, k):
    _, _, forward, inverse = KINDS[kind]
    spectrum = forward(random_signal(kind, b, k))
    got = inverse(spectrum)
    want, residue = reference_inverse(spectrum, 2 * b if kind == "so3" else 1)
    assert relative(got.samples, want) <= 1e-13
    assert got.imag_residue == residue


@pytest.mark.parametrize("b", [1, 2, 3, 8, 16])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_an_anti_hermitian_part_below_the_guard_synthesises_as_irfft(kind, b):
    # i * (the spectrum of a real signal) is anti-Hermitian; irfft drops
    # Im F_0 and reads the rows m > 0 alone, and so must the DFT product
    _, _, forward, inverse = KINDS[kind]
    spectrum = forward(random_signal(kind, b, 2, seed=1))
    spectrum.data += 1e-3 * IMAG_RESIDUE_TOL * 1j * forward(random_signal(kind, b, 2, seed=2)).data
    got = inverse(spectrum)
    want, residue = reference_inverse(spectrum, 2 * b if kind == "so3" else 1)
    assert 0 < got.imag_residue == residue <= IMAG_RESIDUE_TOL
    assert relative(got.samples, want) <= 1e-13


@pytest.mark.parametrize("b", [1, 4, 16])
def test_sphere_forward_gathers_once_bit_for_bit(b):
    # one weighted copy of the column n = 0 serves every shell: the same
    # products as one gather per shell part
    signal = random_signal("s2", b, 3)
    for c in output_bandwidths(b):
        n, t = 2 * b, cached_tables(b, "zero")
        fc = (signal.samples.reshape(-1, n) @ gft._alpha_dft(n, c, False)).view(np.complex128)
        fc = fc.reshape(3, n, 1, c)
        pos = gft._shell_order(c, S2Spectrum)[0]
        coeffs = np.empty((len(pos), 6))
        for rows, (gm, gn), cf in gft._shell_products(t, c, 1, coeffs):
            part = np.multiply(fc[:, :, gn, gm].T, t.weights[:, None], order="C")
            np.matmul(rows, part.view(np.float64), out=cf)
        want = np.conjugate(coeffs.view(np.complex128)) * gft._shell_order(c, S2Spectrum)[3][:, None]
        got = s2_fft_forward(signal, t, bandwidth_out=c)
        np.testing.assert_array_equal(got.data[:, pos], want.T)


def test_matrices_are_read_only_and_the_forward_keeps_2c_columns(monkeypatch):
    shapes, cached = [], gft._alpha_dft

    def recording(n, rows, inverse):
        dft = cached(n, rows, inverse)
        shapes.append((inverse, dft.shape))
        return dft

    for kind in KINDS:
        _, spectrum_cls, forward, inverse = KINDS[kind]
        with monkeypatch.context() as patch:
            patch.setattr(gft, "_alpha_dft", recording)
            inverse(spectrum_cls.zeros(6))
            forward(random_signal(kind, 6, 1), bandwidth_out=2)
        assert shapes == [(True, (12, 12)), (False, (12, 4))]
        shapes.clear()
    for key in [(12, 2, False), (12, 6, True)]:
        dft = gft._alpha_dft(*key)
        assert not dft.flags.writeable
        with pytest.raises(ValueError):
            dft[0, 0] = 1.0


def test_inverse_matrix_drops_im_f0_and_doubles_the_rows_above():
    n = 8
    fwd, inv = gft._alpha_dft(n, 4, False), gft._alpha_dft(n, 4, True)
    assert fwd.shape == inv.shape == (n, 8)
    np.testing.assert_array_equal(inv[:, 1], 0.0)  # Im F_0
    np.testing.assert_allclose(inv[:, :2], n * fwd[:, :2], rtol=0, atol=1e-15)
    np.testing.assert_allclose(inv[:, 2:], 2 * n * fwd[:, 2:], rtol=0, atol=1e-15)


def test_the_cache_holds_at_most_its_maxsize():
    maxsize = gft._alpha_dft.cache_info().maxsize
    assert maxsize is not None and maxsize <= gft._shell_order.cache_info().maxsize
    keys = 0
    for b in range(1, 9):
        signal = random_signal("s2", b, 1)
        for c in output_bandwidths(b):
            s2_fft_forward(signal, bandwidth_out=c)
            keys += 1
        s2_fft_inverse(s2_fft_forward(signal))
        keys += 1
    assert keys > maxsize
    assert gft._alpha_dft.cache_info().currsize <= maxsize


def test_no_alpha_rfft_or_irfft_is_called(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a real FFT ran")

    monkeypatch.setattr(np.fft, "rfft", refused)
    monkeypatch.setattr(np.fft, "irfft", refused)
    for kind in KINDS:
        _, _, forward, inverse = KINDS[kind]
        inverse(forward(random_signal(kind, 4, 2), bandwidth_out=3))
        inverse(forward(random_signal(kind, 4, 2)))
