"""The half-spectrum fast engine: it analyses and synthesises only the rows
m >= 0, fills the rows m < 0 from the real-signal symmetry and guards
inverse inputs with a Hermitian-defect check."""

import re

import numpy as np
import pytest

from so3fft.cli import main
from so3fft.gft import (
    IMAG_RESIDUE_TOL,
    GuardError,
    S2Signal,
    S2Spectrum,
    SO3Signal,
    SO3Spectrum,
    s2_dft_forward,
    s2_dft_inverse,
    s2_fft_forward,
    s2_fft_inverse,
    so3_dft_forward,
    so3_dft_inverse,
    so3_fft_forward,
    so3_fft_inverse,
)
from so3fft.signals import write_container

DOMAINS = {
    "s2": (S2Signal, 2, s2_fft_forward, s2_dft_forward, s2_fft_inverse, s2_dft_inverse),
    "so3": (SO3Signal, 3, so3_fft_forward, so3_dft_forward, so3_fft_inverse, so3_dft_inverse),
}


def grid_noise(domain, bandwidth, channels, seed=0):
    cls, axes = DOMAINS[domain][:2]
    rng = np.random.default_rng(seed)
    return cls(bandwidth, rng.standard_normal((channels,) + (2 * bandwidth,) * axes))


def rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("bandwidth", [1, 2, 3, 8])
@pytest.mark.parametrize("domain", DOMAINS)
def test_fast_matches_direct_both_directions(domain, bandwidth, channels):
    _, _, fast_fwd, direct_fwd, fast_inv, direct_inv = DOMAINS[domain]
    signal = grid_noise(domain, bandwidth, channels, seed=bandwidth)
    spectrum = direct_fwd(signal)
    assert rel(fast_fwd(signal).data, spectrum.data) <= 1e-12
    assert rel(fast_inv(spectrum).samples, direct_inv(spectrum).samples) <= 1e-12


@pytest.mark.parametrize("domain", DOMAINS)
def test_forward_rows_below_zero_mirror_rows_above_exactly(domain):
    spectrum = DOMAINS[domain][2](grid_noise(domain, 6, 2, seed=7))
    for l in range(6):
        cols = spectrum.columns(l)  # (K, 2l+1, columns), [m+l, n+c]
        c = cols.shape[2] // 2
        m = np.arange(-l, l + 1)[:, None]
        n = np.arange(-c, c + 1)
        sign = (-1.0) ** (m - n)
        mirrored = sign * cols[:, ::-1, ::-1].conj()
        np.testing.assert_array_equal(cols[:, :l], mirrored[:, :l])


def test_lone_off_column_entry_trips_the_guard():
    spectrum = SO3Spectrum.zeros(3)
    spectrum.blocks(2)[0, 1, 3] = 1.0  # (l, m, n) = (2, -1, 1), mirror left zero
    with pytest.raises(GuardError, match="residue"):
        so3_fft_inverse(spectrum)


@pytest.mark.parametrize("cls, inverse", [(S2Spectrum, s2_fft_inverse), (SO3Spectrum, so3_fft_inverse)])
def test_imaginary_degree_zero_coefficient_trips_the_guard(cls, inverse):
    spectrum = cls.zeros(2)
    spectrum.data[0, 0] = 1.0j  # fhat^0_00 must be real
    with pytest.raises(GuardError, match="residue"):
        inverse(spectrum)


def test_defect_below_tolerance_is_recorded_not_raised():
    spectrum = S2Spectrum.zeros(2)
    spectrum.data[0, 0] = 1.0 + 2e-7j  # anti-Hermitian half 2e-7 on scale 1
    back = s2_fft_inverse(spectrum)
    assert back.imag_residue == pytest.approx(2e-7, rel=1e-9)
    assert back.imag_residue <= IMAG_RESIDUE_TOL


@pytest.mark.parametrize("domain", DOMAINS)
def test_round_trip_at_b16_reports_a_rounding_sized_residue(domain):
    _, _, forward, _, inverse, _ = DOMAINS[domain]
    back = inverse(forward(grid_noise(domain, 16, 2, seed=16)))
    assert 0.0 <= back.imag_residue <= 1e-12


# (domain, l, m, n) of a lone coefficient: each half of the spectrum, and the
# row m = 0, whose mirror (l, 0, -n) lies in the same row
LONE = [
    ("s2", 2, 1, 0),
    ("s2", 2, -2, 0),
    ("so3", 2, 1, -2),
    ("so3", 2, 0, 1),
    ("so3", 2, -1, 2),
]


@pytest.mark.parametrize("domain, l, m, n", LONE)
def test_lone_coefficient_trips_the_guard_wherever_it_sits(domain, l, m, n):
    spectrum = {"s2": S2Spectrum, "so3": SO3Spectrum}[domain].zeros(3, channels=2)
    cols = spectrum.columns(l)  # (K, 2l+1, columns), [m+l, n+c]
    cols[1, m + l, n + cols.shape[2] // 2] = 1.0  # its mirror left zero
    with pytest.raises(GuardError, match="residue"):
        DOMAINS[domain][4](spectrum)


def mirror_by_degree(spectrum):
    """Position p, (l, m, n), of the packed buffer mirrors src[p], (l, -m, -n),
    under sign[p] = (-1)^(m-n); read one degree at a time off the blocks of a
    spectrum that holds its own positions."""
    index = type(spectrum)(spectrum.bandwidth, np.arange(spectrum.data.shape[1]))
    src, sign = [], []
    for l in range(spectrum.bandwidth):
        p = index.columns(l)[0].real.astype(np.intp)  # (2l+1, columns)
        m, n = np.ogrid[-l : l + 1, -(p.shape[1] // 2) : p.shape[1] // 2 + 1]
        src.append(p[::-1, ::-1].ravel())
        sign.append(((-1.0) ** (m - n)).ravel())
    return np.concatenate(src), np.concatenate(sign)


@pytest.mark.parametrize("bandwidth", [1, 2, 3, 8])
@pytest.mark.parametrize("domain", DOMAINS)
def test_residue_is_the_whole_spectrum_defect_bit_for_bit(domain, bandwidth):
    _, _, forward, _, inverse, _ = DOMAINS[domain]
    spectrum = forward(grid_noise(domain, bandwidth, 2, seed=bandwidth))
    rng = np.random.default_rng(bandwidth)
    shape = spectrum.data.shape
    spectrum.data += 1e-9 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    d = spectrum.data
    src, sign = mirror_by_degree(spectrum)
    defect = 0.5 * np.max(np.abs(d - sign * d[:, src].conj()))
    residue = inverse(spectrum).imag_residue
    assert 0.0 < residue == defect / max(1.0, np.max(np.abs(d)))


def off_hermitian_by(domain, imag):
    """b = 8 with fhat^0_00 = 1 and fhat^7_00 = i * imag: an anti-Hermitian
    half of size ``imag`` on scale 1, which synthesises to an imaginary part
    2l+1 = 15 times larger."""
    spectrum = {"s2": S2Spectrum, "so3": SO3Spectrum}[domain].zeros(8)
    spectrum.data[0, 0] = 1.0
    cols = spectrum.columns(7)
    cols[0, 7, cols.shape[2] // 2] = 1j * imag
    return spectrum


@pytest.mark.parametrize("domain", DOMAINS)
def test_fast_and_direct_inverses_report_one_residue(domain):
    fast, direct = DOMAINS[domain][4:]
    spectrum = off_hermitian_by(domain, 5e-7)
    residue = fast(spectrum).imag_residue
    assert direct(spectrum).imag_residue == residue
    assert residue == pytest.approx(5e-7, rel=1e-9)


@pytest.mark.parametrize("path", [4, 5], ids=["fast", "direct"])
@pytest.mark.parametrize("domain", DOMAINS)
def test_fast_and_direct_inverses_trip_one_guard(domain, path):
    with pytest.raises(GuardError, match="residue"):
        DOMAINS[domain][path](off_hermitian_by(domain, 2e-6))


@pytest.mark.parametrize("domain", DOMAINS)
def test_cli_inverse_exit_code_and_residue_do_not_depend_on_the_path(
    domain, tmp_path, capsys
):
    source = tmp_path / "spec.ssf"
    write_container(source, off_hermitian_by(domain, 5e-7))
    printed = []
    for path in ("fast", "direct"):
        argv = ["transform", "--kind", domain, "--dir", "inverse", "--path", path]
        argv += ["--input", str(source), "--output", str(tmp_path / f"{path}.ssf")]
        assert main(argv) == 0
        line = capsys.readouterr().out.strip()
        printed.append(re.search(r" imag_residue=(\S+)$", line).group(1))
    assert printed[0] == printed[1] == "5.000e-07"
