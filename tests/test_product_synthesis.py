"""A correlation hands its product straight to the fast synthesis.

Each degree's product is written, at the columns m >= 0, into the rows the
synthesis reads: no product spectrum, no guard pass over it.  The bank's
Hermitian defect is measured once, when the bank is arranged, and every
correlation guards it and reports it as ``imag_residue``.  The synthesis
refuses non-finite rows and skips the signal's own checks only where the
rows' bound proves every sample finite.  The lazy table layouts it reads
are built once under the table's own lock."""

import sys
import threading
import time
import warnings

import numpy as np
import pytest

from so3fft import correlation, harmonics
from so3fft.cli import main
from so3fft.correlation import make_correlation_plan, multichannel_correlate
from so3fft.gft import (
    GuardError,
    S2Signal,
    S2Spectrum,
    SO3Signal,
    SO3Spectrum,
    _hermitian_rows,
    s2_fft_forward,
    s2_fft_inverse,
    so3_fft_forward,
    so3_fft_inverse,
)
from so3fft.grids import ring_weights
from so3fft.harmonics import WignerTables
from so3fft.signals import read_container, write_container

DOMAINS = {
    "s2": (S2Signal, S2Spectrum, s2_fft_forward, s2_fft_inverse),
    "so3": (SO3Signal, SO3Spectrum, so3_fft_forward, so3_fft_inverse),
}
# (bandwidth, bandwidth_out, in_channels, out_channels)
SHAPES = [(6, 4, 1, 3), (8, 5, 1, 4), (6, 3, 3, 2), (5, 5, 1, 1), (7, 1, 2, 2)]


def _draw(domain, b, channels, seed):
    signal_cls = DOMAINS[domain][0]
    rng = np.random.default_rng(seed)
    return signal_cls(b, rng.standard_normal((channels,) + (2 * b,) * signal_cls._axes))


def _reference(bank, f, b_out, k_out):
    """The correlation as it was written with a product spectrum: each
    degree's product conjugated into a full ``SO3Spectrum``, then the
    public guarded inverse."""
    fwd = DOMAINS["s2" if isinstance(f, S2Signal) else "so3"][2]
    fs = fwd(f, bandwidth_out=b_out)
    ps = correlation._arrange([bank], k_out, f.channels, b_out)
    out = SO3Spectrum.zeros(b_out, k_out)
    for l in range(b_out):
        fc = np.conjugate(fs.columns(l).transpose(0, 2, 1), order="C").reshape(-1, 2 * l + 1)
        prod = np.dot(ps.operands[l], fc).reshape(k_out, 2 * l + 1, 2 * l + 1)
        np.conjugate(prod.transpose(0, 2, 1), out=out.blocks(l))
    return so3_fft_inverse(out)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("b,b_out,k_in,k_out", SHAPES)
def test_correlation_samples_are_the_product_spectrum_inverse_bit_for_bit(
    domain, b, b_out, k_in, k_out
):
    f = _draw(domain, b, k_in, 1)
    spec = DOMAINS[domain][2](_draw(domain, b, k_in * k_out, 2))
    want = _reference(spec, f, b_out, k_out)
    plan = make_correlation_plan(b, b_out)
    for kwargs in [{"bandwidth_out": b_out}, {"plan": plan}, {"plan": plan}]:
        got = multichannel_correlate(spec, f, out_channels=k_out, **kwargs)
        assert type(got) is SO3Signal and got.bandwidth == b_out
        assert got.samples.dtype == np.float64 and got.samples.flags.c_contiguous
        assert got.samples.tobytes() == want.samples.tobytes()


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("skew", [0.0, 1e-9])
def test_imag_residue_is_the_banks_defect(domain, skew):
    b, b_out = 6, 4
    spec = DOMAINS[domain][2](_draw(domain, b, 4, 3))
    spec.blocks(2)[:, 1] += skew  # below the guard, and inside the degrees read
    defect = _hermitian_rows(spec, b_out)[1]
    assert (defect > 1e-10) == (skew > 0)
    prepared = correlation._arrange([spec], 2, 2, b_out)
    assert prepared.defect == defect
    f = _draw(domain, b, 2, 4)
    for bank in (spec, prepared):
        got = multichannel_correlate(bank, f, bandwidth_out=b_out, out_channels=2)
        assert got.imag_residue == defect


def test_a_defect_above_the_output_bandwidth_is_not_read():
    spec = so3_fft_forward(_draw("so3", 5, 2, 5))
    spec.blocks(4)[:, 0] += 1.0  # degree 4: the correlation reads l < 3
    got = multichannel_correlate(spec, _draw("so3", 5, 1, 6), bandwidth_out=3)
    assert got.imag_residue < 1e-12


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_a_nan_written_into_a_signal_is_refused_without_a_warning(domain):
    f = _draw(domain, 4, 2, 7)
    f.samples[1, 2, 3] = np.nan  # after construction: the constructor never saw it
    bank = DOMAINS[domain][2](_draw(domain, 4, 4, 8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            multichannel_correlate(bank, f, bandwidth_out=3)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0, np.inf), np.nan])
def test_a_non_finite_bank_coefficient_is_refused_without_a_warning(domain, value):
    bank = DOMAINS[domain][2](_draw(domain, 4, 2, 9))
    bank.blocks(1)[1, 0] = value
    f = _draw(domain, 4, 1, 10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for plan in (None, make_correlation_plan(4)):
            with pytest.raises(ValueError, match="non-finite"):
                multichannel_correlate(bank, f, plan)


def _not_a_real_filter(spectrum):
    spectrum.blocks(1)[:, 0] += 1.0
    return spectrum


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("form", ["samples", "spectrum", "spectrum with a plan", "prepared"])
def test_a_bank_that_is_not_a_real_filter_is_refused_in_every_form(domain, form, monkeypatch):
    _, _, fwd, _ = DOMAINS[domain]
    samples = _draw(domain, 4, 3, 11)
    f = _draw(domain, 4, 1, 12)
    plan = make_correlation_plan(4) if form == "spectrum with a plan" else None
    if form == "samples":  # a real bank's spectrum is Hermitian: corrupt its forward
        def corrupted(signal, *args, **kwargs):
            spec = fwd(signal, *args, **kwargs)
            return _not_a_real_filter(spec) if signal is samples else spec

        monkeypatch.setattr(correlation, fwd.__name__, corrupted)
        bank = samples
    else:
        bank = _not_a_real_filter(fwd(samples))
    if form == "prepared":
        bank = correlation._arrange([bank], 3, 1, 4)  # arranging never raises
        assert bank.defect > 1e-6
    with pytest.raises(GuardError, match="in the filter bank"):
        multichannel_correlate(bank, f, plan)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_a_public_inverse_near_overflow_never_returns_non_finite_samples(domain):
    """Below the bound the signal's checks are skipped; above it they run,
    so a synthesis that overflows is refused instead of returned."""
    signal_cls, spectrum_cls, fwd, inverse = DOMAINS[domain]
    spec = fwd(_draw(domain, 4, 2, 13))
    unit = spec.data / np.max(np.abs(spec.data))
    returned = 0
    for exponent in [250, 280, 290, 300, 305, 306, 307, 308]:
        big = spectrum_cls(4, unit * 10.0**exponent)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                out = inverse(big)
            except ValueError as exc:
                assert "non-finite" in str(exc)
                continue
        assert np.all(np.isfinite(out.samples)), exponent
        returned += 1
    assert 0 < returned < 8  # some finish finite, and some overflow


@pytest.mark.parametrize("workers", [2, 4])
def test_threads_reading_fresh_shells_build_them_once(monkeypatch, workers):
    """Four threads is more than this suite's machines have cores."""
    calls = []
    rows = harmonics._shell_rows

    def slow_rows(*args):
        calls.append(threading.get_ident())
        time.sleep(0.05)  # wide enough for the other threads to arrive
        return rows(*args)

    monkeypatch.setattr(harmonics, "_shell_rows", slow_rows)
    tables = WignerTables(6, ring_weights(6))
    start = threading.Barrier(workers)
    seen = [None] * workers

    def read(i):
        start.wait()
        seen[i] = tables.shells

    threads = [threading.Thread(target=read, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert all(got is tables.shells for got in seen)


def test_the_part_views_are_built_once_per_bandwidth_and_gamma_count():
    tables = WignerTables(5, ring_weights(5))
    signal = _draw("so3", 5, 1, 14)
    so3_fft_inverse(so3_fft_forward(signal, tables), tables)
    so3_fft_forward(signal, tables, bandwidth_out=3)
    s2_fft_forward(_draw("s2", 5, 1, 15), tables)
    keys = {key for key in vars(tables) if isinstance(key, tuple)}
    assert keys == {("parts", 5, 10), ("parts", 3, 10), ("parts", 5, 1)}
    views = vars(tables)[("parts", 5, 10)]
    so3_fft_forward(signal, tables)
    assert vars(tables)[("parts", 5, 10)] is views


def _correlate_cli(tmp_path, bank, signal, **flags):
    paths = {name: tmp_path / f"{name}.ssf" for name in ("bank", "signal", "out")}
    write_container(paths["bank"], bank)
    write_container(paths["signal"], signal)
    argv = ["correlate", "--kind", "s2" if isinstance(signal, S2Signal) else "so3"]
    flag = "--filter" if type(bank) is type(signal) else "--filter-spectrum"
    argv += [flag, str(paths["bank"]), "--signal", str(paths["signal"])]
    argv += ["--output", str(paths["out"])]
    for flag, value in flags.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    code = main(argv)
    return code, read_container(paths["out"]) if code == 0 else None


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_the_cli_correlates_a_bank_spectrum_container(domain, tmp_path, capsys):
    bank, f = _draw(domain, 4, 4, 16), _draw(domain, 4, 2, 17)
    code, from_samples = _correlate_cli(tmp_path, bank, f)
    assert code == 0
    code, from_spectrum = _correlate_cli(tmp_path, DOMAINS[domain][2](bank), f)
    assert code == 0
    assert from_spectrum.samples.tobytes() == from_samples.samples.tobytes()
    assert "imag_residue=" in capsys.readouterr().out


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_the_cli_exits_three_on_a_bank_spectrum_that_is_not_a_real_filter(domain, tmp_path):
    bank = _not_a_real_filter(DOMAINS[domain][2](_draw(domain, 4, 4, 18)))
    code, _ = _correlate_cli(tmp_path, bank, _draw(domain, 4, 2, 19), bandwidth_out=3)
    assert code == 3


def test_the_cli_takes_the_bank_from_one_flag_of_its_own_type(tmp_path, capsys):
    bank, f = _draw("s2", 4, 2, 20), _draw("s2", 4, 1, 21)
    for name, obj in {"bank": bank, "spec": s2_fft_forward(bank), "sig": f}.items():
        write_container(tmp_path / f"{name}.ssf", obj)
    base = ["correlate", "--kind", "s2", "--signal", str(tmp_path / "sig.ssf")]
    base += ["--output", str(tmp_path / "out.ssf")]
    both = ["--filter", str(tmp_path / "bank.ssf"), "--filter-spectrum", str(tmp_path / "spec.ssf")]
    assert main(base + both) == 1
    assert main(base) == 1
    assert main(base + ["--filter-spectrum", str(tmp_path / "bank.ssf")]) == 2
    assert "expected S2Spectrum" in capsys.readouterr().err
