"""Prepared filter banks: each degree's bank operand is arranged once, as a
contiguous ``(out_channels * (2l+1), in_channels * columns)`` matrix, and
every correlation runs one ``np.dot`` per degree against it.

The product is pinned byte for byte to the ``np.tensordot`` formula it
replaced, kept here as the reference, for a bank given as a signal, as a
spectrum (with and without a plan) and prepared.  A plan keeps the
arrangement of a bank spectrum under a weak reference and freezes the
spectrum's data, so an arrangement can never go stale."""

import gc
import sys
import threading

import numpy as np
import pytest

from so3fft import correlation
from so3fft.cli import main
from so3fft.correlation import PreparedBank, make_correlation_plan, multichannel_correlate
from so3fft.gft import (
    GuardError,
    S2Signal,
    SO3Signal,
    SO3Spectrum,
    s2_fft_forward,
    so3_fft_forward,
    so3_fft_inverse,
)
from so3fft.signals import write_container

DOMAINS = {"s2": (S2Signal, s2_fft_forward), "so3": (SO3Signal, so3_fft_forward)}
# (bandwidth, bandwidth_out, in_channels, out_channels)
SHAPES = [(6, 6, 1, 1), (6, 4, 3, 2), (5, 2, 2, 4), (10, 6, 8, 5)]


def _draw(domain, b, channels, seed):
    signal_cls, _ = DOMAINS[domain]
    rng = np.random.default_rng(seed)
    return signal_cls(b, rng.standard_normal((channels,) + (2 * b,) * signal_cls._axes))


def _reference(bank, f, b_out, k_out):
    """The product as it was written before prepared banks: one
    ``np.tensordot`` over each degree's bank view."""
    fwd = DOMAINS["s2" if isinstance(f, S2Signal) else "so3"][1]
    fs = fwd(f, bandwidth_out=b_out)
    ps = fwd(bank, bandwidth_out=b_out) if type(bank) is type(f) else bank
    out = SO3Spectrum.zeros(b_out, k_out)
    for l in range(b_out):
        bank_l = ps.columns(l).reshape(k_out, f.channels, 2 * l + 1, -1)
        prod = np.tensordot(bank_l, fs.columns(l).conj(), axes=([1, 3], [0, 2]))
        np.conjugate(prod.transpose(0, 2, 1), out=out.blocks(l))
    return so3_fft_inverse(out)


def _bytes(signal):
    return signal.samples.tobytes()


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("b,b_out,k_in,k_out", SHAPES)
def test_every_bank_form_matches_the_tensordot_product_bit_for_bit(domain, b, b_out, k_in, k_out):
    f = _draw(domain, b, k_in, 1)
    bank = _draw(domain, b, k_in * k_out, 2)
    spec = DOMAINS[domain][1](bank)
    plan = make_correlation_plan(b, b_out)
    got = multichannel_correlate(bank, f, plan, out_channels=k_out)
    assert _bytes(got) == _bytes(_reference(bank, f, b_out, k_out))

    # a signal bank is analysed only below b_out, so its product differs from
    # the full spectrum's in roundoff where b_out < b: each has its reference
    want = _bytes(_reference(spec, f, b_out, k_out))
    prepared = correlation._arrange([spec], k_out, k_in, b_out)
    for given, kwargs in [
        (spec, {"bandwidth_out": b_out}),
        (spec, {"plan": plan}),
        (spec, {"plan": plan}),  # the kept arrangement
        (prepared, {"bandwidth_out": b_out}),
        (prepared, {"plan": plan}),
    ]:
        got = multichannel_correlate(given, f, out_channels=k_out, **kwargs)
        assert _bytes(got) == want


def test_a_prepared_bank_is_read_only_and_contiguous():
    spec = so3_fft_forward(_draw("so3", 4, 6, 3))
    prepared = correlation._arrange([spec], 3, 2, 3)
    assert prepared.domain is SO3Spectrum and prepared.bandwidth == 4
    assert prepared.channels == 6 and len(prepared.operands) == 3
    for l, op in enumerate(prepared.operands):
        assert op.shape == (3 * (2 * l + 1), 2 * (2 * l + 1))
        assert op.flags.c_contiguous and not op.flags.writeable


def test_a_prepared_bank_refuses_another_split_or_a_higher_bandwidth():
    spec = so3_fft_forward(_draw("so3", 4, 6, 4))
    prepared = correlation._arrange([spec], 3, 2, 2)
    with pytest.raises(ValueError, match="prepared as"):
        multichannel_correlate(prepared, _draw("so3", 4, 3, 5), bandwidth_out=2)
    with pytest.raises(ValueError, match="prepared as"):
        multichannel_correlate(prepared, _draw("so3", 4, 2, 5), bandwidth_out=3)
    with pytest.raises(ValueError, match="same domain"):
        multichannel_correlate(prepared, _draw("s2", 4, 2, 5), bandwidth_out=2)


def test_the_harness_writes_the_layout_the_spectrum_would_give():
    """Parts holding whole output channels, written in order, arrange as
    the spectrum they concatenate to."""
    spec = so3_fft_forward(_draw("so3", 4, 6, 6))
    parts = [SO3Spectrum(4, spec.data[o * 2 : (o + 1) * 2]) for o in range(3)]
    whole = correlation._arrange([spec], 3, 2, 4)
    pieces = correlation._arrange(parts, 3, 2, 4)
    for a, b in zip(whole.operands, pieces.operands):
        assert a.tobytes() == b.tobytes()


def test_writing_to_a_bank_spectrum_kept_by_a_plan_raises():
    f = _draw("so3", 4, 2, 7)
    spec = so3_fft_forward(_draw("so3", 4, 4, 8))
    multichannel_correlate(spec, f, out_channels=2)  # no plan: nothing kept
    spec.data[0, 0] += 0.0
    plan = make_correlation_plan(4)
    first = multichannel_correlate(spec, f, plan, out_channels=2)
    with pytest.raises(ValueError, match="read-only"):
        spec.data[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        spec.blocks(1)[:] *= 2.0
    fresh = SO3Spectrum(4, spec.data.copy())  # equal values, a new spectrum
    assert fresh.data.flags.writeable
    assert _bytes(multichannel_correlate(fresh, f, plan, out_channels=2)) == _bytes(first)
    spec.data = spec.data * 2.0  # rebound, not written: arranged afresh
    assert _bytes(multichannel_correlate(spec, f, plan, out_channels=2)) == _bytes(
        _reference(spec, f, 4, 2)
    )
    assert _bytes(multichannel_correlate(spec, f, plan, out_channels=2)) != _bytes(first)


def test_one_spectrum_under_several_out_channels_gets_its_own_arrangement():
    spec = so3_fft_forward(_draw("so3", 4, 4, 9))
    plan = make_correlation_plan(4, 3)
    for k_in, k_out in [(1, 4), (2, 2), (4, 1), (2, 2), (1, 4)]:
        f = _draw("so3", 4, k_in, 10 + k_in)
        got = multichannel_correlate(spec, f, plan, out_channels=k_out)
        assert _bytes(got) == _bytes(_reference(spec, f, 3, k_out))
    assert sorted(plan._banks[spec]) == [1, 2, 4]


def test_a_plan_drops_the_arrangement_with_the_spectrum():
    plan = make_correlation_plan(4)
    f = _draw("s2", 4, 1, 11)
    bank = s2_fft_forward(_draw("s2", 4, 3, 12))
    multichannel_correlate(bank, f, plan)
    assert len(plan._banks) == 1
    del bank
    gc.collect()
    assert len(plan._banks) == 0


@pytest.mark.parametrize("workers", [2, 4])
def test_threads_first_using_one_plan_and_bank_agree(monkeypatch, workers):
    """The plan's first build runs once under its lock, however the threads
    interleave: four threads is more than this suite's machines have cores."""
    builds = []
    arrange = correlation._arrange

    def counted(*args, **kwargs):
        builds.append(threading.get_ident())
        return arrange(*args, **kwargs)

    monkeypatch.setattr(correlation, "_arrange", counted)
    plan = make_correlation_plan(6, 4)
    f = _draw("so3", 6, 3, 13)
    spec = so3_fft_forward(_draw("so3", 6, 6, 14))
    start = threading.Barrier(workers)
    outputs = [None] * workers

    def run(i):
        start.wait()
        outputs[i] = _bytes(multichannel_correlate(spec, f, plan, out_channels=2))

    threads = [threading.Thread(target=run, args=(i,)) for i in range(workers)]
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
    assert len(builds) == 1
    assert set(outputs) == {_bytes(_reference(spec, f, 4, 2))}


def _not_a_real_filter(domain, b, channels):
    """A bank spectrum whose degree-1 block breaks the symmetry of a real
    filter's coefficients."""
    spec = DOMAINS[domain][1](_draw(domain, b, channels, 15))
    spec.blocks(1)[:, 0] += 1.0
    return spec


@pytest.mark.parametrize("domain", sorted(DOMAINS))
@pytest.mark.parametrize("form", ["spectrum", "spectrum with a plan", "prepared"])
def test_a_bank_that_is_not_a_real_filter_trips_the_guard(domain, form):
    bank = _not_a_real_filter(domain, 4, 2)
    plan = make_correlation_plan(4) if form == "spectrum with a plan" else None
    if form == "prepared":
        bank = correlation._arrange([bank], 2, 1, 4)
        assert isinstance(bank, PreparedBank)
    with pytest.raises(GuardError):
        multichannel_correlate(bank, _draw(domain, 4, 1, 16), plan)


def test_the_cli_correlate_exits_three_on_a_bank_that_is_not_a_real_filter(tmp_path, monkeypatch):
    """The CLI reads banks as real samples, whose spectra are those of real
    filters; a corrupted bank forward stands in for a bank that is not."""
    forward = correlation.s2_fft_forward

    def corrupted(signal, *args, **kwargs):
        spec = forward(signal, *args, **kwargs)
        if signal.channels == 4:
            spec.blocks(1)[:, 0] += 1.0
        return spec

    monkeypatch.setattr(correlation, "s2_fft_forward", corrupted)
    bank, signal = tmp_path / "bank.ssf", tmp_path / "signal.ssf"
    write_container(bank, _draw("s2", 4, 4, 17))
    write_container(signal, _draw("s2", 4, 2, 18))
    code = main([
        "correlate", "--kind", "s2", "--filter", str(bank), "--signal", str(signal),
        "--output", str(tmp_path / "out.ssf"),
    ])
    assert code == 3
