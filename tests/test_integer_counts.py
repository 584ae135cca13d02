"""Channel, repetition and worker counts given as anything but an integer
are refused with a ``TypeError`` where they are given; numpy integers are
accepted and stored as ints."""

import numpy as np
import pytest

from so3fft._parallel import resolve_threads
from so3fft.correlation import multichannel_correlate
from so3fft.gft import S2Signal, S2Spectrum, SO3Spectrum
from so3fft.harness import EquivarianceConfig, run_bench, run_equivariance

NOT_INTEGERS = [2.5, 2.0, True, "2", None]


@pytest.mark.parametrize("cls", [S2Spectrum, SO3Spectrum])
@pytest.mark.parametrize("value", NOT_INTEGERS)
def test_spectrum_zeros_refuses_non_integer_channels(cls, value):
    with pytest.raises(TypeError, match="channels must be an integer"):
        cls.zeros(3, value)


@pytest.mark.parametrize("cls", [S2Spectrum, SO3Spectrum])
def test_spectrum_zeros_takes_numpy_integers(cls):
    assert cls.zeros(3, np.int64(2)).data.shape == (2, cls._count(3))
    with pytest.raises(ValueError, match="channels must be >= 1"):
        cls.zeros(3, 0)


@pytest.mark.parametrize("value", [2.0, 2.5, True])
def test_correlate_refuses_non_integer_out_channels(value):
    rng = np.random.default_rng(0)
    f = S2Signal(2, rng.standard_normal((1, 4, 4)))
    bank = S2Signal(2, rng.standard_normal((2, 4, 4)))
    with pytest.raises(TypeError, match="out_channels must be an integer"):
        multichannel_correlate(bank, f, out_channels=value)
    out = multichannel_correlate(bank, f, out_channels=np.int64(2))
    assert out.channels == 2


@pytest.mark.parametrize("value", [True, 2.0, "3"])
def test_run_bench_refuses_non_integer_repetitions(value):
    with pytest.raises(TypeError, match="repetitions must be an integer"):
        run_bench([2], "so3", value)


def test_run_bench_records_repetitions_as_an_int():
    records = run_bench([1], "s2", np.int64(1))
    assert all(type(r["repetitions"]) is int and r["repetitions"] == 1 for r in records)


@pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
def test_resolve_threads_refuses_non_integers(value):
    with pytest.raises(TypeError, match="thread count must be an integer"):
        resolve_threads(value)


def test_resolve_threads_takes_numpy_integers_as_ints():
    assert type(resolve_threads(np.int64(3))) is int
    with pytest.raises(ValueError, match="thread count must be >= 0"):
        resolve_threads(-1)


def test_run_equivariance_refuses_non_integer_threads():
    config = EquivarianceConfig(bandwidth=2, channels=1, trials=1)
    with pytest.raises(TypeError, match="thread count must be an integer"):
        run_equivariance(config, threads=2.5)
