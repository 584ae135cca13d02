"""A degree outside a spectrum and a non-integer count in an equivariance
configuration are refused where they are given, naming what was wrong."""

import numpy as np
import pytest

from so3fft.gft import S2Spectrum, SO3Spectrum
from so3fft.harness import EquivarianceConfig, config_digest


@pytest.mark.parametrize("cls", [S2Spectrum, SO3Spectrum])
@pytest.mark.parametrize("degree", [-1, 3, 5])
def test_a_degree_outside_the_spectrum_raises(cls, degree):
    spectrum = cls.zeros(3, 2)
    for view in (spectrum.blocks, spectrum.columns):
        with pytest.raises(IndexError, match=rf"degree {degree} .*0\.\.2 .*bandwidth 3"):
            view(degree)
    with pytest.raises(IndexError):
        spectrum.block(0, degree)


@pytest.mark.parametrize("cls", [S2Spectrum, SO3Spectrum])
def test_blocks_in_range_still_write_through(cls):
    spectrum = cls.zeros(3, 2)
    spectrum.blocks(2)[:] = 1.0
    assert spectrum.blocks(2).shape[:2] == (2, 5)
    assert np.count_nonzero(spectrum.data) == spectrum.blocks(2).size
    assert spectrum.blocks(np.int64(0)).shape[:2] == (2, 1)


@pytest.mark.parametrize("name", ["bandwidth", "layers", "channels", "trials", "seed"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
def test_equivariance_config_refuses_non_integer_counts(name, value):
    with pytest.raises(TypeError, match=f"{name} must be an integer"):
        EquivarianceConfig(**{"bandwidth": 2, name: value})


def test_equivariance_config_takes_numpy_integers_as_ints():
    config = EquivarianceConfig(
        np.int64(2), layers=np.int32(1), channels=np.int64(2), trials=np.int8(1), seed=np.int64(0)
    )
    plain = EquivarianceConfig(2, layers=1, channels=2, trials=1, seed=0)
    for name in ("bandwidth", "layers", "channels", "trials", "seed"):
        assert type(getattr(config, name)) is int
    assert config_digest(config) == config_digest(plain)
