"""The equivariance trial reuses what it holds: each draw goes to the
pipelines and the rotation unprojected (every consumer analyses it first),
a resampling rotation holds one Wigner stack chunk at a time, and the
inverse guard refuses a non-finite spectrum from the one scale it reads."""

import tracemalloc

import numpy as np
import pytest

from so3fft import gft, harmonics, oracle
from so3fft.gft import (
    S2Spectrum,
    SO3Signal,
    SO3Spectrum,
    s2_dft_inverse,
    s2_fft_inverse,
    so3_dft_inverse,
    so3_fft_inverse,
)
from so3fft.grids import random_rotation
from so3fft.harmonics import cached_tables
from so3fft.harness import EquivarianceConfig, run_equivariance


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(gft, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(gft, name, counted)
    return calls


@pytest.mark.parametrize("layers,relu", [(1, False), (2, True)])
def test_spectral_trials_make_no_projection_of_their_own(monkeypatch, layers, relu):
    trials, k = 3, 2
    cfg = EquivarianceConfig(
        bandwidth=4, layers=layers, channels=k, trials=trials, with_relu=relu
    )
    forwards = _counting(monkeypatch, "_fft_forward")
    inverses = _counting(monkeypatch, "_fft_inverse")
    run_equivariance(cfg, threads=1)
    # the bank: one forward per output channel and layer; a trial: both
    # pipelines (a forward and an inverse a layer each) and two rotations
    per_trial = 2 * layers + 2
    assert len(forwards) <= layers * k + trials * per_trial
    assert len(inverses) <= trials * per_trial


@pytest.mark.parametrize("b", [8, 16])
def test_resampling_rotation_holds_one_chunk_at_a_time(b):
    rng = np.random.default_rng(b)
    sig = SO3Signal(b, rng.standard_normal((2,) + (2 * b,) * 3))
    rot = random_rotation(rng)
    cached_tables(b)  # warm: the analysis reads the cached tables
    tracemalloc.start()
    try:
        oracle.rotate_so3_by_resampling(sig, rot)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    chunk = harmonics._stack_bytes(b - 1, True, oracle._CHUNK, True)
    assert peak < 1.3 * chunk


@pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf, complex(np.inf, np.nan)], ids=str
)
@pytest.mark.parametrize(
    "spectrum_cls,inverse",
    [
        (S2Spectrum, s2_fft_inverse),
        (S2Spectrum, s2_dft_inverse),
        (SO3Spectrum, so3_fft_inverse),
        (SO3Spectrum, so3_dft_inverse),
    ],
    ids=["s2-fast", "s2-direct", "so3-fast", "so3-direct"],
)
def test_inverses_refuse_one_non_finite_coefficient(spectrum_cls, inverse, value):
    spec = spectrum_cls.zeros(3, 2)
    spec.data[1, 4] = value
    with pytest.raises(ValueError, match="non-finite"):
        inverse(spec)
