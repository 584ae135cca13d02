"""The sphere is the single-gamma-sample column of the rotation group: a
signal lifted to SO(3) (constant along gamma) must correlate and rotate
exactly as it does on S2."""

import numpy as np
import pytest

from so3fft.correlation import (
    rotate_s2_spectral,
    rotate_so3_spectral,
    s2_correlate,
    so3_correlate,
)
from so3fft.gft import S2Signal, bandlimit_s2, lift_s2_to_so3
from so3fft.grids import random_rotation
from so3fft.oracle import (
    rotate_s2_by_resampling,
    rotate_so3_by_resampling,
    s2_correlate_direct,
    so3_correlate_direct,
)


def noise_s2(b, channels, seed):
    rng = np.random.default_rng(seed)
    n = 2 * b
    return bandlimit_s2(S2Signal(b, rng.standard_normal((channels, n, n))))


def assert_rel_close(got, want, rtol=1e-12):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    assert float(np.max(np.abs(got - want))) <= rtol * scale


@pytest.mark.parametrize("b", [1, 2, 4])
def test_lifted_correlation_equals_sphere_correlation(b):
    psi = noise_s2(b, 2, seed=40 + b)
    f = noise_s2(b, 2, seed=50 + b)
    lifted = so3_correlate(lift_s2_to_so3(psi), lift_s2_to_so3(f))
    assert_rel_close(lifted.samples, s2_correlate(psi, f).samples)


@pytest.mark.parametrize("b", [1, 2, 4])
def test_lift_commutes_with_spectral_rotation(b):
    f = noise_s2(b, 2, seed=60 + b)
    r = random_rotation(np.random.default_rng(70 + b))
    want = lift_s2_to_so3(rotate_s2_spectral(f, r))
    got = rotate_so3_spectral(lift_s2_to_so3(f), r)
    assert_rel_close(got.samples, want.samples)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_lifted_direct_correlation_equals_sphere_direct_correlation(b):
    psi = noise_s2(b, 2, seed=80 + b)
    f = noise_s2(b, 2, seed=90 + b)
    lifted = so3_correlate_direct(lift_s2_to_so3(psi), lift_s2_to_so3(f))
    assert_rel_close(lifted.samples, s2_correlate_direct(psi, f).samples)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_lift_commutes_with_resampling_rotation(b):
    f = noise_s2(b, 2, seed=100 + b)
    r = random_rotation(np.random.default_rng(110 + b))
    want = lift_s2_to_so3(rotate_s2_by_resampling(f, r))
    got = rotate_so3_by_resampling(lift_s2_to_so3(f), r)
    assert_rel_close(got.samples, want.samples)
