"""Every shell row's seed d^s_sn is carried from d^{s-1}_{s-1,n} by one
product, the same operations in every column set: the n = 0 column set is
the full set's centre column bit for bit (stacks, ``d`` and ``shells``), and
no seed overflows, so n = 0 stacks are finite and bounded by 1 at any degree."""

import numpy as np
import pytest

from so3fft import harmonics
from so3fft.gft import S2Signal, s2_fft_forward, s2_fft_inverse
from so3fft.grids import beta_samples
from so3fft.harmonics import build_tables, spherical_harmonics, wigner_d_stack

# both poles, and angles next to them where cos(beta) rounds to +-1
NEAR_POLES = [0.0, 1e-9, 1e-8, 1e-3, np.pi - 1e-3, np.pi - 1e-8, np.pi - 1e-9, np.pi]


def assert_centre_column(zero, full):
    assert len(zero) == len(full)
    for l, (z, f) in enumerate(zip(zero, full)):
        assert z.shape == f.shape[:2] + (1,)
        np.testing.assert_array_equal(z[:, :, 0], f[:, :, l])


@pytest.mark.parametrize("b", [1, 2, 3, 8, 16, 32, 64])
def test_zero_column_stack_is_the_full_centre_column_on_the_grid(b):
    betas = beta_samples(b)
    for part in np.array_split(betas, max(1, betas.size // 16)):  # 16 rings at a time
        assert_centre_column(wigner_d_stack(b - 1, part, "zero"), wigner_d_stack(b - 1, part))


def test_zero_column_stack_is_the_full_centre_column_off_the_grid():
    betas = np.r_[NEAR_POLES, np.random.default_rng(127).uniform(0, np.pi, 24)]
    try:
        for part in np.array_split(betas, 8):  # 4 angles at a time
            assert_centre_column(wigner_d_stack(127, part, "zero"), wigner_d_stack(127, part))
    finally:
        harmonics._unfold.cache_clear()  # the l_max 127 maps are 45 MB


@pytest.mark.parametrize("b", [1, 2, 3, 8, 16, 32])
def test_zero_column_tables_are_the_full_centre_column(b):
    assert_centre_column(build_tables(b, columns="zero").d, build_tables(b).d)


@pytest.mark.parametrize("b", [1, 2, 3, 8, 16, 32, 64])
def test_zero_column_shells_are_row_zero_of_the_full_shells(b):
    zero, full = build_tables(b, columns="zero").shells, build_tables(b).shells
    for s, (z, f) in enumerate(zip(zero, full)):
        assert z.shape == (1, b - s, 2 * b)
        np.testing.assert_array_equal(z[0], f[0])


@pytest.mark.parametrize("l_max", [515, 1023])
def test_zero_column_stack_is_finite_and_bounded_at_high_degree(l_max):
    stack = wigner_d_stack(l_max, NEAR_POLES + [0.1, 0.3, 1.2, 2.0], "zero")
    for blk in stack:
        assert np.isfinite(blk).all()
        assert np.abs(blk).max() <= 1 + 1e-12
    # each column of the orthogonal d^l has unit norm
    np.testing.assert_allclose((stack[-1][:, :, 0] ** 2).sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_spherical_harmonics_past_degree_514():
    y = spherical_harmonics(600, 0.1, 0.3)
    assert y[600].shape == (1201,)
    assert all(np.isfinite(v).all() and np.abs(v).max() <= 1 + 1e-12 for v in y)


def test_s2_round_trip_at_bandwidth_256():
    b = 256
    tables = build_tables(b, columns="zero")  # the fast path builds its shells alone
    f = S2Signal(b, np.random.default_rng(b).standard_normal((1, 2 * b, 2 * b)))
    first = s2_fft_forward(f, tables)
    again = s2_fft_forward(s2_fft_inverse(first, tables), tables)
    err = np.abs(again.data - first.data).max() / np.abs(first.data).max()
    assert err <= 1e-10
