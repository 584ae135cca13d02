"""The fast engine's beta stage: one real GEMM per part of each shell
s = max(m, |n|), read from the half rows d^l_sn, n >= 0, that
``WignerTables.shells`` caches once per tables object."""

import numpy as np
import pytest

from so3fft.gft import (
    S2Signal,
    SO3Signal,
    s2_dft_forward,
    s2_dft_inverse,
    s2_fft_forward,
    s2_fft_inverse,
    so3_dft_forward,
    so3_dft_inverse,
    so3_fft_forward,
    so3_fft_inverse,
)
from so3fft.harmonics import (
    ResourceLimitError,
    build_tables,
    cached_tables,
    estimate_table_bytes,
)

DOMAINS = {
    "s2": (S2Signal, 2, s2_fft_forward, s2_dft_forward, s2_fft_inverse, s2_dft_inverse),
    "so3": (SO3Signal, 3, so3_fft_forward, so3_dft_forward, so3_fft_inverse, so3_dft_inverse),
}
# (domain, whether the sphere is given full tables rather than the default)
CASES = [("s2", False), ("s2", True), ("so3", False)]
# test_half_spectrum checks the default tables at b <= 8; here b = 16 and the
# sphere given full tables, at every bandwidth
MATCH_CASES = [(d, f, 16) for d, f in CASES] + [
    ("s2", True, b) for b in (1, 2, 3, 8)
]


def grid_noise(domain, bandwidth, channels, seed=0):
    cls, axes = DOMAINS[domain][:2]
    rng = np.random.default_rng(seed)
    return cls(bandwidth, rng.standard_normal((channels,) + (2 * bandwidth,) * axes))


def rel(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("domain,full,bandwidth", MATCH_CASES)
def test_fast_matches_direct_both_directions(domain, full, bandwidth, channels):
    _, _, fast_fwd, direct_fwd, fast_inv, direct_inv = DOMAINS[domain]
    tables = cached_tables(bandwidth) if full else None
    signal = grid_noise(domain, bandwidth, channels, seed=bandwidth + channels)
    spectrum = direct_fwd(signal, tables)
    assert rel(fast_fwd(signal, tables).data, spectrum.data) <= 1e-12
    want = direct_inv(spectrum, tables).samples
    assert rel(fast_inv(spectrum, tables).samples, want) <= 1e-12


def test_shell_symmetries_hold_on_the_grid_tables():
    # d^l_ms = (-1)^(m-s) d^l_sm, d^l_{m,-s} = d^l_{s,-m} and, on the mirrored
    # ring 2b-1-j (colatitude pi - beta), d^l_{s,-n} = (-1)^(l+s) d^l_sn
    for l, blk in enumerate(cached_tables(16).d):
        k = np.arange(-l, l + 1)
        sign = (-1.0) ** (k[:, None] - k[None, :])
        assert np.max(np.abs(blk - sign * blk.transpose(0, 2, 1))) <= 1e-14
        assert np.max(np.abs(blk - blk[:, ::-1, ::-1].transpose(0, 2, 1))) <= 1e-14
        mirror = (-1.0) ** (l + k)[:, None] * blk[::-1, :, ::-1]
        assert np.max(np.abs(blk - mirror)) <= 1e-14


@pytest.mark.parametrize("columns", ["all", "zero"])
@pytest.mark.parametrize("bandwidth", [1, 2, 5])
def test_shell_rows_are_the_table_entries(bandwidth, columns):
    tables = build_tables(bandwidth, columns=columns)
    for s, rows in enumerate(tables.shells):
        c = rows.shape[0] - 1
        assert c == (s if columns == "all" else 0)
        assert rows.shape == (c + 1, bandwidth - s, 2 * bandwidth)
        for l in range(s, bandwidth):
            mid = tables.d[l].shape[2] // 2
            for n in range(c + 1):
                np.testing.assert_array_equal(rows[n, l - s], tables.d[l][:, l + s, n + mid])


@pytest.mark.parametrize("bandwidth", [1, 2, 3, 8, 16, 32])
def test_layout_holds_the_half_shell_rows(bandwidth):
    b = bandwidth
    full = sum(rows.size for rows in cached_tables(b).shells)
    assert full == 2 * b * b * (b + 1) * (b + 2) // 6
    zero = sum(rows.size for rows in cached_tables(b, "zero").shells)
    assert zero == 2 * b * b * (b + 1) // 2


@pytest.mark.parametrize("domain,full", CASES)
def test_transforms_reuse_the_cached_layout(domain, full):
    _, _, fast_fwd, _, fast_inv, _ = DOMAINS[domain]
    tables = build_tables(4) if full or domain == "so3" else build_tables(4, columns="zero")
    assert "shells" not in vars(tables)
    spectrum = fast_fwd(grid_noise(domain, 4, 2), tables)
    layout = vars(tables)["shells"]
    fast_inv(spectrum, tables)
    fast_fwd(grid_noise(domain, 4, 2, seed=1), tables)
    assert vars(tables)["shells"] is layout


@pytest.mark.parametrize("columns", ["all", "zero"])
def test_memory_cap_counts_the_shell_layout(columns):
    layout = sum(rows.nbytes for rows in cached_tables(16, columns).shells)
    cap = estimate_table_bytes(16, columns) + layout
    with pytest.raises(ResourceLimitError, match="cap"):
        build_tables(16, memory_cap_bytes=cap - 1, columns=columns)
    tables = build_tables(16, memory_cap_bytes=cap, columns=columns)
    used = sum(blk.nbytes for blk in tables.d) + sum(r.nbytes for r in tables.shells)
    assert used <= cap
