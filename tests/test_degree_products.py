"""One matrix product per degree: the spectral rotation, the zonal
convolution and the weighted energy, each written in place of its output.

The ``np.einsum`` and per-degree loop forms they replaced are kept here as
the references.  The products sum in another order than the einsums, so the
rotation and the convolution are held to 1e-14 relative to the largest
reference coefficient, and the energy to the bound ``count * eps`` of a sum
of ``count`` non-negative terms.  The tables that every caller shares refuse
writes, whether built in the process or read from a container."""

import numpy as np
import pytest

from so3fft.correlation import dh_convolve, rotate_so3_spectral, rotate_so3_spectrum
from so3fft.gft import (
    S2Signal,
    S2Spectrum,
    SO3Signal,
    SO3Spectrum,
    s2_fft_forward,
    s2_fft_inverse,
    so3_fft_forward,
    so3_fft_inverse,
)
from so3fft.grids import random_rotation
from so3fft.harmonics import build_tables, cached_tables, wigner_D_matrices
from so3fft.signals import read_container, write_container

DOMAINS = {
    "s2": (S2Signal, s2_fft_forward, s2_fft_inverse),
    "so3": (SO3Signal, so3_fft_forward, so3_fft_inverse),
}
BANDWIDTHS = [1, 2, 6, 16]
CHANNELS = [1, 3]
REL = 1e-14


def _signal(domain, b, k, seed):
    cls = DOMAINS[domain][0]
    rng = np.random.default_rng(seed)
    return cls(b, rng.standard_normal((k,) + (2 * b,) * cls._axes))


def _spectrum(domain, b, k, seed):
    return DOMAINS[domain][1](_signal(domain, b, k, seed))


def _rotate_reference(spectrum, rotation):
    """The rotation as it was written before: a zero-filled spectrum and one
    ``einsum`` per degree, copied into it."""
    d = wigner_D_matrices(spectrum.bandwidth - 1, rotation)
    out = type(spectrum).zeros(spectrum.bandwidth, spectrum.channels)
    for l in range(spectrum.bandwidth):
        out.columns(l)[:] = np.einsum("mp,kpn->kmn", d[l].conj(), spectrum.columns(l))
    return out


def _convolve_reference(f, psi):
    """The zonal convolution as it was written before: one ``einsum`` per
    degree over the filter's m = 0 entries."""
    fs, ps = s2_fft_forward(f), s2_fft_forward(psi)
    out = S2Spectrum.zeros(f.bandwidth, 1)
    for l in range(f.bandwidth):
        out.blocks(l)[0] = np.einsum("km,k->m", fs.blocks(l), ps.blocks(l)[:, l])
    return s2_fft_inverse(out)


def _energy_reference(spectrum):
    """The weighted energy as it was written before: one term per degree."""
    out = np.zeros(spectrum.channels)
    for l in range(spectrum.bandwidth):
        blk = spectrum.blocks(l).reshape(spectrum.channels, -1)
        out += (2 * l + 1) * np.sum(np.abs(blk) ** 2, axis=1)
    return out


def _close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= REL * np.max(np.abs(want))


@pytest.mark.parametrize("k", CHANNELS)
@pytest.mark.parametrize("b", BANDWIDTHS)
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_the_rotation_matches_the_einsum_reference(domain, b, k):
    spec = _spectrum(domain, b, k, seed=b + 10 * k)
    rotation = random_rotation(np.random.default_rng(b * k))
    got = rotate_so3_spectrum(spec, rotation)
    assert type(got) is type(spec) and got.bandwidth == b
    _close(got.data, _rotate_reference(spec, rotation).data)


@pytest.mark.parametrize("b", [2, 6])
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_the_spectral_rotation_matches_the_einsum_reference(domain, b):
    f = _signal(domain, b, 3, seed=b)
    rotation = random_rotation(np.random.default_rng(b))
    _, fwd, inv = DOMAINS[domain]
    want = inv(_rotate_reference(fwd(f), rotation))
    _close(rotate_so3_spectral(f, rotation).samples, want.samples)


@pytest.mark.parametrize("k", CHANNELS)
@pytest.mark.parametrize("b", BANDWIDTHS)
def test_the_convolution_matches_the_einsum_reference(b, k):
    f, psi = _signal("s2", b, k, seed=b), _signal("s2", b, k, seed=b + 100)
    got = dh_convolve(f, psi)
    assert type(got) is S2Signal and got.channels == 1
    _close(got.samples, _convolve_reference(f, psi).samples)


@pytest.mark.parametrize("k", CHANNELS)
@pytest.mark.parametrize("b", BANDWIDTHS)
@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_the_weighted_energy_matches_the_per_degree_sum(domain, b, k):
    spec = _spectrum(domain, b, k, seed=7 * b + k)
    got, want = spec.weighted_energy(), _energy_reference(spec)
    assert got.shape == (k,)
    np.testing.assert_allclose(got, want, rtol=spec.data.shape[1] * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("domain", sorted(DOMAINS))
def test_the_rotation_leaves_its_input_and_writes_fresh_memory(domain):
    spec = _spectrum(domain, 6, 3, seed=1)
    before = spec.data.copy()
    out = rotate_so3_spectrum(spec, random_rotation(np.random.default_rng(1)))
    assert spec.data.tobytes() == before.tobytes()
    assert out.data.flags.owndata and not np.shares_memory(out.data, spec.data)


def test_the_convolution_leaves_its_inputs_and_writes_fresh_memory():
    f, psi = _signal("s2", 6, 3, seed=2), _signal("s2", 6, 3, seed=3)
    kept = f.samples.copy(), psi.samples.copy()
    out = dh_convolve(f, psi)
    assert f.samples.tobytes() == kept[0].tobytes()
    assert psi.samples.tobytes() == kept[1].tobytes()
    assert not np.shares_memory(out.samples, f.samples)
    assert not np.shares_memory(out.samples, psi.samples)


def _table_arrays(tables):
    return [("weights", tables.weights)] + [
        (f"{name}[{i}]", a) for name in ("d", "shells") for i, a in enumerate(getattr(tables, name))
    ]


def _refuses_writes(tables):
    for name, array in _table_arrays(tables):
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array *= 2
        with pytest.raises(ValueError):
            array.flat[0] = 1.0


@pytest.mark.parametrize("columns", ["all", "zero"])
def test_cached_tables_refuse_writes_and_later_forwards_stay_the_same(columns):
    f = _signal("so3" if columns == "all" else "s2", 4, 2, seed=4)
    fwd = so3_fft_forward if columns == "all" else s2_fft_forward
    before = fwd(f).data.tobytes()
    _refuses_writes(cached_tables(4, columns))
    assert fwd(f).data.tobytes() == before


def test_built_tables_refuse_writes():
    _refuses_writes(build_tables(3))


def test_tables_read_from_a_container_refuse_writes(tmp_path):
    path = tmp_path / "tables.ssf"
    write_container(path, build_tables(3))
    tables = read_container(path)
    _refuses_writes(tables)
    f = _signal("so3", 3, 1, seed=5)
    assert so3_fft_forward(f, tables).data.tobytes() == so3_fft_forward(f).data.tobytes()
