"""Helpers the package already has, used in place of copies: both inverses
build their signal directly from the synthesized grid, the direct engine's
phases come from ``harmonics._phases``, the direct correlation checks its
output bandwidth with the integer check the correlation plan uses, and
``project-molecule --center`` is parsed like every other count flag."""

import numpy as np
import pytest

from so3fft import gft, oracle
from so3fft.cli import main
from so3fft.gft import S2Signal, SO3Signal
from so3fft.grids import angle_samples
from so3fft.oracle import s2_correlate_direct, so3_correlate_direct

INVERSES = [
    (S2Signal, gft.s2_fft_forward, gft.s2_fft_inverse),
    (S2Signal, gft.s2_dft_forward, gft.s2_dft_inverse),
    (SO3Signal, gft.so3_fft_forward, gft.so3_fft_inverse),
    (SO3Signal, gft.so3_dft_forward, gft.so3_dft_inverse),
]


@pytest.mark.parametrize("signal_cls, forward, inverse", INVERSES)
@pytest.mark.parametrize("b", [1, 2, 5])
@pytest.mark.parametrize("k", [1, 3])
def test_inverses_return_contiguous_signals(signal_cls, forward, inverse, b, k):
    shape = (k,) + (2 * b,) * signal_cls._axes
    sig = signal_cls(b, np.random.default_rng(b * 10 + k).standard_normal(shape))
    out = inverse(forward(sig))
    assert type(out) is signal_cls
    assert out.bandwidth == b
    assert out.samples.shape == shape
    assert out.samples.dtype == np.float64
    assert out.samples.flags.c_contiguous


def _exp_phases(b, gammas):
    # the direct engine's phases as they were written before: exp(+i m alpha)
    e = np.exp(1j * np.outer(angle_samples(b), np.arange(-(b - 1), b)))
    return e, e if gammas > 1 else np.ones((1, 1))


@pytest.mark.parametrize("b", [1, 2, 3, 8, 16, 30, 32, 64])
@pytest.mark.parametrize("gammas", [1, "2b"])
def test_dft_phases_are_exp_i_m_alpha(b, gammas):
    gammas = 2 * b if gammas == "2b" else 1
    for got, expected in zip(gft._dft_phases(b, gammas), _exp_phases(b, gammas)):
        assert np.array_equal(got, expected)
        # the bits differ only in the sign of a zero: Im at alpha = 0, m < 0
        differ = got.view(np.float64) != expected.view(np.float64)
        differ |= np.signbit(got.view(np.float64)) != np.signbit(expected.view(np.float64))
        assert np.all(got.view(np.float64)[differ] == 0.0)
        assert np.count_nonzero(differ) == (b - 1 if expected.shape[0] > 1 else 0)


@pytest.mark.parametrize("signal_cls, forward, inverse", INVERSES[1::2])
@pytest.mark.parametrize("b", [1, 2, 3, 6])
@pytest.mark.parametrize("fill", ["noise", "zeros", "ones"])
def test_direct_transforms_match_exp_phases_bit_for_bit(
    monkeypatch, signal_cls, forward, inverse, b, fill
):
    shape = (2,) + (2 * b,) * signal_cls._axes
    samples = {
        "noise": np.random.default_rng(b).standard_normal(shape),
        "zeros": np.zeros(shape),
        "ones": np.ones(shape),
    }[fill]
    sig = signal_cls(b, samples)
    spec = forward(sig)
    back = inverse(spec)
    monkeypatch.setattr(gft, "_dft_phases", _exp_phases)
    assert forward(sig).data.tobytes() == spec.data.tobytes()
    assert inverse(spec).samples.tobytes() == back.samples.tobytes()


@pytest.fixture
def no_projection(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("projected before the output bandwidth was checked")

    monkeypatch.setattr(oracle, "_psi_at_pairs", refuse)
    monkeypatch.setattr(oracle, "_on_rotation_grid", refuse)
    monkeypatch.setattr(oracle, "_dft_forward", refuse)


def _pair(correlate, b):
    signal_cls = S2Signal if correlate is s2_correlate_direct else SO3Signal
    shape = (1,) + (2 * b,) * signal_cls._axes
    rng = np.random.default_rng(4)
    return signal_cls(b, rng.standard_normal(shape)), signal_cls(b, rng.standard_normal(shape))


@pytest.mark.parametrize("correlate", [s2_correlate_direct, so3_correlate_direct])
@pytest.mark.parametrize(
    "bandwidth_out, error",
    [(1.5, TypeError), (2.0, TypeError), (True, TypeError), ("2", TypeError),
     (0, ValueError), (-1, ValueError), (3, ValueError)],
)
def test_direct_correlation_checks_output_bandwidth_first(
    no_projection, correlate, bandwidth_out, error
):
    psi, f = _pair(correlate, 2)
    with pytest.raises(error, match="output bandwidth"):
        correlate(psi, f, bandwidth_out=bandwidth_out)


@pytest.mark.parametrize("correlate", [s2_correlate_direct, so3_correlate_direct])
def test_direct_correlation_takes_numpy_integer_output_bandwidth(correlate):
    psi, f = _pair(correlate, 2)
    out = correlate(psi, f, bandwidth_out=np.int64(1))
    assert out.bandwidth == 1 and type(out.bandwidth) is int
    assert out.samples.tobytes() == correlate(psi, f, bandwidth_out=1).samples.tobytes()


@pytest.fixture
def molecule(tmp_path):
    path = tmp_path / "mol.txt"
    path.write_text("1 0 0 0\n6 1.5 0 0\n1 0 1.5 0\n")
    return path


def _project(molecule, tmp_path, center):
    return main([
        "project-molecule", "--molecule", str(molecule), "--center", center,
        "--bandwidth", "2", "--output", str(tmp_path / "m.ssf"),
    ])


@pytest.mark.parametrize("center", ["-1", "-7", "1.5", "x"])
def test_bad_center_is_a_usage_error(molecule, tmp_path, capsys, center):
    assert _project(molecule, tmp_path, center) == 1
    assert "center" in capsys.readouterr().err
    assert not (tmp_path / "m.ssf").exists()


def test_center_past_the_last_atom_is_a_data_error(molecule, tmp_path):
    assert _project(molecule, tmp_path, "3") == 2
    assert _project(molecule, tmp_path, "2") == 0
