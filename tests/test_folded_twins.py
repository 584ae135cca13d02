"""The S2/SO(3) choices made in one place: grids, SSF1 kinds, CLI flags and
the residues reported by every synthesizing command."""

import json
import re

import numpy as np
import pytest

import so3fft.cli as cli
from so3fft.cli import main
from so3fft.gft import (
    IMAG_RESIDUE_TOL,
    S2Signal,
    SO3Signal,
    bandlimit_s2,
    bandlimit_so3,
    s2_fft_forward,
    so3_fft_forward,
)
from so3fft.grids import (
    Rotation,
    angle_samples,
    make_s2_grid,
    make_so3_grid,
    ring_weights,
)
from so3fft.harmonics import build_tables
from so3fft.oracle import rotate_s2_by_resampling, rotate_so3_by_resampling
from so3fft.signals import read_container_header, write_container

_SPECTRUM_LAYOUT = "channel-major degree-ascending blocks, re/im interleaved"
_RESIDUE = re.compile(r" imag_residue=(\S+)$")


def _s2(b=3, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return bandlimit_s2(S2Signal(b, rng.standard_normal((k, 2 * b, 2 * b))))


def _so3(b=2, k=1, seed=1):
    rng = np.random.default_rng(seed)
    n = 2 * b
    return bandlimit_so3(SO3Signal(b, rng.standard_normal((k, n, n, n))))


@pytest.mark.parametrize(
    "make, header",
    [
        (lambda: _s2(), ("s2", 3, 2, "f64", "channel-beta-alpha")),
        (lambda: _so3(), ("so3", 2, 1, "f64", "channel-beta-alpha-gamma")),
        (lambda: s2_fft_forward(_s2()), ("s2spec", 3, 2, "c128", _SPECTRUM_LAYOUT)),
        (lambda: so3_fft_forward(_so3()), ("so3spec", 2, 1, "c128", _SPECTRUM_LAYOUT)),
        (
            lambda: build_tables(2),
            ("wigner-tables", 2, 0, "f64", "ring weights then degree-ascending d blocks"),
        ),
    ],
)
def test_container_header_of_every_kind(tmp_path, make, header):
    path = tmp_path / "obj.ssf"
    write_container(path, make())
    got = read_container_header(path)
    keys = ("type", "bandwidth", "channels", "dtype", "layout")
    assert sorted(got) == sorted(keys)
    assert tuple(got[key] for key in keys) == header


def test_s2_grid_integrates_leading_batch_axes():
    b = 3
    grid = make_s2_grid(b)
    samples = np.random.default_rng(2).standard_normal((2, 3, 2 * b, 2 * b))
    w = ring_weights(b) / (2 * b)
    want = np.sum(samples * w[:, None], axis=(-2, -1))
    got = grid.integrate(samples)
    assert got.shape == (2, 3)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_so3_grid_integrates_leading_batch_axes():
    b = 2
    grid = make_so3_grid(b)
    samples = np.random.default_rng(3).standard_normal((4, 2 * b, 2 * b, 2 * b))
    w = ring_weights(b) / (2 * b) ** 2
    want = np.sum(samples * w[:, None, None], axis=(-3, -2, -1))
    got = grid.integrate(samples)
    assert got.shape == (4,)
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-15)


def test_grid_shapes_and_gamma_samples():
    s2, so3 = make_s2_grid(4), make_so3_grid(4)
    assert s2.shape == (8, 8) and so3.shape == (8, 8, 8)
    np.testing.assert_array_equal(so3.gammas, so3.alphas)
    np.testing.assert_array_equal(so3.gammas, angle_samples(4))
    with pytest.raises(ValueError, match="trailing shape"):
        so3.integrate(np.ones((8, 8)))
    with pytest.raises(ValueError, match="trailing shape"):
        s2.integrate(np.ones((8, 7)))


def test_threads_is_an_equivariance_flag_only(tmp_path, capsys):
    sig = tmp_path / "sig.ssf"
    write_container(sig, _s2())
    assert main([
        "transform", "--threads", "2", "--kind", "s2", "--dir", "forward",
        "--input", str(sig), "--output", str(tmp_path / "spec.ssf"),
    ]) == 1
    assert main([
        "equivariance", "--bandwidth", "2", "--channels", "1",
        "--trials", "1", "--threads", "1",
    ]) == 0
    assert "delta=" in capsys.readouterr().out


def test_full_scale_flag_is_gone():
    assert main(["equivariance", "--bandwidth", "2", "--full-scale"]) == 1


def test_bench_lines_share_one_prefix(monkeypatch, tmp_path, capsys):
    records = [
        {"kind": "s2", "bandwidth": 4, "op": "forward", "path": "fast",
         "repetitions": 1, "seconds": 0.00125},
        {"kind": "so3", "bandwidth": 64, "op": "inverse", "path": "direct",
         "repetitions": 1, "seconds": None, "note": "skipped: capped"},
    ]
    monkeypatch.setattr(cli, "run_bench", lambda *args: records)
    out = tmp_path / "bench.jsonl"
    assert main(["bench", "--output", str(out)]) == 0
    assert capsys.readouterr().out == (
        " s2 b=4   forward fast        1.250 ms\n"
        "so3 b=64  inverse direct skipped: capped\n"
    )
    lines = out.read_text().splitlines()
    assert [json.loads(line) for line in lines] == records
    assert lines[0] == json.dumps(records[0], sort_keys=True)


def _residue(line: str) -> float:
    match = _RESIDUE.search(line.strip())
    assert match, line
    value = float(match.group(1))
    assert 0.0 <= value <= IMAG_RESIDUE_TOL
    return value


def test_correlate_prints_its_residue(tmp_path, capsys):
    bank, sig = tmp_path / "bank.ssf", tmp_path / "sig.ssf"
    write_container(bank, _s2(seed=4))
    write_container(sig, _s2(seed=5))
    assert main([
        "correlate", "--kind", "s2", "--filter", str(bank), "--signal", str(sig),
        "--output", str(tmp_path / "corr.ssf"),
    ]) == 0
    _residue(capsys.readouterr().out)


@pytest.mark.parametrize("method", ["spectral", "resampling"])
@pytest.mark.parametrize("make", [_s2, _so3], ids=["s2", "so3"])
def test_rotate_prints_its_residue(tmp_path, capsys, method, make):
    sig = tmp_path / "sig.ssf"
    write_container(sig, make())
    assert main([
        "rotate", "--input", str(sig), "--output", str(tmp_path / "rot.ssf"),
        "--alpha", "0.3", "--beta", "1.1", "--gamma", "2.0", "--method", method,
    ]) == 0
    _residue(capsys.readouterr().out)


@pytest.mark.parametrize(
    "rotate, make",
    [(rotate_s2_by_resampling, lambda: _s2(b=4)), (rotate_so3_by_resampling, _so3)],
    ids=["s2", "so3"],
)
def test_resampled_signals_carry_their_residue(rotate, make):
    out = rotate(make(), Rotation(0.3, 1.1, 2.0))
    # synthesis at off-grid points leaves a roundoff-sized imaginary part
    assert 0.0 < out.imag_residue <= IMAG_RESIDUE_TOL
