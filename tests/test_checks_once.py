"""Checks written once: container headers, count flags, the seed, bank
splits and the table builder's keyword-only options."""

import json
import struct

import numpy as np
import pytest

from so3fft.cli import main
from so3fft.correlation import multichannel_correlate
from so3fft.gft import S2Signal, S2Spectrum, SO3Signal, SO3Spectrum
from so3fft.harmonics import build_tables
from so3fft.harness import EquivarianceConfig
from so3fft.signals import ContainerError, crc64, read_container, write_container


def container(path, header, payload=b""):
    """An SSF1 file with any JSON header and a valid payload checksum."""
    raw = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"SSF1" + struct.pack("<II", 1, len(raw)) + raw)
        fh.write(payload + struct.pack("<Q", crc64(payload)))
    return path


def header(kind="s2", bandwidth=1, channels=1, dtype="f64"):
    return {
        "type": kind, "bandwidth": bandwidth, "channels": channels,
        "dtype": dtype, "layout": "claimed",
    }


# (header, payload, words in the message): a b=1 sphere signal holds 2x2
# samples, so each bad header below sits on a payload it could describe
BAD_HEADERS = {
    "bandwidth-true": (header(bandwidth=True), bytes(32), "bad bandwidth"),
    "channels-true": (header(channels=True), bytes(32), "bad channel count"),
    "string-header": ("s2", b"", "not a JSON object"),
    "list-type": (header(kind=["s2"]), bytes(32), "unknown container type"),
    "signal-no-channels": (header(channels=0), b"", "bad channel count"),
    "s2spec-no-channels": (
        header("s2spec", channels=0, dtype="c128"), b"", "bad channel count",
    ),
    "so3spec-no-channels": (
        header("so3spec", channels=0, dtype="c128"), b"", "bad channel count",
    ),
}


@pytest.mark.parametrize("case", BAD_HEADERS)
def test_bad_header_is_a_container_error(tmp_path, capsys, case):
    head, payload, words = BAD_HEADERS[case]
    path = container(tmp_path / "bad.ssf", head, payload)
    with pytest.raises(ContainerError, match=words):
        read_container(path)
    code = main([
        "transform", "--kind", "s2", "--dir", "forward",
        "--input", str(path), "--output", str(tmp_path / "out.ssf"),
    ])
    assert code == 2
    assert words in capsys.readouterr().err


@pytest.fixture
def s2_files(tmp_path):
    rng = np.random.default_rng(3)
    paths = []
    for name in ("bank.ssf", "sig.ssf"):
        paths.append(tmp_path / name)
        write_container(paths[-1], S2Signal(2, rng.standard_normal((2, 4, 4))))
    return paths


BAD_COUNTS = [
    ["equivariance", "--bandwidth", "1", "--trials", "0"],
    ["equivariance", "--bandwidth", "1", "--layers", "0"],
    ["equivariance", "--bandwidth", "1", "--channels", "0"],
    ["equivariance", "--bandwidth", "1", "--threads", "-1"],
    ["bench", "--bandwidths", "1", "--repetitions", "0"],
    ["correlate", "--out-channels", "0"],
    ["correlate", "--out-channels", "-2"],
]


@pytest.mark.parametrize("argv", BAD_COUNTS, ids=lambda argv: " ".join(argv[-2:]))
def test_bad_count_flag_is_a_usage_error(tmp_path, capsys, s2_files, argv):
    if argv[0] == "correlate":
        bank, sig = s2_files
        argv = argv + [
            "--kind", "s2", "--filter", str(bank), "--signal", str(sig),
            "--output", str(tmp_path / "corr.ssf"),
        ]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "must be >=" in err


def test_zero_threads_still_means_auto(capsys):
    assert main([
        "equivariance", "--bandwidth", "1", "--channels", "1",
        "--trials", "1", "--threads", "0",
    ]) == 0
    assert "delta=" in capsys.readouterr().out


@pytest.mark.parametrize("out_channels", [0, -2])
def test_correlate_names_a_bad_out_channels(out_channels):
    rng = np.random.default_rng(4)
    sig = S2Signal(2, rng.standard_normal((2, 4, 4)))
    with pytest.raises(ValueError, match="out_channels"):
        multichannel_correlate(sig, sig, out_channels=out_channels)


def test_build_tables_options_are_keyword_only():
    with pytest.raises(TypeError, match="positional"):
        build_tables(2, "zero")
    assert build_tables(2, columns="zero").columns == "zero"


@pytest.mark.parametrize(
    "cls, trailing",
    [(S2Signal, (4, 4)), (SO3Signal, (4, 4, 4)), (S2Spectrum, (4,)), (SO3Spectrum, (10,))],
)
def test_signals_and_spectra_share_one_channel_check(cls, trailing):
    one = cls(2, np.ones(trailing))
    assert one.channels == 1
    held = one.samples if hasattr(one, "samples") else one.data
    assert held.flags.c_contiguous
    with pytest.raises(ValueError, match="shaped"):
        cls(2, np.ones((1,) + trailing + (1,)))
    with pytest.raises(ValueError, match="at least one channel"):
        cls(2, np.ones((0,) + trailing))


def test_equivariance_config_names_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        EquivarianceConfig(bandwidth=1, seed=-1)


def test_negative_seed_flag_is_a_usage_error(capsys):
    assert main([
        "equivariance", "--bandwidth", "1", "--channels", "1",
        "--trials", "1", "--seed", "-1",
    ]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "must be >= 0" in err
