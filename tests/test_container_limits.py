"""Headers that claim more payload than the file holds are refused before
anything of that size is allocated or computed."""

import json
import struct
import time

import pytest

from so3fft.cli import main
from so3fft.signals import TruncatedError, read_container


def claim(path, kind, bandwidth, channels):
    header = json.dumps(
        {
            "type": kind,
            "bandwidth": bandwidth,
            "channels": channels,
            "dtype": "f64",
            "layout": "claimed",
        }
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"SSF1" + struct.pack("<II", 1, len(header)) + header)
        fh.write(bytes(64))
    return path


CLAIMS = [("so3", 4096, 1), ("wigner-tables", 10**12, 0)]


@pytest.mark.parametrize("kind,bandwidth,channels", CLAIMS)
def test_oversized_claim_is_truncated_promptly(tmp_path, kind, bandwidth, channels):
    path = claim(tmp_path / "claim.ssf", kind, bandwidth, channels)
    start = time.perf_counter()
    with pytest.raises(TruncatedError, match="ends early"):
        read_container(path)
    assert time.perf_counter() - start < 5.0


@pytest.mark.parametrize("kind,bandwidth,channels", CLAIMS)
def test_oversized_claim_is_a_data_error_in_the_cli(tmp_path, capsys, kind, bandwidth, channels):
    path = claim(tmp_path / "claim.ssf", kind, bandwidth, channels)
    code = main([
        "transform", "--kind", "so3", "--dir", "forward",
        "--input", str(path), "--output", str(tmp_path / "out.ssf"),
    ])
    assert code == 2
    assert "ends early" in capsys.readouterr().err
