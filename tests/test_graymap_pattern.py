"""``read_pgm`` parses the graymap header with one pattern.  A copy of the
earlier hand-written tokenizer is kept here as the reference: every graymap
it accepts decodes to the identical array.  Comments may now start anywhere
before the raster's delimiting whitespace byte, as the Netpbm format defines
them, so a comment right after a number decodes too."""

import random

import numpy as np
import pytest

from so3fft.signals import read_pgm


def _reference_tokens(data: bytes):
    pos = 0
    while pos < len(data):
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            yield data[pos:end], end
            pos = end


def _reference_read(data: bytes) -> np.ndarray:
    """The earlier reader: whitespace-separated tokens, a comment only where
    a token would start."""
    tokens = _reference_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise ValueError("empty graymap") from None
    if magic not in (b"P2", b"P5"):
        raise ValueError("not a P2/P5 graymap")
    try:
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, after = next(tokens)
        width, height, maxval = int(width), int(height), int(maxval)
    except (StopIteration, ValueError):
        raise ValueError("malformed graymap header") from None
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError("bad graymap dimensions")
    count = width * height
    if magic == b"P2":
        flat = []
        for token, _ in tokens:
            flat.append(int(token))
            if len(flat) == count:
                break
        if len(flat) < count:
            raise ValueError("graymap raster ends early")
        raster = np.array(flat, dtype=np.float64)
    else:
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = count * dtype.itemsize
        raw = data[after + 1 : after + 1 + need]
        if len(raw) < need:
            raise ValueError("graymap raster ends early")
        raster = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    values = raster.reshape(height, width) / maxval
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("pixel values must lie in [0, 1]")
    return values


def _read(tmp_path, blob: bytes) -> np.ndarray:
    path = tmp_path / "g.pgm"
    path.write_bytes(blob)
    return read_pgm(path).values


SIXTEEN = np.array([[1000, 65535, 7]], dtype=">u2").tobytes()

ACCEPTED = {
    "comments-between-every-token": b"P2 #a\n3 #b\n2 #c\n255\n0 128 255 64 32 16\n",
    "comment-lines": b"P2\n# one\n# two\n3\n#\n2\n# 9 9\n255\n1 2 3 4 5 6\n",
    "comment-before-magic": b"# lead\n  P2 2 1 9\n4 5\n",
    "comment-runs-past-cr": b"P2 #a\r7 7\n2 1 9\n4 5\n",
    "cr-separators": b"P2\r2\r1\r9\r4\r5\r",
    "crlf-separators": b"P2\r\n2 1\r\n9\r\n4 5\r\n",
    "tab-separators": b"P2\t2\t1\t9\t4\t5",
    "vt-ff-separators": b"P2\x0b2\x0c1 9\n4\x0b5",
    "p2-raster-comments": b"P2 2 2 9\n1 #x\n2\n# y\n3 4\n",
    "p2-raster-trailing": b"P2 2 1 9\n4 5 6 junk #c\n",
    "p2-signed-token": b"P2 +2 1 9\n4 +5\n",
    "p5-8-bit": b"P5 2 2 255\n" + bytes([0, 255, 10, 20]),
    "p5-8-bit-comments": b"P5\n#a\n2 #b\n2\n255\n" + bytes([0, 255, 10, 20]),
    "p5-whitespace-raster-byte": b"P5 2 1 255\n" + bytes([32, 10]),
    "p5-cr-before-raster": b"P5 2 1 255\r" + bytes([10, 13]),
    "p5-16-bit": b"P5\n3 1\n65535\n" + SIXTEEN,
    "p5-16-bit-maxval-256": b"P5 1 1 256\n\x01\x00",
    "p5-trailing": b"P5 2 1 255\n" + bytes([1, 2, 3, 4, 5]),
}


@pytest.mark.parametrize("blob", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_accepted_graymaps_match_the_reference(tmp_path, blob):
    expected = _reference_read(blob)
    got = _read(tmp_path, blob)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_seeded_headers_match_the_reference_wherever_it_accepts(tmp_path):
    rnd = random.Random(20)
    gaps = [b" ", b"\n", b"\t", b"\r", b"\r\n", b"#c\n", b"# 1 2\n", b"#"]

    def gap(least=1):  # now and then none, to glue tokens together
        count = rnd.randint(least if rnd.random() < 0.9 else 0, 3)
        return b"".join(rnd.choice(gaps) for _ in range(count))

    accepted = 0
    for _ in range(3000):
        magic = rnd.choice([b"P2", b"P5"])
        maxval = rnd.choice([b"9", b"255"] if magic == b"P2" else [b"255", b"65535"])
        dims = [str(rnd.randint(1, 3)).encode() for _ in range(2)]
        blob = gap(0) + magic + gap() + dims[0] + gap() + dims[1] + gap() + maxval
        blob += rnd.choice([b"\n", b" ", b"\r\n", b"#x\n"])
        if magic == b"P2":
            blob += b"".join(str(rnd.randint(0, 9)).encode() + gap() for _ in range(10))
        else:
            blob += bytes(rnd.randrange(256) for _ in range(rnd.randint(0, 20)))
        try:
            expected = _reference_read(blob)
        except ValueError:
            continue
        accepted += 1
        assert _read(tmp_path, blob).tobytes() == expected.tobytes(), blob
    assert accepted > 100, accepted


@pytest.mark.parametrize(
    "blob, values",
    [
        (b"P2 #x\n2#y\n 2 #z\n9\n1 2 3 4\n", [[1, 2], [3, 4]]),
        (b"P2#m\n2 1 9\n1#a\n2#b\n", [[1, 2]]),
        (b"P5 1 1#w\n255\n\x33", [[0x33]]),
    ],
    ids=["comment-after-header-number", "comment-after-raster-value", "comment-after-p5-height"],
)
def test_comment_right_after_a_number_now_decodes(tmp_path, blob, values):
    with pytest.raises(ValueError):
        _reference_read(blob)
    maxval = 255 if blob.startswith(b"P5") else 9
    np.testing.assert_array_equal(_read(tmp_path, blob), np.array(values) / maxval)


REFUSED = {
    "empty": b"",
    "no-whitespace-after-maxval": b"P5 1 1 255#c\n\x00",
    "maxval-at-end": b"P5 1 1 255",
    "missing-token": b"P2 2 2\n",
    "missing-tokens-comment": b"P5 2 #1 1 255\n",
    "maxval-only-in-a-comment": b"P5 1 1 #255 \x01",  # the comment runs to the end
    "p3-magic": b"P3 1 1 255\n0 0 0\n",
    "p6-magic": b"P6 1 1 255\n\x00\x00\x00",
    "magic-glued-to-digit": b"P25 1 1\n\x00",
    "zero-width": b"P2 0 2 255\n",
    "zero-height": b"P5 2 0 255\n",
    "maxval-0": b"P2 1 1 0\n0\n",
    "maxval-65536": b"P5 1 1 65536\n\x00\x00",
    "non-integer-width": b"P2 x 1 9\n1\n",
    "short-p2": b"P2\n2 2\n255\n1 2 3",
    "short-p2-comment": b"P2 2 1 9\n1 #2\n",
    "short-p5-8-bit": b"P5 2 2 255\n\x00\x01\x02",
    "short-p5-16-bit": b"P5 1 1 65535\n\x01",
}


@pytest.mark.parametrize("blob", REFUSED.values(), ids=REFUSED.keys())
def test_malformed_graymaps_raise_value_error(tmp_path, blob):
    with pytest.raises(ValueError):
        _read(tmp_path, blob)
