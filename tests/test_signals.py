import numpy as np
import pytest

from so3fft.gft import S2Signal, SO3Signal, s2_fft_forward, so3_fft_forward
from so3fft.grids import beta_samples, make_s2_grid, sphere_to_cartesian
from so3fft.harmonics import build_tables
from so3fft.signals import (
    BadMagicError,
    ChecksumError,
    ContainerError,
    MoleculeSpec,
    PlanarImage,
    TruncatedError,
    VersionError,
    crc64,
    default_radius,
    molecule_channels,
    project_image,
    read_container,
    read_container_header,
    read_molecule,
    read_pgm,
    write_container,
)
from so3fft.signals import _CRC_LANES_LOG2

# --------------------------------------------------------------------------
# portable graymaps


def test_read_pgm_ascii(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P2\n# a comment\n3 2\n255\n0 128 255\n 64\t32 16\n")
    img = read_pgm(p)
    assert (img.height, img.width) == (2, 3)
    np.testing.assert_allclose(
        img.values, np.array([[0, 128, 255], [64, 32, 16]]) / 255.0
    )


def test_read_pgm_binary(tmp_path):
    p = tmp_path / "b.pgm"
    p.write_bytes(b"P5 2 2 255\n" + bytes([0, 255, 10, 20]))
    img = read_pgm(p)
    np.testing.assert_allclose(
        img.values, np.array([[0, 255], [10, 20]]) / 255.0
    )


def test_read_pgm_sixteen_bit(tmp_path):
    p = tmp_path / "c.pgm"
    raster = np.array([[1000, 65535]], dtype=">u2")
    p.write_bytes(b"P5\n2 1\n65535\n" + raster.tobytes())
    img = read_pgm(p)
    np.testing.assert_allclose(img.values, [[1000 / 65535, 1.0]])


@pytest.mark.parametrize(
    "blob",
    [
        b"",
        b"P6 1 1 255\n\x00",
        b"P2\n2 2\n255\n1 2 3",  # raster ends early
        b"P2\n0 2\n255\n",
    ],
)
def test_read_pgm_rejects_malformed(tmp_path, blob):
    p = tmp_path / "bad.pgm"
    p.write_bytes(blob)
    with pytest.raises(ValueError):
        read_pgm(p)


def test_planar_image_validation():
    with pytest.raises(ValueError, match="2-D"):
        PlanarImage(np.zeros(4))
    with pytest.raises(ValueError, match="\\[0, 1\\]"):
        PlanarImage(np.full((2, 2), 1.5))
    with pytest.raises(ValueError, match="finite"):
        PlanarImage(np.full((2, 2), np.nan))


# --------------------------------------------------------------------------
# stereographic projection


def top_hat_image(side=65, plateau=0.35, value=0.8):
    """Radially symmetric flat-topped bump on [-1, 1]^2 pixel coordinates."""
    half = (side - 1) / 2.0
    xx = (np.arange(side) - half) / half
    r = np.hypot(xx[:, None], xx[None, :])
    return PlanarImage(np.where(r <= plateau, value, 0.0))


def test_all_zero_image_projects_to_zero():
    img = PlanarImage(np.zeros((8, 8)))
    out = project_image(img, 4)
    np.testing.assert_array_equal(out.samples, 0.0)


def test_projection_center_value():
    # the plateau covers the pole's neighborhood, so the nearest grid
    # points must carry the plateau value (up to bilinear-weight rounding)
    out = project_image(top_hat_image(value=0.8), 8)
    np.testing.assert_allclose(out.samples[0, 0], 0.8, rtol=1e-14)


def test_projection_supported_on_northern_hemisphere():
    rng = np.random.default_rng(0)
    img = PlanarImage(rng.uniform(size=(16, 16)))
    b = 6
    out = project_image(img, b)
    assert out.samples.shape == (1, 12, 12)
    south = beta_samples(b) > np.pi / 2
    np.testing.assert_array_equal(out.samples[0, south], 0.0)
    assert np.any(out.samples[0, ~south] != 0.0)


def test_projection_ring_constancy_on_the_plateau():
    # rings whose preimage stays inside the flat top are exactly constant;
    # bilinear sampling cannot promise this on the sloped part
    b = 8
    out = project_image(top_hat_image(side=129), b)
    betas = beta_samples(b)
    ring_radius = 2.0 * np.tan(betas / 2.0) / np.sqrt(2.0)  # in image units
    flat = ring_radius < 0.3  # safely inside the plateau at 0.35
    assert flat.sum() >= 2
    spreads = np.ptp(out.samples[0], axis=1)
    np.testing.assert_allclose(spreads[flat], 0.0, atol=1e-9)


def test_projection_ring_spread_shrinks_quadratically():
    # for a smooth symmetric bump the residual ring anisotropy is an
    # artifact of bilinear pixel sampling and must fall off like h^2;
    # rings that cross the square image boundary are excluded since the
    # cutoff there is anisotropic at every resolution
    def smooth_bump(side):
        half = (side - 1) / 2.0
        xx = (np.arange(side) - half) / half
        r2 = xx[:, None] ** 2 + xx[None, :] ** 2
        return PlanarImage(np.exp(-4.0 * r2))

    betas = beta_samples(8)
    interior = 2.0 * np.tan(betas / 2.0) / np.sqrt(2.0) < 0.9

    def worst_spread(side):
        out = project_image(smooth_bump(side), 8)
        return np.ptp(out.samples[0, interior], axis=1).max()

    coarse = worst_spread(33)
    fine = worst_spread(129)
    assert fine < coarse / 8.0  # 16x expected from h^2, 8x leaves margin


def test_projection_respects_image_orientation():
    # a single bright pixel right of center lands at alpha ~ 0
    values = np.zeros((9, 9))
    values[4, 7] = 1.0
    out = project_image(PlanarImage(values), 8)
    j, i = np.unravel_index(np.argmax(out.samples[0]), out.samples[0].shape)
    grid = make_s2_grid(8)
    assert np.cos(grid.alphas[i]) > 0.9


# --------------------------------------------------------------------------
# molecules


def test_molecule_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        MoleculeSpec(np.zeros((1, 3)), np.array([-1.0]), 1.0)
    with pytest.raises(ValueError, match="radius"):
        MoleculeSpec(np.zeros((1, 3)), np.array([1.0]), 0.0)
    with pytest.raises(ValueError, match="one charge per atom"):
        MoleculeSpec(np.zeros((2, 3)), np.array([1.0]), 1.0)


def test_default_radius_rule():
    pos = np.array([[0.0, 0, 0], [2.0, 0, 0], [0, 3.0, 0]])
    np.testing.assert_allclose(default_radius(pos), 0.45 * 2.0)
    assert default_radius(np.zeros((1, 3))) == 1.0


def test_read_molecule(tmp_path):
    p = tmp_path / "mol.txt"
    p.write_text("# water-ish\n8 0 0 0\n1 0.96 0 0\n\n1 -0.24 0.93 0\n")
    mol = read_molecule(p)
    assert mol.atom_count == 3
    np.testing.assert_allclose(mol.charges, [8.0, 1.0, 1.0])
    np.testing.assert_allclose(mol.charge_types, [1.0, 8.0])
    assert mol.radius == pytest.approx(0.45 * 0.96, rel=1e-6)


def test_read_molecule_rejects_garbage(tmp_path):
    p = tmp_path / "mol.txt"
    p.write_text("1 2 3\n")
    with pytest.raises(ValueError, match="charge x y z"):
        read_molecule(p)
    p.write_text("")
    with pytest.raises(ValueError, match="no atoms"):
        read_molecule(p)


def test_single_atom_molecule_is_zero():
    mol = MoleculeSpec(np.zeros((1, 3)), np.array([2.0]), 1.0)
    out = molecule_channels(mol, 0, bandwidth=4)
    np.testing.assert_array_equal(out.samples, 0.0)


def test_two_atom_molecule_single_term():
    # one neighbor: every sample is z_i * z_j over the true distance; the
    # center's own charge type contributes an empty sum, hence a zero channel
    mol = MoleculeSpec(
        [[0.0, 0, 0], [0, 0, 3.0]], np.array([2.0, 5.0]), 1.0
    )
    b = 3
    out = molecule_channels(mol, 0, bandwidth=b)
    grid = make_s2_grid(b)
    av, bv = np.meshgrid(grid.alphas, grid.betas)
    pts = sphere_to_cartesian(av, bv)
    dist = np.linalg.norm(pts - np.array([0, 0, 3.0]), axis=-1)
    assert out.channels == 2  # charge types 2 and 5, ascending
    np.testing.assert_array_equal(out.samples[0], 0.0)
    np.testing.assert_allclose(out.samples[1], 2.0 * 5.0 / dist, rtol=1e-14)


def test_molecule_channels_sorted_by_charge():
    mol = MoleculeSpec(
        [[0.0, 0, 0], [0, 0, 2.0], [0, 2.0, 0], [2.0, 0, 0]],
        np.array([1.0, 6.0, 1.0, 6.0]),
        0.5,
    )
    out = molecule_channels(mol, 0, bandwidth=3)
    assert out.channels == 2  # types 1 and 6, ascending
    # channel 1 (charge 6) sums two atoms at distance ~2, so it dominates
    assert out.samples[1].sum() > out.samples[0].sum()


def test_molecule_translation_invariance():
    rng = np.random.default_rng(1)
    pos = rng.normal(size=(4, 3))
    charges = np.array([1.0, 6.0, 8.0, 1.0])
    mol = MoleculeSpec(pos, charges, 0.3)
    shifted = MoleculeSpec(pos + np.array([5.0, -2.0, 11.0]), charges, 0.3)
    a = molecule_channels(mol, 1, bandwidth=5)
    b = molecule_channels(shifted, 1, bandwidth=5)
    np.testing.assert_allclose(a.samples, b.samples, atol=1e-12)


def test_molecule_singular_guard():
    # neighbor sits exactly on the sampling sphere
    mol = MoleculeSpec(
        [[0.0, 0, 0], [0, 0, 1.0]], np.array([1.0, 1.0]), 1.0
    )
    bad_center = 0
    with pytest.raises(ValueError, match="singular potential"):
        # bandwidth chosen so a grid point lands on the +z axis neighbor?
        # no grid point is exactly polar, so force proximity differently:
        molecule_channels(
            MoleculeSpec(
                [[0.0, 0, 0], sphere_to_cartesian(0.0, beta_samples(4)[0])],
                np.array([1.0, 1.0]),
                1.0,
            ),
            bad_center,
            bandwidth=4,
        )


def test_molecule_center_index_checked():
    mol = MoleculeSpec(np.zeros((1, 3)), np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match="out of range"):
        molecule_channels(mol, 3, bandwidth=2)


# --------------------------------------------------------------------------
# checksums


def test_crc64_check_vector():
    assert crc64(b"123456789") == 0x995DC9BBDF1939FA


def test_crc64_empty_and_chaining():
    assert crc64(b"") == 0
    assert crc64(b"6789", crc64(b"12345")) == crc64(b"123456789")


def test_crc64_detects_any_single_bit_flip():
    data = bytearray(b"The quick brown fox jumps over the lazy dog")
    want = crc64(bytes(data))
    data[17] ^= 0x40
    assert crc64(bytes(data)) != want


# crc64 runs 2**_CRC_LANES_LOG2 word-interleaved lanes, so one row of lanes
# spans ROW bytes; lengths and split points around multiples of WORD and ROW
# reach every branch: full rows, a short last round, and a partial word.
WORD = 8
ROW = WORD << _CRC_LANES_LOG2
BIG = (1 << 20) + 2 * ROW + 3 * WORD + 5  # odd, over 1 MB


def crc64_bitwise(data, crc=0, at=()):
    """CRC-64/XZ one bit per step, straight from the definition.

    With ``at``, also return {n: CRC of data[:n]} for each length n in it.
    """
    poly = 0xC96C5795D7870F42
    ones = (1 << 64) - 1
    crc ^= ones
    at = set(at)
    prefixes = {0: crc ^ ones} if 0 in at else {}
    for count, byte in enumerate(data, start=1):
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        if count in at:
            prefixes[count] = crc ^ ones
    return (crc ^ ones, prefixes) if at else crc ^ ones


BOUNDARY_LENGTHS = sorted(
    {
        n + delta
        for n in (
            WORD,
            2 * WORD,
            ROW - WORD,
            ROW,
            ROW + WORD,
            2 * ROW,
            2 * ROW + 3 * WORD,
            5 * ROW,
        )
        for delta in (-1, 0, 1)
    }
)


@pytest.fixture(scope="module")
def big_payload():
    """A seeded payload of odd length over 1 MB, with bitwise-reference
    CRCs of the whole and of each prefix in BOUNDARY_LENGTHS."""
    data = np.random.default_rng(64).integers(0, 256, BIG, dtype=np.uint8).tobytes()
    whole, prefixes = crc64_bitwise(data, at=BOUNDARY_LENGTHS)
    return data, whole, prefixes


def test_crc64_bitwise_reference_check_vector():
    assert crc64_bitwise(b"123456789") == 0x995DC9BBDF1939FA


def test_crc64_matches_bitwise_reference_for_short_lengths():
    data = np.random.default_rng(80).integers(0, 256, 80, dtype=np.uint8).tobytes()
    _, prefixes = crc64_bitwise(data, at=range(81))
    for n in range(81):
        assert crc64(data[:n]) == prefixes[n], n


def test_crc64_matches_bitwise_reference_at_word_and_lane_boundaries(big_payload):
    data, _, prefixes = big_payload
    for n in BOUNDARY_LENGTHS:
        assert crc64(data[:n]) == prefixes[n], n


def test_crc64_matches_bitwise_reference_over_a_megabyte(big_payload):
    data, whole, _ = big_payload
    assert len(data) >= 1 << 20 and len(data) % 2 == 1
    assert crc64(data) == whole


def test_crc64_chains_at_any_split(big_payload):
    data, whole, _ = big_payload
    view = memoryview(data)
    # mid-word, a row start, mid-row at a word boundary, mid-row mid-word
    splits = (1, 1001 * WORD + 3, ROW, ROW + 100 * WORD, 3 * ROW + 4, BIG - 1)
    for split in splits:
        assert crc64(view[split:], crc64(view[:split])) == whole, split


def test_crc64_detects_single_bit_flips_across_a_megabyte(big_payload):
    data, whole, _ = big_payload
    # first byte, last byte, the two sides of the first row boundary, and
    # the first byte of the second lane
    flips = ((0, 0x01), (BIG - 1, 0x80), (ROW - 1, 0x80), (ROW, 0x01), (WORD, 0x10))
    for position, bit in flips:
        flipped = bytearray(data)
        flipped[position] ^= bit
        assert crc64(flipped) != whole, position


def test_crc64_accepts_any_contiguous_buffer():
    data = np.random.default_rng(3).standard_normal(ROW // WORD + 7)
    raw = data.tobytes()
    want = crc64(raw)
    assert crc64(bytearray(raw)) == want
    assert crc64(memoryview(raw)) == want
    assert crc64(memoryview(data)) == want
    assert crc64(data) == want


# --------------------------------------------------------------------------
# SSF1 container


def sample_objects():
    rng = np.random.default_rng(2)
    s2 = S2Signal(3, rng.standard_normal((2, 6, 6)))
    so3 = SO3Signal(2, rng.standard_normal((1, 4, 4, 4)))
    return [
        s2,
        so3,
        s2_fft_forward(s2),
        so3_fft_forward(so3),
        build_tables(3),
    ]


def test_container_round_trips_bitwise(tmp_path):
    for i, obj in enumerate(sample_objects()):
        path = tmp_path / f"obj{i}.ssf"
        write_container(path, obj)
        back = read_container(path)
        assert type(back) is type(obj)
        assert back.bandwidth == obj.bandwidth
        if hasattr(obj, "samples"):
            assert back.samples.tobytes() == obj.samples.tobytes()
        elif hasattr(obj, "data"):
            assert back.data.tobytes() == obj.data.tobytes()
        else:
            assert back.weights.tobytes() == obj.weights.tobytes()
            for got, want in zip(back.d, obj.d):
                assert got.tobytes() == want.tobytes()


def test_rewrite_is_deterministic(tmp_path):
    obj = sample_objects()[0]
    a, b = tmp_path / "a.ssf", tmp_path / "b.ssf"
    write_container(a, obj)
    write_container(b, obj)
    assert a.read_bytes() == b.read_bytes()


def test_container_header_fields(tmp_path):
    path = tmp_path / "x.ssf"
    write_container(path, sample_objects()[2])
    header = read_container_header(path)
    assert header["type"] == "s2spec"
    assert header["bandwidth"] == 3
    assert header["channels"] == 2
    assert header["dtype"] == "c128"
    assert "layout" in header


def test_container_bad_magic(tmp_path):
    path = tmp_path / "x.ssf"
    write_container(path, sample_objects()[0])
    blob = bytearray(path.read_bytes())
    blob[0] = ord("X")
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        read_container(path)


def test_container_version_mismatch(tmp_path):
    path = tmp_path / "x.ssf"
    write_container(path, sample_objects()[0])
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionError):
        read_container(path)


def test_container_truncation(tmp_path):
    path = tmp_path / "x.ssf"
    write_container(path, sample_objects()[0])
    blob = path.read_bytes()
    for cut in (3, 10, len(blob) // 2, len(blob) - 3):
        path.write_bytes(blob[:cut])
        with pytest.raises(TruncatedError):
            read_container(path)


def test_container_checksum_failure(tmp_path):
    path = tmp_path / "x.ssf"
    write_container(path, sample_objects()[0])
    blob = bytearray(path.read_bytes())
    header_len = int.from_bytes(blob[8:12], "little")
    blob[12 + header_len + 5] ^= 0x01  # flip a payload bit, not header
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        read_container(path)


def test_container_trailing_garbage(tmp_path):
    path = tmp_path / "x.ssf"
    write_container(path, sample_objects()[0])
    path.write_bytes(path.read_bytes() + b"extra")
    with pytest.raises(ContainerError, match="trailing"):
        read_container(path)


def test_container_rejects_unknown_type():
    with pytest.raises(TypeError, match="serialize"):
        write_container("/tmp/never-written.ssf", object())


def test_container_errors_share_a_base():
    for cls in (BadMagicError, VersionError, TruncatedError, ChecksumError):
        assert issubclass(cls, ContainerError)


def test_table_payload_is_the_concatenated_blocks(tmp_path):
    # tables are written block by block with a chained checksum; the file
    # must hold exactly the concatenated payload and its one-shot CRC
    tables = build_tables(5)
    path = tmp_path / "tables.ssf"
    write_container(path, tables)
    blob = path.read_bytes()
    payload = np.concatenate([tables.weights] + [d.ravel() for d in tables.d])
    raw = payload.astype("<f8").tobytes()
    assert blob[-8 - len(raw) : -8] == raw
    assert int.from_bytes(blob[-8:], "little") == crc64(raw)
