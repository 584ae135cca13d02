"""Signal ingestion and the SSF1 container format.

Ingestion covers two sources: grayscale images pushed onto the northern
hemisphere by inverse stereographic projection, and per-charge Coulomb
potential channels sampled on a sphere around one atom of a molecule.

The container is deliberately dull: a magic string, a version, a JSON
header, a raw little-endian payload, and a trailing CRC-64 so corruption
is loud.  Every object round-trips bitwise.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .gft import (
    S2Signal,
    S2Spectrum,
    SO3Signal,
    SO3Spectrum,
    so3_coefficient_count,
)
from .grids import make_s2_grid, sphere_to_cartesian, validate_bandwidth
from .harmonics import WignerTables

__all__ = [
    "BadMagicError",
    "ChecksumError",
    "ContainerError",
    "MoleculeSpec",
    "PlanarImage",
    "TruncatedError",
    "VersionError",
    "crc64",
    "default_radius",
    "molecule_channels",
    "project_image",
    "read_container",
    "read_container_header",
    "read_molecule",
    "read_pgm",
    "write_container",
]

MOLECULE_BANDWIDTH_DEFAULT = 10
SINGULAR_DISTANCE = 1e-9

# ---------------------------------------------------------------------------
# planar images


@dataclass(frozen=True)
class PlanarImage:
    """Grayscale raster with values in [0, 1]; row 0 is the top."""

    values: np.ndarray  # (height, width) float64

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"image must be 2-D and non-empty, got {values.shape}")
        if not np.all(np.isfinite(values)):
            raise ValueError("image has non-finite pixels")
        if values.min() < 0.0 or values.max() > 1.0:
            raise ValueError("pixel values must lie in [0, 1]")
        object.__setattr__(self, "values", values)

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]


def _pgm_tokens(data: bytes):
    """Yield whitespace-separated header tokens, skipping # comments."""
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


def read_pgm(path) -> PlanarImage:
    """Load a portable graymap, either ASCII (P2) or binary (P5)."""
    with open(path, "rb") as fh:
        data = fh.read()

    tokens = _pgm_tokens(data)
    try:
        magic, _ = next(tokens)
    except StopIteration:
        raise ValueError(f"{path}: empty graymap") from None
    if magic not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a P2/P5 graymap (magic {magic!r})")
    try:
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, after = next(tokens)
        width, height, maxval = int(width), int(height), int(maxval)
    except (StopIteration, ValueError):
        raise ValueError(f"{path}: malformed graymap header") from None
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: bad graymap dimensions")

    count = width * height
    if magic == b"P2":
        flat = []
        for token, _ in tokens:
            flat.append(int(token))
            if len(flat) == count:
                break
        if len(flat) < count:
            raise ValueError(f"{path}: graymap raster ends early")
        raster = np.array(flat, dtype=np.float64)
    else:
        # single whitespace byte separates the header from the raster
        offset = after + 1
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
        need = count * dtype.itemsize
        raw = data[offset : offset + need]
        if len(raw) < need:
            raise ValueError(f"{path}: graymap raster ends early")
        raster = np.frombuffer(raw, dtype=dtype).astype(np.float64)
    return PlanarImage(raster.reshape(height, width) / maxval)


_SQUARE_HALF = math.sqrt(2.0)  # image square inscribed in the equator disk


def project_image(image: PlanarImage, bandwidth: int) -> S2Signal:
    """Wrap a flat image onto the northern hemisphere.

    The plane touches the sphere at the north pole and points are pulled
    back along rays through the south pole, so the equator maps to the
    radius-2 circle; the image square is scaled to sit inside it, which
    keeps every nonzero sample strictly north of the equator.  Grid points
    that land outside the image are zero; inside, pixels are sampled
    bilinearly.
    """
    validate_bandwidth(bandwidth)
    grid = make_s2_grid(bandwidth)
    av, bv = np.meshgrid(grid.alphas, grid.betas)
    x, y, z = np.moveaxis(sphere_to_cartesian(av, bv), -1, 0)
    # projection from the south pole onto the z = 1 tangent plane
    u = 2.0 * x / (1.0 + z)
    v = 2.0 * y / (1.0 + z)

    # continuous pixel coordinates; (u, v) = (0, 0) is the image center
    col = (u + _SQUARE_HALF) / (2.0 * _SQUARE_HALF) * image.width - 0.5
    row = (_SQUARE_HALF - v) / (2.0 * _SQUARE_HALF) * image.height - 0.5

    c0 = np.floor(col).astype(np.int64)
    r0 = np.floor(row).astype(np.int64)
    fc = col - c0
    fr = row - r0

    values = np.zeros_like(u)
    for dr, dc, weight in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        inside = (rr >= 0) & (rr < image.height) & (cc >= 0) & (cc < image.width)
        values[inside] += (
            weight[inside] * image.values[rr[inside], cc[inside]]
        )
    return S2Signal(bandwidth, values[None])


# ---------------------------------------------------------------------------
# molecules


@dataclass(frozen=True)
class MoleculeSpec:
    """Atom positions and charges plus the sampling-sphere radius."""

    positions: np.ndarray  # (N, 3)
    charges: np.ndarray  # (N,) positive
    radius: float

    def __post_init__(self) -> None:
        positions = np.asarray(self.positions, dtype=np.float64)
        charges = np.asarray(self.charges, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] < 1:
            raise ValueError(f"positions must be (N, 3) with N >= 1, got {positions.shape}")
        if charges.shape != (positions.shape[0],):
            raise ValueError("one charge per atom required")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        if np.any(charges <= 0) or not np.all(np.isfinite(charges)):
            raise ValueError("charges must be positive and finite")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be positive, got {self.radius}")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "charges", charges)

    @property
    def atom_count(self) -> int:
        return self.positions.shape[0]

    @property
    def charge_types(self) -> np.ndarray:
        """Distinct charges, ascending; one signal channel per entry."""
        return np.unique(self.charges)


def default_radius(positions: np.ndarray) -> float:
    """A sphere radius that keeps per-atom spheres from touching: just
    under half the minimum interatomic distance."""
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[0] < 2:
        return 1.0
    diffs = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=-1))
    np.fill_diagonal(dist, np.inf)
    return 0.45 * float(dist.min())


def read_molecule(path, radius: float | None = None) -> MoleculeSpec:
    """Parse an atom-per-line text file: ``charge x y z``."""
    charges = []
    positions = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 4:
                raise ValueError(
                    f"{path}:{lineno}: expected 'charge x y z', got {stripped!r}"
                )
            try:
                z, px, py, pz = (float(p) for p in parts)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric field") from None
            charges.append(z)
            positions.append((px, py, pz))
    if not charges:
        raise ValueError(f"{path}: no atoms found")
    positions = np.array(positions)
    if radius is None:
        radius = default_radius(positions)
    return MoleculeSpec(positions, np.array(charges), radius)


def molecule_channels(
    molecule: MoleculeSpec,
    center: int,
    bandwidth: int = MOLECULE_BANDWIDTH_DEFAULT,
) -> S2Signal:
    """Coulomb-style potential channels on a sphere around one atom.

    Channel t (one per distinct charge z, ascending) holds, at sphere
    point x, the sum over other atoms j with charge z of
    ``z_center * z / |x_world - p_j|`` where x_world lies on the sphere of
    the configured radius centered on the chosen atom.  Translating the
    whole molecule changes nothing; rotating it about the center atom
    rotates the signal.
    """
    validate_bandwidth(bandwidth)
    if not 0 <= center < molecule.atom_count:
        raise ValueError(
            f"center atom {center} out of range 0..{molecule.atom_count - 1}"
        )
    grid = make_s2_grid(bandwidth)
    av, bv = np.meshgrid(grid.alphas, grid.betas)
    points = (
        molecule.positions[center]
        + molecule.radius * sphere_to_cartesian(av, bv)
    )  # (2b, 2b, 3)

    types = molecule.charge_types
    z_center = molecule.charges[center]
    out = np.zeros((types.size,) + av.shape)
    for j in range(molecule.atom_count):
        if j == center:
            continue
        dist = np.sqrt(((points - molecule.positions[j]) ** 2).sum(axis=-1))
        nearest = float(dist.min())
        if nearest < SINGULAR_DISTANCE:
            raise ValueError(
                f"singular potential: atom {j} is {nearest:.3e} from a "
                f"sphere sample point"
            )
        channel = int(np.searchsorted(types, molecule.charges[j]))
        out[channel] += z_center * molecule.charges[j] / dist
    return S2Signal(bandwidth, out)


# ---------------------------------------------------------------------------
# CRC-64 (the xz variant: reflected 0xC96C5795D7870F42, init/xorout all-ones)
#
# The register update is linear over GF(2), so the payload is checksummed
# as many word-interleaved lanes in lockstep, and the lane registers are
# then summed, each first shifted over the bytes that follow it.  Shifting
# a register over zero bytes is a 64x64 bit matrix, stored as eight
# 256-entry tables indexed by the register's bytes (least significant
# first); the slicing-by-8 tables are the shift over one 8-byte word.


def _crc_tables() -> list[list[int]]:
    poly = 0xC96C5795D7870F42
    first = []
    for i in range(256):
        crc = i
        for _ in range(8):
            crc = (crc >> 1) ^ poly if crc & 1 else crc >> 1
        first.append(crc)
    tables = [first]
    for _ in range(7):
        prev = tables[-1]
        tables.append([first[value & 0xFF] ^ (value >> 8) for value in prev])
    return tables


_CRC_TABLES = _crc_tables()
_CRC_MASK = 0xFFFFFFFFFFFFFFFF
_U64 = np.dtype("<u8")
# 2**13 lanes of one word each: a step's temporaries are 64 KB and stay in
# cache.  2**14 lanes ran slower and raised peak memory (their 128 KB
# temporaries sit at glibc's default mmap threshold).
_CRC_LANES_LOG2 = 13


def _crc_shift(op: np.ndarray, registers: np.ndarray) -> np.ndarray:
    """Apply a zero-byte shift operator (8, 256) to each 64-bit register."""
    octets = np.ascontiguousarray(registers, dtype=_U64).view(np.uint8)
    octets = octets.reshape(-1, 8)
    out = op[0].take(octets[:, 0])
    for k in range(1, 8):
        out ^= op[k].take(octets[:, k])
    return out


@functools.cache
def _crc_shift_words(log2_words: int) -> np.ndarray:
    """The operator shifting a register over ``2**log2_words`` zero words,
    by repeated squaring of the slicing-by-8 tables."""
    if log2_words == 0:
        op = np.array(_CRC_TABLES[::-1], dtype=_U64)
    else:
        half = _crc_shift_words(log2_words - 1)
        # the registers with one nonzero byte, byte-major: their images
        # under the squared operator are its tables
        shifts = np.arange(8, dtype=_U64)[:, None] * 8
        basis = (np.arange(256, dtype=_U64) << shifts).ravel()
        op = _crc_shift(half, _crc_shift(half, basis)).reshape(8, 256)
    op.flags.writeable = False
    return op


def _crc_fold(registers: np.ndarray) -> int:
    """Combine lane registers r_0..r_{n-1}, lane i holding the words at
    positions i, i + n, ...: the result is sum_i shift^(n - i)(r_i), with
    shift the one-word operator."""
    level = 0
    while registers.size > 1:
        if registers.size % 2:
            # a zero register in front shifts to zero and moves no exponent
            registers = np.concatenate([np.zeros(1, _U64), registers])
        registers = (
            _crc_shift(_crc_shift_words(level), registers[0::2])
            ^ registers[1::2]
        )
        level += 1
    return int(_crc_shift(_crc_shift_words(0), registers)[0])


def crc64(data, crc: int = 0) -> int:
    """CRC-64/XZ of a byte buffer; chainable via the crc argument.

    ``data`` is anything exposing a contiguous buffer (bytes, bytearray,
    memoryview, numpy array) and is read in place.
    """
    octets = np.frombuffer(data, dtype=np.uint8)
    spare = octets.size % 8
    words = octets[: octets.size - spare].view(_U64)
    state = crc ^ _CRC_MASK
    # A round gives lane i the words at i, i + lanes, ...: each row shifts
    # every register over one row of words, then adds the row.  Words left
    # over (fewer than the lanes) make a second round of one row.
    while words.size:
        lanes = min(words.size, 1 << _CRC_LANES_LOG2)
        rows = words[: words.size - words.size % lanes].reshape(-1, lanes)
        registers = rows[0].copy()
        registers[0] ^= np.uint64(state)
        for row in rows[1:]:
            registers = _crc_shift(_crc_shift_words(_CRC_LANES_LOG2), registers)
            registers ^= row
        state = _crc_fold(registers)
        words = words[rows.size :]
    if spare:
        # byte j of the last partial word still passes spare - 1 - j bytes
        state ^= int.from_bytes(octets[-spare:].tobytes(), "little")
        shifted = state >> (8 * spare)
        for j in range(spare):
            shifted ^= _CRC_TABLES[spare - 1 - j][(state >> (8 * j)) & 0xFF]
        state = shifted
    return state ^ _CRC_MASK


# ---------------------------------------------------------------------------
# SSF1 container


class ContainerError(Exception):
    """Malformed or unreadable SSF1 file."""


class BadMagicError(ContainerError):
    pass


class VersionError(ContainerError):
    pass


class TruncatedError(ContainerError):
    pass


class ChecksumError(ContainerError):
    pass


_MAGIC = b"SSF1"
_VERSION = 1

_SPECTRUM_LAYOUT = "channel-major degree-ascending blocks, re/im interleaved"

# container type -> (object type, payload dtype, layout).  Apart from the
# tables, an "f64" payload is a signal's samples and a "c128" payload a
# spectrum's coefficients.
_KINDS = {
    "s2": (S2Signal, "f64", "channel-beta-alpha"),
    "so3": (SO3Signal, "f64", "channel-beta-alpha-gamma"),
    "s2spec": (S2Spectrum, "c128", _SPECTRUM_LAYOUT),
    "so3spec": (SO3Spectrum, "c128", _SPECTRUM_LAYOUT),
    "wigner-tables": (WignerTables, "f64", "ring weights then degree-ascending d blocks"),
}
_ELEMENTS = {"f64": np.dtype("<f8"), "c128": np.dtype("<c16")}


def _payload_spec(kind: str, bandwidth: int, channels: int):
    """(object type, dtype string, payload shape) for each container type."""
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ContainerError(f"unknown container type {kind!r}")
    cls, dtype, _ = _KINDS[kind]
    n = 2 * bandwidth
    if cls is WignerTables:
        # the ring weights, then one (2l+1)^2 block per ring and degree
        return cls, dtype, (n * (1 + so3_coefficient_count(bandwidth)),)
    if dtype == "f64":
        return cls, dtype, (channels,) + (n,) * cls._axes
    return cls, dtype, (channels, cls._count(bandwidth))


def _object_parts(obj):
    """(kind, bandwidth, channels, arrays): the payload is the arrays'
    elements in order."""
    if isinstance(obj, WignerTables):
        if obj.columns != "all":
            raise ValueError("n = 0 column tables have no container layout")
        return "wigner-tables", obj.bandwidth, 0, [obj.weights, *obj.d]
    for kind, (cls, dtype, _) in _KINDS.items():
        if isinstance(obj, cls):
            array = obj.samples if dtype == "f64" else obj.data
            return kind, obj.bandwidth, obj.channels, [array]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_container(path, obj) -> None:
    """Serialize a signal, spectrum, or table set; see read_container."""
    kind, bandwidth, channels, arrays = _object_parts(obj)
    _, dtype, shape = _payload_spec(kind, bandwidth, channels)
    element = _ELEMENTS[dtype]
    parts = [
        np.ascontiguousarray(array, dtype=element).reshape(-1).view(np.uint8)
        for array in arrays
    ]
    assert sum(part.size for part in parts) == math.prod(shape) * element.itemsize

    header = json.dumps(
        {
            "type": kind,
            "bandwidth": bandwidth,
            "channels": channels,
            "dtype": dtype,
            "layout": _KINDS[kind][2],
        },
        sort_keys=True,
    ).encode("utf-8")

    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        crc = 0
        for part in parts:
            fh.write(part)
            crc = crc64(part, crc)
        fh.write(struct.pack("<Q", crc))


def _read_header(fh, path) -> tuple[dict, int]:
    """Read and validate the fixed and JSON headers at the start of ``fh``;
    return (header dict, payload offset)."""
    fixed = fh.read(12)
    if len(fixed) < 12:
        raise TruncatedError(f"{path}: shorter than the fixed header")
    if fixed[:4] != _MAGIC:
        raise BadMagicError(f"{path}: bad magic {fixed[:4]!r}")
    version, header_len = struct.unpack("<II", fixed[4:12])
    if version != _VERSION:
        raise VersionError(f"{path}: format version {version}, expected {_VERSION}")
    raw = fh.read(header_len)
    if len(raw) < header_len:
        raise TruncatedError(f"{path}: header ends early")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: unparseable header: {exc}") from None
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is not a JSON object")
    for key in ("type", "bandwidth", "channels", "dtype", "layout"):
        if key not in header:
            raise ContainerError(f"{path}: header missing {key!r}")
    return header, 12 + header_len


def read_container_header(path) -> dict:
    """Parse and validate just the JSON header."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[0]


def read_container(path):
    """Load whatever write_container stored, verifying the checksum."""
    with open(path, "rb") as fh:
        header, offset = _read_header(fh, path)
        kind = header["type"]
        bandwidth = header["bandwidth"]
        channels = header["channels"]
        try:
            bandwidth = validate_bandwidth(bandwidth)
        except (TypeError, ValueError):
            raise ContainerError(f"{path}: bad bandwidth {bandwidth!r}") from None
        cls, dtype, shape = _payload_spec(kind, bandwidth, channels)
        # tables carry no channels (exactly 0); every other kind needs at least one
        tables = cls is WignerTables
        if type(channels) is not int or channels < 0 or (channels == 0) != tables:
            raise ContainerError(f"{path}: bad channel count {channels!r}")
        if header["dtype"] != dtype:
            raise ContainerError(
                f"{path}: dtype {header['dtype']!r} does not match type {kind!r}"
            )
        count = math.prod(shape)
        size = count * _ELEMENTS[dtype].itemsize

        # sizes are checked against the file before the payload is
        # allocated, so a header claiming a huge object fails cheaply
        file_size = os.fstat(fh.fileno()).st_size
        if file_size < offset + size:
            raise TruncatedError(f"{path}: payload ends early")
        if file_size < offset + size + 8:
            raise TruncatedError(f"{path}: checksum missing")
        if file_size > offset + size + 8:
            raise ContainerError(f"{path}: trailing bytes after checksum")
        # the payload is read once, straight into the returned arrays
        flat = np.empty(count, dtype=_ELEMENTS[dtype])
        got = fh.readinto(flat.view(np.uint8))
        tail = fh.read(8)
    if got != size or len(tail) != 8:
        raise TruncatedError(f"{path}: file shrank while being read")
    (stored,) = struct.unpack("<Q", tail)
    actual = crc64(flat)
    if stored != actual:
        raise ChecksumError(
            f"{path}: checksum {actual:#018x} != stored {stored:#018x}"
        )

    if cls is not WignerTables:
        return cls(bandwidth, flat.reshape(shape))
    n = 2 * bandwidth
    # the table blocks are views of the one payload buffer
    blocks = []
    pos = n
    for l in range(bandwidth):
        width = 2 * l + 1
        blocks.append(flat[pos : pos + width * width * n].reshape(n, width, width))
        pos += width * width * n
    return WignerTables(bandwidth, blocks, flat[:n])
