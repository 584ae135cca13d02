"""Generalized Fourier transforms on the sphere and the rotation group.

Signals are real sample arrays on the equiangular grids of :mod:`.grids`;
spectra hold one complex block per degree ``l = 0..b-1``: a ``(2l+1,)``
vector on the sphere, a ``(2l+1, 2l+1)`` matrix on the rotation group
(indexed ``[m+l, n+l]``).  The analysis/synthesis pair is::

    fhat^l_mn = integral f(R) conj(D^l_mn(R)) dR
    f(R)      = sum_l (2l+1) sum_mn fhat^l_mn D^l_mn(R)

with the normalised Haar measure (and the ``n = 0`` column convention on the
sphere, where the basis functions are ``Y^l_m``).  For real inputs the
coefficients obey ``fhat^l_{-m,-n} = (-1)^(m-n) conj(fhat^l_{mn})``.

Each transform has two implementations with identical results:

* the fast path: an FFT over the equispaced alpha (and gamma) axes followed
  by a per-degree contraction over colatitude rings against precomputed
  Wigner-d tables;
* the direct path (``*_dft_*``): explicit weighted sums of the samples
  against the sampled basis functions, ring by ring, with no FFT anywhere.
  For small grids this is competitive; it shares nothing with the fast path
  beyond the sampled-basis tables.

Inverse transforms synthesise a complex array and then drop the imaginary
part.  The discarded residue is recorded on the returned signal; a residue
above ``IMAG_RESIDUE_TOL`` (relative to the signal scale) raises
:class:`GuardError` instead of being silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grids import angle_samples, validate_bandwidth
from .harmonics import WignerTables, cached_tables

__all__ = [
    "GuardError",
    "IMAG_RESIDUE_TOL",
    "S2Signal",
    "S2Spectrum",
    "SO3Signal",
    "SO3Spectrum",
    "bandlimit_s2",
    "bandlimit_so3",
    "lift_s2_to_so3",
    "s2_coefficient_count",
    "s2_dft_forward",
    "s2_dft_inverse",
    "s2_fft_forward",
    "s2_fft_inverse",
    "so3_coefficient_count",
    "so3_dft_forward",
    "so3_dft_inverse",
    "so3_fft_forward",
    "so3_fft_inverse",
]

IMAG_RESIDUE_TOL = 1e-6


class GuardError(Exception):
    """A numerical sanity check tripped (e.g. large imaginary residue)."""


def s2_coefficient_count(bandwidth: int) -> int:
    """Coefficients per channel on the sphere: ``sum_{l<b} (2l+1) = b**2``."""
    b = validate_bandwidth(bandwidth)
    return b * b


def so3_coefficient_count(bandwidth: int) -> int:
    """Coefficients per channel on the rotation group:
    ``sum_{l<b} (2l+1)**2 = b(2b-1)(2b+1)/3``."""
    b = validate_bandwidth(bandwidth)
    return b * (2 * b - 1) * (2 * b + 1) // 3


def _normalize_samples(samples, trailing: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(samples, dtype=np.float64)
    if arr.ndim == len(trailing):
        arr = arr[None]
    if arr.ndim != len(trailing) + 1 or arr.shape[1:] != trailing:
        raise ValueError(
            f"expected samples shaped (channels,) + {trailing}, got {arr.shape}"
        )
    if arr.shape[0] < 1:
        raise ValueError("signal needs at least one channel")
    if not np.all(np.isfinite(arr)):
        raise ValueError("samples contain non-finite values")
    return np.ascontiguousarray(arr)


@dataclass(eq=False)
class S2Signal:
    """Real samples on the 2b x 2b sphere grid, ``[channel, beta, alpha]``."""

    bandwidth: int
    samples: np.ndarray
    imag_residue: float = field(default=0.0, compare=False)

    def __post_init__(self):
        b = validate_bandwidth(self.bandwidth)
        self.samples = _normalize_samples(self.samples, (2 * b, 2 * b))

    @property
    def channels(self) -> int:
        return self.samples.shape[0]


@dataclass(eq=False)
class SO3Signal:
    """Real samples on the 2b^3 rotation grid, ``[channel, beta, alpha, gamma]``."""

    bandwidth: int
    samples: np.ndarray
    imag_residue: float = field(default=0.0, compare=False)

    def __post_init__(self):
        b = validate_bandwidth(self.bandwidth)
        self.samples = _normalize_samples(self.samples, (2 * b, 2 * b, 2 * b))

    @property
    def channels(self) -> int:
        return self.samples.shape[0]


class _SpectrumBase:
    """Per-degree blocks stored in one contiguous ``(channels, count)``
    buffer, degree-ascending; block views index into it without copying."""

    def __init__(self, bandwidth: int, data: np.ndarray):
        b = validate_bandwidth(bandwidth)
        data = np.asarray(data, dtype=np.complex128)
        count = self._count(b)
        if data.ndim == 1:
            data = data[None]
        if data.ndim != 2 or data.shape[1] != count:
            raise ValueError(
                f"expected data shaped (channels, {count}), got {data.shape}"
            )
        if data.shape[0] < 1:
            raise ValueError("spectrum needs at least one channel")
        self.bandwidth = b
        self.data = np.ascontiguousarray(data)

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @classmethod
    def zeros(cls, bandwidth: int, channels: int = 1):
        b = validate_bandwidth(bandwidth)
        if channels < 1:
            raise ValueError("channels must be >= 1")
        return cls(b, np.zeros((channels, cls._count(b)), dtype=np.complex128))

    def copy(self):
        return type(self)(self.bandwidth, self.data.copy())

    def truncated(self, bandwidth_out: int):
        """Drop every degree >= bandwidth_out (blocks are an ascending
        prefix of the buffer, so this is a plain slice)."""
        b_out = validate_bandwidth(bandwidth_out)
        if b_out > self.bandwidth:
            raise ValueError(
                f"cannot truncate bandwidth {self.bandwidth} up to {b_out}"
            )
        return type(self)(b_out, self.data[:, : self._count(b_out)].copy())

    def weighted_energy(self) -> np.ndarray:
        """Per-channel ``sum_l (2l+1) * ||block_l||_F^2`` (the quadrature
        squared L2 norm of the synthesised signal, by Parseval)."""
        out = np.zeros(self.channels)
        for l in range(self.bandwidth):
            blk = self.blocks(l).reshape(self.channels, -1)
            out += (2 * l + 1) * np.sum(np.abs(blk) ** 2, axis=1)
        return out


class S2Spectrum(_SpectrumBase):
    @staticmethod
    def _count(bandwidth: int) -> int:
        return s2_coefficient_count(bandwidth)

    def blocks(self, degree: int) -> np.ndarray:
        """View of degree ``degree`` across channels, shape ``(K, 2l+1)``."""
        l = degree
        return self.data[:, l * l : (l + 1) * (l + 1)]

    def block(self, channel: int, degree: int) -> np.ndarray:
        return self.blocks(degree)[channel]


class SO3Spectrum(_SpectrumBase):
    @staticmethod
    def _count(bandwidth: int) -> int:
        return so3_coefficient_count(bandwidth)

    def blocks(self, degree: int) -> np.ndarray:
        """View of degree ``degree`` across channels, ``(K, 2l+1, 2l+1)``."""
        l = degree
        off = l * (2 * l - 1) * (2 * l + 1) // 3
        n = 2 * l + 1
        return self.data[:, off : off + n * n].reshape(self.channels, n, n)

    def block(self, channel: int, degree: int) -> np.ndarray:
        return self.blocks(degree)[channel]


def _resolve_tables(bandwidth: int, tables: WignerTables | None) -> WignerTables:
    if tables is None:
        return cached_tables(bandwidth)
    if tables.bandwidth != bandwidth:
        raise ValueError(
            f"tables built for bandwidth {tables.bandwidth}, "
            f"data has bandwidth {bandwidth}"
        )
    return tables


def _fft_order(bandwidth: int) -> np.ndarray:
    # positions of frequencies -(b-1)..(b-1) in FFT layout of length 2b
    return np.arange(-(bandwidth - 1), bandwidth) % (2 * bandwidth)


def _degree_slice(bandwidth: int, degree: int) -> slice:
    # frequencies -l..l inside the centered axis of length 2b-1
    return slice(bandwidth - 1 - degree, bandwidth + degree)


def _check_spectrum(spectrum) -> None:
    if not np.all(np.isfinite(spectrum.data)):
        raise ValueError("spectrum contains non-finite coefficients")


def _realized(values: np.ndarray) -> tuple[np.ndarray, float]:
    scale = max(1.0, float(np.max(np.abs(values.real))))
    residue = float(np.max(np.abs(values.imag))) / scale
    if residue > IMAG_RESIDUE_TOL:
        raise GuardError(
            f"imaginary residue {residue:.3e} after inverse transform "
            f"exceeds {IMAG_RESIDUE_TOL:.0e}; spectrum violates the "
            "real-signal symmetry"
        )
    return np.ascontiguousarray(values.real), residue


# ---------------------------------------------------------------------------
# fast paths: FFT over alpha/gamma, table contraction over beta
# ---------------------------------------------------------------------------

def s2_fft_forward(signal: S2Signal, tables: WignerTables | None = None) -> S2Spectrum:
    b = signal.bandwidth
    t = _resolve_tables(b, tables)
    # ifft supplies the 1/(2b) azimuth average together with e^{+im alpha}
    fc = np.fft.ifft(signal.samples, axis=2)[:, :, _fft_order(b)]
    out = S2Spectrum.zeros(b, signal.channels)
    for l in range(b):
        sl = _degree_slice(b, l)
        col = t.d[l][:, :, l]  # d^l_{m0} at the ring colatitudes
        out.blocks(l)[:] = np.einsum(
            "j,jm,kjm->km", t.weights, col, fc[:, :, sl], optimize=True
        )
    return out


def s2_fft_inverse(spectrum: S2Spectrum, tables: WignerTables | None = None) -> S2Signal:
    b = spectrum.bandwidth
    t = _resolve_tables(b, tables)
    _check_spectrum(spectrum)
    k = spectrum.channels
    gc = np.zeros((k, 2 * b, 2 * b - 1), dtype=np.complex128)
    for l in range(b):
        sl = _degree_slice(b, l)
        col = t.d[l][:, :, l]
        gc[:, :, sl] += (2 * l + 1) * np.einsum(
            "jm,km->kjm", col, spectrum.blocks(l), optimize=True
        )
    g = np.zeros((k, 2 * b, 2 * b), dtype=np.complex128)
    g[:, :, _fft_order(b)] = gc
    values, residue = _realized(np.fft.fft(g, axis=2))
    return S2Signal(b, values, imag_residue=residue)


def so3_fft_forward(signal: SO3Signal, tables: WignerTables | None = None) -> SO3Spectrum:
    b = signal.bandwidth
    t = _resolve_tables(b, tables)
    # fftshift puts frequency f at index f + b; dropping index 0 (f = -b)
    # leaves the centered axis -(b-1)..(b-1)
    fc = np.fft.fftshift(
        np.fft.ifft2(signal.samples, axes=(2, 3)), axes=(2, 3)
    )[:, :, 1:, 1:]
    out = SO3Spectrum.zeros(b, signal.channels)
    for l in range(b):
        sl = _degree_slice(b, l)
        # one strided pass; optimize=True would route this through batched
        # matmuls with a transposed copy of the slice per degree
        out.blocks(l)[:] = np.einsum(
            "jmn,kjmn->kmn", t.weights[:, None, None] * t.d[l], fc[:, :, sl, sl]
        )
    return out


def so3_fft_inverse(spectrum: SO3Spectrum, tables: WignerTables | None = None) -> SO3Signal:
    b = spectrum.bandwidth
    t = _resolve_tables(b, tables)
    _check_spectrum(spectrum)
    k = spectrum.channels
    # centered layout: frequency f at index f + b, the f = -b row and
    # column left zero; ifftshift turns it into FFT layout
    g = np.zeros((k, 2 * b, 2 * b, 2 * b), dtype=np.complex128)
    gc = g[:, :, 1:, 1:]
    for l in range(b):
        sl = _degree_slice(b, l)
        gc[:, :, sl, sl] += t.d[l] * ((2 * l + 1) * spectrum.blocks(l))[:, None]
    g = np.fft.ifftshift(g, axes=(2, 3))
    values, residue = _realized(np.fft.fft2(g, axes=(2, 3)))
    return SO3Signal(b, values, imag_residue=residue)


# ---------------------------------------------------------------------------
# direct paths: dense sums against sampled basis functions, no FFT
# ---------------------------------------------------------------------------

def _dft_phases(bandwidth: int) -> np.ndarray:
    # E[i, m+b-1] = exp(+i m alpha_i), the sampled azimuth basis
    m = np.arange(-(bandwidth - 1), bandwidth)
    return np.exp(1j * np.outer(angle_samples(bandwidth), m))


def s2_dft_forward(signal: S2Signal, tables: WignerTables | None = None) -> S2Spectrum:
    b = signal.bandwidth
    t = _resolve_tables(b, tables)
    e = _dft_phases(b)
    w = t.weights / (2 * b)
    out = S2Spectrum.zeros(b, signal.channels)
    for j in range(2 * b):
        ring = signal.samples[:, j] @ e  # (K, 2b-1), sums over the ring
        for l in range(b):
            sl = _degree_slice(b, l)
            blk = out.blocks(l)
            blk += w[j] * t.d[l][j, :, l] * ring[:, sl]
    return out


def s2_dft_inverse(spectrum: S2Spectrum, tables: WignerTables | None = None) -> S2Signal:
    b = spectrum.bandwidth
    t = _resolve_tables(b, tables)
    _check_spectrum(spectrum)
    k = spectrum.channels
    e_conj = _dft_phases(b).conj()
    values = np.empty((k, 2 * b, 2 * b), dtype=np.complex128)
    for j in range(2 * b):
        acc = np.zeros((k, 2 * b - 1), dtype=np.complex128)
        for l in range(b):
            sl = _degree_slice(b, l)
            acc[:, sl] += (2 * l + 1) * t.d[l][j, :, l] * spectrum.blocks(l)
        values[:, j] = acc @ e_conj.T
    real, residue = _realized(values)
    return S2Signal(b, real, imag_residue=residue)


def so3_dft_forward(signal: SO3Signal, tables: WignerTables | None = None) -> SO3Spectrum:
    b = signal.bandwidth
    t = _resolve_tables(b, tables)
    e = _dft_phases(b)
    w = t.weights / (2 * b) ** 2
    out = SO3Spectrum.zeros(b, signal.channels)
    for j in range(2 * b):
        ring = np.einsum("im,cik,kn->cmn", e, signal.samples[:, j], e, optimize=True)
        for l in range(b):
            sl = _degree_slice(b, l)
            blk = out.blocks(l)
            blk += w[j] * t.d[l][j] * ring[:, sl, sl]
    return out


def so3_dft_inverse(spectrum: SO3Spectrum, tables: WignerTables | None = None) -> SO3Signal:
    b = spectrum.bandwidth
    t = _resolve_tables(b, tables)
    _check_spectrum(spectrum)
    k = spectrum.channels
    e_conj = _dft_phases(b).conj()
    values = np.empty((k, 2 * b, 2 * b, 2 * b), dtype=np.complex128)
    for j in range(2 * b):
        acc = np.zeros((k, 2 * b - 1, 2 * b - 1), dtype=np.complex128)
        for l in range(b):
            sl = _degree_slice(b, l)
            acc[:, sl, sl] += (2 * l + 1) * t.d[l][j] * spectrum.blocks(l)
        values[:, j] = np.einsum("cmn,im,kn->cik", acc, e_conj, e_conj, optimize=True)
    real, residue = _realized(values)
    return SO3Signal(b, real, imag_residue=residue)


# ---------------------------------------------------------------------------
# misc structure ops
# ---------------------------------------------------------------------------

def lift_s2_to_so3(signal: S2Signal) -> SO3Signal:
    """Constant extension along gamma: ``fbar(alpha, beta, gamma) =
    f(alpha, beta)``.  Its transform lives in the ``n = 0`` column only."""
    n = 2 * signal.bandwidth
    samples = np.broadcast_to(
        signal.samples[:, :, :, None], signal.samples.shape + (n,)
    )
    return SO3Signal(signal.bandwidth, np.ascontiguousarray(samples))


def bandlimit_s2(signal: S2Signal, tables: WignerTables | None = None) -> S2Signal:
    """Project onto the bandlimited subspace (forward then inverse)."""
    return s2_fft_inverse(s2_fft_forward(signal, tables), tables)


def bandlimit_so3(signal: SO3Signal, tables: WignerTables | None = None) -> SO3Signal:
    """Project onto the bandlimited subspace (forward then inverse)."""
    return so3_fft_inverse(so3_fft_forward(signal, tables), tables)
