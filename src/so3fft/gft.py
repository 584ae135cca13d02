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

* the fast path, one engine for both domains: a DFT over the equispaced
  alpha and gamma axes, then the colatitude sums as real matrix products,
  a few per shell ``s = max(m, |n|)``, whose pairs ``(m, n)`` all cover the
  degrees ``l = s..b-1``; they read the half shell rows of the Wigner-d
  tables that ``WignerTables.shells`` caches.  A sphere signal is the
  rotation grid with a single gamma sample, whose only column is ``n = 0``
  (``Y^l_m = D^l_m0``), so by default it reads the n = 0 column tables
  (``cached_tables(b, "zero")``); full tables passed in also serve.
  Along alpha it is a real product with a cached DFT matrix at the rows m
  it keeps, along gamma an FFT in place, with column n at index ``n mod G``
  where the FFT leaves it.  Each forward GEMM reads a weighted copy of its
  part (on the sphere one copy serves every shell), and the inverse's GEMM
  grid is copied out once.  A fast forward given ``bandwidth_out`` < b
  analyses only the degrees below it, all that a correlation at that
  output bandwidth reads: the alpha rows m < ``bandwidth_out`` and the
  shells s < ``bandwidth_out`` up to degree ``bandwidth_out - 1``.  At
  ``bandwidth_out`` = b it is the full forward, bit for bit;
* the direct path (``*_dft_*``), one engine for both domains in the same
  way: explicit weighted sums of the samples against the sampled basis
  functions, ring by ring, with no FFT anywhere.
  For small grids this is competitive; its sums share nothing with the fast
  path beyond the sampled-basis tables, and its forward is also the
  oracle's projection (:mod:`.oracle`).

The fast path analyses and synthesises only the rows ``m >= 0``: its
forward writes the rows ``m < 0`` by the symmetry above, and its inverse
reads them as conjugates and drops Im F_0, as ``irfft`` would.  Both
inverses, fast and direct, run one guard before synthesis: it records the
largest coefficient of the spectrum's anti-Hermitian half, relative to
``max(1, max |coefficient|)``, as ``imag_residue``, comparing the rows
``m >= 0`` with their mirrors, as the defect at (l, -m, -n) equals that
at (l, m, n), so the residue is the whole spectrum's and the same on both
paths.  The guard and both fast directions read one cached index map,
``_shell_order``.  A residue above ``IMAG_RESIDUE_TOL`` raises
:class:`GuardError`; below it the direct inverse keeps the real part of
its sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .grids import _checked_int, _frozen, angle_samples, validate_bandwidth
from .harmonics import WignerTables, _phases, cached_tables

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
    return S2Spectrum._count(validate_bandwidth(bandwidth))


def so3_coefficient_count(bandwidth: int) -> int:
    """Coefficients per channel on the rotation group:
    ``sum_{l<b} (2l+1)**2 = b(4b**2-1)/3``."""
    return SO3Spectrum._count(validate_bandwidth(bandwidth))


def _channel_array(values, dtype, trailing: tuple, name: str) -> np.ndarray:
    """``values`` as a contiguous ``(channels,) + trailing`` array of
    ``dtype`` with at least one channel; a missing channel axis is added."""
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim == len(trailing):
        arr = arr[None]
    if arr.ndim != len(trailing) + 1 or arr.shape[1:] != trailing:
        raise ValueError(
            f"expected {name} shaped (channels,) + {trailing}, got {arr.shape}"
        )
    if arr.shape[0] < 1:
        raise ValueError(f"{name} must hold at least one channel")
    return np.ascontiguousarray(arr)


@dataclass(eq=False)
class _GridSignal:
    """Real samples on a ``2b``-per-axis grid, ``[channel, beta, alpha, ...]``;
    subclasses differ only in their number of grid axes, ``_axes``."""

    bandwidth: int
    samples: np.ndarray
    imag_residue: float = field(default=0.0, compare=False)

    def __post_init__(self):
        b = validate_bandwidth(self.bandwidth)
        arr = _channel_array(self.samples, np.float64, (2 * b,) * self._axes, "samples")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain non-finite values")
        self.samples = arr

    @property
    def channels(self) -> int:
        return self.samples.shape[0]


class S2Signal(_GridSignal):
    """Real samples on the 2b x 2b sphere grid, ``[channel, beta, alpha]``."""

    _axes = 2


class SO3Signal(_GridSignal):
    """Real samples on the 2b^3 rotation grid, ``[channel, beta, alpha, gamma]``."""

    _axes = 3


class _SpectrumBase:
    """Per-degree blocks stored in one contiguous ``(channels, count)``
    buffer, degree-ascending; block views index into it without copying."""

    def __init__(self, bandwidth: int, data: np.ndarray):
        b = validate_bandwidth(bandwidth)
        self.bandwidth = b
        self.data = _channel_array(data, np.complex128, (self._count(b),), "data")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @classmethod
    def zeros(cls, bandwidth: int, channels: int = 1):
        b = validate_bandwidth(bandwidth)
        channels = _checked_int(channels, "channels", 1)
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

    def blocks(self, degree: int) -> np.ndarray:
        """View of degree ``degree`` across channels, ``(K,) + (2l+1,) * _axes``."""
        if degree not in range(b := self.bandwidth):
            raise IndexError(f"degree {degree} is outside 0..{b - 1} at bandwidth {b}")
        block = self.data[:, self._count(degree) : self._count(degree + 1)]
        return block.reshape(self.channels, *(2 * degree + 1,) * self._axes)

    def block(self, channel: int, degree: int) -> np.ndarray:
        return self.blocks(degree)[channel]

    def columns(self, degree: int) -> np.ndarray:
        """Degree ``degree`` as ``(K, 2l+1, columns)``: every ``n`` on the
        rotation group, the single ``n = 0`` column on the sphere."""
        return self.blocks(degree).reshape(self.channels, 2 * degree + 1, -1)

    def weighted_energy(self) -> np.ndarray:
        """Per-channel ``sum_l (2l+1) * ||block_l||_F^2`` (the quadrature
        squared L2 norm of the synthesised signal, by Parseval)."""
        l = np.arange(self.bandwidth)
        return np.abs(self.data) ** 2 @ np.repeat(2.0 * l + 1, (2 * l + 1) ** self._axes)


class S2Spectrum(_SpectrumBase):
    _axes = 1

    @staticmethod
    def _count(l):
        """Where degree l's block starts (l an int or int array): ``l**2``."""
        return l * l


class SO3Spectrum(_SpectrumBase):
    _axes = 2

    @staticmethod
    def _count(l):
        """Where degree l's block starts (l an int or int array): ``l(4l**2-1)/3``."""
        return l * (4 * l * l - 1) // 3


def _resolve_tables(
    bandwidth: int, tables: WignerTables | None, gammas: int
) -> WignerTables:
    """Tables that hold the columns a grid with ``gammas`` gamma samples
    reads: by default the n = 0 column alone for one sample (the sphere),
    else every column.  Full tables given for the sphere serve as they are."""
    columns = "all" if gammas > 1 else "zero"
    if tables is None:
        return cached_tables(bandwidth, columns)
    if tables.bandwidth != bandwidth:
        raise ValueError(
            f"tables built for bandwidth {tables.bandwidth}, "
            f"data has bandwidth {bandwidth}"
        )
    if columns == "all" and tables.columns != "all":
        raise ValueError(
            "tables hold only the n = 0 column; rotation-group transforms "
            "need every column"
        )
    return tables


def _centered(center: int, half: int) -> slice:
    # frequencies -half..half on an axis holding frequency 0 at ``center``
    return slice(center - half, center + half + 1)


def _guarded(defect, scale, where: str) -> float:
    """``defect / max(1, scale)``, the residue the guard checks."""
    residue = float(defect / max(1.0, scale))
    if residue > IMAG_RESIDUE_TOL:
        raise GuardError(
            f"imaginary residue {residue:.3e} {where} exceeds "
            f"{IMAG_RESIDUE_TOL:.0e}; spectrum violates the real-signal symmetry"
        )
    return residue


# ---------------------------------------------------------------------------
# fast paths: half-spectrum FFT over alpha, shell products over beta
# ---------------------------------------------------------------------------

def _shell_parts(s: int, gammas: int) -> list[tuple]:
    """Each part of shell s = max(m, |n|), m >= 0: the rows of ``shells[s]``
    it reads, whether on the mirrored rings, and its grid index (m, n mod G)."""
    if gammas == 1:  # the sphere's pair (s, 0) reads the row n = 0
        return [(slice(0, 1), False, s, slice(0, 1))]
    return [
        (slice(0, s + 1), False, s, slice(0, s + 1)),
        (slice(s, 0, -1), True, s, slice(gammas - s, gammas)),  # n < 0 reads row -n
        (slice(0, s), False, slice(0, s), s),  # d^l_ms = (-1)^(m-s) d^l_sm
        (slice(0, s), True, slice(0, s), -s),  # d^l_{m,-s} = d^l_{s,-m}
    ]


@lru_cache(maxsize=16)
def _shell_order(bandwidth: int, spectrum_cls) -> tuple[np.ndarray, ...]:
    """The coefficients (l, m >= 0, n) in :func:`_shell_products`' order: their
    packed positions, those of their mirrors (l, -m, -n), the parity
    (-1)^(m-n) of the symmetry, the sign by which each reads its shell row
    and 2l+1."""
    b = bandwidth
    gammas = 2 * b if spectrum_cls is SO3Spectrum else 1
    n = np.fft.fftfreq(gammas, 1 / gammas)  # the FFT leaves column n at n mod G
    grid = np.array(np.meshgrid(range(b), n, indexing="ij"), int)  # [(m, n), m, n mod G]
    parts = [p[2:] for s in range(b) for p in _shell_parts(s, gammas)]
    m, n = np.concatenate([grid[:, gm, gn].reshape(2, -1) for gm, gn in parts], 1)
    s = np.maximum(m, np.abs(n))
    span = b - s
    m, n, s = (np.repeat(a, span) for a in (m, n, s))
    l = s + np.arange(span.sum()) - np.repeat(np.cumsum(span) - span, span)
    # block l holds (m, n) row-major from _count(l), (l, 0, 0) at its centre
    width = 2 * l + 1 if gammas > 1 else 1
    centre = (spectrum_cls._count(l) + spectrum_cls._count(l + 1)) // 2
    pos = centre + m * width + n
    mirror = centre - m * width - n
    # (-1)^(m-s) on the column n = s > m; (-1)^(l+s) where n < 0 reads a mirror
    flips = np.where(n < 0, l + s, m - s)
    parity, sign = (1.0 - 2.0 * (f & 1) for f in (m - n, flips))
    return tuple(map(_frozen, (pos, mirror, parity, sign, 2 * l + 1)))


def _hermitian_rows(spectrum) -> tuple[np.ndarray, float]:
    """The rows m >= 0 of a finite ``spectrum``, ``[coefficient, channel]``
    in :func:`_shell_order`'s order, and the guarded residue of its
    anti-Hermitian half, which would synthesise to ``i * Im f``: the defect
    at (l, -m, -n) equals that at (l, m, n), so these rows see all of it."""
    d = spectrum.data
    scale = np.max(np.abs(d))  # a NaN or an infinity anywhere makes it so
    if not np.isfinite(scale):
        raise ValueError("spectrum contains non-finite coefficients")
    pos, mirror, parity = _shell_order(spectrum.bandwidth, type(spectrum))[:3]
    coeffs = d.T[pos]
    defect = 0.5 * np.max(np.abs(coeffs - parity[:, None] * d.T[mirror].conj()))
    return coeffs, _guarded(defect, scale, "in the spectrum")


def _shell_products(t: WignerTables, b: int, gammas: int, coeffs: np.ndarray):
    """Yield the table rows, grid index ``(m, n mod G)`` and ``coeffs``
    ``[(pair, l), (channel, re/im)]`` rows of each part of each shell s < b,
    b up to the tables' bandwidth: one unpadded real GEMM, as its pairs cover
    l = s..b-1."""
    q = 0
    for s, rows in enumerate(t.shells[:b]):  # rows[n, l - s, j] = d^l_sn(beta_j)
        for r, mirrored, gm, gn in _shell_parts(s, gammas):
            r = rows[r, : b - s, ::-1] if mirrored else rows[r, : b - s]  # at pi - beta_j
            p = len(r) * (b - s)
            yield r, (gm, gn), coeffs[q : q + p].reshape(len(r), b - s, coeffs.shape[1])
            q += p


@lru_cache(maxsize=16)
def _alpha_dft(n: int, rows: int, inverse: bool) -> np.ndarray:
    """The alpha DFT of an ``n``-point grid at the rows m < ``rows`` as a real
    ``[a, (m, re/im)]`` matrix: forward ``exp(-i m alpha_a) / n``; inverse the
    weights of ``Re(w_m exp(+i m alpha_a) F_m)``, w_0 = 1, else w_m = 2."""
    m = np.arange(rows)
    phase = (2 * np.pi / n) * (np.outer(np.arange(n), m) % n)  # from (m a) mod n
    scale = np.where(m > 0, 2.0, 1.0) if inverse else np.full(rows, 1 / n)
    dft = (np.stack([np.cos(phase), -np.sin(phase)], 2) * scale[:, None]).reshape(n, -1)
    return _frozen(dft)


def _fft_forward(samples: np.ndarray, spectrum_cls, tables, bandwidth_out=None):
    """Analysis of samples ``(K, 2b, 2b, G)`` on the rotation grid (G = 1: a
    sphere signal), at the degrees below ``bandwidth_out`` alone (default b)."""
    k, n, _, gammas = samples.shape
    b = n // 2
    c = b if bandwidth_out is None else _checked_int(bandwidth_out, "bandwidth_out", 1, b)
    t = _resolve_tables(b, tables, gammas)
    # [n mod G, channel, j, m]: the conjugate alpha/gamma averages at m < c,
    # [channel, j, g, a] times the alpha DFT, g outermost for one gamma FFT call
    x, fc = samples.swapaxes(2, 3), np.empty((gammas, k, n, 2 * c))
    dst = fc.transpose(1, 2, 0, 3)
    if gammas == 1:  # the sphere's k*2b rings as one 2-D GEMM
        x, dst = x.reshape(-1, n), fc.reshape(-1, 2 * c)
    np.matmul(x, _alpha_dft(n, c, False), out=dst)
    fc = fc.view(np.complex128)
    np.fft.fft(fc, axis=0, norm="forward", out=fc)
    # each GEMM reads a weighted [pair, j, channel] copy of its part of the grid
    # [m, n mod G, j, channel]; on the sphere (n = 0) one copy serves them all
    w, grid = t.weights[:, None], fc.transpose(3, 0, 2, 1)
    grid = np.multiply(grid, w, order="C") if gammas == 1 else grid
    pos, mirror, parity, sign, _ = _shell_order(c, spectrum_cls)
    coeffs = np.empty((len(pos), 2 * k))
    for rows, at, cf in _shell_products(t, c, gammas, coeffs):
        part = grid[at] if gammas == 1 else np.multiply(grid[at], w, order="C")
        np.matmul(rows, part.view(np.float64), out=cf)
    coeffs = coeffs.view(np.complex128)
    np.conjugate(coeffs, out=coeffs)
    coeffs *= sign[:, None]
    out = spectrum_cls.zeros(c, k)
    # the mirrors first, so the computed row m = 0 overwrites its own
    out.data[:, mirror] = (parity[:, None] * coeffs.conj()).T
    out.data[:, pos] = coeffs.T
    return out


def _fft_inverse(spectrum, signal_cls, tables: WignerTables | None):
    """Synthesis onto the rotation grid ``(K, 2b, 2b, G)``, with G = 1 gamma
    sample for a sphere spectrum (its single column is n = 0)."""
    b, k, n = spectrum.bandwidth, spectrum.channels, 2 * spectrum.bandwidth
    gammas = n if signal_cls is SO3Signal else 1
    t = _resolve_tables(b, tables, gammas)
    coeffs, residue = _hermitian_rows(spectrum)
    sign, deg = _shell_order(b, type(spectrum))[3:]
    np.conjugate(coeffs, out=coeffs)
    coeffs *= (sign * deg)[:, None]
    # the forward's conjugate grid at the rows m < b, [m, n mod G, j, channel]
    fc = np.zeros((b, gammas, n, k), dtype=np.complex128)
    for rows, at, c in _shell_products(t, b, gammas, coeffs.view(np.float64)):
        np.matmul(rows.transpose(0, 2, 1), c, out=fc.view(np.float64)[at])
    # the gamma ifft in place, then one copy to [channel, j, n mod G, m]; the
    # alpha DFT writes [channel, j, a, g] (the sphere's rings in one 2-D GEMM)
    np.fft.ifft(fc, axis=1, norm="forward", out=fc)
    fc = fc.T.copy()
    x, dft = fc.view(np.float64), _alpha_dft(n, b, True)
    real = np.matmul(dft, x.swapaxes(2, 3)) if gammas > 1 else x.reshape(-1, n) @ dft.T
    return signal_cls(b, real.reshape((k,) + (n,) * signal_cls._axes), imag_residue=residue)


def s2_fft_forward(
    signal: S2Signal, tables: WignerTables | None = None, bandwidth_out: int | None = None
) -> S2Spectrum:
    """The spectrum at ``bandwidth_out`` (1..b, default b), computing only its degrees."""
    return _fft_forward(signal.samples[..., None], S2Spectrum, tables, bandwidth_out)


def s2_fft_inverse(spectrum: S2Spectrum, tables: WignerTables | None = None) -> S2Signal:
    return _fft_inverse(spectrum, S2Signal, tables)


def so3_fft_forward(
    signal: SO3Signal, tables: WignerTables | None = None, bandwidth_out: int | None = None
) -> SO3Spectrum:
    """As :func:`s2_fft_forward`, on the rotation group."""
    return _fft_forward(signal.samples, SO3Spectrum, tables, bandwidth_out)


def so3_fft_inverse(spectrum: SO3Spectrum, tables: WignerTables | None = None) -> SO3Signal:
    return _fft_inverse(spectrum, SO3Signal, tables)


# ---------------------------------------------------------------------------
# direct paths: dense sums against sampled basis functions, no FFT
# ---------------------------------------------------------------------------

def _dft_phases(bandwidth: int, gammas: int) -> tuple[np.ndarray, np.ndarray]:
    # E[i, m+b-1] = exp(+i m alpha_i), the sampled azimuth basis, and its
    # gamma counterpart; a single gamma sample carries n = 0 alone
    e = _phases(bandwidth - 1, angle_samples(bandwidth)).conj()
    return e, e if gammas > 1 else np.ones((1, 1))


def _dft_forward(samples: np.ndarray, spectrum_cls, tables: WignerTables | None):
    """Analysis of samples ``(K, 2b, 2b, G)`` by explicit sums, ring by ring."""
    k, n, _, gammas = samples.shape
    b = n // 2
    t = _resolve_tables(b, tables, gammas)
    e, eg = _dft_phases(b, gammas)
    h = eg.shape[1] // 2
    w = t.weights / (n * gammas)
    out = spectrum_cls.zeros(b, k)
    cols = [out.columns(l) for l in range(b)]
    for j in range(n):
        ring = e.T @ samples[:, j] @ eg
        for l in range(b):
            c = cols[l].shape[2] // 2  # full tables on the sphere: n = 0 alone
            dl = t.d[l][j][:, _centered(t.d[l].shape[2] // 2, c)]
            cols[l] += w[j] * dl * ring[:, _centered(b - 1, l), _centered(h, c)]
    return out


def _dft_inverse(spectrum, signal_cls, tables: WignerTables | None):
    """Synthesis onto ``(K, 2b, 2b, G)`` by explicit sums, ring by ring."""
    b, k, n = spectrum.bandwidth, spectrum.channels, 2 * spectrum.bandwidth
    gammas = n if signal_cls is SO3Signal else 1
    t = _resolve_tables(b, tables, gammas)
    residue = _hermitian_rows(spectrum)[1]
    e_conj, eg_conj = (p.conj() for p in _dft_phases(b, gammas))
    h = eg_conj.shape[1] // 2
    cols = [spectrum.columns(l) for l in range(b)]
    values = np.empty((k, n, n, gammas), dtype=np.complex128)
    acc = np.zeros((k, n - 1, eg_conj.shape[1]), dtype=np.complex128)
    for j in range(n):
        acc.fill(0.0)
        for l in range(b):
            c = cols[l].shape[2] // 2
            dl = t.d[l][j][:, _centered(t.d[l].shape[2] // 2, c)]
            acc[:, _centered(b - 1, l), _centered(h, c)] += (2 * l + 1) * dl * cols[l]
        values[:, j] = e_conj @ acc @ eg_conj.T
    real = values.real.reshape((k,) + (n,) * signal_cls._axes)
    return signal_cls(b, real, imag_residue=residue)


def s2_dft_forward(signal: S2Signal, tables: WignerTables | None = None) -> S2Spectrum:
    return _dft_forward(signal.samples[..., None], S2Spectrum, tables)


def s2_dft_inverse(spectrum: S2Spectrum, tables: WignerTables | None = None) -> S2Signal:
    return _dft_inverse(spectrum, S2Signal, tables)


def so3_dft_forward(signal: SO3Signal, tables: WignerTables | None = None) -> SO3Spectrum:
    return _dft_forward(signal.samples, SO3Spectrum, tables)


def so3_dft_inverse(spectrum: SO3Spectrum, tables: WignerTables | None = None) -> SO3Signal:
    return _dft_inverse(spectrum, SO3Signal, tables)


# kind -> (signal type, spectrum type), and (kind, direction, path) -> public
# transform.  The CLI and run_bench dispatch through these same dicts, so
# rebinding a value in place (as perfbench's tracer does) reaches both.
_KIND_TYPES = {"s2": (S2Signal, S2Spectrum), "so3": (SO3Signal, SO3Spectrum)}
_TRANSFORMS = {
    ("s2", "forward", "fast"): s2_fft_forward,
    ("s2", "forward", "direct"): s2_dft_forward,
    ("s2", "inverse", "fast"): s2_fft_inverse,
    ("s2", "inverse", "direct"): s2_dft_inverse,
    ("so3", "forward", "fast"): so3_fft_forward,
    ("so3", "forward", "direct"): so3_dft_forward,
    ("so3", "inverse", "fast"): so3_fft_inverse,
    ("so3", "inverse", "direct"): so3_dft_inverse,
}


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


def bandlimit_so3(signal, tables: WignerTables | None = None):
    """Project onto the bandlimited subspace (forward then inverse), on either domain."""
    on_sphere = isinstance(signal, S2Signal)
    spec = (s2_fft_forward if on_sphere else so3_fft_forward)(signal, tables)
    return (s2_fft_inverse if on_sphere else so3_fft_inverse)(spec, tables)


bandlimit_s2 = bandlimit_so3
