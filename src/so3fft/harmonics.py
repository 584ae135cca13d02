"""Wigner rotation matrices, spherical harmonics, and precomputed tables.

Conventions
-----------
The real matrices ``d^l(beta)`` are stored with rows/columns in ascending
order ``m, n = -l .. l`` (entry ``[m + l, n + l]``).  For l = 1 this is::

    [[(1+cos b)/2,  sin b/sqrt2, (1-cos b)/2],
     [-sin b/sqrt2, cos b,       sin b/sqrt2],
     [(1-cos b)/2,  -sin b/sqrt2, (1+cos b)/2]]

The complex blocks factor as ``D^l_mn(alpha, beta, gamma) =
exp(-i m alpha) d^l_mn(beta) exp(-i n gamma)``; they are unitary, satisfy
``D^l(R1) D^l(R2) = D^l(R1 R2)``, and are orthogonal with norm ``1/(2l+1)``
under the normalised Haar measure.  Spherical harmonics are the ``n = 0``
column, ``Y^l_m(alpha, beta) = D^l_m0(alpha, beta, 0)``, so ``Y^1_0 = cos
beta`` and ``<Y^l_m, Y^l_m> = 1/(2l+1)``.

Evaluation uses a three-term recurrence in the degree for fixed ``(m, n)``,
seeded at ``l = max(|m|, |n|)``: at every degree l >= 1 closed forms give
the boundary rows and columns, and ``d^1_00 = cos beta`` is the one
interior seed.  Everything is double precision; the recurrence keeps
entries bounded by 1 (up to rounding) out to l of a few hundred.

Stacks and tables hold every column ``n`` (``columns="all"``, the rotation
group) or the ``n = 0`` column alone (``"zero"``, all the sphere reads: 4.2
MB of sampled table at b = 64 instead of 358 MB).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grids import Rotation, beta_samples, ring_weights, validate_bandwidth

__all__ = [
    "COLUMN_SETS",
    "DEFAULT_TABLE_MEMORY_CAP",
    "ResourceLimitError",
    "WignerTables",
    "build_tables",
    "cached_tables",
    "estimate_table_bytes",
    "spherical_harmonics",
    "spherical_harmonics_stack",
    "wigner_D_matrices",
    "wigner_D_stack",
    "wigner_d_matrices",
    "wigner_d_stack",
]

DEFAULT_TABLE_MEMORY_CAP = 2 * 1024**3  # bytes

COLUMN_SETS = ("all", "zero")  # every column n of d^l, or n = 0 alone


class ResourceLimitError(RuntimeError):
    """Raised when an estimated allocation exceeds the configured cap."""


def _validate_degree(l_max) -> int:
    if isinstance(l_max, bool) or not isinstance(l_max, (int, np.integer)):
        raise TypeError(f"l_max must be an integer, got {l_max!r}")
    if l_max < 0:
        raise ValueError(f"l_max must be >= 0, got {l_max}")
    return int(l_max)


def _validate_columns(columns) -> str:
    if columns not in COLUMN_SETS:
        raise ValueError(f"columns must be one of {COLUMN_SETS}, got {columns!r}")
    return columns


def wigner_d_stack(l_max: int, betas, columns: str = "all") -> list[np.ndarray]:
    """All ``d^l(beta)`` blocks for ``l = 0..l_max`` at many angles at once.

    Returns a list of arrays, entry ``l`` shaped ``(len(betas), 2l+1, 2l+1)``,
    or ``(len(betas), 2l+1, 1)`` with ``columns="zero"``: then the recurrence
    runs on the ``n = 0`` column alone, the normalised associated Legendre
    functions ``sqrt((l-m)!/(l+m)!) P^m_l(cos beta)``, in O(l) per angle.
    """
    l_max = _validate_degree(l_max)
    full = _validate_columns(columns) == "all"
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if betas.ndim != 1:
        raise ValueError("betas must be one-dimensional")
    nb = betas.shape[0]
    x = np.cos(betas)
    c_half = np.cos(0.5 * betas)
    s_half = np.sin(0.5 * betas)

    blocks = [np.ones((nb, 1, 1))]
    inner = slice(1, -1) if full else slice(None)  # the columns |n| < l
    for l in range(1, l_max + 1):
        j = np.arange(-l, l + 1) if full else np.zeros(1, dtype=int)
        d = np.empty((nb, 2 * l + 1, j.size))

        # interior |m|, |n| <= l-1: d^1_00 = cos beta, then a three-term
        # recurrence in the degree, in place: (c_prev * d^{l-1} - c_prev2 *
        # d^{l-2}) / lhs, d^{l-2} zero-padded
        if l == 1:
            d[:, 1:-1, inner] = x[:, None, None]
        else:
            mi = np.arange(-(l - 1), l, dtype=np.float64)
            mm = mi[:, None]
            nn = mi[None, :] if full else np.zeros((1, 1))
            lhs = (l - 1) * np.sqrt((l * l - mm * mm) * (l * l - nn * nn))
            low = (l - 1) ** 2 - mm * mm
            low = low * ((l - 1) ** 2 - nn * nn)
            c_prev2 = l * np.sqrt(np.maximum(low, 0.0))
            rec = np.subtract((l - 1) * l * x[:, None, None], mm * nn, out=d[:, 1:-1, inner])
            rec *= 2 * l - 1
            rec *= blocks[l - 1]
            rec[:, 1:-1, inner] -= c_prev2[1:-1, inner] * blocks[l - 2]
            rec /= lhs

        # boundary rows m = +/-l and columns n = +/-l: closed forms, with
        # sqrt(C(2l, l-n)) from exact integer binomials
        cj = c_half[:, None]
        sj = s_half[:, None]
        root = np.sqrt([float(math.comb(2 * l, l - n)) for n in j])
        sign_top = np.where((l - j) % 2 == 0, 1.0, -1.0)
        d[:, 2 * l, :] = sign_top * root * cj ** (l + j) * sj ** (l - j)
        d[:, 0, :] = root * cj ** (l - j) * sj ** (l + j)
        if full:
            sign_neg = np.where((l + j) % 2 == 0, 1.0, -1.0)
            d[:, :, 2 * l] = root * cj ** (l + j) * sj ** (l - j)
            d[:, :, 0] = sign_neg * root * cj ** (l - j) * sj ** (l + j)
        blocks.append(d)
    return blocks


def wigner_d_matrices(l_max: int, beta: float) -> list[np.ndarray]:
    """``d^l(beta)`` for ``l = 0..l_max`` at a single angle."""
    return [blk[0] for blk in wigner_d_stack(l_max, [float(beta)])]


def _phases(l_max: int, angles: np.ndarray) -> np.ndarray:
    # exp(-i m angle) for m = -l_max..l_max, shape (len(angles), 2*l_max+1)
    m = np.arange(-l_max, l_max + 1)
    return np.exp(-1j * np.outer(angles, m))


def wigner_D_stack(
    l_max: int, alphas, betas, gammas, columns: str = "all"
) -> list[np.ndarray]:
    """Complex ``D^l`` blocks at many rotations; entry ``l`` is shaped
    ``(npoints, 2l+1, 2l+1)``, or ``(npoints, 2l+1, 1)`` with
    ``columns="zero"``."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=np.float64))
    if not (alphas.shape == betas.shape == gammas.shape):
        raise ValueError("alpha/beta/gamma arrays must have matching shapes")
    d = wigner_d_stack(l_max, betas, columns)
    pa = _phases(l_max, alphas)
    pg = _phases(l_max, gammas)
    out = []
    for l in range(l_max + 1):
        c = d[l].shape[2] // 2
        sl = slice(l_max - l, l_max + l + 1)
        sn = slice(l_max - c, l_max + c + 1)
        out.append(pa[:, sl, None] * d[l] * pg[:, None, sn])
    return out


def wigner_D_matrices(l_max: int, rotation: Rotation) -> list[np.ndarray]:
    """``D^l(rotation)`` for ``l = 0..l_max`` as complex unitary blocks."""
    stack = wigner_D_stack(
        l_max, [rotation.alpha], [rotation.beta], [rotation.gamma]
    )
    return [blk[0] for blk in stack]


def spherical_harmonics_stack(l_max: int, alphas, betas) -> list[np.ndarray]:
    """``Y^l_m`` at many points; entry ``l`` is shaped ``(npoints, 2l+1)``."""
    alphas = np.atleast_1d(np.asarray(alphas, dtype=np.float64))
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if alphas.shape != betas.shape:
        raise ValueError("alpha/beta arrays must have matching shapes")
    d = wigner_D_stack(l_max, alphas, betas, np.zeros_like(alphas), "zero")
    return [blk[:, :, 0] for blk in d]


def spherical_harmonics(l_max: int, alpha: float, beta: float) -> list[np.ndarray]:
    """``Y^l_m(alpha, beta)`` for ``l = 0..l_max``, each a ``(2l+1,)`` vector."""
    stack = spherical_harmonics_stack(l_max, [alpha], [beta])
    return [blk[0] for blk in stack]


def estimate_table_bytes(bandwidth: int, columns: str = "all") -> int:
    """Bytes needed for the ``d^l`` sample tables at one bandwidth."""
    b = validate_bandwidth(bandwidth)
    if _validate_columns(columns) == "zero":
        entries_per_ring = b * b
    else:
        entries_per_ring = b * (2 * b - 1) * (2 * b + 1) // 3
    return 8 * 2 * b * entries_per_ring


@dataclass(frozen=True, eq=False)
class WignerTables:
    """``d^l`` samples at the grid colatitudes plus the ring weights.

    ``d[l]`` is shaped ``(2b, 2l+1, 2l+1)`` with the ring index leading, so
    the beta contraction in the transforms streams each degree sequentially;
    with ``columns="zero"`` it is the ``(2b, 2l+1, 1)`` n = 0 column.
    ``weights`` are the colatitude ring weights (summing to 1); the uniform
    alpha/gamma factors are supplied by the transforms themselves.
    """

    bandwidth: int
    d: list[np.ndarray] = field(repr=False)
    weights: np.ndarray = field(repr=False)
    columns: str = "all"

    @cached_property
    def shells(self) -> list[np.ndarray]:
        """``shells[s][n, l - s, j] = d^l_sn(beta_j)``, l = s..b-1, n = 0..s
        (n = 0 alone for the n = 0 column): all the fast transforms read of
        each shell s = max(m, |n|), through d^l_ms = (-1)^(m-s) d^l_sm,
        d^l_{m,-s} = d^l_{s,-m} and d^l_{s,-n}(beta) = (-1)^(l+s) d^l_sn(pi -
        beta), as the rings are mirror-symmetric.  Built on first use, about
        an eighth of ``d``, and counted against :func:`build_tables`' cap."""
        b = self.bandwidth
        s = np.arange(b)
        rows = s + 1 if self.columns == "all" else np.ones(b, dtype=np.intp)
        size = rows * (b - s)  # rings of 2b samples per shell
        start = np.cumsum(size) - size
        flat = np.empty((size.sum(), 2 * b))
        # every shell row (s, n), by shell: those of degree l are a prefix
        sh, n = np.nonzero(np.arange(rows[-1]) < rows[:, None])
        at = start[sh] + n * (b - sh) - sh
        for l, blk in enumerate(self.d):  # blk[j, m + l, n + c]
            k = np.searchsorted(sh, l, side="right")
            flat[at[:k] + l] = blk.transpose(1, 2, 0)[l + sh[:k], n[:k] + blk.shape[2] // 2]
        parts = np.split(flat, start[1:])
        return [p.reshape(r, b - q, 2 * b) for q, (p, r) in enumerate(zip(parts, rows))]


def build_tables(
    bandwidth: int,
    *,
    memory_cap_bytes: int = DEFAULT_TABLE_MEMORY_CAP,
    columns: str = "all",
) -> WignerTables:
    """Precompute the sampled Wigner-d tables for one bandwidth and
    column set.

    The memory footprint, with the shell layout the fast transforms add
    (:attr:`WignerTables.shells`), is estimated up front; exceeding
    ``memory_cap_bytes`` raises :class:`ResourceLimitError` before anything
    is allocated.
    """
    b = validate_bandwidth(bandwidth)
    rows = b * (b + 1) * (b + 2) // 6 if columns == "all" else b * (b + 1) // 2
    estimate = estimate_table_bytes(b, columns) + 8 * 2 * b * rows
    if estimate > memory_cap_bytes:
        raise ResourceLimitError(
            f"d tables and shells at bandwidth {b} need ~{estimate / 1e6:.0f} MB, "
            f"over the cap of {memory_cap_bytes / 1e6:.0f} MB"
        )
    return WignerTables(
        bandwidth=b,
        d=wigner_d_stack(b - 1, beta_samples(b), columns),
        weights=ring_weights(b),
        columns=columns,
    )


_TABLE_CACHE: OrderedDict[tuple[int, str], WignerTables] = OrderedDict()
_TABLE_CACHE_SLOTS = 4


def cached_tables(bandwidth: int, columns: str = "all") -> WignerTables:
    """LRU-cached :func:`build_tables`; keeps a handful of tables alive."""
    b = validate_bandwidth(bandwidth)
    key = (b, _validate_columns(columns))
    if key in _TABLE_CACHE:
        _TABLE_CACHE.move_to_end(key)
        return _TABLE_CACHE[key]
    tables = build_tables(b, columns=columns)
    _TABLE_CACHE[key] = tables
    while len(_TABLE_CACHE) > _TABLE_CACHE_SLOTS:
        _TABLE_CACHE.popitem(last=False)
    return tables
