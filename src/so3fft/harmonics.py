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

One recurrence evaluates everything: a three-term recurrence in the degree,
run on the row ``m = s`` of each shell ``s = max(|m|, |n|)``, one step for
every row at once, each row seeded at ``l = s`` by one product of the row
``d^{s-1}_{s-1,n}`` before it, from ``d^0_00 = 1`` (shell 0 also by ``d^1_00
= cos beta``).  The fast transforms read the rows ``n = 0..s``, the full blocks
the rows ``n = -s..s`` by ``d^l_{-m,-n} = (-1)^(m-n) d^l_mn = d^l_nm``.  In
double precision, entries stay bounded by 1 up to rounding (n = 0: checked to l = 1023).
Stacks and tables hold every column ``n`` (``columns="all"``, the rotation
group) or, bit for bit, its ``n = 0`` column alone (``"zero"``, all the sphere
reads: 4.2 MB of sampled table at b = 64 instead of 358 MB).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .grids import Rotation, _checked_int, _frozen, beta_samples, ring_weights, validate_bandwidth

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


def _check_cap(need: int, what: str, cap: int = DEFAULT_TABLE_MEMORY_CAP) -> None:
    """Refuse ``what``, needing ~``need`` bytes, before allocating it if over ``cap``."""
    if need > cap:
        msg = f"{what} need ~{need / 1e6:.0f} MB, over the cap of {cap / 1e6:.0f} MB"
        raise ResourceLimitError(msg)


def _validate_columns(columns) -> str:
    if columns not in COLUMN_SETS:
        raise ValueError(f"columns must be one of {COLUMN_SETS}, got {columns!r}")
    return columns


def _shell_rows(l_max: int, betas: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """``d^l_sn(beta_j)`` on the row m = s of each shell s = max(|m|, |n|), n = lo*s..hi*s,
    as ``[(l, s, n), j]`` (degree l holds the rows s <= l by shell, then n), and where each
    degree starts.  From d^0_00 = 1, each row starts at l = s as one product of the row
    before it on the diagonal: d^s_sn = -sqrt(2s(2s-1)/((s+n)(s-n))) cos(beta/2) sin(beta/2)
    d^{s-1}_{s-1,n}, or d^s_{s,+-s} = cos^2 or sin^2(beta/2) d^{s-1}_{s-1,+-(s-1)}; shell 0 also
    starts from d^1_00 = cos beta.  Then, for all rows at once, (l-1) sqrt((l^2-s^2)(l^2-n^2)) d^l
    = (2l-1) ((l-1) l cos beta - s n) d^{l-1} - l sqrt(((l-1)^2-s^2)((l-1)^2-n^2)) d^{l-2}."""
    x, c, h = np.cos(betas), np.cos(0.5 * betas), np.sin(0.5 * betas)
    s, n = np.array([(q, v) for q in range(l_max + 1) for v in range(lo * q, hi * q + 1)]).T
    end = np.searchsorted(s, np.arange(l_max + 1), side="right")  # the rows s <= l
    start = np.cumsum(end) - end
    carry = np.where(abs(n) < s, -np.sqrt(2 * s * (2 * s - 1) / np.maximum(s * s - n * n, 1)), 1)
    trig, pick = np.stack([c * h, c * c, h * h]), np.sign(n) * (abs(n) == s)
    parent = np.r_[0, end][s - 1] + np.clip(n - lo * (s - 1), 0, (hi - lo) * (s - 1))
    flat = np.empty((end.sum(), betas.size))
    flat[0], flat[start[1:2]] = 1.0, x  # d^0_00 = 1; d^1_00 = cos beta on the row (0, 0)
    for l, a in enumerate(end[:-1], 1):  # a: the rows s < l
        new = np.arange(a, end[l])  # the rows s = l, each from its parent at degree l - 1
        flat[start[l] + new] = carry[new, None] * trig[pick[new]] * flat[start[l - 1] + parent[new]]
        if l > 1:  # d^{l-2} exists on the rows s < l - 1
            z, sa, na = end[l - 2], s[:a, None], n[:a, None]
            rec = np.subtract((l - 1) * l * x, sa * na, out=flat[start[l] : start[l] + a])
            rec *= 2 * l - 1
            rec *= flat[start[l - 1] : start[l - 1] + a]
            low = ((l - 1) ** 2 - sa[:z] ** 2) * ((l - 1) ** 2 - na[:z] ** 2)
            rec[:z] -= l * np.sqrt(low) * flat[start[l - 2] : start[l - 2] + z]
            rec /= (l - 1) * np.sqrt((l * l - sa * sa) * (l * l - na * na))
    return flat, start


# runtime callers use one l_max per bandwidth; a map at l_max 150 is 73.5 MB
@lru_cache(maxsize=4)
def _unfold(l_max: int, full: bool) -> tuple[np.ndarray, ...]:
    """Where each entry (l, m, n) of the blocks, by degree and row-major,
    sits among :func:`_shell_rows`' rows n = -s..s (n = 0 if not ``full``),
    the sign it takes there, and where each degree ends: the row m = s as it
    is, d^l_{-s,n} = (-1)^(s+n) d^l_{s,-n}, d^l_ms = (-1)^(m-s) d^l_sm
    and d^l_{m,-s} = d^l_{s,-m}."""
    size = (2 * np.arange(l_max + 1) + 1) ** (1 + full)  # entries of each block
    l = np.repeat(np.arange(l_max + 1), size)
    i, width = np.arange(size.sum()) - (np.cumsum(size) - size)[l], 1 + 2 * l * full
    m, n = i // width - l, i % width - l * full
    s = np.maximum(np.abs(m), np.abs(n))
    edge = [m == s, m == -s, n == s]
    row = np.select(edge, [n, -n, m], -m)
    sign = 1.0 - 2.0 * (np.select(edge, [0, s + n, m - s], 0) & 1)
    rows = (np.arange(l_max + 1) + 1) ** (1 + full)  # the rows s <= l
    maps = ((np.cumsum(rows) - rows)[l] + s * s * full + s + row, sign, np.cumsum(size)[:-1])
    return tuple(map(_frozen, maps))


def _stack_bytes(l_max: int, full: bool, points: int, complex_blocks: bool) -> int:
    """A Wigner stack's peak: per block entry, 11 doubles for :func:`_unfold`'s
    temporaries and, at each angle, one for the stack (three with complex
    blocks), plus one per :func:`_shell_rows` row and angle (above every
    tracemalloc peak measured)."""
    d = l_max + 1
    entries = d * (2 * d - 1) * (2 * d + 1) // 3 if full else d * d
    rows = d * (d + 1) * (2 * d + 1) // 6 if full else d * (d + 1) // 2
    return 8 * (entries * (11 + points * (1 + 2 * complex_blocks)) + rows * points)


def _checked_stack(l_max, columns: str, points: int, complex_blocks: bool) -> tuple[int, bool]:
    """``l_max`` as an int and whether ``columns`` is "all"; over the cap, refused first."""
    l_max, full = _checked_int(l_max, "l_max", 0), _validate_columns(columns) == "all"
    need = _stack_bytes(l_max, full, points, complex_blocks)
    _check_cap(need, f"Wigner blocks to l_max {l_max} at {points} angles")
    return l_max, full


def wigner_d_stack(l_max: int, betas, columns: str = "all") -> list[np.ndarray]:
    """All ``d^l(beta)`` blocks for ``l = 0..l_max`` at many angles at once.

    Returns a list of arrays, entry ``l`` shaped ``(len(betas), 2l+1, 2l+1)``,
    or ``(len(betas), 2l+1, 1)`` with ``columns="zero"``: then the recurrence
    runs on the ``n = 0`` column alone, the normalised associated Legendre
    functions ``sqrt((l-m)!/(l+m)!) P^m_l(cos beta)``, in O(l) per angle.
    """
    betas = np.atleast_1d(np.asarray(betas, dtype=np.float64))
    if betas.ndim != 1:
        raise ValueError("betas must be one-dimensional")
    l_max, full = _checked_stack(l_max, columns, betas.size, False)
    index, sign, ends = _unfold(l_max, full)
    stack = _shell_rows(l_max, betas, -full, full)[0].T[:, index]
    stack *= sign
    blocks = np.split(stack, ends, axis=1)
    return [blk.reshape(betas.size, 2 * l + 1, 2 * l * full + 1) for l, blk in enumerate(blocks)]


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
    _checked_stack(l_max, columns, betas.size, True)
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


def _shell_bytes(b: int, columns: str) -> int:
    """Bytes :attr:`WignerTables.shells` holds: 2b angles of each degree's rows s <= l."""
    return 8 * 2 * b * (b * (b + 1) * (b + 2) // 6 if columns == "all" else b * (b + 1) // 2)


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
    """The colatitude ring ``weights`` (summing to 1; the transforms supply
    the uniform alpha/gamma factors) and two layouts of the ``d^l`` samples
    at the grid colatitudes, each built when first read: the fast
    transforms read only :attr:`shells` (built on their first call), and
    :attr:`d` serves the direct path, the ``wigner-tables`` container and
    the tests.  Every caller shares them, so both layouts are read-only, as
    are the weights of :func:`build_tables` and of a container."""

    bandwidth: int
    weights: np.ndarray = field(repr=False)
    columns: str = "all"

    @cached_property
    def d(self) -> list[np.ndarray]:
        """``d[l]`` shaped ``(2b, 2l+1, 2l+1)`` with the ring index leading,
        so the beta sums stream each degree sequentially; with
        ``columns="zero"`` it is the ``(2b, 2l+1, 1)`` n = 0 column."""
        d = wigner_d_stack(self.bandwidth - 1, beta_samples(self.bandwidth), self.columns)
        return list(map(_frozen, d))

    @cached_property
    def shells(self) -> list[np.ndarray]:
        """``shells[s][n, l - s, j] = d^l_sn(beta_j)``, l = s..b-1, n = 0..s
        (n = 0 alone for the n = 0 column): all the fast transforms read of
        each shell s = max(m, |n|), through d^l_ms = (-1)^(m-s) d^l_sm,
        d^l_{m,-s} = d^l_{s,-m} and d^l_{s,-n}(beta) = (-1)^(l+s) d^l_sn(pi -
        beta), as the rings are mirror-symmetric.  About an eighth of ``d``, counted
        against :func:`build_tables`' cap; the first read, which peaks at twice that
        (the degree-major rows, then their gathered copy), is refused over the table cap."""
        b, half = self.bandwidth, int(self.columns == "all")
        _check_cap(2 * _shell_bytes(b, self.columns), f"Wigner shells at bandwidth {b}")
        flat, start = _shell_rows(b - 1, beta_samples(b), 0, half)
        k = 1 + half * np.arange(b)  # rows per shell, each degree holding them in turn
        first = np.cumsum(k) - k
        return [_frozen(flat[start[s:] + first[s] + np.arange(k[s])[:, None]]) for s in range(b)]


def build_tables(
    bandwidth: int,
    *,
    memory_cap_bytes: int = DEFAULT_TABLE_MEMORY_CAP,
    columns: str = "all",
) -> WignerTables:
    """The Wigner-d tables for one bandwidth and column set: the ring
    weights now, the ``d^l`` layouts on first read.  Their footprint, ``d``
    plus :attr:`WignerTables.shells`, is estimated first; over
    ``memory_cap_bytes`` it raises :class:`ResourceLimitError`."""
    b = validate_bandwidth(bandwidth)
    estimate = estimate_table_bytes(b, columns) + _shell_bytes(b, columns)
    _check_cap(estimate, f"d tables and shells at bandwidth {b}", memory_cap_bytes)
    return WignerTables(b, _frozen(ring_weights(b)), columns)


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
