"""Rotation cross-correlation via the block-diagonal spectral product.

For real inputs, correlating a filter bank against a signal reduces degree
by degree to ``C^l = fhat^l @ conj(psihat^l).T`` over the spectra's column
views (an outer product of the single ``n = 0`` columns when the inputs
live on the sphere), after which the fast inverse's synthesis, fed the product's
rows m >= 0 directly and guarding the bank's Hermitian defect in place of the
product's, recovers the correlation values on the full grid.  The same
spectral route gives exact rotation of bandlimited signals and the zonal
spherical convolution.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .gft import (
    S2Signal,
    S2Spectrum,
    SO3Signal,
    SO3Spectrum,
    _guarded,
    _hermitian_rows,
    _shell_order,
    _synthesis,
    s2_fft_forward,
    s2_fft_inverse,
    so3_fft_forward,
    so3_fft_inverse,
)
from .grids import Rotation, _checked_int, _frozen, make_so3_grid, validate_bandwidth
from .harmonics import WignerTables, cached_tables, wigner_D_matrices

__all__ = [
    "CorrelationPlan",
    "PreparedBank",
    "dh_convolve",
    "make_correlation_plan",
    "multichannel_correlate",
    "relu_spatial",
    "rotate_s2_spectral",
    "rotate_s2_spectrum",
    "rotate_so3_spectral",
    "rotate_so3_spectrum",
    "s2_correlate",
    "so3_correlate",
    "so3_integrate",
    "so3_max_pool",
]


@dataclass(frozen=True, eq=False)
class PreparedBank:
    """A bank spectrum of ``domain`` arranged for the product once: degree l's
    read-only operand is the contiguous ``(out_channels * (2l+1),
    in_channels * columns)`` matrix of its blocks, for l < ``len(operands)``,
    whose relative Hermitian ``defect`` each correlation guards and reports."""

    domain: type
    bandwidth: int
    channels: int
    operands: tuple
    defect: float


def _arrange(parts, k_out: int, k_in: int, b_out: int, rescale=None) -> PreparedBank:
    """The one writer of that layout: bank spectra holding whole output
    channels, in order.  ``rescale`` maps a degree's blocks, as a C-contiguous
    ``(k_out * k_in, 2l+1, columns)`` copy, to the divisor of that degree."""
    ops, o, defect = None, 0, 0.0
    for part in parts:
        defect = max(defect, _hermitian_rows(part, b_out)[1])
        if ops is None:  # one buffer, degree-major like a spectrum's data
            at = k_out * k_in * part._count(np.arange(b_out + 1))
            buf = np.empty(at[-1], complex)
            ops = [buf[at[l] : at[l + 1]].reshape(k_out, 2 * l + 1, k_in, -1) for l in range(b_out)]
        j = part.channels // k_in
        for l, op in enumerate(ops):  # op[o, p, k, n] = psi[o * k_in + k, p, n]
            op[o : o + j] = part.columns(l).reshape(j, k_in, 2 * l + 1, -1).transpose(0, 2, 1, 3)
        o += j
    if rescale is not None:
        for op in ops:
            op /= rescale(np.ascontiguousarray(op.transpose(0, 2, 1, 3)))
    operands = tuple(_frozen(op.reshape(k_out * op.shape[1], -1)) for op in ops)
    return PreparedBank(type(part), part.bandwidth, k_out * k_in, operands, defect)


@dataclass(frozen=True, eq=False)
class CorrelationPlan:
    """Tables for repeated correlations at fixed shapes.  The output tables
    are built with the plan; the input tables on first use by each input
    domain, and then pinned: every column for rotation-group signals, the
    n = 0 column alone for sphere signals.  A bank spectrum passed with the
    plan is arranged on first use and kept, per ``out_channels``, while it
    lives; its ``data`` is made read-only (earlier views of it cannot be)."""

    bandwidth_in: int
    bandwidth_out: int
    tables_out: WignerTables
    _banks: dict = field(default_factory=weakref.WeakKeyDictionary, init=False, repr=False)
    _lock: object = field(default_factory=threading.Lock, init=False, repr=False)

    def _prepared(self, bank, k_out: int) -> PreparedBank:
        with self._lock:  # pool threads may share a plan
            held = self._banks.setdefault(bank, {})
            data, prepared = held.get(k_out, (None, None))
            if data is not bank.data:  # first use, or ``data`` rebound since
                bank.data.flags.writeable = False
                prepared = _arrange([bank], k_out, bank.channels // k_out, self.bandwidth_out)
                held[k_out] = bank.data, prepared
            return prepared

    @cached_property
    def tables_in(self) -> WignerTables:
        return cached_tables(self.bandwidth_in)

    @cached_property
    def tables_in_s2(self) -> WignerTables:
        return cached_tables(self.bandwidth_in, "zero")


@lru_cache(maxsize=16)
def _product_rows(b_out: int) -> tuple[np.ndarray, ...]:
    """Per degree l < ``b_out``, the rows of :func:`_shell_order` that hold the
    coefficients (l, m >= 0, n), indexed ``[m, n + l]``: their packed positions
    run by degree, then m, then n."""
    rows = np.argsort(_shell_order(b_out, SO3Spectrum)[0])
    ends = np.cumsum([(l + 1) * (2 * l + 1) for l in range(b_out - 1)])
    return tuple(_frozen(q.reshape(l + 1, -1)) for l, q in enumerate(np.split(rows, ends)))


def make_correlation_plan(
    bandwidth_in: int, bandwidth_out: int | None = None
) -> CorrelationPlan:
    b_in = validate_bandwidth(bandwidth_in)
    b_out = b_in if bandwidth_out is None else bandwidth_out
    b_out = _checked_int(b_out, "output bandwidth", 1, b_in)
    return CorrelationPlan(b_in, b_out, cached_tables(b_out))


def _check_pair(psi, f, channels: bool = True) -> None:
    """A filter and a signal must share a bandwidth and, when matched
    channel by channel, a channel count."""
    if psi.bandwidth != f.bandwidth:
        raise ValueError(
            f"filter bandwidth {psi.bandwidth} != signal bandwidth {f.bandwidth}"
        )
    if channels and psi.channels != f.channels:
        raise ValueError(
            f"filter channels {psi.channels} != signal channels {f.channels}"
        )


def _resolve_plan(f, psi, plan, bandwidth_out) -> CorrelationPlan:
    _check_pair(psi, f, channels=False)
    if plan is None:
        return make_correlation_plan(f.bandwidth, bandwidth_out)
    if plan.bandwidth_in != f.bandwidth:
        raise ValueError(
            f"plan expects bandwidth {plan.bandwidth_in}, got {f.bandwidth}"
        )
    if bandwidth_out is not None and bandwidth_out != plan.bandwidth_out:
        raise ValueError("bandwidth_out conflicts with the supplied plan")
    return plan


def _split_bank(bank, k_in: int, out_channels: int | None) -> int:
    if out_channels is None:
        if bank.channels % k_in:
            raise ValueError(
                f"bank has {bank.channels} channels, not a multiple of the "
                f"signal's {k_in}"
            )
        return bank.channels // k_in
    out_channels = _checked_int(out_channels, "out_channels", 1)
    if bank.channels != out_channels * k_in:
        raise ValueError(
            f"bank has {bank.channels} channels, expected "
            f"{out_channels} * {k_in}"
        )
    return out_channels


def so3_correlate(
    psi,
    f,
    plan: CorrelationPlan | None = None,
    bandwidth_out: int | None = None,
) -> SO3Signal:
    """Correlation of a filter with a signal over all rotations, on either domain;
    channels are matched pairwise and summed, giving a single output channel."""
    return multichannel_correlate(psi, f, plan, bandwidth_out, out_channels=1)


s2_correlate = so3_correlate


def multichannel_correlate(
    bank,
    f,
    plan: CorrelationPlan | None = None,
    bandwidth_out: int | None = None,
    out_channels: int | None = None,
) -> SO3Signal:
    """Correlate a stacked filter bank against a multichannel signal.

    The bank carries ``out_channels * f.channels`` channels, laid out with
    the input channel varying fastest; output channel o is the sum over
    input channels k of the correlation of bank channel ``o * K + k`` with
    signal channel k.  The bank may be passed pre-transformed, as a
    spectrum on the same domain or as a :class:`PreparedBank`, which
    callers applying one bank to many signals should do.  A bank spectrum
    passed with a plan becomes read-only (see :class:`CorrelationPlan`):
    do not write through views of it taken earlier.
    """
    on_sphere = isinstance(f, S2Signal)
    spec_cls = S2Spectrum if on_sphere else SO3Spectrum
    k_in = f.channels
    k_out = _split_bank(bank, k_in, out_channels)
    keep = plan is not None  # only a caller's plan keeps (and freezes) a bank spectrum
    plan = _resolve_plan(f, bank, plan, bandwidth_out)
    b_out = plan.bandwidth_out

    # the product reads only the degrees l < b_out, so only they are analysed
    fwd = s2_fft_forward if on_sphere else so3_fft_forward
    tables_in = plan.tables_in_s2 if on_sphere else plan.tables_in
    if isinstance(bank, PreparedBank) and bank.domain is spec_cls:
        ps = bank
    elif isinstance(bank, spec_cls):
        ps = plan._prepared(bank, k_out) if keep else _arrange([bank], k_out, k_in, b_out)
    elif type(bank) is type(f):
        ps = _arrange([fwd(bank, tables_in, bandwidth_out=b_out)], k_out, k_in, b_out)
    else:
        raise ValueError("bank and signal must live on the same domain")
    if ps.operands[0].shape != (k_out, k_in) or len(ps.operands) < b_out:
        raise ValueError(f"bank prepared as {ps.operands[0].shape} below {len(ps.operands)}")
    residue = _guarded(ps.defect, "in the filter bank")
    fs = fwd(f, tables_in, bandwidth_out=b_out)
    rows = _product_rows(b_out)
    coeffs = np.empty((sum(at.size for at in rows), k_out), complex)
    for l, at in enumerate(rows):
        # conj(sum_kn conj(f[k,m,n]) psi[o,k,p,n]) conjugates the signal, not the larger
        # bank (on the sphere both column views hold the n = 0 column): the synthesis
        # reads this conjugated coefficient (l, m, p) at m >= 0
        fc = np.conjugate(fs.columns(l).transpose(0, 2, 1), order="C").reshape(-1, 2 * l + 1)
        prod = np.dot(ps.operands[l], fc).reshape(k_out, 2 * l + 1, 2 * l + 1)
        coeffs[at] = prod[:, :, l:].transpose(2, 1, 0)
    return _synthesis(coeffs, SO3Signal, plan.tables_out, residue)


def so3_integrate(signal: SO3Signal) -> np.ndarray:
    """Normalized Haar integral of each channel, shape ``(channels,)``."""
    return make_so3_grid(signal.bandwidth).integrate(signal.samples)


def so3_max_pool(signal: SO3Signal) -> np.ndarray:
    """Per-channel maximum over the rotation grid, shape ``(channels,)``."""
    flat = signal.samples.reshape(signal.channels, -1)
    return flat.max(axis=1)


def relu_spatial(signal):
    """Pointwise max(x, 0) on the grid samples; spills energy past the
    bandlimit, so downstream transforms see an aliased signal."""
    return type(signal)(signal.bandwidth, np.maximum(signal.samples, 0.0))


def rotate_so3_spectrum(spectrum, rotation: Rotation):
    """Coefficients of ``x -> f(R^-1 x)`` on either domain: left-multiply
    each degree's columns by the conjugate rotation matrix."""
    d = wigner_D_matrices(spectrum.bandwidth - 1, rotation)
    out = type(spectrum)(spectrum.bandwidth, np.empty_like(spectrum.data))
    for l, dl in enumerate(d):  # every block is written
        np.matmul(dl.conj(), spectrum.columns(l), out=out.columns(l))
    return out


def rotate_so3_spectral(signal, rotation: Rotation, tables: WignerTables | None = None):
    """Rotate by a round trip through coefficient space, on either domain;
    exact for bandlimited signals, unlike any pointwise interpolation."""
    on_sphere = isinstance(signal, S2Signal)
    spec = (s2_fft_forward if on_sphere else so3_fft_forward)(signal, tables)
    spec = rotate_so3_spectrum(spec, rotation)
    return (s2_fft_inverse if on_sphere else so3_fft_inverse)(spec, tables)


rotate_s2_spectrum = rotate_so3_spectrum
rotate_s2_spectral = rotate_so3_spectral


def dh_convolve(
    f: S2Signal, psi: S2Signal, tables: WignerTables | None = None
) -> S2Signal:
    """Spherical convolution; only the azimuthal average of the filter
    survives, which is exactly why correlation is the more expressive
    primitive."""
    _check_pair(psi, f)
    fs = s2_fft_forward(f, tables)
    ps = s2_fft_forward(psi, tables)
    out = S2Spectrum(f.bandwidth, np.empty_like(fs.data[:1]))
    for l in range(f.bandwidth):  # only the m = 0 entry of the filter enters
        np.matmul(ps.blocks(l)[:, l], fs.blocks(l), out=out.blocks(l)[0])
    return s2_fft_inverse(out, tables)
