"""Brute-force reference implementations used as ground truth in tests.

Everything here is built from pointwise evaluation of the basis functions
(:mod:`.harmonics`), plain grid quadrature (:mod:`.grids`) and, to project,
the direct engine's dense sum of every grid sample against the sampled
``conj(D^l_mn)`` (``gft._dft_forward``); none of it shares a numerical
kernel with the transform fast paths, and there is no FFT anywhere below.
A sphere input is the gamma = 0 slice of the rotation grid: its point
(alpha, beta) is the rotation (alpha, beta, 0), at which a sphere
spectrum's basis functions ``Y^l_m = D^l_m0`` are evaluated, so each
oracle runs one body for both domains.  The correlation oracles scale as
(grid points) x (output rotations) and therefore refuse to run above a
small bandwidth unless ``force=True``.
"""

from __future__ import annotations

import numpy as np

from .correlation import _check_pair
from .gft import S2Signal, S2Spectrum, SO3Signal, SO3Spectrum, _dft_forward, _guarded
from .grids import (
    Rotation,
    angle_samples,
    beta_samples,
    make_so3_grid,
    matrix_to_euler,
    ring_weights,
    _checked_int,
    _y_matrix,
    _z_matrix,
)
from .harmonics import wigner_D_stack

__all__ = [
    "S2_DIRECT_BANDWIDTH_CAP",
    "SO3_DIRECT_BANDWIDTH_CAP",
    "dh_convolve_direct",
    "rotate_s2_by_resampling",
    "rotate_so3_by_resampling",
    "s2_correlate_direct",
    "s2_project_direct",
    "so3_correlate_direct",
    "so3_grid_matrices",
    "so3_project_direct",
    "synthesize_s2_at",
    "synthesize_so3_at",
]

S2_DIRECT_BANDWIDTH_CAP = 8
SO3_DIRECT_BANDWIDTH_CAP = 3

_CHUNK = 512  # rotations per Wigner stack; one chunk's stack is held at a time


def _checked(psi, f, cap: int, force: bool, what: str) -> int:
    """The bandwidth of a matching filter/signal pair, refused above
    ``cap`` unless ``force``, before any work."""
    _check_pair(psi, f)
    b = f.bandwidth
    if b > cap and not force:
        raise ValueError(
            f"{what} costs O(grid^2) and is capped at bandwidth {cap}; "
            f"got {b} (pass force=True to run anyway)"
        )
    return b


def _on_rotation_grid(signal):
    """``signal``'s samples as ``(K, 2b, 2b, G)`` and its spectrum type; a
    sphere signal is the first gamma sample's slice, gamma = 0 (G = 1)."""
    if isinstance(signal, S2Signal):
        return signal.samples[..., None], S2Spectrum
    return signal.samples, SO3Spectrum


def _realized(values: np.ndarray) -> tuple[np.ndarray, float]:
    # off-grid synthesis is not real by construction: guard what it drops
    imag, real = np.max(np.abs(values.imag)), np.max(np.abs(values.real))
    return np.ascontiguousarray(values.real), _guarded(imag / max(1.0, real), "after synthesis")


def so3_project_direct(signal):
    """Coefficients by explicit weighted sums of every grid sample against
    the sampled ``conj(D^l_mn)`` (``conj(Y^l_m)`` on the sphere)."""
    return _dft_forward(*_on_rotation_grid(signal), None)


def synthesize_so3_at(spectrum, alphas, betas, gammas=0.0) -> np.ndarray:
    """Evaluate the synthesis sum at arbitrary rotations; returns complex
    values shaped ``(channels, npoints)``.  A sphere spectrum reads only
    ``D^l_m0``, which needs no gamma."""
    alphas = np.asarray(alphas, dtype=np.float64).ravel()
    betas = np.asarray(betas, dtype=np.float64).ravel()
    gammas = np.asarray(gammas, dtype=np.float64).ravel()
    gammas = np.broadcast_to(gammas, alphas.shape)
    columns = "zero" if isinstance(spectrum, S2Spectrum) else "all"
    b = spectrum.bandwidth
    out = np.zeros((spectrum.channels, alphas.size), dtype=np.complex128)
    for start in range(0, alphas.size, _CHUNK):
        sl = slice(start, min(start + _CHUNK, alphas.size))
        dd = wigner_D_stack(b - 1, alphas[sl], betas[sl], gammas[sl], columns)
        for l in range(b):
            out[:, sl] += (2 * l + 1) * np.einsum(
                "kmn,pmn->kp", spectrum.columns(l), dd[l]
            )
        del dd  # freed before the next chunk's stack is built
    return out


def _grid_matrices(bandwidth: int, gammas: int) -> np.ndarray:
    """Rotation matrices of the grid samples with the first ``gammas`` gamma
    samples, ``(2b, 2b, gammas, 3, 3)`` in (beta, alpha, gamma) layout to
    match the sample arrays; one gamma sample, 0, gives the sphere grid."""
    za = _z_matrix(angle_samples(bandwidth))
    yb = _y_matrix(beta_samples(bandwidth))
    return np.einsum("iab,jbc,kcd->jikad", za, yb, za[:gammas])


def so3_grid_matrices(bandwidth: int) -> np.ndarray:
    """Rotation matrices of every grid sample, shaped ``(2b, 2b, 2b, 3, 3)``
    in (beta, alpha, gamma) layout to match the sample arrays."""
    return _grid_matrices(bandwidth, 2 * bandwidth)


def rotate_so3_by_resampling(signal, rotation: Rotation):
    """``f(R^-1 Q)`` at every grid point Q of either domain, via synthesis
    at the rotated points; exact for bandlimited inputs."""
    b = signal.bandwidth
    samples, spectrum_cls = _on_rotation_grid(signal)
    spec = _dft_forward(samples, spectrum_cls, None)
    mats = rotation.matrix.T @ _grid_matrices(b, samples.shape[3])  # R^-1 Q
    alphas, betas, gammas = matrix_to_euler(mats.reshape(-1, 3, 3))
    values, residue = _realized(synthesize_so3_at(spec, alphas, betas, gammas))
    return type(signal)(b, values.reshape(signal.samples.shape), imag_residue=residue)


s2_project_direct = so3_project_direct
synthesize_s2_at = synthesize_so3_at
rotate_s2_by_resampling = rotate_so3_by_resampling


def _psi_at_pairs(psi, bandwidth_out: int):
    """``psi(R^-1 Q)`` for every rotation R of the ``bandwidth_out`` grid and
    every sample Q of psi's own grid, as ``(slice of R, (K, chunk, Q))``; a
    sphere filter reads only (alpha, beta) of R^-1 Q."""
    samples, spectrum_cls = _on_rotation_grid(psi)
    spec = _dft_forward(samples, spectrum_cls, None)
    rotations = so3_grid_matrices(bandwidth_out).reshape(-1, 3, 3)
    points = _grid_matrices(psi.bandwidth, samples.shape[3]).reshape(-1, 3, 3)
    step = max(1, 64 * _CHUNK // len(points))  # bounds the pair arrays
    for start in range(0, len(rotations), step):
        sl = slice(start, start + step)
        pair = np.einsum("nba,pbc->npac", rotations[sl], points, optimize=True)
        vals = synthesize_so3_at(spec, *matrix_to_euler(pair.reshape(-1, 3, 3))).real
        yield sl, vals.reshape(psi.channels, -1, len(points))


def _correlate_direct(psi, f, bandwidth_out, cap: int, force: bool, what: str):
    b = _checked(psi, f, cap, force, what)
    b_out = b if bandwidth_out is None else _checked_int(bandwidth_out, "output bandwidth", 1, b)
    samples = _on_rotation_grid(f)[0]
    weights = ring_weights(b) / (2 * b * samples.shape[3])  # the grid's, per ring
    weighted = (samples * weights[:, None, None]).reshape(f.channels, -1)
    out = np.empty((2 * b_out) ** 3)
    for sl, vals in _psi_at_pairs(psi, b_out):
        out[sl] = np.einsum("knp,kp->n", vals, weighted)
    n = 2 * b_out
    return SO3Signal(b_out, out.reshape(1, n, n, n))


def s2_correlate_direct(
    psi: S2Signal, f: S2Signal, bandwidth_out: int | None = None, force: bool = False
) -> SO3Signal:
    """``C(R) = sum_k <L_R psi_k, f_k>`` by quadrature over the sphere grid,
    at every output grid rotation."""
    return _correlate_direct(
        psi, f, bandwidth_out, S2_DIRECT_BANDWIDTH_CAP, force, "s2_correlate_direct"
    )


def so3_correlate_direct(
    psi: SO3Signal, f: SO3Signal, bandwidth_out: int | None = None, force: bool = False
) -> SO3Signal:
    """``C(R) = sum_k <L_R psi_k, f_k>`` on the rotation group, by
    quadrature over every grid rotation."""
    return _correlate_direct(
        psi, f, bandwidth_out, SO3_DIRECT_BANDWIDTH_CAP, force, "so3_correlate_direct"
    )


def dh_convolve_direct(f: S2Signal, psi: S2Signal, force: bool = False) -> S2Signal:
    """Spherical convolution ``integral f(R n) psi(R^-1 x) dR`` by Haar
    quadrature over the rotation grid, evaluated per output grid point."""
    b = _checked(psi, f, S2_DIRECT_BANDWIDTH_CAP, force, "dh_convolve_direct")
    # f(R n) only sees (alpha, beta) of R: lift the samples along gamma
    n = 2 * b
    lifted = np.broadcast_to(
        f.samples[:, :, :, None] * make_so3_grid(b).weights[None, :, None, None],
        (f.channels, n, n, n),
    ).reshape(f.channels, -1)
    out = np.zeros(n * n)
    for sl, vals in _psi_at_pairs(psi, b):
        out += np.einsum("knp,kn->p", vals, lifted[:, sl])
    return S2Signal(b, out.reshape(1, n, n))
