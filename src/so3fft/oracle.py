"""Brute-force reference implementations used as ground truth in tests.

Everything here is built from pointwise evaluation of the basis functions
(:mod:`.harmonics`) and plain grid quadrature (:mod:`.grids`); none of it
shares a numerical kernel with the transform fast paths, and there is no FFT
anywhere below.  The correlation oracles scale as (grid points) x (output
rotations) and therefore refuse to run above a small bandwidth unless
``force=True``.
"""

from __future__ import annotations

import numpy as np

from .correlation import _check_pair
from .gft import S2Signal, S2Spectrum, SO3Signal, SO3Spectrum, _realized
from .grids import (
    Rotation,
    cartesian_to_sphere,
    make_s2_grid,
    make_so3_grid,
    matrix_to_euler,
    ring_weights,
    sphere_to_cartesian,
    _y_matrix,
    _z_matrix,
)
from .harmonics import wigner_D_stack, wigner_d_stack

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

_CHUNK = 512


def _require_small(bandwidth: int, cap: int, force: bool, what: str) -> None:
    if bandwidth > cap and not force:
        raise ValueError(
            f"{what} costs O(grid^2) and is capped at bandwidth {cap}; "
            f"got {bandwidth} (pass force=True to run anyway)"
        )


def _project_direct(samples: np.ndarray, spectrum_cls):
    """Coefficients of samples ``(K, 2b, 2b, G)`` by explicit weighted sums
    of every grid sample against the sampled ``conj(D^l_mn)``; a sphere
    signal has a single gamma sample (G = 1), so only ``n = 0`` enters."""
    k, n, _, gammas = samples.shape
    b = n // 2
    grid = make_so3_grid(b)
    full = gammas > 1
    d = wigner_d_stack(b - 1, grid.betas, "all" if full else "zero")
    weights = ring_weights(b) / (n * gammas)  # with the alpha, gamma averages
    out = spectrum_cls.zeros(b, k)
    for l in range(b):
        m = np.arange(-l, l + 1)
        ea = np.exp(1j * np.outer(m, grid.alphas))  # e^{+i m alpha_i}
        eg = np.exp(1j * np.outer(m, grid.gammas)) if full else np.ones((1, 1))
        out.columns(l)[:] = np.einsum(
            "j,jmn,mi,nk,cjik->cmn", weights, d[l], ea, eg, samples, optimize=True
        )
    return out


def s2_project_direct(signal: S2Signal) -> S2Spectrum:
    """Coefficients by explicit weighted sums of every grid sample against
    the sampled ``conj(Y^l_m)``."""
    return _project_direct(signal.samples[..., None], S2Spectrum)


def so3_project_direct(signal: SO3Signal) -> SO3Spectrum:
    """Coefficients by explicit weighted sums of every grid sample against
    the sampled ``conj(D^l_mn)``."""
    return _project_direct(signal.samples, SO3Spectrum)


def _synthesize_at(spectrum, alphas, betas, gammas=0.0) -> np.ndarray:
    """The synthesis sum at arbitrary rotations, complex ``(channels,
    npoints)``; a sphere spectrum reads only ``D^l_m0``, which needs no
    gamma."""
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
    return out


def synthesize_s2_at(spectrum: S2Spectrum, alphas, betas) -> np.ndarray:
    """Evaluate the synthesis sum at arbitrary points; returns complex
    values shaped ``(channels, npoints)``."""
    return _synthesize_at(spectrum, alphas, betas)


def synthesize_so3_at(spectrum: SO3Spectrum, alphas, betas, gammas) -> np.ndarray:
    """Evaluate the synthesis sum at arbitrary rotations; returns complex
    values shaped ``(channels, npoints)``."""
    return _synthesize_at(spectrum, alphas, betas, gammas)


def so3_grid_matrices(bandwidth: int) -> np.ndarray:
    """Rotation matrices of every grid sample, shaped ``(2b, 2b, 2b, 3, 3)``
    in (beta, alpha, gamma) layout to match the sample arrays."""
    grid = make_so3_grid(bandwidth)
    za = _z_matrix(grid.alphas)
    yb = _y_matrix(grid.betas)
    zg = _z_matrix(grid.gammas)
    return np.einsum("iab,jbc,kcd->jikad", za, yb, zg)


def rotate_s2_by_resampling(signal: S2Signal, rotation: Rotation) -> S2Signal:
    """``f(R^-1 x)`` at every grid point, via synthesis at the rotated
    points; exact for bandlimited inputs."""
    b = signal.bandwidth
    grid = make_s2_grid(b)
    spec = s2_project_direct(signal)
    av, bv = np.meshgrid(grid.alphas, grid.betas)  # (beta, alpha) layout
    points = sphere_to_cartesian(av, bv) @ rotation.matrix  # R^-1 x = R^T x
    alphas, betas = cartesian_to_sphere(points)
    values, residue = _realized(synthesize_s2_at(spec, alphas, betas))
    return S2Signal(b, values.reshape(signal.samples.shape), imag_residue=residue)


def rotate_so3_by_resampling(signal: SO3Signal, rotation: Rotation) -> SO3Signal:
    """``f(R^-1 Q)`` at every grid rotation Q, via synthesis."""
    b = signal.bandwidth
    spec = so3_project_direct(signal)
    mats = np.einsum("ab,jikbc->jikac", rotation.matrix.T, so3_grid_matrices(b))
    alphas, betas, gammas = matrix_to_euler(mats.reshape(-1, 3, 3))
    values, residue = _realized(synthesize_so3_at(spec, alphas, betas, gammas))
    return SO3Signal(b, values.reshape(signal.samples.shape), imag_residue=residue)


def s2_correlate_direct(
    psi: S2Signal,
    f: S2Signal,
    bandwidth_out: int | None = None,
    force: bool = False,
) -> SO3Signal:
    """``C(R) = sum_k <L_R psi_k, f_k>`` by quadrature, one output rotation
    at a time."""
    _check_pair(psi, f)
    b = f.bandwidth
    _require_small(b, S2_DIRECT_BANDWIDTH_CAP, force, "s2_correlate_direct")
    b_out = b if bandwidth_out is None else bandwidth_out
    if b_out > b:
        raise ValueError("output bandwidth cannot exceed input bandwidth")

    in_grid = make_s2_grid(b)
    spec_psi = s2_project_direct(psi)
    av, bv = np.meshgrid(in_grid.alphas, in_grid.betas)
    points = sphere_to_cartesian(av, bv).reshape(-1, 3)  # (P, 3)
    weighted = (
        f.samples * in_grid.weights[None, :, None]
    ).reshape(f.channels, -1)

    rot = so3_grid_matrices(b_out).reshape(-1, 3, 3)
    out = np.empty(rot.shape[0])
    step = max(1, _CHUNK // max(1, points.shape[0] // 64))
    for start in range(0, rot.shape[0], step):
        sl = slice(start, min(start + step, rot.shape[0]))
        # R^-1 x for every (rotation, grid point) pair in the chunk
        qpts = np.einsum("nba,pb->npa", rot[sl], points)
        alphas, betas = cartesian_to_sphere(qpts)
        vals = synthesize_s2_at(spec_psi, alphas, betas).real
        vals = vals.reshape(f.channels, alphas.shape[0], alphas.shape[1])
        out[sl] = np.einsum("knp,kp->n", vals, weighted)
    n = 2 * b_out
    return SO3Signal(b_out, out.reshape(1, n, n, n))


def so3_correlate_direct(
    psi: SO3Signal,
    f: SO3Signal,
    bandwidth_out: int | None = None,
    force: bool = False,
) -> SO3Signal:
    """``C(R) = sum_k <L_R psi_k, f_k>`` on the rotation group, by
    quadrature over every grid rotation."""
    _check_pair(psi, f)
    b = f.bandwidth
    _require_small(b, SO3_DIRECT_BANDWIDTH_CAP, force, "so3_correlate_direct")
    b_out = b if bandwidth_out is None else bandwidth_out
    if b_out > b:
        raise ValueError("output bandwidth cannot exceed input bandwidth")

    in_grid = make_so3_grid(b)
    spec_psi = so3_project_direct(psi)
    qmats = so3_grid_matrices(b).reshape(-1, 3, 3)  # (P, 3, 3)
    weighted = (
        f.samples * in_grid.weights[None, :, None, None]
    ).reshape(f.channels, -1)

    rot = so3_grid_matrices(b_out).reshape(-1, 3, 3)
    out = np.empty(rot.shape[0])
    for start in range(0, rot.shape[0], 64):
        sl = slice(start, min(start + 64, rot.shape[0]))
        # R^-1 Q for every pair in the chunk
        pair = np.einsum("nba,pbc->npac", rot[sl], qmats)
        alphas, betas, gammas = matrix_to_euler(pair.reshape(-1, 3, 3))
        vals = synthesize_so3_at(spec_psi, alphas, betas, gammas).real
        vals = vals.reshape(f.channels, sl.stop - sl.start, qmats.shape[0])
        out[sl] = np.einsum("knp,kp->n", vals, weighted)
    n = 2 * b_out
    return SO3Signal(b_out, out.reshape(1, n, n, n))


def dh_convolve_direct(f: S2Signal, psi: S2Signal, force: bool = False) -> S2Signal:
    """Spherical convolution ``integral f(R n) psi(R^-1 x) dR`` by Haar
    quadrature over the rotation grid, evaluated per output grid point."""
    _check_pair(psi, f)
    b = f.bandwidth
    _require_small(b, S2_DIRECT_BANDWIDTH_CAP, force, "dh_convolve_direct")

    s2_grid = make_s2_grid(b)
    so3_grid = make_so3_grid(b)
    spec_psi = s2_project_direct(psi)

    # f(R n) only sees (alpha, beta) of R: lift the samples along gamma
    n = 2 * b
    lifted = np.broadcast_to(
        f.samples[:, :, :, None] * so3_grid.weights[None, :, None, None],
        (f.channels, n, n, n),
    ).reshape(f.channels, -1)

    rot = so3_grid_matrices(b).reshape(-1, 3, 3)
    av, bv = np.meshgrid(s2_grid.alphas, s2_grid.betas)
    points = sphere_to_cartesian(av, bv).reshape(-1, 3)

    out = np.zeros(points.shape[0])
    for start in range(0, rot.shape[0], 64):
        sl = slice(start, min(start + 64, rot.shape[0]))
        qpts = np.einsum("nba,pb->npa", rot[sl], points)
        alphas, betas = cartesian_to_sphere(qpts)
        vals = synthesize_s2_at(spec_psi, alphas, betas).real
        vals = vals.reshape(f.channels, sl.stop - sl.start, points.shape[0])
        out += np.einsum("knp,kn->p", vals, lifted[:, sl])
    return S2Signal(b, out.reshape(1, n, n))
