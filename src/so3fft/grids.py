"""Sampling grids, quadrature weights, and ZYZ rotation bookkeeping.

Conventions used throughout the package:

* A rotation is parameterised by ZYZ Euler angles ``(alpha, beta, gamma)``,
  meaning ``Z(alpha) @ Y(beta) @ Z(gamma)`` acting on column vectors, with
  ``alpha, gamma`` in ``[0, 2*pi)`` and ``beta`` in ``[0, pi]``.
* A point on the sphere is ``(alpha, beta)`` with ``alpha`` the azimuth and
  ``beta`` the colatitude; ``beta = 0`` is the north pole ``(0, 0, 1)``.
* Both the sphere and the rotation group carry probability measures, so the
  quadrature of the constant function 1 is exactly 1.  In ZYZ coordinates the
  measure factorises as ``dalpha/2pi * sin(beta)/2 dbeta * dgamma/2pi``.

At bandwidth ``b`` each angle gets ``2b`` equispaced samples.  The colatitude
samples are offset by half a step, ``beta_j = pi*(2j+1)/(4b)``, so no sample
falls on a pole.  The per-ring quadrature weights below make the colatitude
sums exact for integrands that are polynomials of degree < 2b in cos(beta),
which is what makes forward-then-inverse transforms exact on bandlimited
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GIMBAL_EPS",
    "Rotation",
    "S2Grid",
    "SO3Grid",
    "angle_samples",
    "beta_samples",
    "cartesian_to_sphere",
    "compose",
    "inverse",
    "make_s2_grid",
    "make_so3_grid",
    "matrix_to_euler",
    "random_rotation",
    "ring_weights",
    "rotation_to_matrix",
    "sphere_to_cartesian",
    "validate_bandwidth",
]

# Below this value of sin(beta) the alpha and gamma axes are degenerate and
# the full Z-rotation is folded into alpha (gamma set to 0).
GIMBAL_EPS = 1e-9

_TWO_PI = 2.0 * np.pi


def _checked_int(value, name: str, low: int, high: int | None = None) -> int:
    """``value`` as an int: ``TypeError`` unless an integer, ``ValueError``
    below ``low`` or, when given, above ``high``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be in {low}..{high}, got {value}")
    return int(value)


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only: it is shared by every caller."""
    array.flags.writeable = False
    return array


def validate_bandwidth(bandwidth) -> int:
    """Return ``bandwidth`` as an int, rejecting anything that is not >= 1."""
    return _checked_int(bandwidth, "bandwidth", 1)


def angle_samples(bandwidth: int) -> np.ndarray:
    """The 2b equispaced azimuth samples ``2*pi*i / (2b)``."""
    b = validate_bandwidth(bandwidth)
    return np.arange(2 * b) * (np.pi / b)


def beta_samples(bandwidth: int) -> np.ndarray:
    """The 2b pole-avoiding colatitude samples ``pi*(2j+1) / (4b)``."""
    b = validate_bandwidth(bandwidth)
    return (2.0 * np.arange(2 * b) + 1.0) * (np.pi / (4 * b))


def ring_weights(bandwidth: int) -> np.ndarray:
    """Quadrature weights for the offset colatitude samples, summing to 1.

    ``sum_j w[j] * p(cos(beta_j))`` equals ``integral p(cos(beta)) *
    sin(beta)/2 dbeta`` over ``[0, pi]`` for every polynomial ``p`` of degree
    < 2b.  The closed form is a sine series; the final renormalisation only
    removes float rounding (the analytic sum is already 1).
    """
    b = validate_bandwidth(bandwidth)
    j = 2.0 * np.arange(2 * b) + 1.0
    k = 2.0 * np.arange(b) + 1.0
    series = np.sin(np.outer(j, k) * (np.pi / (4 * b))) @ (1.0 / k)
    w = (1.0 / b) * np.sin(j * (np.pi / (4 * b))) * series
    return w / w.sum()


def sphere_to_cartesian(alpha, beta) -> np.ndarray:
    """Unit vectors for azimuth/colatitude pairs; output shape ``(..., 3)``."""
    alpha = np.asarray(alpha, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    sb = np.sin(beta)
    return np.stack([sb * np.cos(alpha), sb * np.sin(alpha), np.cos(beta)], axis=-1)


def cartesian_to_sphere(xyz) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`sphere_to_cartesian` for unit vectors ``(..., 3)``.

    The colatitude comes from atan2 of the in-plane radius rather than
    arccos(z), which keeps it accurate right up to the poles.
    """
    xyz = np.asarray(xyz, dtype=np.float64)
    planar = np.hypot(xyz[..., 0], xyz[..., 1])
    beta = np.arctan2(planar, xyz[..., 2])
    alpha = np.arctan2(xyz[..., 1], xyz[..., 0]) % _TWO_PI
    return alpha, beta


@dataclass(frozen=True, eq=False)
class _Grid:
    """Equiangular grid with 2b samples per axis, ``[beta, alpha, ...]``;
    ``weights[j]`` is the per-sample quadrature weight shared by every
    sample on colatitude ring ``j``.  Subclasses differ only in their
    number of axes, ``_axes``."""

    bandwidth: int
    alphas: np.ndarray
    betas: np.ndarray
    weights: np.ndarray

    @classmethod
    def _make(cls, bandwidth: int):
        b = validate_bandwidth(bandwidth)
        weights = ring_weights(b) / (2 * b) ** (cls._axes - 1)
        return cls(b, angle_samples(b), beta_samples(b), weights)

    @property
    def shape(self) -> tuple[int, ...]:
        return (2 * self.bandwidth,) * self._axes

    def integrate(self, samples: np.ndarray) -> np.ndarray:
        """Quadrature over the grid's trailing axes, (beta, alpha[, gamma])."""
        samples = np.asarray(samples)
        if samples.shape[-self._axes :] != self.shape:
            raise ValueError(
                f"expected trailing shape {self.shape}, got {samples.shape}"
            )
        axes = [..., *range(self._axes)]
        return np.einsum(samples, axes, self.weights, [0], [...])


class S2Grid(_Grid):
    """Equiangular 2b x 2b sphere grid over (beta, alpha)."""

    _axes = 2


class SO3Grid(_Grid):
    """Equiangular 2b x 2b x 2b rotation grid over (beta, alpha, gamma);
    the gamma samples are the alpha samples."""

    _axes = 3

    @property
    def gammas(self) -> np.ndarray:
        return self.alphas


def make_s2_grid(bandwidth: int) -> S2Grid:
    return S2Grid._make(bandwidth)


def make_so3_grid(bandwidth: int) -> SO3Grid:
    return SO3Grid._make(bandwidth)


def _canonical_angles(alpha: float, beta: float, gamma: float):
    if not (np.isfinite(alpha) and np.isfinite(beta) and np.isfinite(gamma)):
        raise ValueError("rotation angles must be finite")
    beta = float(beta) % _TWO_PI
    if beta > np.pi:
        # Y(beta) = Y(beta - 2pi) and Y(-t) = Z(pi) Y(t) Z(-pi)
        beta = _TWO_PI - beta
        alpha = alpha + np.pi
        gamma = gamma - np.pi
    alpha = float(alpha) % _TWO_PI
    gamma = float(gamma) % _TWO_PI
    if np.sin(beta) < GIMBAL_EPS:
        # alpha and gamma rotate about the same axis: keep only alpha
        if beta < 0.5 * np.pi:
            alpha = (alpha + gamma) % _TWO_PI
        else:
            alpha = (alpha - gamma) % _TWO_PI
        gamma = 0.0
    return alpha, beta, gamma


@dataclass(frozen=True)
class Rotation:
    """A rotation in canonical ZYZ form.

    Construction canonicalises the angles: beta is folded into ``[0, pi]``,
    alpha/gamma are reduced modulo 2*pi, and near the gimbal locus
    (``sin(beta) < 1e-9``) the full Z-rotation is folded into alpha.
    """

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        a, b, g = _canonical_angles(self.alpha, self.beta, self.gamma)
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)
        object.__setattr__(self, "gamma", g)

    @property
    def matrix(self) -> np.ndarray:
        return rotation_to_matrix(self)

    @classmethod
    def identity(cls) -> "Rotation":
        return cls(0.0, 0.0, 0.0)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "Rotation":
        a, b, g = matrix_to_euler(matrix)
        return cls(float(a), float(b), float(g))


def _plane_rotation(t, i: int, j: int) -> np.ndarray:
    """Rotations by the angles ``t`` taking axis i toward axis j, ``t.shape + (3, 3)``."""
    t = np.asarray(t, dtype=np.float64)
    out = np.zeros(t.shape + (3, 3))
    out[..., [0, 1, 2], [0, 1, 2]] = 1.0
    out[..., i, i] = out[..., j, j] = np.cos(t)
    out[..., j, i] = np.sin(t)
    out[..., i, j] = -out[..., j, i]
    return out


def _z_matrix(t) -> np.ndarray:
    return _plane_rotation(t, 0, 1)


def _y_matrix(t) -> np.ndarray:
    return _plane_rotation(t, 2, 0)


def rotation_to_matrix(rotation: Rotation) -> np.ndarray:
    """The 3x3 matrix ``Z(alpha) @ Y(beta) @ Z(gamma)``."""
    return (
        _z_matrix(rotation.alpha)
        @ _y_matrix(rotation.beta)
        @ _z_matrix(rotation.gamma)
    )


def matrix_to_euler(matrix: np.ndarray):
    """ZYZ angles of rotation matrices, canonicalised; accepts ``(..., 3, 3)``.

    Returns three arrays (or scalars) ``alpha, beta, gamma``.  On the gimbal
    locus the Z-rotation is assigned entirely to alpha.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise ValueError(f"expected (..., 3, 3) matrices, got shape {m.shape}")
    # |sin beta| measured from the entries that actually carry it; arccos of
    # m[2,2] would overestimate it near the gimbal locus, where the third
    # column's xy part is pure roundoff and atan2 on it returns noise
    sin_beta = np.hypot(m[..., 0, 2], m[..., 1, 2])
    cos_beta = np.clip(m[..., 2, 2], -1.0, 1.0)
    beta = np.arctan2(sin_beta, cos_beta)
    regular = sin_beta >= GIMBAL_EPS

    alpha = np.where(
        regular,
        np.arctan2(m[..., 1, 2], m[..., 0, 2]),
        np.where(
            cos_beta > 0.0,
            np.arctan2(m[..., 1, 0], m[..., 0, 0]),
            np.arctan2(-m[..., 1, 0], -m[..., 0, 0]),
        ),
    )
    gamma = np.where(regular, np.arctan2(m[..., 2, 1], -m[..., 2, 0]), 0.0)
    beta = np.where(regular, beta, np.where(cos_beta > 0.0, 0.0, np.pi))
    alpha = alpha % _TWO_PI
    gamma = gamma % _TWO_PI
    if m.ndim == 2:
        return float(alpha), float(beta), float(gamma)
    return alpha, beta, gamma


def compose(first: Rotation, second: Rotation) -> Rotation:
    """The rotation acting as ``second`` followed by ``first`` (matrix
    product ``first.matrix @ second.matrix``), in canonical angles."""
    return Rotation.from_matrix(first.matrix @ second.matrix)


def inverse(rotation: Rotation) -> Rotation:
    """Inverse rotation ``Z(-gamma) Y(-beta) Z(-alpha)``, canonicalised."""
    return Rotation(-rotation.gamma, -rotation.beta, -rotation.alpha)


def random_rotation(rng: np.random.Generator) -> Rotation:
    """A rotation drawn from the Haar (uniform) distribution."""
    alpha = rng.uniform(0.0, _TWO_PI)
    gamma = rng.uniform(0.0, _TWO_PI)
    beta = np.arccos(rng.uniform(-1.0, 1.0))
    return Rotation(alpha, beta, gamma)
