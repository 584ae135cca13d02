"""Fast Fourier analysis and correlation on the sphere and rotation group.

The package is organized bottom-up:

- :mod:`so3fft.grids` - equiangular grids, quadrature weights, ZYZ rotations
- :mod:`so3fft.harmonics` - Wigner d/D matrices and spherical harmonics
- :mod:`so3fft.gft` - forward/inverse transforms, fast (FFT) and direct paths
- :mod:`so3fft.correlation` - spectral correlation, rotation, convolution
- :mod:`so3fft.oracle` - brute-force references the fast paths are tested against
- :mod:`so3fft.harness` - equivariance experiment and benchmarks
- :mod:`so3fft.signals` - image/molecule ingestion and the SSF1 container
- :mod:`so3fft.cli` - the ``so3fft`` command

Public in a module means public in the package: ``__all__`` is the
concatenation of the six library modules' ``__all__``.  The oracle and the
CLI stay out.
"""

from . import correlation, gft, grids, harmonics, harness, signals
from .correlation import *  # noqa: F403
from .gft import *  # noqa: F403
from .grids import *  # noqa: F403
from .harmonics import *  # noqa: F403
from .harness import *  # noqa: F403
from .signals import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (correlation, gft, grids, harmonics, harness, signals)
    for name in module.__all__
]
