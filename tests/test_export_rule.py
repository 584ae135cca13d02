"""Public in a module means public in the package.

``so3fft.__all__`` is derived from the library modules' own ``__all__``,
so a name is declared public in exactly one place.
"""

import importlib
import inspect

import pytest

import so3fft

LIBRARY = ["correlation", "gft", "grids", "harmonics", "harness", "signals"]

# the package's exports before they were derived from the modules
EXPORTED_BEFORE = {
    "correlation": [
        "CorrelationPlan", "dh_convolve", "make_correlation_plan",
        "multichannel_correlate", "relu_spatial", "rotate_s2_spectral",
        "rotate_s2_spectrum", "rotate_so3_spectral", "rotate_so3_spectrum",
        "s2_correlate", "so3_correlate", "so3_integrate", "so3_max_pool",
    ],
    "gft": [
        "GuardError", "S2Signal", "S2Spectrum", "SO3Signal", "SO3Spectrum",
        "bandlimit_s2", "bandlimit_so3", "lift_s2_to_so3",
        "s2_coefficient_count", "s2_dft_forward", "s2_dft_inverse",
        "s2_fft_forward", "s2_fft_inverse", "so3_coefficient_count",
        "so3_dft_forward", "so3_dft_inverse", "so3_fft_forward",
        "so3_fft_inverse",
    ],
    "grids": [
        "Rotation", "S2Grid", "SO3Grid", "compose", "inverse", "make_s2_grid",
        "make_so3_grid", "random_rotation", "ring_weights", "validate_bandwidth",
    ],
    "harmonics": [
        "ResourceLimitError", "WignerTables", "build_tables", "cached_tables",
        "spherical_harmonics", "wigner_D_matrices", "wigner_d_matrices",
    ],
    "harness": [
        "EquivarianceConfig", "EquivarianceReport", "run_bench", "run_equivariance",
    ],
    "signals": [
        "ContainerError", "MoleculeSpec", "PlanarImage", "molecule_channels",
        "project_image", "read_container", "read_molecule", "read_pgm",
        "write_container",
    ],
}


def _module(name):
    return importlib.import_module(f"so3fft.{name}")


def test_package_all_is_the_modules_all_concatenated():
    expected = [n for name in LIBRARY for n in _module(name).__all__]
    assert so3fft.__all__ == expected
    assert len(set(expected)) == len(expected)


@pytest.mark.parametrize("name", LIBRARY)
def test_every_public_definition_is_in_its_modules_all(name):
    module = _module(name)
    defined = {
        attr
        for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert sorted(defined - set(module.__all__)) == []


def test_the_earlier_exports_still_resolve_to_their_module_objects():
    assert sum(len(names) for names in EXPORTED_BEFORE.values()) == 61
    for name, names in EXPORTED_BEFORE.items():
        module = _module(name)
        for attr in names:
            assert attr in so3fft.__all__
            assert getattr(so3fft, attr) is getattr(module, attr), attr


def test_oracle_and_cli_stay_out_of_the_package_namespace():
    from so3fft import cli, oracle

    for module in (cli, oracle):
        assert not set(module.__all__) & set(so3fft.__all__)
