"""Refusals before any work: the public Wigner stacks, and the first read of
a table's ``d``, estimate their peak and raise ``ResourceLimitError`` over
the table cap before the recurrence or its index maps run; a molecule's
center atom must be an integer index."""

import tracemalloc

import numpy as np
import pytest

from so3fft import harmonics
from so3fft.grids import Rotation, ring_weights
from so3fft.harmonics import (
    ResourceLimitError,
    WignerTables,
    build_tables,
    wigner_D_matrices,
    wigner_D_stack,
    wigner_d_stack,
)
from so3fft.signals import MoleculeSpec, molecule_channels


@pytest.fixture
def nothing_computed(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the stack was computed despite the cap")

    monkeypatch.setattr(harmonics, "_unfold", refuse)
    monkeypatch.setattr(harmonics, "_shell_rows", refuse)


REFUSED = {
    "d-stack-515": lambda: wigner_d_stack(515, [0.3]),
    "D-matrices-515": lambda: wigner_D_matrices(515, Rotation(0.1, 0.2, 0.3)),
    "tables-128-d": lambda: WignerTables(128, ring_weights(128)).d,
    # build_tables accepts b = 94..97, whose d alone passes the cap
    "built-tables-96-d": lambda: build_tables(96).d,
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_stack_over_the_cap_is_refused_before_computing(nothing_computed, name):
    with pytest.raises(ResourceLimitError, match="over the cap"):
        REFUSED[name]()


def test_complex_stack_counts_its_complex_blocks(nothing_computed):
    # at 400 angles the real l_max = 60 stack fits under the cap, its
    # complex blocks (16 bytes an entry and angle more) do not
    betas = np.linspace(0.1, 3.0, 400)
    harmonics._checked_stack(60, "all", betas.size, False)
    with pytest.raises(ResourceLimitError):
        wigner_D_stack(60, betas, betas, betas)


@pytest.mark.parametrize("columns", ["all", "zero"])
@pytest.mark.parametrize("points", [1, 64])
@pytest.mark.parametrize("blocks", ["real", "complex"])
def test_estimate_bounds_the_traced_peak(monkeypatch, columns, points, blocks):
    estimates, check = [], harmonics._check_cap

    def recording(need, *args):
        estimates.append(need)
        check(need, *args)

    monkeypatch.setattr(harmonics, "_check_cap", recording)
    betas = np.linspace(0.1, 3.0, points)
    harmonics._unfold.cache_clear()
    tracemalloc.start()
    try:
        if blocks == "real":
            wigner_d_stack(40, betas, columns)
        else:
            wigner_D_stack(40, betas, betas, betas, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < peak <= estimates[0]


def test_stacks_in_reach_pass_the_estimate():
    stack = wigner_d_stack(514, [0.3], "zero")
    assert stack[514].shape == (1, 1029, 1)
    # the d of full tables at b = 93, the largest whose first read is allowed
    assert harmonics._checked_stack(92, "all", 2 * 93, False) == (92, True)


@pytest.mark.parametrize("center", [True, 1.0, "0"])
def test_molecule_center_must_be_an_integer(center):
    mol = MoleculeSpec(np.array([[0.0, 0, 0], [0, 0, 3.0]]), np.array([1.0, 6.0]), 1.0)
    with pytest.raises(TypeError, match="center must be an integer"):
        molecule_channels(mol, center, bandwidth=2)


def test_molecule_center_takes_numpy_integers():
    mol = MoleculeSpec(np.array([[0.0, 0, 0], [0, 0, 3.0]]), np.array([1.0, 6.0]), 1.0)
    got = molecule_channels(mol, np.int64(1), bandwidth=2)
    np.testing.assert_array_equal(got.samples, molecule_channels(mol, 1, bandwidth=2).samples)
    with pytest.raises(ValueError, match="out of range"):
        molecule_channels(mol, np.int64(2), bandwidth=2)
