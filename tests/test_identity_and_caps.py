"""Array-holding records compare by identity; ingestion refuses, with exit 2,
sample grids over the memory cap; the CLI refuses a container of the wrong
kind with exit 2 and writes nothing."""

import numpy as np
import pytest

from so3fft import cli
from so3fft.cli import main
from so3fft.correlation import make_correlation_plan
from so3fft.gft import S2Signal, SO3Signal, bandlimit_s2, s2_fft_forward
from so3fft.grids import make_s2_grid, make_so3_grid
from so3fft.harmonics import ResourceLimitError, build_tables
from so3fft.signals import (
    MoleculeSpec,
    PlanarImage,
    molecule_channels,
    project_image,
    write_container,
)

HUGE = 1_000_000  # numpy would be asked for terabytes of sample grid

MAKERS = {
    "WignerTables": lambda: build_tables(2),
    "S2Grid": lambda: make_s2_grid(2),
    "SO3Grid": lambda: make_so3_grid(2),
    "PlanarImage": lambda: PlanarImage(np.full((2, 2), 0.5)),
    "MoleculeSpec": lambda: MoleculeSpec(np.zeros((1, 3)), np.ones(1), 1.0),
    "CorrelationPlan": lambda: make_correlation_plan(2),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_records_compare_and_hash_by_identity(name):
    a, b = MAKERS[name](), MAKERS[name]()  # equal contents, distinct objects
    assert a == a
    assert a != b
    assert len({a, b, a}) == 2


def test_ingestion_refuses_grids_over_the_cap():
    with pytest.raises(ResourceLimitError, match="cap"):
        project_image(PlanarImage(np.full((2, 2), 0.5)), HUGE)
    molecule = MoleculeSpec(np.array([[0.0, 0, 0], [1.5, 0, 0]]), np.ones(2), 0.5)
    with pytest.raises(ResourceLimitError, match="cap"):
        molecule_channels(molecule, 0, HUGE)


@pytest.fixture
def inputs(tmp_path):
    pgm = tmp_path / "img.pgm"
    pgm.write_bytes(b"P2\n2 2\n255\n10 20 30 40\n")
    mol = tmp_path / "mol.txt"
    mol.write_text("1 0 0 0\n6 1.5 0 0\n")
    return {"image": pgm, "molecule": mol}


HUGE_RUNS = {
    "project-image": lambda f, out: [
        "project-image", "--image", str(f["image"]), "--output", out,
        "--bandwidth", str(HUGE),
    ],
    "project-molecule": lambda f, out: [
        "project-molecule", "--molecule", str(f["molecule"]), "--output", out,
        "--bandwidth", str(HUGE),
    ],
    "bench": lambda f, out: [
        "bench", "--kind", "so3", "--bandwidths", str(HUGE), "--output", out,
    ],
    "equivariance": lambda f, out: [
        "equivariance", "--bandwidth", str(HUGE), "--output", out,
    ],
}


@pytest.mark.parametrize("command", sorted(HUGE_RUNS))
def test_huge_bandwidth_exits_two_without_a_traceback(tmp_path, inputs, capsys, command):
    out = tmp_path / "out"
    assert main(HUGE_RUNS[command](inputs, str(out))) == 2
    err = capsys.readouterr().err
    assert "cap" in err and "Traceback" not in err
    assert not out.exists()


def test_memory_error_maps_to_exit_two(tmp_path, inputs, capsys, monkeypatch):
    def exhausted(image, bandwidth):
        raise MemoryError("out of memory")

    monkeypatch.setattr(cli, "project_image", exhausted)
    out = tmp_path / "out.ssf"
    code = main([
        "project-image", "--image", str(inputs["image"]),
        "--bandwidth", "4", "--output", str(out),
    ])
    assert code == 2
    assert "out of memory" in capsys.readouterr().err
    assert not out.exists()


def test_correlate_refuses_containers_of_the_wrong_kind(tmp_path, capsys):
    rng = np.random.default_rng(3)
    signal = bandlimit_s2(S2Signal(2, rng.standard_normal((1, 4, 4))))
    files = {
        "s2": signal,
        "s2spec": s2_fft_forward(signal),
        "so3": SO3Signal(2, rng.standard_normal((1, 4, 4, 4))),
    }
    for name, obj in files.items():
        write_container(tmp_path / f"{name}.ssf", obj)
    out = tmp_path / "out.ssf"
    for filt, sig, stored in (("s2spec", "s2", "S2Spectrum"), ("s2", "so3", "SO3Signal")):
        code = main([
            "correlate", "--kind", "s2",
            "--filter", str(tmp_path / f"{filt}.ssf"),
            "--signal", str(tmp_path / f"{sig}.ssf"),
            "--output", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert stored in err and "expected S2Signal" in err
        assert not out.exists()
