"""One definition for each operation that runs on both domains: every S2
name is bound to its SO(3) function, whose body reads the domain from its
operand.  Also: a container whose header claims a layout foreign to its
type is refused, and the equivariance config stores its flags as bools."""

import json
import re
import struct

import numpy as np
import pytest

import so3fft.cli as cli
from so3fft import correlation, gft, oracle
from so3fft.cli import main
from so3fft.gft import S2Signal, SO3Signal, s2_fft_forward, s2_fft_inverse
from so3fft.grids import Rotation
from so3fft.harmonics import spherical_harmonics
from so3fft.harness import EquivarianceConfig, config_digest
from so3fft.signals import ContainerError, read_container, read_container_header, write_container

PAIRS = [
    (correlation, "s2_correlate", "so3_correlate"),
    (correlation, "rotate_s2_spectrum", "rotate_so3_spectrum"),
    (correlation, "rotate_s2_spectral", "rotate_so3_spectral"),
    (gft, "bandlimit_s2", "bandlimit_so3"),
    (oracle, "s2_project_direct", "so3_project_direct"),
    (oracle, "synthesize_s2_at", "synthesize_so3_at"),
    (oracle, "rotate_s2_by_resampling", "rotate_so3_by_resampling"),
]
ROTATION = Rotation(0.3, 1.1, -0.7)


@pytest.mark.parametrize("module, s2_name, so3_name", PAIRS, ids=lambda p: getattr(p, "__name__", p))
def test_each_sphere_name_is_its_rotation_group_function(module, s2_name, so3_name):
    assert getattr(module, s2_name) is getattr(module, so3_name)


@pytest.mark.parametrize("name", ["s2_fft_forward", "s2_fft_inverse", "s2_dft_forward", "s2_dft_inverse"])
def test_the_transforms_stay_one_per_domain(name):
    assert getattr(gft, name) is not getattr(gft, name.replace("s2", "so3"))


def _sphere(b=4, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return S2Signal(b, rng.standard_normal((k, 2 * b, 2 * b)))


@pytest.mark.parametrize("b", [1, 3, 6])
def test_rotation_group_functions_take_sphere_signals(b):
    f = _sphere(b)
    limited = gft.bandlimit_so3(f)
    assert type(limited) is S2Signal
    assert limited.samples.tobytes() == s2_fft_inverse(s2_fft_forward(f)).samples.tobytes()
    rotated = correlation.rotate_so3_spectral(f, ROTATION)
    spec = correlation.rotate_so3_spectrum(s2_fft_forward(f), ROTATION)
    assert type(rotated) is S2Signal
    assert rotated.samples.tobytes() == s2_fft_inverse(spec).samples.tobytes()
    assert rotated.imag_residue == s2_fft_inverse(spec).imag_residue


def test_synthesis_gamma_defaults_to_zero():
    b = 4
    spec = s2_fft_forward(_sphere(b))
    rng = np.random.default_rng(1)
    alphas, betas = rng.uniform(0, 2 * np.pi, 9), rng.uniform(0, np.pi, 9)
    got = oracle.synthesize_so3_at(spec, alphas, betas)
    assert got.tobytes() == oracle.synthesize_so3_at(spec, alphas, betas, 0.0).tobytes()
    # sum_l (2l+1) sum_m fhat^l_m Y^l_m, with Y^l_m = D^l_m0
    want = np.zeros((spec.channels, alphas.size), dtype=np.complex128)
    for i, (a, be) in enumerate(zip(alphas, betas)):
        y = spherical_harmonics(b - 1, a, be)
        for l in range(b):
            want[:, i] += (2 * l + 1) * spec.blocks(l) @ y[l]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("method", ["spectral", "resampling"])
@pytest.mark.parametrize("kind", ["s2", "so3"])
def test_cli_rotate_calls_one_function_per_method(tmp_path, capsys, monkeypatch, kind, method):
    b = 3
    rng = np.random.default_rng(2)
    shape = (1,) + (2 * b,) * (2 if kind == "s2" else 3)
    sig = gft.bandlimit_so3((S2Signal if kind == "s2" else SO3Signal)(b, rng.standard_normal(shape)))
    write_container(tmp_path / "in.ssf", sig)
    name = "rotate_so3_spectral" if method == "spectral" else "rotate_so3_by_resampling"
    inner, seen = getattr(cli, name), []

    def spy(signal, rotation):
        seen.append(type(signal))
        return inner(signal, rotation)

    monkeypatch.setattr(cli, name, spy)
    code = main([
        "rotate", "--input", str(tmp_path / "in.ssf"), "--output", str(tmp_path / "out.ssf"),
        "--alpha", "0.3", "--beta", "1.1", "--gamma", "-0.7", "--method", method,
    ])
    assert code == 0
    assert seen == [type(sig)]
    out = read_container(tmp_path / "out.ssf")
    want = inner(sig, ROTATION)
    assert type(out) is type(sig)
    assert out.samples.tobytes() == want.samples.tobytes()
    line = capsys.readouterr().out.strip()
    assert re.search(r" imag_residue=(\S+)$", line)
    assert float(line.rsplit("=", 1)[1]) <= gft.IMAG_RESIDUE_TOL


def _with_layout(path, layout):
    """Rewrite the header of the container at ``path`` to claim ``layout``;
    the payload and its checksum are left as they are."""
    raw = path.read_bytes()
    (length,) = struct.unpack("<I", raw[8:12])
    header = json.loads(raw[12 : 12 + length])
    header["layout"] = layout
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(new)) + new + raw[12 + length :])
    return path


@pytest.mark.parametrize(
    "make, layout",
    [
        (lambda: _sphere(), "channel-alpha-beta"),
        (lambda: _sphere(), "channel-beta-alpha-gamma"),
        (lambda: s2_fft_forward(_sphere()), "channel-beta-alpha"),
    ],
)
def test_a_foreign_layout_is_refused(tmp_path, capsys, make, layout):
    path = tmp_path / "obj.ssf"
    write_container(path, make())
    own = read_container_header(path)["layout"]
    read_container(_with_layout(path, own))  # the rewrite alone changes nothing
    _with_layout(path, layout)
    with pytest.raises(ContainerError, match=f"layout '{layout}' does not match"):
        read_container(path)
    code = main([
        "rotate", "--input", str(path), "--output", str(tmp_path / "out.ssf"),
        "--alpha", "0", "--beta", "0", "--gamma", "0",
    ])
    assert code == 2
    assert "does not match" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["with_relu", "zero_inputs"])
@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
def test_config_flags_are_stored_as_bools(field, value):
    cfg = EquivarianceConfig(bandwidth=4, **{field: value})
    assert type(getattr(cfg, field)) is bool
    assert getattr(cfg, field) == bool(value)
    assert config_digest(cfg) == config_digest(EquivarianceConfig(bandwidth=4, **{field: bool(value)}))


@pytest.mark.parametrize("field", ["with_relu", "zero_inputs"])
@pytest.mark.parametrize("value", ["no", "", 0, 1, 1.0, None, np.array([True])])
def test_config_flags_refuse_anything_else(field, value):
    with pytest.raises(TypeError, match=f"{field} must be a bool"):
        EquivarianceConfig(bandwidth=4, **{field: value})


@pytest.mark.parametrize(
    "kwargs, digest",
    [
        ({"bandwidth": 4}, "374e8409cb38"),
        ({"bandwidth": 4, "with_relu": True}, "2a7368756423"),
        (
            {"bandwidth": 6, "layers": 2, "channels": 3, "trials": 4, "with_relu": True,
             "rotation_source": "resampling", "zero_inputs": True},
            "36c54ec773fa",
        ),
    ],
)
def test_plain_bool_digests_are_unchanged(kwargs, digest):
    assert config_digest(EquivarianceConfig(**kwargs)) == digest
