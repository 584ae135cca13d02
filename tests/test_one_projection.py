"""One dense projection and one count parser: the oracle's projections are
the direct engine's forward sums, and every CLI count flag is parsed by the
same integer check as the library, which names the count it refuses."""

import numpy as np
import pytest

from so3fft.cli import main
from so3fft.gft import S2Signal, SO3Signal, s2_dft_forward, so3_dft_forward
from so3fft.oracle import s2_project_direct, so3_project_direct


@pytest.mark.parametrize("b", [1, 2, 4])
def test_s2_projection_is_the_direct_forward(b):
    rng = np.random.default_rng(b)
    f = S2Signal(b, rng.standard_normal((2, 2 * b, 2 * b)))
    np.testing.assert_array_equal(s2_project_direct(f).data, s2_dft_forward(f).data)


@pytest.mark.parametrize("b", [1, 2, 3])
def test_so3_projection_is_the_direct_forward(b):
    rng = np.random.default_rng(b)
    f = SO3Signal(b, rng.standard_normal((2, 2 * b, 2 * b, 2 * b)))
    np.testing.assert_array_equal(so3_project_direct(f).data, so3_dft_forward(f).data)


EQUIVARIANCE = ["equivariance", "--bandwidth", "1"]
CORRELATE = [
    "correlate", "--kind", "s2", "--filter", "bank.ssf", "--signal", "sig.ssf",
    "--output", "out.ssf",
]
# flag -> (a command that takes it, the name its message uses, its minimum)
COUNT_FLAGS = {
    "--trials": (EQUIVARIANCE, "trials", 1),
    "--layers": (EQUIVARIANCE, "layers", 1),
    "--channels": (EQUIVARIANCE, "channels", 1),
    "--seed": (EQUIVARIANCE, "seed", 0),
    "--threads": (EQUIVARIANCE, "threads", 0),
    "--repetitions": (["bench"], "repetitions", 1),
    "--out-channels": (CORRELATE, "out_channels", 1),
}


@pytest.mark.parametrize("bad", ["below", "1.5", "two"])
@pytest.mark.parametrize("flag", sorted(COUNT_FLAGS))
def test_count_flag_refusal_names_the_count(capsys, flag, bad):
    command, name, minimum = COUNT_FLAGS[flag]
    value = str(minimum - 1) if bad == "below" else bad
    assert main(command + [flag, value]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err
    if bad == "below":
        assert f"{name} must be >= {minimum}, got {value}" in err
    else:
        assert f"{name} must be an integer, got {value!r}" in err
