"""Output bandwidths are integer counts: a correlation plan and a fast
forward's ``bandwidth_out`` raise the library's own ``TypeError`` for a
non-integer (bools included) and ``ValueError`` outside 1..b, and store
plain ints."""

import numpy as np
import pytest

from so3fft.correlation import make_correlation_plan, multichannel_correlate
from so3fft.gft import S2Signal, SO3Signal, s2_fft_forward, so3_fft_forward


@pytest.mark.parametrize("value", ["10", 10.0, True, np.float64(10.0)])
def test_plan_refuses_a_non_integer_input_bandwidth(value):
    with pytest.raises(TypeError, match="bandwidth must be an integer"):
        make_correlation_plan(value)


@pytest.mark.parametrize("value", ["3", 3.0, True, np.float64(3.0)])
def test_plan_refuses_a_non_integer_output_bandwidth(value):
    with pytest.raises(TypeError, match="output bandwidth must be an integer"):
        make_correlation_plan(10, value)


@pytest.mark.parametrize("value", [0, -1, 11, np.int64(11)])
def test_plan_refuses_an_output_bandwidth_outside_the_range(value):
    with pytest.raises(ValueError, match="output bandwidth must be"):
        make_correlation_plan(10, value)


def test_plan_refuses_a_bandwidth_below_one():
    with pytest.raises(ValueError, match="bandwidth must be >= 1"):
        make_correlation_plan(0)


def test_plan_stores_plain_ints():
    plan = make_correlation_plan(np.int64(10), np.int64(3))
    assert type(plan.bandwidth_in) is int and plan.bandwidth_in == 10
    assert type(plan.bandwidth_out) is int and plan.bandwidth_out == 3
    default = make_correlation_plan(np.int32(4))
    assert type(default.bandwidth_out) is int and default.bandwidth_out == 4


def test_correlation_refuses_a_non_integer_output_bandwidth():
    f = S2Signal(3, np.ones((1, 6, 6)))
    with pytest.raises(TypeError, match="output bandwidth must be an integer"):
        multichannel_correlate(f, f, bandwidth_out="2")


FORWARDS = {
    "s2": lambda b: (s2_fft_forward, S2Signal(b, np.ones((1, 2 * b, 2 * b)))),
    "so3": lambda b: (so3_fft_forward, SO3Signal(b, np.ones((1, 2 * b, 2 * b, 2 * b)))),
}


@pytest.mark.parametrize("value", ["2", 2.0, True, False, np.float64(2.0)])
@pytest.mark.parametrize("domain", FORWARDS)
def test_forward_refuses_a_non_integer_bandwidth_out(domain, value):
    forward, signal = FORWARDS[domain](4)
    with pytest.raises(TypeError, match="bandwidth_out must be an integer"):
        forward(signal, bandwidth_out=value)


@pytest.mark.parametrize("value", [0, -2, 5, np.int64(5)])
@pytest.mark.parametrize("domain", FORWARDS)
def test_forward_refuses_bandwidth_out_outside_one_to_b(domain, value):
    forward, signal = FORWARDS[domain](4)
    with pytest.raises(ValueError, match="bandwidth_out must be"):
        forward(signal, bandwidth_out=value)


@pytest.mark.parametrize("domain", FORWARDS)
def test_forward_takes_a_numpy_integer_bandwidth_out(domain):
    forward, signal = FORWARDS[domain](4)
    spectrum = forward(signal, bandwidth_out=np.int64(2))
    assert type(spectrum.bandwidth) is int and spectrum.bandwidth == 2
