"""``project_image`` reads its bilinear stencil from a small cache keyed by
(bandwidth, height, width): results stay bit-identical to the formula it
replaces, the pixels are read on every call, the grid cap still refuses
first, the cache keeps at most ``maxsize`` stencils alive, and stencils
past b = 64 are built per call and freed with it."""

import gc
import math
import tracemalloc

import numpy as np
import pytest

from so3fft.grids import make_s2_grid, sphere_to_cartesian
from so3fft.harmonics import ResourceLimitError
from so3fft.signals import PlanarImage, _image_stencil, project_image

HUGE = 1_000_000  # numpy would be asked for terabytes of sample grid
SQUARE_HALF = math.sqrt(2.0)


def reference_projection(image, bandwidth):
    """The stencil-free formula: every grid point's four bilinear terms,
    masked to the image and summed in the order (0,0), (0,1), (1,0), (1,1)."""
    grid = make_s2_grid(bandwidth)
    av, bv = np.meshgrid(grid.alphas, grid.betas)
    x, y, z = np.moveaxis(sphere_to_cartesian(av, bv), -1, 0)
    u = 2.0 * x / (1.0 + z)
    v = 2.0 * y / (1.0 + z)
    col = (u + SQUARE_HALF) / (2.0 * SQUARE_HALF) * image.width - 0.5
    row = (SQUARE_HALF - v) / (2.0 * SQUARE_HALF) * image.height - 0.5
    c0 = np.floor(col).astype(np.int64)
    r0 = np.floor(row).astype(np.int64)
    fc = col - c0
    fr = row - r0
    values = np.zeros_like(u)
    for dr, dc, weight in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        inside = (rr >= 0) & (rr < image.height) & (cc >= 0) & (cc < image.width)
        values[inside] += weight[inside] * image.values[rr[inside], cc[inside]]
    return values


def images():
    rng = np.random.default_rng(7)
    yield "square", PlanarImage(rng.random((28, 28)))
    yield "wide", PlanarImage(rng.random((17, 40)))
    yield "tall", PlanarImage(rng.random((33, 5)))
    yield "pixel", PlanarImage(np.full((1, 1), 0.75))
    edges = np.zeros((9, 9))
    edges[[0, -1], :] = edges[:, [0, -1]] = 1.0
    yield "edges", PlanarImage(edges)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("bandwidth", [1, 2, 3, 8, 30, 64])
def test_projection_is_bit_identical_to_the_formula(bandwidth):
    for name, image in images():
        got = project_image(image, bandwidth).samples[0]
        want = reference_projection(image, bandwidth)
        assert np.array_equal(bits(got), bits(want)), name


def test_two_shapes_alternate_without_cross_talk():
    rng = np.random.default_rng(8)
    a = PlanarImage(rng.random((28, 28)))
    b = PlanarImage(rng.random((20, 36)))
    want = {id(a): reference_projection(a, 8), id(b): reference_projection(b, 8)}
    for image in (a, b, a, b, b, a):
        got = project_image(image, 8).samples[0]
        assert np.array_equal(bits(got), bits(want[id(image)]))


def test_pixel_edits_between_calls_show_in_the_output():
    values = np.full((16, 16), 0.25)
    image = PlanarImage(values)
    first = project_image(image, 8).samples.copy()
    image.values[4:12, 4:12] = 1.0
    second = project_image(image, 8).samples
    assert not np.array_equal(first, second)
    assert np.array_equal(bits(second[0]), bits(reference_projection(image, 8)))


def test_stencil_is_read_only():
    index, weight = _image_stencil(4, 10, 12)
    for a in (index, weight):
        with pytest.raises(ValueError):
            a[0, 0, 0] = 1


def test_oversized_grid_is_refused_before_any_allocation():
    before = _image_stencil.cache_info()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="cap"):
            project_image(PlanarImage(np.full((2, 2), 0.5)), HUGE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    after = _image_stencil.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


def test_cache_holds_at_most_maxsize_stencils():
    maxsize = _image_stencil.cache_parameters()["maxsize"]
    bandwidth = 32
    entry = 64 * (2 * bandwidth) ** 2  # int64 indices and float64 weights, 4 corners each
    image_of = lambda h, w: PlanarImage(np.full((h, w), 0.5))  # noqa: E731
    keys = [(10 + i, 12) for i in range(maxsize + 3)]
    _image_stencil.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        for h, w in keys:
            project_image(image_of(h, w), bandwidth)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _image_stencil.cache_info().currsize == maxsize
    assert maxsize * entry <= held < (maxsize + 1) * entry
    _image_stencil.cache_clear()


def test_the_cache_stops_at_bandwidth_64():
    image = PlanarImage(np.full((28, 28), 0.5))
    _image_stencil.cache_clear()
    project_image(image, 64)
    kept = _image_stencil.cache_info()
    project_image(image, 65)
    assert _image_stencil.cache_info() == kept
    assert kept.currsize == 1
    _image_stencil.cache_clear()


def test_a_large_stencil_is_not_held_after_the_call():
    bandwidth = 96  # a 2.4 MB stencil
    _image_stencil.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        project_image(PlanarImage(np.full((28, 28), 0.5)), bandwidth)
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak >= 256 * bandwidth**2  # the stencil was built
    assert held < 1 << 16
    assert _image_stencil.cache_info().currsize == 0
