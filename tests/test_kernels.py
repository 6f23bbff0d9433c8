import re

import numpy as np
import pytest

import ctwindow
import ctwindow._kernels as kernels
from oracles import scalar_classify_bands, scalar_label_overlap_counts, scalar_window_normalize

# The one kernel module, as a parameter so that these tests keep their "[numpy]" ids.
NUMPY = pytest.mark.parametrize("backend", [pytest.param(kernels, id="numpy")])
TIE_BREAKS = ("lowest_id", "nearest_center")  # the oracle's modes 0 and 1


def random_values(n=50000, seed=0):
    return np.random.default_rng(seed).uniform(-3000, 3000, n).astype(np.float32)


def test_the_numpy_module_is_the_backend():
    assert ctwindow.BACKEND == kernels.BACKEND == "numpy"
    assert kernels._backend is kernels


@NUMPY
def test_window_normalize_matches_reference_expression(backend):
    src = random_values()
    lo, hi = np.float32(-160.0), np.float32(240.0)
    out = backend.window_normalize(src, lo, hi)
    expected = np.clip(src, lo, hi)
    expected = (expected - lo) * np.float32(255.0) / (hi - lo)
    assert np.allclose(out, expected, atol=2e-5)
    assert out.min() >= 0.0 and out.max() <= 255.0


@pytest.mark.parametrize("lo,hi", [(-160.0, 240.0), (-1000.0, 1000.0), (12.5, 13.75)])
def test_window_normalize_is_bit_identical_to_the_scalar_loop(lo, hi):
    lo, hi = np.float32(lo), np.float32(hi)
    margin = (hi - lo) / 4
    drawn = np.random.default_rng(4).uniform(lo - margin, hi + margin, 20000)
    inf = np.float32(np.inf)
    edges = [lo, hi, inf, -inf] + [np.nextafter(e, d) for e in (lo, hi) for d in (-inf, inf)]
    src = np.concatenate([drawn, edges]).astype(np.float32)
    assert np.count_nonzero((src > lo) & (src < hi)) > src.size // 2
    out = kernels.window_normalize(src, lo, hi)
    assert np.array_equal(out.view(np.uint32), scalar_window_normalize(src, lo, hi).view(np.uint32))


def values_around(rng, lo, hi):
    """Values drawn around per-element float32 bounds; about half are set to an edge.

    The edges are each element's own bounds, one ulp either side of them, +-inf and NaN.
    """
    margin = (hi - lo) / 8
    src = rng.uniform(lo - margin, hi + margin).astype(np.float32)
    inf = np.float32(np.inf)
    edges = [lo, hi, np.nextafter(lo, -inf), np.nextafter(lo, inf), np.nextafter(hi, -inf),
             np.nextafter(hi, inf), np.full(lo.shape, inf), np.full(lo.shape, -inf),
             np.full(lo.shape, np.nan)]
    pick = rng.integers(0, 2 * len(edges), lo.shape)
    for k, edge in enumerate(edges):
        src[pick == k] = edge[pick == k]
    assert np.count_nonzero((src > lo) & (src < hi)) > src.size // 4
    return src


def test_window_normalize_with_per_element_bounds_is_the_scalar_loop_per_element():
    rng = np.random.default_rng(8)
    lo = rng.uniform(-1500, 500, 6000).astype(np.float32)
    hi = (lo + rng.uniform(1, 1500, lo.size)).astype(np.float32)
    src = values_around(rng, lo, hi)
    out = kernels.window_normalize(src, lo, hi)
    expected = np.concatenate([scalar_window_normalize([v], l, h)
                               for v, l, h in zip(src, lo, hi)])
    assert np.array_equal(out.view(np.uint32), expected.view(np.uint32))


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("order", ["C", "F"])
def test_window_normalize_with_bounds_along_one_axis_is_the_scalar_loop(axis, order):
    shape = (5, 6, 7)
    along = [1, 1, 1]
    along[axis] = shape[axis]
    rng = np.random.default_rng(10 + axis)
    lo = rng.uniform(-300, 100, shape[axis]).reshape(along)  # float64, rounded by the wrapper
    hi = lo + rng.uniform(1, 400, shape[axis]).reshape(along)
    lo32, hi32 = (np.broadcast_to(np.float32(b), shape) for b in (lo, hi))
    src = np.asarray(values_around(rng, lo32, hi32), order=order)
    out = kernels.window_normalize(src, lo, hi)
    assert out.flags.f_contiguous == (order == "F")
    expected = [scalar_window_normalize([src[i]], lo32[i], hi32[i])[0]
                for i in np.ndindex(shape)]
    assert np.array_equal(out.view(np.uint32), np.reshape(expected, shape).view(np.uint32))


@pytest.mark.parametrize("values,lo,hi", [
    ((4,), (3,), ()), ((2, 3), (), (2,)), ((2, 3), (2, 3), (3, 2)),
    ((1,), (4,), (4,)), ((1,), (), (4,)), ((3, 1), (1, 4), ()), ((2, 3), (1, 2, 3), ()),
], ids=["mismatch", "trailing", "transposed", "widens", "hi-widens", "outer", "extra-axis"])
def test_window_bounds_that_do_not_broadcast_to_the_values_are_an_error(values, lo, hi):
    with pytest.raises(ValueError, match=re.escape(
            f"bounds of shapes {lo} and {hi} do not broadcast to the values' shape {values}")):
        kernels.window_normalize(np.zeros(values, np.float32), np.zeros(lo) - 1, np.ones(hi))


@pytest.mark.parametrize("mode", [0, 1])
def test_classify_bands_is_bit_identical_to_the_scalar_loop(mode):
    lo = np.array([10, 50, 40, 60, 30], np.float32)
    hi = np.array([60, 120, 200, 90, 40], np.float32)
    center = (lo + hi) / 2
    labels = np.array([1, 2, 4, 7, 9], np.uint8)
    midpoints = [(a + b) / 2 for a in center for b in center]  # equidistant from two centers
    drawn = np.random.default_rng(9).uniform(0, 255, 20000)
    src = np.concatenate([drawn, lo, hi, center, midpoints]).astype(np.float32)
    inside = (src[:, None] >= lo) & (src[:, None] <= hi)
    dist = np.where(inside, np.abs(src[:, None] - center), np.inf)
    nearest = inside & (dist == dist.min(axis=1, keepdims=True))
    assert np.count_nonzero(nearest.sum(axis=1) >= 2) > 0  # real nearest-center ties
    out = kernels.classify_bands(src, lo, hi, center, labels, TIE_BREAKS[mode])
    assert np.array_equal(out, scalar_classify_bands(src, lo, hi, center, labels, mode))


def test_label_overlap_counts_is_identical_to_the_scalar_loop():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 256, 20000).astype(np.uint8)
    b = np.where(rng.random(a.size) < 0.5, a, rng.integers(0, 256, a.size)).astype(np.uint8)
    counts = kernels.label_overlap_counts(a, b)
    assert np.array_equal(counts, scalar_label_overlap_counts(a, b))


@NUMPY
def test_classify_semantics(backend):
    lo = np.array([0.0, 0.0], np.float32)
    hi = np.array([10.0, 10.0], np.float32)
    center = np.array([5.0, 9.0], np.float32)
    labels = np.array([1, 2], np.uint8)
    src = np.array([-1.0, 2.0, 8.0, 7.0, 11.0], np.float32)
    lowest = backend.classify_bands(src, lo, hi, center, labels, "lowest_id")
    assert lowest.tolist() == [0, 1, 1, 1, 0]
    nearest = backend.classify_bands(src, lo, hi, center, labels, "nearest_center")
    # 7.0 is equidistant from both centers: ties go to the lowest id
    assert nearest.tolist() == [0, 1, 2, 1, 0]


@NUMPY
def test_label_overlap_counts_against_bincount(backend):
    rng = np.random.default_rng(3)
    a = rng.integers(0, 9, 10000).astype(np.uint8)
    b = rng.integers(0, 9, 10000).astype(np.uint8)
    counts = backend.label_overlap_counts(a, b)
    assert np.array_equal(counts[0, :9], np.bincount(a, minlength=9))
    assert np.array_equal(counts[1, :9], np.bincount(b, minlength=9))
    assert np.array_equal(counts[2, :9], np.bincount(a[a == b], minlength=9))


def test_wrapper_shape_and_dtype_handling():
    values = np.arange(12, dtype=np.int16).reshape(3, 4)
    result = kernels.window_normalize(values, 0.0, 11.0)
    assert result.shape == (3, 4) and result.dtype == np.float32
    with pytest.raises(ValueError, match="unknown tie_break"):
        kernels.classify_bands(values, [0.0], [1.0], [0.5], [1], tie_break="bogus")
    with pytest.raises(ValueError, match="shape"):
        kernels.label_overlap_counts(np.zeros(3, np.uint8), np.zeros(4, np.uint8))
