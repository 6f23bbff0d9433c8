"""Results do not depend on how an input array is laid out in memory.

The kernels keep an F-ordered volume F-ordered and ravel the two label
arrays of ``label_overlap_counts`` in one shared order ('F' when both are
F-ordered, else 'C'), ``LabelVolume`` collects its ids in
memory order, ``extract_slice`` copies each plane in its own memory order
and ``stack_slices`` builds F-ordered volumes. Each is checked
here against the plain C-ordered computation, over C-ordered, F-ordered,
strided and negative-stride inputs.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctwindow._kernels as kernels
from ctwindow.volume import CtVolume, LabelVolume, extract_slice, stack_slices

LAYOUTS = ("C", "F", "strided", "reversed")


def laid_out(arr, layout):
    """The same values as ``arr`` in the given memory layout."""
    if layout == "C":
        return np.ascontiguousarray(arr)
    if layout == "F":
        return np.asfortranarray(arr)
    if layout == "strided":
        buf = np.zeros(arr.shape[:-1] + (2 * arr.shape[-1],), dtype=arr.dtype)
        buf[..., ::2] = arr
        return buf[..., ::2]
    return np.flip(np.ascontiguousarray(np.flip(arr)))  # every stride negative


def f_only(arr):
    return arr.flags.f_contiguous and not arr.flags.c_contiguous


def same_bytes(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def reference_window(values, lo, hi):
    src = np.ascontiguousarray(values, dtype=np.float32)
    return kernels.window_normalize(src.reshape(-1), lo, hi).reshape(src.shape)


def reference_counts(a, b):
    a = np.ascontiguousarray(a).reshape(-1)
    b = np.ascontiguousarray(b).reshape(-1)
    return np.stack([np.bincount(a, minlength=256), np.bincount(b, minlength=256),
                     np.bincount(a[a == b], minlength=256)])


BANDS = ([0.0, 90.0], [100.0, 200.0], [50.0, 145.0], [1, 2])  # lo, hi, center, labels

shapes = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(shape=shapes, seed=st.integers(0, 2 ** 32 - 1),
       dtype=st.sampled_from([np.int16, np.float32]),
       layouts=st.tuples(*[st.sampled_from(LAYOUTS)] * 3),
       slab=st.sampled_from([1, 5, 1 << 16]))
def test_kernel_results_do_not_depend_on_layout(shape, seed, dtype, layouts, slab):
    rng = np.random.default_rng(seed)
    values = rng.integers(-400, 400, size=shape).astype(dtype)
    a = rng.integers(0, 4, size=shape).astype(np.uint8)
    b = rng.integers(0, 4, size=shape).astype(np.uint8)
    x = laid_out(values, layouts[0])
    expected = reference_window(values, -160.0, 240.0)
    counts = reference_counts(a, b)
    # lowest_id: the first band containing a value names it
    in_band = [(expected >= lo) & (expected <= hi) for lo, hi in zip(BANDS[0], BANDS[1])]
    classes = np.select(in_band, BANDS[3], 0).astype(np.uint8)
    got = kernels.window_normalize(x, -160.0, 240.0)
    assert same_bytes(got, expected)
    assert f_only(got) == f_only(x)  # an F-ordered volume is not transposed

    got = kernels.classify_bands(laid_out(expected, layouts[2]), *BANDS)
    assert same_bytes(got, classes)

    with mock.patch.object(kernels, "SLAB", slab):
        got = kernels.label_overlap_counts(laid_out(a, layouts[1]), laid_out(b, layouts[2]))
    assert np.array_equal(got, counts)


@settings(max_examples=100, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3), seed=st.integers(0, 2 ** 32 - 1),
       layout=st.sampled_from(LAYOUTS), top=st.sampled_from([3, 255, 256]))
def test_label_volume_ids_do_not_depend_on_layout(dims, seed, layout, top):
    ids = np.random.default_rng(seed).integers(0, top + 1, size=dims).astype(np.int16)
    voxels = laid_out(ids, layout)
    if ids.max() > 255:
        with pytest.raises(ValueError, match="0..255"):
            LabelVolume(voxels)
        return
    labels = LabelVolume(voxels)
    assert set(labels.label_names) == set(np.unique(ids).tolist())
    assert np.array_equal(labels.voxels, ids)


@settings(max_examples=100, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3), seed=st.integers(0, 2 ** 32 - 1),
       dtype=st.sampled_from([np.int16, np.float32]), layout=st.sampled_from(LAYOUTS),
       axis=st.sampled_from([0, 1, 2]))
def test_extract_slice_copies_the_plane_values(dims, seed, dtype, layout, axis):
    rng = np.random.default_rng(seed)
    volume = CtVolume(laid_out(rng.integers(-1000, 1000, size=dims).astype(dtype), layout))
    for i in range(dims[axis]):
        plane = extract_slice(volume, axis, i).values
        assert same_bytes(plane, np.moveaxis(volume.voxels, axis, 0)[i].astype(np.float32))
        assert not np.shares_memory(plane, volume.voxels)


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_extract_slice_keeps_the_planes_of_an_f_volume_f_ordered(dtype):
    # a loaded volume is F-ordered, so its planes resample without a transposing copy
    volume = CtVolume(np.asfortranarray(np.arange(60, dtype=dtype).reshape(5, 4, 3)))
    for axis in (0, 1, 2):
        for i in range(volume.dims[axis]):
            assert f_only(extract_slice(volume, axis, i).values)


@settings(max_examples=100, deadline=None)
@given(dims=st.tuples(*[st.integers(1, 5)] * 3), seed=st.integers(0, 2 ** 32 - 1),
       layout=st.sampled_from(LAYOUTS), axis=st.sampled_from([0, 1, 2]))
def test_stack_slices_round_trips_on_every_axis(dims, seed, layout, axis):
    rng = np.random.default_rng(seed)
    voxels = rng.integers(-1000, 1000, size=dims).astype(np.int16)
    volume = CtVolume(laid_out(voxels, layout))
    planes = [extract_slice(volume, axis, i).values for i in range(dims[axis])]
    stacked = stack_slices(planes, axis)
    assert same_bytes(stacked, voxels.astype(np.float32))
    assert stacked.flags.f_contiguous
    labels = [np.moveaxis(voxels, axis, 0)[i].astype(np.uint8) for i in range(dims[axis])]
    assert same_bytes(stack_slices(labels, axis), voxels.astype(np.uint8))


def test_stack_slices_rejects_bad_axes_and_plane_shapes():
    with pytest.raises(ValueError, match="axis"):
        stack_slices([np.zeros((2, 2))], 3)
    with pytest.raises(ValueError):
        stack_slices([np.zeros((2, 2)), np.zeros((2, 3))], 0)
    with pytest.raises(ValueError):
        stack_slices([], 0)
