"""Differential tests: the exact shortcuts in phantom generation, the fit, the label scan
and augmentation.

Each shortcut is checked against the plain computation it replaces: the
bounding-box organ masks against ``oracles.full_volume_phantom``, the
tiled-pool percentile against ``np.percentile`` on the materialized pool,
the fit's gather of every labelled voxel against an ``np.isin`` gather
over the named ids, the sweep's vectorised dice against
``dice_from_counts``, the uint8 bincount id scan against ``np.unique``,
and the crop-only NumPy resampler against ``oracles.scipy_augment_pair``
(two full-plane ``scipy.ndimage.affine_transform`` passes, then a
crop/pad).
"""

import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import full_volume_phantom, scipy_augment_pair

from ctwindow.augmentation import AugmentConfig, augment_pair
from ctwindow.metrics import dice_from_counts
from ctwindow.simulation import (OrganSpec, PhantomConfig, _dice_table, _gather_pooled,
                                 _tiled_percentile, generate_phantom, reference_experiment)
from ctwindow.volume import LABEL_SCAN_SLAB, CtVolume, LabelVolume, Slice2D

PERCENTILES = st.one_of(st.just(0.0), st.just(100.0), st.floats(0.0, 100.0))


@st.composite
def pools(draw):
    """Nonempty float32 values: arbitrary floats (NaN and ±inf included) or few distinct ones."""
    size = draw(st.integers(1, 200))
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(width=32), min_size=size, max_size=size))
    else:
        distinct = draw(st.lists(st.floats(-300.0, 300.0, width=32), min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(distinct), min_size=size, max_size=size))
    return np.array(values, dtype=np.float32)


@settings(max_examples=500, deadline=None)
@given(values=pools(), copies=st.integers(1, 13),
       percentiles=st.lists(PERCENTILES, min_size=1, max_size=3))
def test_tiled_percentile_matches_percentile_of_the_tiled_pool(values, copies, percentiles):
    with np.errstate(invalid="ignore"):
        expected = np.percentile(np.concatenate([values] * copies), percentiles)
        got = _tiled_percentile(values, percentiles, copies)
    assert got.dtype == expected.dtype
    np.testing.assert_array_equal(got, expected)


@pytest.mark.parametrize("copies", [1, 2, 12])
def test_tiled_percentile_on_a_fit_sized_pool(copies):
    values = np.random.default_rng(copies).normal(100.0, 30.0, 60_000).astype(np.float32)
    percentiles = [1.0, 2.5, 50.0, 97.5, 99.0]
    expected = np.percentile(np.concatenate([values] * copies), percentiles)
    assert _tiled_percentile(values, percentiles, copies).tobytes() == expected.tobytes()


def assert_phantoms_match(cfg):
    """Compare generate_phantom with the oracle; "ok", or "overlap" if both raised it."""
    with np.errstate(over="ignore"):  # a subnormal radius squares its terms to inf
        try:
            voxels, labels, names = full_volume_phantom(cfg)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                generate_phantom(cfg)
            return "overlap"
        vol, lab = generate_phantom(cfg)
    assert vol.voxels.dtype == voxels.dtype and vol.voxels.tobytes() == voxels.tobytes()
    assert lab.voxels.dtype == labels.dtype and lab.voxels.tobytes() == labels.tobytes()
    assert lab.label_names == names
    return "ok"


@st.composite
def axis_extent(draw, d):
    """An organ's (center, radius) on an axis of ``d`` voxels.

    ``sub_voxel`` covers no grid point on the axis; ``edge`` touches the
    first or last plane.
    """
    kind = draw(st.sampled_from(["inside", "edge", "sub_voxel"]))
    if kind == "sub_voxel":
        return draw(st.integers(0, d - 2)) + 0.5, draw(st.floats(0.01, 0.49))
    if kind == "edge":
        radius = draw(st.integers(1, 2 * (d - 1))) / 4.0  # exact, so center ± radius is too
        assume(2 * radius <= d - 1)
        return (radius if draw(st.booleans()) else d - 1 - radius), radius
    center = draw(st.floats(0.0, d - 1.0))
    radius = draw(st.floats(0.0, min(center, d - 1.0 - center)))
    assume(radius > 0)
    return center, radius


@st.composite
def phantom_configs(draw):
    dims = tuple(draw(st.integers(2, 12)) for _ in range(3))
    organs = []
    for label_id in range(1, draw(st.integers(1, 3)) + 1):
        center, radii = zip(*(draw(axis_extent(d)) for d in dims))
        organs.append(OrganSpec(label_id, f"organ_{label_id}", center, radii,
                                draw(st.floats(-200.0, 300.0)), draw(st.floats(0.0, 30.0))))
    try:
        return PhantomConfig(dims=dims, organs=organs, background_noise_std=10.0,
                             seed=draw(st.integers(0, 2 ** 32 - 1)))
    except ValueError:  # rounding put an ellipsoid a hair outside dims
        assume(False)


@settings(max_examples=300, deadline=None)
@given(cfg=phantom_configs())
def test_bounding_box_phantom_matches_full_volume_masks(cfg):
    assert_phantoms_match(cfg)


def test_reference_phantoms_match_full_volume_masks():
    phantom = reference_experiment().phantom
    for seed in range(3):
        assert assert_phantoms_match(replace(phantom, seed=seed)) == "ok"
    big = replace(phantom, dims=(128, 128, 32), organs=[
        replace(o, center=(2 * o.center[0], 2 * o.center[1], 16),
                radii=(2 * o.radii[0], 2 * o.radii[1], 8)) for o in phantom.organs])
    assert assert_phantoms_match(big) == "ok"


def test_sub_voxel_edge_and_overlapping_organs():
    organs = [OrganSpec(1, "speck", (3.5, 3.5, 2.5), (0.3, 0.3, 0.3), 40.0, 5.0),
              OrganSpec(2, "edge", (2.0, 6.0, 2.0), (2.0, 3.0, 2.0), 80.0, 5.0)]
    cfg = PhantomConfig(dims=(10, 10, 5), organs=organs, background_noise_std=10.0, seed=3)
    assert assert_phantoms_match(cfg) == "ok"
    _, lab = generate_phantom(cfg)
    assert not np.any(lab.voxels == 1) and lab.label_names[1] == "speck"
    assert lab.voxels[0, 6, 2] == 2 and lab.voxels[2, 9, 2] == 2
    overlap = replace(cfg, organs=organs + [OrganSpec(3, "over", (3, 6, 2), (2, 2, 2), 0, 0)])
    assert assert_phantoms_match(overlap) == "overlap"


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
       present=st.integers(1, 256),
       named=st.lists(st.integers(1, 255), max_size=8, unique=True),
       slice_axis=st.sampled_from([0, 1, 2]),
       order=st.sampled_from(["C", "F"]))
def test_gather_matches_isin_over_the_named_ids(seed, dims, present, named, slice_axis, order):
    """Each named id's values and planes are the ones an ``np.isin`` gather over the named ids
    keeps; the volume may hold ids that are present but not named, and named ids that are absent.
    """
    rng = np.random.default_rng(seed)
    labels = rng.choice(256, size=present, replace=False)[rng.integers(0, present, dims)]
    labels = np.asarray(labels.astype(np.uint8), order=order)
    voxels = np.asarray(rng.integers(-1000, 1000, dims).astype(np.int16), order=order)
    gathered = _gather_pooled(CtVolume(voxels), LabelVolume(labels), slice_axis)
    values, counts, masks = gathered.values, gathered.counts, gathered.masks
    planes = np.moveaxis(labels, slice_axis, 0)
    plane_voxels = np.moveaxis(voxels, slice_axis, 0)
    labelled = planes != 0
    assert values.dtype == np.float32
    assert np.array_equal(values, plane_voxels[labelled].astype(np.float32))
    assert np.array_equal(counts, labelled.sum(axis=(1, 2)))
    assert list(masks) == [lid for lid in np.unique(planes).tolist() if lid != 0]
    keep = np.isin(planes, named)
    plane_of = np.repeat(np.arange(counts.size), counts)
    for lid in named:
        mask = masks.get(lid, np.zeros(values.size, dtype=bool))
        expected = planes[keep] == lid
        assert np.array_equal(values[mask], plane_voxels[keep][expected].astype(np.float32))
        assert np.array_equal(plane_of[mask], np.nonzero(keep)[0][expected])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shifts=st.integers(1, 6), zeros=st.floats(0.0, 1.0))
def test_dice_table_is_dice_from_counts_bit_for_bit(seed, shifts, zeros):
    """Random int64 counts, some with a zero denominator, give the same float64 dice, all ids."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 2 ** 40, size=(3, shifts, 256))
    empty = rng.random((shifts, 256)) < zeros
    counts[0][empty] = counts[1][empty] = 0
    counts[2] = np.minimum(counts[2], np.minimum(counts[0], counts[1]))
    table = _dice_table(counts)
    expected = [[dice_from_counts(counts[:, i], lid) for lid in range(256)]
                for i in range(shifts)]
    assert table.dtype == np.float64 and table.shape == (shifts, 256)
    assert table.view(np.uint64).tolist() == np.array(expected).view(np.uint64).tolist()


def label_layouts(labels):
    """``labels`` as C-ordered, F-ordered and strided (non-contiguous) arrays."""
    yield np.ascontiguousarray(labels)
    yield np.asfortranarray(labels)
    padded = np.zeros(tuple(2 * d for d in labels.shape), dtype=labels.dtype)
    padded[::2, ::2, ::2] = labels
    yield padded[::2, ::2, ::2]


def assert_scan_matches_unique(voxels):
    ids = np.unique(voxels)
    lab = LabelVolume(voxels, label_names={1: "one"})
    expected = {int(i): ("background" if i == 0 else f"label_{int(i)}") for i in ids}
    expected[1] = "one"
    assert lab.label_names == expected
    assert lab.voxels.dtype == np.uint8 and np.array_equal(lab.voxels, voxels)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
       count=st.integers(1, 256), dtype=st.sampled_from([np.uint8, np.int64, np.float32]))
def test_label_scan_matches_unique(seed, dims, count, dtype):
    rng = np.random.default_rng(seed)
    labels = rng.choice(256, size=count, replace=False)[rng.integers(0, count, dims)]
    for voxels in label_layouts(labels.astype(dtype)):
        assert_scan_matches_unique(voxels)


@pytest.mark.parametrize("layout", range(3))
def test_label_scan_sees_every_slab_end(layout):
    """A distinct id at the last voxel of every slab in memory order, and of the volume."""
    labels = np.zeros((64, 64, 3 * LABEL_SCAN_SLAB // 4096 + 1), dtype=np.uint8)
    voxels = list(label_layouts(labels))[layout]
    flat = voxels.ravel(order="K")
    ends = list(range(LABEL_SCAN_SLAB - 1, flat.size, LABEL_SCAN_SLAB)) + [flat.size - 1]
    for lid, at in enumerate(ends, start=1):
        flat[at] = lid
    if not voxels.flags.forc:  # ravel copied; write the ids back in memory order
        voxels[...] = flat.reshape(voxels.shape, order="F" if layout == 1 else "C")
    assert len(ends) == 4
    assert_scan_matches_unique(voxels)


# NaNs of both signs, a quiet NaN with a payload and a signaling one, as float32 bit patterns
NAN_BITS = [0x7FC00000, 0xFFC00000, 0x7FC00123, 0x7F800001]
SPECIALS = np.concatenate([
    np.array([np.inf, -np.inf, -0.0, 3.4e38, -3.4e38, 1e-45], dtype=np.float32),
    np.array(NAN_BITS, dtype=np.uint32).view(np.float32)])
# tiny shifts put source coordinates a hair past a pixel, where w1 = 1 - w0 rounds to 0
SPANS = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.sampled_from([1e-300, 1e-17]))


@st.composite
def augment_cases(draw):
    """A plane of 1-40 px a side with special voxels, its labels, a config and a draw seed."""
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(0.0, 300.0, shape).astype(np.float32)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    values[special] = rng.choice(SPECIALS, size=int(special.sum()))
    values[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = \
        draw(st.floats(width=32))
    labels = rng.integers(0, 256, shape, dtype=np.uint8)
    if draw(st.booleans()):
        labels = np.asfortranarray(labels)
    cfg = AugmentConfig(
        crop_size=(draw(st.integers(1, 48)), draw(st.integers(1, 48))),
        max_rotation_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 180.0))),
        max_translation=(draw(SPANS), draw(SPANS)),
        pad_value_image=draw(st.floats(width=32, allow_nan=False, allow_infinity=False)),
        pad_value_label=draw(st.integers(0, 255)))
    return Slice2D(values), labels, cfg, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=500, deadline=None)
@given(case=augment_cases())
def test_augment_pair_matches_the_scipy_pipeline_bit_for_bit(case):
    img, labels, cfg, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second call starts where the first left the generator
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_img, got_lab = augment_pair(img, labels, cfg, rng)
        want_img, want_lab = scipy_augment_pair(img, labels, cfg, oracle_rng)
        assert got_img.values.dtype == want_img.values.dtype == np.float32
        assert got_img.values.shape == want_img.values.shape == cfg.crop_size
        np.testing.assert_array_equal(got_img.values.view(np.uint32),
                                      want_img.values.view(np.uint32))
        assert got_lab.dtype == want_lab.dtype == np.uint8
        np.testing.assert_array_equal(got_lab, want_lab)
