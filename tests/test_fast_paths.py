"""Differential tests: the exact shortcuts in phantom generation, the fit, the label scan
and augmentation.

Each shortcut is checked against the plain computation it replaces: the
bounding-box organ masks against ``oracles.full_volume_phantom``, the slab
background and organ draws of ``_draws`` against ``rng.normal`` draws cast to float32, the
tiled-pool percentile against ``np.percentile`` on the materialized pool,
the fit's per-label gather of each nonzero id ``LabelVolume`` found
against an ``np.isin`` gather over the named ids, the sweep's sorted test
gather against ``np.sort`` of each id's masked values, the vectorised
``metrics.dice_table`` against the scalar ``oracles.dice_from_counts``,
``LabelVolume.ids`` of uint8, integer and float label arrays against
``np.unique`` (``tests/test_volume_passes.py`` checks the label counts
behind it slab by slab), and the crop-only NumPy resampler against
``oracles.scipy_augment_pair`` (two full-plane
``scipy.ndimage.affine_transform`` passes, then a crop/pad), with chunks
of a few pixels so that every crop spans several, on C-ordered,
F-ordered and negative-stride planes.
"""

import re
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import dice_from_counts, full_volume_phantom, scipy_augment_pair

from ctwindow import _kernels, augmentation, simulation
from ctwindow.augmentation import AugmentConfig, augment_pair
from ctwindow.metrics import dice_table
from ctwindow.simulation import (DRAW_SLAB, OrganSpec, PhantomConfig, _draws, _drawn_test_subject,
                                 _drawn_training_subject, _layout, _test_subject,
                                 _tiled_percentile, _training_subject, generate_phantom,
                                 reference_experiment)
from ctwindow.volume import CtVolume, LabelVolume, Slice2D

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


@pytest.mark.parametrize("mean, std", [(-1000.0, 15.0), (0.0, 0.0), (3.0, 1e30), (-0.0, 2.5)])
@pytest.mark.parametrize("size", [1, 4 * DRAW_SLAB - 1, 4 * DRAW_SLAB + 1, 12 * DRAW_SLAB + 4321])
def test_slab_background_draw_is_one_normal_draw_cast_to_float32(mean, std, size):
    """With labels, the background is that draw at the labels' zeros; either way, the one organ
    after it is ``rng.normal`` from where the background's ``normal()`` left the stream. Past
    the first size, the last slab is partial and the organ's draws cross a slab boundary too."""
    cfg = PhantomConfig(dims=(size, 1, 1), organs=[], background_hu=mean,
                        background_noise_std=std)
    labels = np.zeros(cfg.dims, dtype=np.uint8)
    labels.reshape(-1)[::3] = 7  # one voxel in three is the organ's, the first included
    organs = [(OrganSpec(7, "organ", (1, 1, 1), (1, 1, 1), 40.0, 5.0), None, labels == 7)]
    expected_rng = np.random.default_rng(size)
    expected = expected_rng.normal(mean, std, size).astype(np.float32)[labels.reshape(-1) == 0]
    expected_organ = expected_rng.normal(40.0, 5.0, np.count_nonzero(labels)).astype(np.float32)
    for with_labels in (labels, None):
        background, (organ,) = _draws(cfg, organs, size, with_labels)
        if with_labels is None:
            assert background is None
        else:
            assert background.dtype == np.float32 and background.tobytes() == expected.tobytes()
        assert organ.dtype == np.float32 and organ.tobytes() == expected_organ.tobytes()


@pytest.mark.parametrize("std", [-1.0, -0.0, "wide"])
def test_slab_background_draw_rejects_what_normal_rejects(std):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(0).normal(0.0, std, 5)
    cfg = PhantomConfig(dims=(5, 1, 1), organs=[])
    cfg.background_noise_std = std  # past the config's own check, which -0.0 passes
    for labels in (np.zeros(cfg.dims, dtype=np.uint8), None):
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            _draws(cfg, [], 0, labels)


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


@st.composite
def drawn_configs(draw):
    """Small phantoms with zero or nonzero noise, some organs covering no grid point."""
    dims = tuple(draw(st.integers(2, 12)) for _ in range(3))
    noise = st.one_of(st.just(0.0), st.floats(0.0, 30.0))
    organs = []
    for label_id in draw(st.lists(st.integers(1, 255), max_size=3, unique=True)):
        center, radii = zip(*(draw(axis_extent(d)) for d in dims))
        organs.append(OrganSpec(label_id, f"organ_{label_id}", center, radii,
                                draw(st.floats(-200.0, 300.0)), draw(noise)))
    try:
        return PhantomConfig(dims=dims, organs=organs, background_noise_std=draw(noise),
                             seed=draw(st.integers(0, 2 ** 32 - 1)))
    except ValueError:  # rounding put an ellipsoid a hair outside dims
        assume(False)


def assert_same_subject(got, expected):
    assert got.label_names == expected.label_names
    assert got.planes == expected.planes
    assert list(got.values) == list(expected.values)
    for lid, values in got.values.items():
        assert values.dtype == expected.values[lid].dtype == np.float32
        assert values.tobytes() == expected.values[lid].tobytes()
    if expected.plane_counts is None:
        assert got.plane_counts is None
    else:
        assert list(got.plane_counts) == list(expected.plane_counts)
        for lid, counts in got.plane_counts.items():
            assert counts.dtype == expected.plane_counts[lid].dtype
            assert counts.tolist() == expected.plane_counts[lid].tolist()


def assert_drawn_subjects_match(cfg):
    """The subjects from the draws against the reductions of ``generate_phantom``'s pair."""
    with np.errstate(over="ignore"):  # a subnormal radius squares its terms to inf
        try:
            pair = generate_phantom(cfg)
        except ValueError as exc:  # overlapping organs fail in the layout, before any draw
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                _layout(cfg)
            return "overlap"
        layout = _layout(cfg)
    labels, names, organs = layout
    assert_same_subject(_drawn_test_subject(names, organs, *_draws(cfg, organs, cfg.seed, labels)),
                        _test_subject(*pair))
    for slice_axis in (0, 1, 2):
        drawn = _draws(cfg, organs, cfg.seed)[1]
        assert_same_subject(_drawn_training_subject(cfg, names, organs, drawn, slice_axis),
                            _training_subject(*pair, slice_axis))
    return "ok"


EMPTY_BOX_NO_NOISE = PhantomConfig(
    dims=(9, 7, 6), organs=[OrganSpec(4, "speck", (3.5, 3.5, 2.5), (0.3, 0.3, 0.3), 40.0, 5.0),
                            OrganSpec(2, "slab", (4.0, 3.0, 2.5), (3.0, 2.0, 1.5), 80.0, 0.0)],
    background_noise_std=0.0, seed=3)


@settings(max_examples=200, deadline=None)
@given(cfg=drawn_configs(), slab=st.sampled_from([5, 64, DRAW_SLAB]))
@example(cfg=EMPTY_BOX_NO_NOISE, slab=7)
@example(cfg=replace(EMPTY_BOX_NO_NOISE, background_noise_std=12.0), slab=DRAW_SLAB)
def test_subjects_from_the_draws_equal_the_reduced_phantoms(cfg, slab):
    """For every slice axis, bit for bit, with the background drawn in slabs of a few voxels
    (a partial last one included) or whole, and the pairs' label scans in slabs of that size."""
    with mock.patch.object(simulation, "DRAW_SLAB", slab), \
            mock.patch.object(_kernels, "SLAB", slab):
        assert_drawn_subjects_match(cfg)


def test_subjects_from_the_draws_of_phantoms_larger_than_a_slab():
    """The reference phantom fills whole slabs; one plane fewer leaves a partial last one."""
    phantom = reference_experiment().phantom
    shorter = replace(phantom, dims=(*phantom.dims[:2], phantom.dims[2] - 1))
    assert np.prod(phantom.dims) % DRAW_SLAB == 0 and np.prod(shorter.dims) % DRAW_SLAB
    for cfg in (phantom, shorter):
        for seed in range(2):
            assert assert_drawn_subjects_match(replace(cfg, seed=seed)) == "ok"


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
       present=st.integers(1, 256),
       named=st.lists(st.integers(1, 255), max_size=8, unique=True),
       slice_axis=st.sampled_from([0, 1, 2]),
       order=st.sampled_from(["C", "F"]))
def test_gather_matches_isin_over_the_named_ids(seed, dims, present, named, slice_axis, order):
    """Each named id's values and per-plane counts are the ones an ``np.isin`` gather over the
    named ids keeps; the volume may hold ids that are present but not named, and named ids that
    are absent. Every nonzero id present is held, and its values and counts match its own mask.
    """
    rng = np.random.default_rng(seed)
    labels = rng.choice(256, size=present, replace=False)[rng.integers(0, present, dims)]
    labels = np.asarray(labels.astype(np.uint8), order=order)
    voxels = np.asarray(rng.integers(-1000, 1000, dims).astype(np.int16), order=order)
    subject = _training_subject(CtVolume(voxels), LabelVolume(labels), slice_axis)
    planes = np.moveaxis(labels, slice_axis, 0)
    plane_voxels = np.moveaxis(voxels, slice_axis, 0)
    held = [lid for lid in np.unique(planes).tolist() if lid != 0]
    assert list(subject.values) == list(subject.plane_counts) == held
    assert subject.planes == dims[slice_axis]
    for lid in held:
        mask = planes == lid
        assert subject.values[lid].dtype == np.float32
        assert np.array_equal(subject.values[lid], plane_voxels[mask].astype(np.float32))
        assert np.array_equal(subject.plane_counts[lid], mask.sum(axis=(1, 2)))
    keep = np.isin(planes, named)
    for lid in named:
        expected = planes[keep] == lid
        assert np.array_equal(subject.values.get(lid, np.zeros(0, np.float32)),
                              plane_voxels[keep][expected].astype(np.float32))
        assert np.array_equal(subject.plane_counts.get(lid, np.zeros(dims[slice_axis], int)),
                              np.bincount(np.nonzero(keep)[0][expected],
                                          minlength=dims[slice_axis]))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shifts=st.one_of(st.none(), st.integers(1, 6)),
       zeros=st.floats(0.0, 1.0))
def test_dice_table_is_dice_from_counts_bit_for_bit(seed, shifts, zeros):
    """Random int64 counts of shape (3, 256), as ``multi_label_dice`` has them, or (3, shifts,
    256), one row per shift, some with a zero denominator, give the same float64 dice for all
    ids as the scalar oracle.
    """
    rng = np.random.default_rng(seed)
    rows = () if shifts is None else (shifts,)
    counts = rng.integers(0, 2 ** 40, size=(3, *rows, 256))
    empty = rng.random((*rows, 256)) < zeros
    counts[0][empty] = counts[1][empty] = 0
    counts[2] = np.minimum(counts[2], np.minimum(counts[0], counts[1]))
    table = dice_table(counts)
    per_row = counts.reshape(3, -1, 256)
    expected = [[dice_from_counts(per_row[:, i], lid) for lid in range(256)]
                for i in range(per_row.shape[1])]
    assert table.dtype == np.float64 and table.shape == (*rows, 256)
    assert table.reshape(-1, 256).view(np.uint64).tolist() == \
        np.array(expected).view(np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7)),
       present=st.integers(1, 256),
       orders=st.tuples(st.sampled_from(["C", "F"]), st.sampled_from(["C", "F"])),
       dtype=st.sampled_from([np.int16, np.float32]))
def test_test_subject_is_each_ids_values_sorted(seed, dims, present, orders, dtype):
    """Every id present, background included, holds ``np.sort`` of its masked float32 values,
    for C, F and mixed layouts of the volume and its labels; a float32 volume may hold NaN and
    ±inf voxels. A test subject holds no per-plane counts.
    """
    rng = np.random.default_rng(seed)
    labels = rng.choice(256, size=present, replace=False)[rng.integers(0, present, dims)]
    labels = np.asarray(labels.astype(np.uint8), order=orders[0])
    if dtype is np.int16:
        voxels = rng.integers(-32768, 32768, dims).astype(np.int16)
    else:
        voxels = rng.normal(0.0, 300.0, dims).astype(np.float32)
        special = rng.random(dims) < 0.2
        voxels[special] = rng.choice(np.array([np.nan, np.inf, -np.inf, -0.0], np.float32),
                                     size=int(special.sum()))
    voxels = np.asarray(voxels, order=orders[1])
    subject = _test_subject(CtVolume(voxels), LabelVolume(labels))
    assert subject.plane_counts is None and subject.planes == 0
    assert list(subject.values) == np.unique(labels).tolist()
    for lid, values in subject.values.items():
        expected = np.sort(voxels[labels == lid].astype(np.float32))
        assert values.dtype == np.float32
        assert values.view(np.uint32).tolist() == expected.view(np.uint32).tolist()


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
    assert np.array_equal(lab.ids, ids)
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


# NaNs of both signs, a quiet NaN with a payload and a signaling one, as float32 bit patterns
NAN_BITS = [0x7FC00000, 0xFFC00000, 0x7FC00123, 0x7F800001]
SPECIALS = np.concatenate([
    np.array([np.inf, -np.inf, -0.0, 3.4e38, -3.4e38, 1e-45], dtype=np.float32),
    np.array(NAN_BITS, dtype=np.uint32).view(np.float32)])
# C order, F order, and a view with both strides negative (neither C nor F contiguous)
LAYOUTS = [np.ascontiguousarray, np.asfortranarray,
           lambda a: np.flip(np.ascontiguousarray(np.flip(a)))]
# tiny shifts put source coordinates a hair past a pixel, where w1 = 1 - w0 rounds to 0
SPANS = st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.sampled_from([1e-300, 1e-17]))


@st.composite
def augment_cases(draw):
    """A plane of 1-40 px a side with special voxels, its labels, a config and a draw seed.

    The image and the labels are each laid out C-ordered, F-ordered or reversed.
    """
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(0.0, 300.0, shape).astype(np.float32)
    special = rng.random(shape) < draw(st.sampled_from([0.0, 0.05, 0.5]))
    values[special] = rng.choice(SPECIALS, size=int(special.sum()))
    values[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = \
        draw(st.floats(width=32))
    labels = rng.integers(0, 256, shape, dtype=np.uint8)
    # the resampler works in the image's memory order and reads labels with their own strides
    values, labels = (draw(st.sampled_from(LAYOUTS))(a) for a in (values, labels))
    cfg = AugmentConfig(
        crop_size=(draw(st.integers(1, 48)), draw(st.integers(1, 48))),
        max_rotation_deg=draw(st.one_of(st.just(0.0), st.floats(0.0, 180.0))),
        max_translation=(draw(SPANS), draw(SPANS)),
        pad_value_image=draw(st.floats(width=32, allow_nan=False, allow_infinity=False)),
        pad_value_label=draw(st.integers(0, 255)))
    return Slice2D(values), labels, cfg, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=500, deadline=None)
@given(case=augment_cases(), chunk=st.integers(1, 64))
def test_augment_pair_matches_the_scipy_pipeline_bit_for_bit(case, chunk):
    """``chunk`` crop pixels per step make one-row chunks and partial last chunks."""
    img, labels, cfg, seed = case
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):  # the second call starts where the first left the generator
        with warnings.catch_warnings(), mock.patch.object(augmentation, "CHUNK_PIXELS", chunk):
            warnings.simplefilter("error")
            got_img, got_lab = augment_pair(img, labels, cfg, rng)
        want_img, want_lab = scipy_augment_pair(img, labels, cfg, oracle_rng)
        assert got_img.values.dtype == want_img.values.dtype == np.float32
        assert got_img.values.shape == want_img.values.shape == cfg.crop_size
        np.testing.assert_array_equal(got_img.values.view(np.uint32),
                                      want_img.values.view(np.uint32))
        assert got_lab.dtype == want_lab.dtype == np.uint8
        np.testing.assert_array_equal(got_lab, want_lab)
