"""Differential tests: the exact shortcuts in phantom generation, the fit and the label scan.

Each shortcut is checked against the plain computation it replaces: the
bounding-box organ masks against ``oracles.full_volume_phantom``, the
tiled-pool percentile against ``np.percentile`` on the materialized pool,
and the uint8 bincount id scan against ``np.unique``.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import full_volume_phantom

from ctwindow.simulation import (OrganSpec, PhantomConfig, _tiled_percentile, generate_phantom,
                                 reference_experiment)
from ctwindow.volume import LABEL_SCAN_SLAB, LabelVolume

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
