"""Differential tests: the whole-volume sweep and fit against the per-plane oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_plane_fit_bands, per_plane_sweep

from ctwindow import simulation
from ctwindow.simulation import fit_band_segmenter, run_shift_sweep
from ctwindow.volume import CtVolume, LabelVolume
from ctwindow.windowing import SwnParams

ORGAN_HU = (40.0, 120.0, 235.0)
NAMES = {0: "background", 1: "organ_a", 2: "organ_b", 3: "organ_c"}


def subject(rng, dims, dtype, order, noise):
    """Random labels 1..3 on air, each voxel drawn around its label's mean HU."""
    labels = rng.choice(4, size=dims, p=[0.4, 0.2, 0.2, 0.2]).astype(np.uint8)
    labels.flat[1:4] = (1, 2, 3)  # every organ is present
    hu = np.array((-1000.0,) + ORGAN_HU)[labels] + rng.normal(0.0, noise, dims)
    voxels = (np.rint(hu) if dtype == np.int16 else hu).astype(dtype)
    if order == "F":
        voxels, labels = np.asfortranarray(voxels), np.asfortranarray(labels)
    return CtVolume(voxels), LabelVolume(labels, label_names=NAMES)


def assert_matches_oracles(train, test, strategy, swn, shifts, slice_axis, tie_break,
                           epochs=1, percentiles=(2.5, 97.5)):
    seg = fit_band_segmenter(train, strategy, swn=swn, epochs=epochs,
                             percentiles=percentiles, tie_break=tie_break,
                             slice_axis=slice_axis)
    assert seg.bands == per_plane_fit_bands(train, strategy, swn, epochs, percentiles,
                                            0.5, slice_axis)
    assert run_shift_sweep(seg, test, strategy, shifts).rows == \
        per_plane_sweep(seg, test, strategy, shifts, slice_axis)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(st.integers(2, 9), st.integers(2, 6), st.integers(1, 6)),
       dtype=st.sampled_from([np.int16, np.float32]),
       order=st.sampled_from(["C", "F"]),
       slice_axis=st.sampled_from([0, 1, 2]),
       tie_break=st.sampled_from(["lowest_id", "nearest_center"]),
       strategy=st.sampled_from(["STN", "WIR", "SWN"]),
       sigmas=st.tuples(st.sampled_from([0.0, 30.0, 80.0]), st.sampled_from([0.0, 30.0, 80.0])),
       noise=st.sampled_from([0.0, 15.0, 60.0]),
       shifts=st.lists(st.one_of(st.integers(-400, 400), st.floats(-400, 400)),
                       min_size=1, max_size=4),
       slab_rows=st.integers(1, 9),
       epochs=st.integers(1, 2))
def test_sweep_and_fit_match_per_plane_oracles(seed, dims, dtype, order, slice_axis,
                                               tie_break, strategy, sigmas, noise, shifts,
                                               slab_rows, epochs):
    rng = np.random.default_rng(seed)
    train = [subject(rng, dims, dtype, order, noise) for _ in range(2)]
    test = [subject(rng, dims, dtype, order, noise) for _ in range(2)]
    swn = SwnParams(*sigmas, seed=seed) if strategy == "SWN" else None
    # slabs of slab_rows rows plus a partial row's worth of voxels, which must round down
    slab = slab_rows * dims[1] * dims[2] + int(rng.integers(0, dims[1] * dims[2]))
    with mock.patch.object(simulation, "SLAB_VOXELS", slab):
        assert_matches_oracles(train, test, strategy, swn, shifts, slice_axis, tie_break,
                               epochs=epochs)


@pytest.mark.parametrize("strategy", ["STN", "SWN"])
def test_sweep_matches_oracle_across_real_slabs(strategy):
    # 37 rows of 60 x 61 voxels: slabs of 35 rows, then a slab of 2
    dims = (37, 60, 61)
    assert dims[0] % (simulation.SLAB_VOXELS // (dims[1] * dims[2])) != 0
    assert np.prod(dims) > simulation.SLAB_VOXELS
    rng = np.random.default_rng(17)
    train = [subject(rng, dims, np.int16, "F", 20.0)]
    test = [subject(rng, dims, np.int16, "F", 20.0)]
    swn = SwnParams(50.0, 50.0, seed=3) if strategy == "SWN" else None
    assert_matches_oracles(train, test, strategy, swn, [-150, 0, 75], 2, "nearest_center")
