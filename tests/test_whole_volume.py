"""Differential tests: the whole-volume sweep, fit and SWN ``window`` against per-plane oracles."""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_plane_fit_bands, per_plane_sweep, per_slice_swn_window

from ctwindow import _kernels
from ctwindow.cli import main
from ctwindow.simulation import FitParams, fit_band_segmenter, run_shift_sweep
from ctwindow.volume import CtVolume, LabelVolume, load_volume, save_volume
from ctwindow.windowing import SwnParams, WindowSampler

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


def relabel(pair, rng, missing, blank, unnamed, slice_axis):
    """A copy of a subject with fewer labels and, if ``unnamed``, an unnamed label 4.

    Label ``missing`` and ``blank`` random planes along ``slice_axis`` become
    background; label 4 is present in the voxels but not in ``label_names``.
    """
    vol, lab = pair
    labels = lab.voxels.copy(order="K")
    voxels = vol.voxels.copy(order="K")
    labels[labels == missing] = 0
    planes = np.moveaxis(labels, slice_axis, 0)
    planes[rng.permutation(len(planes))[:blank]] = 0
    if unnamed:
        spots = rng.random(labels.shape) < 0.2
        spots.flat[1:4] = False  # where subject() put one voxel of each organ
        labels[spots] = 4
        voxels[spots] = 500
    lab = LabelVolume(labels, label_names=NAMES)
    lab.label_names.pop(4, None)  # LabelVolume names every id present; unname 4 again
    return CtVolume(voxels), lab


def assert_matches_oracles(train, test, strategy, swn, shifts, slice_axis, tie_break,
                           epochs=1, percentiles=(2.5, 97.5)):
    """Check the fit and sweep against the oracles; return the fit's window draws."""
    with mock.patch.object(WindowSampler, "sample", autospec=True,
                           side_effect=WindowSampler.sample) as draws:
        seg = fit_band_segmenter(train, strategy, swn=swn,
                                 fit=FitParams(epochs, percentiles, tie_break=tie_break),
                                 slice_axis=slice_axis)
    assert seg.bands == per_plane_fit_bands(train, strategy, swn, epochs, percentiles,
                                            0.5, slice_axis)
    assert run_shift_sweep(seg, test, strategy, shifts) == \
        per_plane_sweep(seg, test, strategy, shifts, slice_axis)
    return draws.call_count


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
       epochs=st.integers(1, 3),
       missing=st.integers(0, 3),
       blank=st.integers(0, 3),
       unnamed=st.booleans())
def test_sweep_and_fit_match_per_plane_oracles(seed, dims, dtype, order, slice_axis,
                                               tie_break, strategy, sigmas, noise, shifts,
                                               slab_rows, epochs, missing, blank, unnamed):
    rng = np.random.default_rng(seed)
    train = [subject(rng, dims, dtype, order, noise) for _ in range(2)]
    test = [subject(rng, dims, dtype, order, noise) for _ in range(2)]
    # the first training subject may lack a label and whole planes of labels; the second
    # keeps every label, so each label still has voxels to fit
    train[0] = relabel(train[0], rng, missing, blank, unnamed, slice_axis)
    if unnamed:
        train[1] = relabel(train[1], rng, 0, 0, True, slice_axis)
        test = [relabel(pair, rng, 0, 0, True, slice_axis) for pair in test]
    swn = SwnParams(*sigmas, seed=seed) if strategy == "SWN" else None
    # label-id scans and overlap counts in slabs of slab_rows rows' worth of values plus part
    # of a row: the oracle stacks its predictions into a LabelVolume and scores them with dice
    slab = slab_rows * dims[1] * dims[2] + int(rng.integers(0, dims[1] * dims[2]))
    with mock.patch.object(_kernels, "SLAB", slab):
        draws = assert_matches_oracles(train, test, strategy, swn, shifts, slice_axis,
                                       tie_break, epochs=epochs)
    # one draw per plane, epoch and subject, planes without a pooled voxel included
    assert draws == (epochs * len(train) * dims[slice_axis] if strategy == "SWN" else 0)


@pytest.mark.parametrize("strategy", ["STN", "SWN"])
def test_sweep_matches_oracle_across_real_slabs(strategy):
    # 37 rows of 60 x 61 voxels, more than _kernels.SLAB; 17 rows fit in _kernels.SLAB
    dims = (37, 60, 61)
    assert dims[0] % (_kernels.SLAB // (dims[1] * dims[2])) != 0
    assert np.prod(dims) > _kernels.SLAB
    rng = np.random.default_rng(17)
    train = [subject(rng, dims, np.int16, "F", 20.0)]
    test = [subject(rng, dims, np.int16, "F", 20.0)]
    swn = SwnParams(50.0, 50.0, seed=3) if strategy == "SWN" else None
    assert_matches_oracles(train, test, strategy, swn, [-150, 0, 75], 2, "nearest_center")


@pytest.mark.parametrize("slice_axis", [0, 2])
def test_swn_fit_draws_for_planes_without_pooled_voxels(slice_axis):
    rng = np.random.default_rng(5)
    train = [subject(rng, (6, 5, 7), np.float32, "F", 20.0) for _ in range(2)]
    vol, lab = train[0]
    labels = lab.voxels.copy()
    np.moveaxis(labels, slice_axis, 0)[[0, 2, 3]] = 0  # three planes hold no organ voxel
    train[0] = (vol, LabelVolume(labels, label_names=NAMES))
    swn = SwnParams(50.0, 50.0, seed=9)
    draws = assert_matches_oracles(train, train, "SWN", swn, [0], slice_axis, "lowest_id",
                                   epochs=3)
    assert draws == 3 * len(train) * vol.dims[slice_axis]


# sigmas up to 1e36 make some draws too wide for float32, so a run can fail
sigma = st.one_of(st.floats(0.0, 500.0), st.sampled_from([0.0, 1e4, 1e36]))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
       dtype=st.sampled_from([np.int16, np.float32]),
       order=st.sampled_from(["C", "F"]),
       slice_axis=st.sampled_from([0, 1, 2]),
       sigmas=st.tuples(sigma, sigma),
       window_seed=st.integers(0, 2 ** 31 - 1))
def test_swn_window_command_matches_the_per_slice_oracle(seed, dims, dtype, order, slice_axis,
                                                         sigmas, window_seed):
    rng = np.random.default_rng(seed)
    hu = rng.uniform(-1200.0, 1200.0, dims)
    if dtype == np.float32:
        special = rng.random(dims) < 0.15
        hu[special] = rng.choice([np.nan, np.inf, -np.inf], size=int(special.sum()))
    voxels = (np.rint(hu) if dtype == np.int16 else hu).astype(dtype)
    volume = CtVolume(np.asfortranarray(voxels) if order == "F" else voxels)
    x, y = sigmas
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in.ctv.json"), os.path.join(tmp, "out.ctv.json")
        save_volume(volume, src)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["window", src, dst, "--strategy", "SWN", "--mode", "train",
                         "--x", repr(x), "--y", repr(y), "--seed", str(window_seed),
                         "--slice-axis", str(slice_axis)])
        try:
            expected, lines = per_slice_swn_window(volume, slice_axis, x, y, window_seed)
        except ValueError as exc:
            assert (code, out.getvalue()) == (1, "")
            assert err.getvalue() == f"ctwindow: error: {exc}\n"
            assert not os.path.exists(dst)
            return
        assert (code, err.getvalue()) == (0, "")
        got = load_volume(dst).voxels
        assert got.dtype == np.float32 and got.shape == expected.shape
        assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))
        assert out.getvalue() == "".join(json.dumps(line) + "\n" for line in lines)
