"""Differential tests: the sorted-threshold sweep against the per-plane oracle."""

from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import per_plane_sweep

from ctwindow import _kernels, simulation
from ctwindow.simulation import (Band, BandSegmenter, _sorted_sweep_applies,
                                 experiment_phantom, reference_experiment, run_experiment,
                                 run_shift_sweep)
from ctwindow.volume import CtVolume, LabelVolume
from ctwindow.windowing import strategy_window

NAMES = {0: "background", 1: "organ_a", 2: "organ_b", 3: "organ_c"}
SPECIAL = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-45, -1e-45, 1e-40, -3e38, 3e38],
                   dtype=np.float32)
CLOSE = (2.0 ** -20, 2.0 ** -18, 2.0 ** -17, 2.0 ** -16, 1.5 * 2.0 ** -16)


@st.composite
def segmenters(draw, strategy):
    """Random bands: disjoint, overlapping, nested, or with two nearly equal centers.

    With ``snap``, band ends are the normalized values of whole HU under the
    test window, so integer voxels land exactly on the run boundaries at
    integer shifts.
    """
    layout = draw(st.sampled_from(["disjoint", "overlapping", "nested", "close_centers"]))
    count = draw(st.integers(2 if layout == "close_centers" else 1, 4))
    ends = st.floats(-10.0, 265.0)
    if layout == "disjoint":
        edges = sorted(draw(st.lists(ends, min_size=2 * count, max_size=2 * count,
                                     unique=True)))
        pairs = list(zip(edges[::2], edges[1::2]))
    elif layout == "nested":
        center = draw(st.floats(0.0, 255.0))
        widths = sorted(draw(st.lists(st.floats(0.5, 150.0), min_size=count, max_size=count,
                                      unique=True)))
        skews = draw(st.lists(st.floats(-0.4, 0.4), min_size=count, max_size=count))
        pairs = [(center - w * (1 + k), center + w * (1 - k)) for w, k in zip(widths, skews)]
    else:
        pairs = [(lo, lo + w) for lo, w in draw(st.lists(
            st.tuples(ends, st.floats(0.5, 120.0)), min_size=count, max_size=count))]
        if layout == "close_centers":
            nudge = draw(st.sampled_from(CLOSE))
            pairs[1] = (pairs[0][0] + nudge, pairs[0][1] + nudge)
    if draw(st.booleans()):
        pairs = [(snap(lo, strategy), snap(hi, strategy)) for lo, hi in pairs]
        pairs = [(lo, hi) if lo < hi else (lo, lo + 1.0) for lo, hi in pairs]
    ids = draw(st.permutations([1, 2, 3, 4, 5]))[:count]
    tie_break = draw(st.sampled_from(["lowest_id", "nearest_center"]))
    return BandSegmenter([Band(i, lo, hi) for i, (lo, hi) in zip(ids, pairs)], strategy,
                         tie_break=tie_break)


def snap(value, strategy):
    """The normalized value of the whole HU nearest to where ``value`` sits in the window."""
    window = strategy_window(strategy, "test")
    hu = round(window.lower + value * (window.upper - window.lower) / 255.0)
    return float(_kernels.window_normalize(np.float32([hu]), window.lower, window.upper)[0])


def subject(rng, dims, dtype, order, specials):
    labels = rng.integers(0, 4, size=dims).astype(np.uint8)
    hu = rng.uniform(-1200.0, 1200.0, size=dims)
    if dtype == np.int16:
        voxels = np.rint(hu).astype(np.int16)
    else:
        voxels = hu.astype(np.float32)
        if specials:
            picks = rng.random(dims) < 0.3
            voxels[picks] = rng.choice(SPECIAL, size=int(picks.sum()))
    if order == "F":
        voxels, labels = np.asfortranarray(voxels), np.asfortranarray(labels)
    return CtVolume(voxels), LabelVolume(labels, label_names=NAMES)


shift_grids = st.lists(st.one_of(st.integers(-400, 400), st.floats(-400.0, 400.0),
                                 st.floats(-1e4, 1e4), st.sampled_from([0.0, -0.0, 0.5])),
                       min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
       strategy=st.sampled_from(["STN", "WIR", "SWN"]),
       dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 5)),
       dtype=st.sampled_from([np.int16, np.float32]),
       order=st.sampled_from(["C", "F"]),
       specials=st.booleans(),
       shifts=shift_grids)
def test_sorted_sweep_matches_per_plane_oracle(data, seed, strategy, dims, dtype, order,
                                               specials, shifts):
    seg = data.draw(segmenters(strategy))
    rng = np.random.default_rng(seed)
    test = [subject(rng, dims, dtype, order, specials) for _ in range(2)]
    assert run_shift_sweep(seg, test, strategy, shifts).rows == \
        per_plane_sweep(seg, test, strategy, shifts, 2)


def test_close_centers_fall_back_and_still_match():
    nudge = 2.0 ** -16
    bands = [Band(1, 100.0, 140.0), Band(2, 100.0 + nudge, 140.0 + nudge), Band(3, 60.0, 110.0)]
    close = BandSegmenter(bands, "STN", tie_break="nearest_center")
    assert close._center[0] != close._center[1]
    assert not _sorted_sweep_applies(close)
    assert _sorted_sweep_applies(BandSegmenter(bands, "STN"))  # lowest_id
    rng = np.random.default_rng(4)
    test = [subject(rng, (5, 4, 3), np.float32, "C", True) for _ in range(2)]
    shifts = [-300, -12.5, 0, 40, 7000]
    with mock.patch.object(simulation, "SLAB_VOXELS", 13):  # chunks of 13 values
        assert run_shift_sweep(close, test, "STN", shifts).rows == \
            per_plane_sweep(close, test, "STN", shifts, 2)


def test_reference_experiment_rows_match_the_oracle():
    cfg = reference_experiment()
    rows, segmenters = run_experiment(cfg)
    test = [experiment_phantom(cfg, 1, i) for i in range(cfg.n_test)]
    expected = []
    for spec in cfg.strategies:
        seg = segmenters[spec.label]
        assert _sorted_sweep_applies(seg)
        expected += [replace(row, strategy=spec.label) for row in
                     per_plane_sweep(seg, test, spec.strategy, cfg.shifts, cfg.slice_axis)]
    assert rows == expected
