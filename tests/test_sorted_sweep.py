"""Differential tests: the sorted-threshold sweep against the per-plane oracle, and its
run-start search against the full-range bisection. One more bounds the sweep's memory."""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_range_run_starts, per_plane_sweep

from ctwindow import _kernels, sweep
from ctwindow._checks import FLOAT32_MAX
from ctwindow.model import Band, BandSegmenter
from ctwindow.simulation import experiment_phantom, reference_experiment, run_experiment
from ctwindow.sweep import _run_starts, run_shift_sweep
from ctwindow.volume import CtVolume, LabelVolume
from ctwindow.windowing import strategy_window

NAMES = {0: "background", 1: "organ_a", 2: "organ_b", 3: "organ_c"}
SPECIAL = np.array([np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-45, -1e-45, 1e-40, -3e38, 3e38],
                   dtype=np.float32)
CLOSE = (0.0, 2.0 ** -30, 2.0 ** -24, 2.0 ** -20, 2.0 ** -18, 2.0 ** -17, 2.0 ** -16,
         1.5 * 2.0 ** -16)


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
    return BandSegmenter([Band(i, lo, hi) for i, (lo, hi) in zip(ids, pairs)],
                         tie_break=tie_break)


def snap(value, strategy):
    """The normalized value of the whole HU nearest to where ``value`` sits in the window."""
    window = strategy_window(strategy, "test")
    hu = round(window.lower + value * (window.upper - window.lower) / 255.0)
    return float(_kernels.window_normalize(np.float32([hu]), window.lower, window.upper)[0])


def subject(rng, dims, dtype, order, specials, top=3, names=NAMES):
    """A pair whose voxels hold label ids 0 to ``top``, named by ``names``."""
    labels = rng.integers(0, top + 1, size=dims).astype(np.uint8)
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
    return CtVolume(voxels), LabelVolume(labels, label_names=names)


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
    """Each subject has its own label-name map, and the bands take ids 1 to 5.

    A subject's voxels and names hold ids 0 to its own top id, so an id may be
    named by some subjects only. Every subject names id 4, each under its own
    name, and none holds it, so a band of id 4 predicts an id with no truth
    voxels; no subject names id 5, so a band of id 5 predicts an unnamed id.
    """
    seg = data.draw(segmenters(strategy))
    rng = np.random.default_rng(seed)
    tops = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3)))
    test = [subject(rng, dims, dtype, order, specials, top,
                    {**{i: NAMES[i] for i in range(top + 1)}, 4: f"unheld_{j}"})
            for j, top in enumerate(tops)]
    assert run_shift_sweep(seg, test, strategy, shifts) == \
        per_plane_sweep(seg, test, strategy, shifts, 2)


def test_close_centers_fall_back_and_still_match():
    """Close or equal band centers take the sorted path and match the per-plane oracle.

    The name is kept from when such centers fell back to a direct count. With
    ``_kernels.SLAB`` at 13, the id scans of the 60-voxel subjects run in
    slabs of 13 values, the last one partial.
    """
    shifts = [-300, -12.5, 0, 40, 7000]
    with mock.patch.object(_kernels, "SLAB", 13):
        rng = np.random.default_rng(4)
        test = [subject(rng, (5, 4, 3), np.float32, "C", True) for _ in range(2)]
        for nudge in (2.0 ** -16, 2.0 ** -24, 2.0 ** -30, 0.0):
            bands = [Band(1, 100.0, 140.0), Band(2, 100.0 + nudge, 140.0 + nudge),
                     Band(3, 60.0, 110.0)]
            close = BandSegmenter(bands, tie_break="nearest_center")
            assert run_shift_sweep(close, test, "STN", shifts) == \
                per_plane_sweep(close, test, "STN", shifts, 2)


@pytest.mark.parametrize("centers", [(110.0, 94.0), (94.0, 110.0)], ids=["down", "up"])
def test_a_value_at_the_midpoint_stays_with_the_earlier_band(centers):
    """0 HU normalizes to exactly 102 under the STN test window, the centers' midpoint."""
    assert _kernels.window_normalize(np.float32([0.0]), -160.0, 240.0)[0] == 102.0
    seg = BandSegmenter([Band(i, c - 20.0, c + 20.0) for i, c in enumerate(centers, 1)],
                        tie_break="nearest_center")
    voxels = np.float32([[[-40.0, -1.0, -0.5, 0.0, 0.5, 1.0, 40.0]]])
    test = [(CtVolume(voxels), LabelVolume(np.uint8([[[1, 2, 1, 2, 1, 2, 1]]]),
                                           label_names=NAMES))]
    shifts = [-0.5, 0, 0.5]
    assert run_shift_sweep(seg, test, "STN", shifts) == \
        per_plane_sweep(seg, test, "STN", shifts, 2)


def test_reference_experiment_rows_match_the_oracle():
    cfg = reference_experiment()
    rows, segmenters = run_experiment(cfg)
    test = [experiment_phantom(cfg, 1, i) for i in range(cfg.n_test)]
    expected = []
    for spec in cfg.strategies:
        seg = segmenters[spec.label]
        expected += [replace(row, strategy=spec.label) for row in
                     per_plane_sweep(seg, test, spec.strategy, cfg.shifts, cfg.slice_axis)]
    assert rows == expected


def test_rows_average_many_subjects_as_the_oracle_does():
    """Nine subjects, one label and three: NumPy sums eight or more rows of one column pairwise.

    Each shift's row is the mean of a C-ordered (subjects, labels) array, as
    in the oracle, so one label's mean over nine subjects is summed the same
    way and gives the same float.
    """
    rng = np.random.default_rng(11)
    shifts = np.linspace(-300.0, 300.0, 41).tolist()
    for labels in (1, 3):
        bands = [Band(i, 60.0 + 40.0 * i, 90.0 + 40.0 * i) for i in range(1, labels + 1)]
        seg = BandSegmenter(bands)
        test = []
        for _ in range(9):
            lab = rng.integers(0, labels + 1, size=(5, 4, 3)).astype(np.uint8)
            voxels = rng.uniform(-200.0, 300.0, size=lab.shape).astype(np.float32)
            names = {i: NAMES[i] for i in range(labels + 1)}  # no row for an absent label
            test.append((CtVolume(voxels), LabelVolume(lab, label_names=names)))
        assert run_shift_sweep(seg, test, "STN", shifts) == \
            per_plane_sweep(seg, test, "STN", shifts, 2)


def column(shifts):
    return np.array([np.float32(s) for s in shifts], dtype=np.float32)[:, None]


def assert_same_starts(seg, strategy, shifts):
    window = strategy_window(strategy, "test")
    got = _run_starts(seg, window, column(shifts))
    expected = full_range_run_starts(seg, window, column(shifts))
    assert got.dtype == expected.dtype == np.float32
    assert np.array_equal(got.view(np.uint32), expected.view(np.uint32))


FAR = (FLOAT32_MAX, -FLOAT32_MAX, 3.4e38, -3.4e38, 1e38, -1e38, 2.0 ** 100, -2.0 ** 100)
run_start_shifts = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1e4, -1e4, 0.5, -12.5, *FAR]),
    st.floats(-400.0, 400.0), st.floats(-1e4, 1e4),
    st.floats(-FLOAT32_MAX, FLOAT32_MAX, width=32)), min_size=1, max_size=8)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), strategy=st.sampled_from(["STN", "WIR", "SWN"]), shifts=run_start_shifts)
def test_run_starts_match_the_full_range_bisection(data, strategy, shifts):
    """Bit for bit, NaN included: the guessed bracket finds the keys the full range does."""
    assert_same_starts(data.draw(segmenters(strategy)), strategy, shifts)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), strategy=st.sampled_from(["STN", "WIR", "SWN"]), shifts=run_start_shifts,
       ulps=st.sampled_from([0, 1, 2]))
def test_run_starts_match_from_brackets_too_narrow_to_hold_every_start(data, strategy, shifts,
                                                                       ulps):
    """Guesses reaching 0 to 2 ulps often miss the start or put it at a bracket end.

    A missed start must fall back to the full range, and a start at either
    end must still be found.
    """
    seg = data.draw(segmenters(strategy))
    with mock.patch.object(sweep, "_BRACKET_ULPS", ulps):
        assert_same_starts(seg, strategy, shifts)


@pytest.mark.parametrize("strategy", ["STN", "WIR", "SWN"])
def test_a_shift_at_a_thresholds_hu_value_guesses_near_zero_and_still_matches(strategy):
    """A shift at a band end's HU value puts the guess on the plateau around x = 0.

    There ``x + shift`` rounds to the shift for every |x| below half its
    ulp, so the search reaches across 0.0 or falls back to the full range.
    """
    window = strategy_window(strategy, "test")
    seg = BandSegmenter([Band(1, 37.25, 130.5), Band(2, 101.0, 180.0)],
                        tie_break="nearest_center")
    shifts = []
    for end in (37.25, 130.5, 101.0, 180.0):
        hu = window.lower + end * (window.upper - window.lower) / 255.0
        shifts += [hu, np.nextafter(np.float32(hu), np.float32(np.inf)).item(),
                   np.nextafter(np.float32(hu), np.float32(-np.inf)).item()]
    assert_same_starts(seg, strategy, shifts)


@pytest.mark.parametrize("ulps", [0, sweep._BRACKET_ULPS])
def test_starts_at_the_ends_of_the_float32_range(ulps):
    """At shifts of +-FLT_MAX tests switch at -FLT_MAX, +FLT_MAX or +inf, the range's end keys.

    With 0 ulps no guess holds a start, so every one is found over the full
    range. Each shift is also searched alone, so that its bisection is the
    last to end: steps taken after a bracket is one key wide would hide one
    that ended on the wrong key.
    """
    seg = BandSegmenter([Band(1, 37.25, 130.5), Band(2, 101.0, 180.0)],
                        tie_break="nearest_center")
    shifts = [FLOAT32_MAX, -FLOAT32_MAX, 3.4e38, -3.4e38]
    with mock.patch.object(sweep, "_BRACKET_ULPS", ulps):
        for strategy in ("STN", "WIR", "SWN"):
            for grid in [shifts] + [[shift] for shift in shifts]:
                assert_same_starts(seg, strategy, grid)
    starts = _run_starts(seg, strategy_window("STN", "test"), column(shifts))
    assert {-FLOAT32_MAX, FLOAT32_MAX, np.inf} <= set(starts[:, 1:-1].ravel().tolist())


@pytest.mark.parametrize("ends", [(-5.0, 300.0), (-40.0, 10.0), (250.0, 300.0)],
                         ids=["both", "below", "above"])
def test_band_ends_outside_0_255_never_switch(ends):
    """n lies in [0, 255], so ``n >= lo`` for lo < 0 and ``n > hi`` for hi >= 255 never switch."""
    seg = BandSegmenter([Band(1, *ends), Band(2, 100.0, 140.0)], tie_break="nearest_center")
    shifts = [-1000.0, -0.0, 0.0, 33.3, 1e4, 3.4e38, -3.4e38]
    assert_same_starts(seg, "STN", shifts)
    starts = _run_starts(seg, strategy_window("STN", "test"), column(shifts))
    never = (ends[0] < 0) + (ends[1] >= 255)
    assert (np.isnan(starts).sum(axis=1) == 1 + never).all()


def test_run_starts_of_the_reference_config_take_at_most_20_kernel_calls():
    """One probe of every bracket's ends, then bisection steps: at most 20 per strategy."""
    cfg = reference_experiment()
    segmenters = run_experiment(cfg)[1]
    for spec in cfg.strategies:
        window = strategy_window(spec.strategy, "test")
        with mock.patch.object(_kernels, "window_normalize",
                               wraps=_kernels.window_normalize) as kernel:
            starts = _run_starts(segmenters[spec.label], window, column(cfg.shifts))
        assert kernel.call_count <= 20, spec.label
        expected = full_range_run_starts(segmenters[spec.label], window, column(cfg.shifts))
        assert np.array_equal(starts.view(np.uint32), expected.view(np.uint32))


def test_far_shifts_sweep_a_band_at_255_without_an_overflow_warning():
    """``n > 255`` never holds, so its test is never probed near FLT_MAX.

    There ``x + shift`` overflows for shifts of 1e31 and more, a RuntimeWarning,
    which this suite turns into an error.
    """
    seg = BandSegmenter([Band(1, 110.0, 255.0), Band(2, -3.0, 90.0)])
    rng = np.random.default_rng(5)
    test = [subject(rng, (4, 3, 2), np.float32, "C", False) for _ in range(2)]
    shifts = [1e31, 1e38, -1e38, FLOAT32_MAX, -FLOAT32_MAX, 0.0]
    assert run_shift_sweep(seg, test, "SWN", shifts) == \
        per_plane_sweep(seg, test, "SWN", shifts, 2)


def test_the_sweep_holds_one_float64_per_shift_subject_and_named_id():
    """8,192 shifts on three 8 x 8 x 4 subjects with two labels peak under 16 MiB.

    A sweep that counted all 256 ids per (shift, subject) peaked at 130.5 MiB here.
    """
    rng = np.random.default_rng(2)
    seg = BandSegmenter([Band(1, 60.0, 120.0), Band(2, 110.0, 200.0)],
                        tie_break="nearest_center")
    names = {i: NAMES[i] for i in range(3)}
    test = [(CtVolume(rng.uniform(-300.0, 400.0, size=(8, 8, 4)).astype(np.float32)),
             LabelVolume(rng.integers(0, 3, size=(8, 8, 4)).astype(np.uint8), label_names=names))
            for _ in range(3)]
    shifts = np.linspace(-500.0, 500.0, 8192).tolist()
    run_shift_sweep(seg, test, "STN", shifts[:2])  # so that first-call imports do not count
    tracemalloc.start()
    try:
        rows = run_shift_sweep(seg, test, "STN", shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 2 * len(shifts)
    assert peak < 16 << 20, peak
