"""``run_experiment`` prepares each phantom once for every strategy and keeps no phantom.

A training phantom is gathered once (``_gather_pooled``) and a test
phantom sorted per label once (``_prepare_test``); every strategy's fit and
sweep read those. These tests check that this gives the rows and bands of
separate calls on the phantoms themselves, that a prepared subject fits and
sweeps like its pair, that the direct fallback counts per-label values in
chunks correctly, and that the run's memory peak stays well below the bytes
of its phantoms.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from oracles import per_plane_sweep

from ctwindow import _kernels, simulation
from ctwindow.simulation import (Band, BandSegmenter, StrategySpec, _gather_pooled,
                                 _prepare_test, _sorted_sweep_applies, derive_seed,
                                 experiment_phantom, fit_band_segmenter, reference_experiment,
                                 run_experiment, run_shift_sweep)
from ctwindow.volume import CtVolume, LabelVolume
from ctwindow.windowing import SwnParams


def phantoms(cfg, kind, count):
    return [experiment_phantom(cfg, kind, i) for i in range(count)]


@pytest.mark.parametrize("tie_break", ["lowest_id", "nearest_center"])
@pytest.mark.parametrize("slice_axis", [0, 2])
def test_run_experiment_equals_separate_calls_on_the_phantoms(slice_axis, tie_break):
    cfg = reference_experiment()
    cfg = replace(cfg, n_train=2, n_test=3, shifts=[-200, -25, 0, 50, 300],
                  fit=replace(cfg.fit, epochs=2, tie_break=tie_break), slice_axis=slice_axis)
    rows, segmenters = run_experiment(cfg)
    train, test = phantoms(cfg, 0, cfg.n_train), phantoms(cfg, 1, cfg.n_test)
    expected = []
    for j, spec in enumerate(cfg.strategies):
        swn = SwnParams(spec.x, spec.y, seed=derive_seed(cfg.seed, 2, j)) \
            if spec.strategy == "SWN" else None
        seg = fit_band_segmenter(train, spec.strategy, swn=swn, epochs=cfg.fit.epochs,
                                 percentiles=cfg.fit.percentiles,
                                 band_epsilon=cfg.fit.band_epsilon, tie_break=tie_break,
                                 slice_axis=slice_axis)
        assert segmenters[spec.label].bands == seg.bands
        assert segmenters[spec.label].tie_break == tie_break
        expected += run_shift_sweep(seg, test, spec.strategy, cfg.shifts,
                                    strategy_label=spec.label).rows
    assert rows == expected


def test_a_prepared_training_subject_fits_like_its_pair():
    vol, lab = experiment_phantom(reference_experiment(), 0, 0)
    prepared = _gather_pooled(vol, lab, 2)
    fit = fit_band_segmenter([prepared], "STN", slice_axis=2)
    assert fit.bands == fit_band_segmenter([(vol, lab)], "STN", slice_axis=2).bands


def test_prepared_test_subjects_sweep_like_their_pairs():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(6, 5, 4)).astype(np.uint8)
    labels[labels == 2] = 7  # an unnamed id, present in the voxels only
    lab = LabelVolume(labels, label_names={0: "background", 1: "a", 3: "c"})
    lab.label_names.pop(7)
    pair = (CtVolume(rng.integers(-300, 300, size=labels.shape).astype(np.int16)), lab)
    prepared = _prepare_test(*pair)
    assert sorted(prepared.values) == [0, 1, 3, 7]
    for lid, values in prepared.values.items():
        assert values.dtype == np.float32 and np.all(values[:-1] <= values[1:])
        assert values.size == np.count_nonzero(labels == lid)
    seg = BandSegmenter([Band(1, 100.0, 140.0), Band(3, 130.0, 200.0)], "STN")
    shifts = [-40, 0, 25]
    assert run_shift_sweep(seg, [prepared], "STN", shifts).rows == \
        run_shift_sweep(seg, [pair], "STN", shifts).rows == \
        per_plane_sweep(seg, [pair], "STN", shifts, 2)


def test_direct_fallback_counts_labels_across_several_chunks():
    nudge = 2.0 ** -16
    bands = [Band(1, 100.0, 140.0), Band(2, 100.0 + nudge, 140.0 + nudge), Band(3, 60.0, 110.0)]
    seg = BandSegmenter(bands, "STN", tie_break="nearest_center")
    assert not _sorted_sweep_applies(seg)
    rng = np.random.default_rng(8)
    names = {0: "background", 1: "a", 2: "b", 3: "c"}
    test = []
    for _ in range(2):
        labels = rng.choice(4, size=(7, 6, 5), p=[0.1, 0.6, 0.2, 0.1]).astype(np.uint8)
        voxels = rng.uniform(-100.0, 200.0, size=labels.shape).astype(np.float32)
        voxels.flat[::11] = np.nan
        test.append((CtVolume(voxels), LabelVolume(labels, label_names=names)))
    shifts = [-60, 0, 12.5, 80]
    chunk = 16
    # label 1 holds about 126 values per subject: eight chunks, the last one partial
    sizes = [np.count_nonzero(lab.voxels == lid) for _, lab in test for lid in range(4)]
    assert max(sizes) > 4 * chunk and any(size % chunk for size in sizes)
    with mock.patch.object(simulation, "SLAB_VOXELS", chunk), \
            mock.patch.object(_kernels, "window_normalize",
                              side_effect=_kernels.window_normalize) as windowed:
        rows = run_shift_sweep(seg, test, "STN", shifts).rows
    assert [call.args[0].size for call in windowed.call_args_list] == \
        [min(chunk, size - start) for _ in shifts for size in sizes[:4]
         for start in range(0, size, chunk)] + \
        [min(chunk, size - start) for _ in shifts for size in sizes[4:]
         for start in range(0, size, chunk)]
    assert rows == per_plane_sweep(seg, test, "STN", shifts, 2)


def fit_heavy_phantom():
    """The reference organs scaled into 128 x 128 x 32 phantoms, as in the fit-heavy benchmark."""
    cfg = reference_experiment()
    dims = (128, 128, 32)
    scale = [new / old for new, old in zip(dims, cfg.phantom.dims)]
    organs = [replace(o, center=tuple(c * s for c, s in zip(o.center, scale)),
                      radii=tuple(r * s for r, s in zip(o.radii, scale)))
              for o in cfg.phantom.organs]
    return replace(cfg.phantom, dims=dims, organs=organs)


def test_run_experiment_keeps_no_phantom():
    cfg = replace(reference_experiment(), phantom=fit_heavy_phantom(),
                  strategies=[StrategySpec("STN")], n_train=6, n_test=2, shifts=[-100, 0, 100])
    # a small run first, so that first-call imports do not count towards the peak
    run_experiment(replace(cfg, phantom=reference_experiment().phantom, n_train=1, n_test=1))
    phantom_bytes = (cfg.n_train + cfg.n_test) * 5 * int(np.prod(cfg.phantom.dims))
    tracemalloc.start()
    try:
        run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # holding every phantom would take all of phantom_bytes (float32 HU + uint8 labels)
    assert peak < phantom_bytes / 2, (peak, phantom_bytes)
