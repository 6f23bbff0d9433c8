"""``run_experiment`` builds each subject from its phantom's draws and keeps no phantom.

No phantom volume is built: a training subject holds each label's voxel
values in plane order with per-plane counts (what ``_training_subject``
gathers from a phantom), and a test subject each label's sorted values
(what ``_test_subject`` gathers). Every strategy's fit and sweep read those.
These tests check that this gives the rows and bands of separate calls on
the phantoms themselves, that no phantom's labels are built or scanned for
ids, that every strategy is fitted before any test subject is drawn, that a
prepared subject fits and sweeps like its pair, that labels counted across
several slabs sweep like the oracle, that the run's memory peak stays well
below the bytes of its phantoms and within what its fit or its test suite
needs, and that the fit windows each label once per pass and holds little
more than one label's pool at a time.
"""

import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from oracles import per_plane_sweep

from ctwindow import _kernels, model, phantom, simulation, sweep, volume
from ctwindow.model import Band, BandSegmenter, FitParams, fit_band_segmenter
from ctwindow.phantom import _test_subject, _training_subject
from ctwindow.simulation import (StrategySpec, derive_seed, experiment_phantom,
                                 reference_experiment, run_experiment)
from ctwindow.sweep import run_shift_sweep
from ctwindow.volume import CtVolume, LabelVolume
from ctwindow.windowing import SwnParams, WindowSampler


def phantoms(cfg, kind, count):
    return [experiment_phantom(cfg, kind, i) for i in range(count)]


@pytest.mark.parametrize("tie_break", ["lowest_id", "nearest_center"])
@pytest.mark.parametrize("slice_axis", [0, 1, 2])
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
        seg = fit_band_segmenter(train, spec.strategy, swn=swn, fit=cfg.fit,
                                 slice_axis=slice_axis)
        assert segmenters[spec.label].bands == seg.bands
        assert segmenters[spec.label].tie_break == tie_break
        expected += run_shift_sweep(seg, test, spec.strategy, cfg.shifts,
                                    strategy_label=spec.label)
    assert rows == expected


def test_run_experiment_scans_no_phantom_for_its_ids():
    """The subjects come from the draws, so no phantom's labels are built or scanned for ids."""
    cfg = replace(reference_experiment(), n_train=2, n_test=3, shifts=[-25, 0])
    # so the spy below sees every scan
    assert not any(hasattr(m, "label_counts") for m in (phantom, model, sweep, simulation))
    with mock.patch.object(volume, "label_counts", side_effect=volume.label_counts) as scans:
        run_experiment(cfg)
    assert scans.call_count == 0


def test_run_experiment_fits_every_strategy_before_it_draws_a_test_phantom():
    """One fit and one sweep per strategy, in config order, with the positional arguments
    ``(training, strategy)`` and ``(seg, test, strategy, shifts)``; the test subjects are
    drawn after the last fit."""
    cfg = reference_experiment()
    cfg = replace(cfg, n_train=2, n_test=3, shifts=[-25, 0], fit=replace(cfg.fit, epochs=2))
    events = []

    def spy(name):
        real = getattr(simulation, name)

        def record(*args, **kwargs):
            events.append((name, args))
            return real(*args, **kwargs)
        return mock.patch.object(simulation, name, side_effect=record)

    with spy("_drawn_training_subject"), spy("fit_band_segmenter"), \
            spy("_drawn_test_subject"), spy("run_shift_sweep"):
        rows, segmenters = run_experiment(cfg)
    strategies = [spec.strategy for spec in cfg.strategies]
    assert [name for name, _ in events] == (
        ["_drawn_training_subject"] * cfg.n_train + ["fit_band_segmenter"] * len(strategies)
        + ["_drawn_test_subject"] * cfg.n_test + ["run_shift_sweep"] * len(strategies))
    fits = [args for name, args in events if name == "fit_band_segmenter"]
    sweeps = [args for name, args in events if name == "run_shift_sweep"]
    assert [len(args[0]) for args in fits] == [cfg.n_train] * len(strategies)
    assert [args[1] for args in fits] == strategies
    assert [args[0] for args in sweeps] == list(segmenters.values())
    assert [len(args[1]) for args in sweeps] == [cfg.n_test] * len(strategies)
    assert [args[2] for args in sweeps] == strategies
    assert all(args[3] == cfg.shifts for args in sweeps)
    assert len(rows) == len(strategies) * len(cfg.shifts) * len(cfg.phantom.organs)


def test_a_prepared_training_subject_fits_like_its_pair():
    vol, lab = experiment_phantom(reference_experiment(), 0, 0)
    prepared = _training_subject(vol, lab, 2)
    fit = fit_band_segmenter([prepared], "STN", slice_axis=2)
    assert fit.bands == fit_band_segmenter([(vol, lab)], "STN", slice_axis=2).bands


def test_prepared_test_subjects_sweep_like_their_pairs():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 4, size=(6, 5, 4)).astype(np.uint8)
    labels[labels == 2] = 7  # an unnamed id, present in the voxels only
    lab = LabelVolume(labels, label_names={0: "background", 1: "a", 3: "c"})
    lab.label_names.pop(7)
    pair = (CtVolume(rng.integers(-300, 300, size=labels.shape).astype(np.int16)), lab)
    prepared = _test_subject(*pair)
    assert sorted(prepared.values) == [0, 1, 3, 7]
    for lid, values in prepared.values.items():
        assert values.dtype == np.float32 and np.all(values[:-1] <= values[1:])
        assert values.size == np.count_nonzero(labels == lid)
    seg = BandSegmenter([Band(1, 100.0, 140.0), Band(3, 130.0, 200.0)])
    shifts = [-40, 0, 25]
    assert run_shift_sweep(seg, [prepared], "STN", shifts) == \
        run_shift_sweep(seg, [pair], "STN", shifts) == \
        per_plane_sweep(seg, [pair], "STN", shifts, 2)


def test_direct_fallback_counts_labels_across_several_chunks():
    """Four labels, counted across several slabs, sweep like the per-plane oracle.

    The name is kept from the chunked direct count that close band centers
    once fell back to; they now take the sorted path. With ``_kernels.SLAB``
    at 16, each 210-voxel phantom's id scan runs in 14 slabs, the last one
    partial, for two close centers and for equal ones.
    """
    names = {0: "background", 1: "a", 2: "b", 3: "c"}
    shifts = [-60, 0, 12.5, 80]
    chunk = 16
    with mock.patch.object(_kernels, "SLAB", chunk):
        rng = np.random.default_rng(8)
        test = []
        for _ in range(2):
            labels = rng.choice(4, size=(7, 6, 5), p=[0.1, 0.6, 0.2, 0.1]).astype(np.uint8)
            voxels = rng.uniform(-100.0, 200.0, size=labels.shape).astype(np.float32)
            voxels.flat[::11] = np.nan
            test.append((CtVolume(voxels), LabelVolume(labels, label_names=names)))
        for _, lab in test:
            assert lab.voxels.size > 4 * chunk and lab.voxels.size % chunk
            assert lab.ids.tolist() == np.unique(lab.voxels).tolist() == [0, 1, 2, 3]
        for nudge in (2.0 ** -16, 0.0):
            bands = [Band(1, 100.0, 140.0), Band(2, 100.0 + nudge, 140.0 + nudge),
                     Band(3, 60.0, 110.0)]
            seg = BandSegmenter(bands, tie_break="nearest_center")
            assert run_shift_sweep(seg, test, "STN", shifts) == \
                per_plane_sweep(seg, test, "STN", shifts, 2)


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


def test_run_experiment_holds_the_training_suite_through_the_fits_only():
    """No phantom is built, and the peak is that of the fits or that of the sweeps.

    The fits hold the training subjects and the SWN fit's pool bound
    (``test_the_swn_fit_holds_one_pool_per_label``). The sweeps hold the test
    subjects, every voxel's float32 value, and one subject's build comes on top:
    at most its float32 values again and the layout's uint8 labels. Holding
    the test subjects through the fits breaks both bounds.
    """
    cfg = replace(reference_experiment(), phantom=fit_heavy_phantom(), n_test=2)
    # a small run first, so that first-call imports do not count towards the peak
    run_experiment(replace(cfg, phantom=reference_experiment().phantom, n_train=1, n_test=1))
    train = [_training_subject(*experiment_phantom(cfg, 0, i), cfg.slice_axis)
             for i in range(cfg.n_train)]
    train_bytes = sum(a.nbytes for s in train
                      for a in [*s.values.values(), *s.plane_counts.values()])
    largest_pool = 4 * cfg.fit.epochs * max(
        sum(s.values[lid].size for s in train if lid in s.values) for lid in (1, 2, 3))
    del train
    voxels = int(np.prod(cfg.phantom.dims))
    fit_bound = 1.75 * largest_pool + train_bytes
    sweep_bound = 4 * voxels * cfg.n_test + 5 * voxels
    with mock.patch.object(simulation, "generate_phantom",
                           side_effect=simulation.generate_phantom) as generated, \
            mock.patch.object(LabelVolume, "__post_init__", autospec=True,
                              side_effect=LabelVolume.__post_init__) as labelled:
        tracemalloc.start()
        try:
            run_experiment(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < max(fit_bound, sweep_bound), (peak, fit_bound, sweep_bound)
    assert generated.call_count == labelled.call_count == 0


def test_the_swn_fit_holds_one_pool_per_label():
    cfg = replace(reference_experiment(), phantom=fit_heavy_phantom())
    train = [_training_subject(*experiment_phantom(cfg, 0, i), cfg.slice_axis)
             for i in range(cfg.n_train)]
    swn = SwnParams(50.0, 50.0, seed=derive_seed(cfg.seed, 2, 2))

    def fit():
        return fit_band_segmenter(train, "SWN", swn=swn, fit=cfg.fit)

    expected = fit().bands  # a first fit, so that first-call imports do not count
    largest_pool = 4 * cfg.fit.epochs * max(
        sum(s.values[lid].size for s in train if lid in s.values) for lid in (1, 2, 3))
    tracemalloc.start()
    try:
        assert fit().bands == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a label's float32 pool of all epochs' windowed values is dropped before the next
    # label's is allocated; one pass's kernel temporaries come on top of the largest
    assert peak < 1.75 * largest_pool, (peak, largest_pool)


@pytest.mark.parametrize("strategy", ["STN", "WIR", "SWN"])
def test_the_fit_windows_each_label_once_per_pass(strategy):
    cfg = reference_experiment()
    train = [_training_subject(*experiment_phantom(cfg, 0, i), cfg.slice_axis)
             for i in range(cfg.n_train)]
    swn = SwnParams(50.0, 50.0, seed=3) if strategy == "SWN" else None
    with mock.patch.object(_kernels, "window_normalize",
                           side_effect=_kernels.window_normalize) as windowed:
        fit_band_segmenter(train, strategy, swn=swn, fit=FitParams(epochs=cfg.fit.epochs))
    passes = cfg.fit.epochs if strategy == "SWN" else 1
    sizes = [sum(s.values[lid].size for s in train if lid in s.values) for lid in (1, 2, 3)]
    assert [call.args[0].size for call in windowed.call_args_list] == \
        [size for size in sizes for _ in range(passes)]


def test_a_label_without_voxels_fails_before_any_window_is_drawn():
    vol, lab = experiment_phantom(reference_experiment(), 0, 0)
    labels = np.where(lab.voxels == 2, 0, lab.voxels).astype(np.uint8)
    pair = (vol, LabelVolume(labels, label_names=lab.label_names))
    assert 2 in pair[1].label_names and 2 not in pair[1].ids
    # at this sigma the fourth draw fails, so drawing before the check would raise that error
    with mock.patch.object(WindowSampler, "sample", autospec=True,
                           side_effect=WindowSampler.sample) as draws, \
            pytest.raises(ValueError, match="^label 2 has no voxels in any training volume$"):
        fit_band_segmenter([pair], "SWN", swn=SwnParams(1e36, 1e36, seed=0),
                           fit=FitParams(epochs=2))
    assert draws.call_count == 0
