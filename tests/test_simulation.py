import inspect
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

import ctwindow
from ctwindow import _kernels, simulation
from ctwindow.model import Band, BandSegmenter, FitParams, fit_band_segmenter
from ctwindow.phantom import OrganSpec, PhantomConfig, generate_phantom
from ctwindow.simulation import (ExperimentConfig, StrategySpec, derive_seed,
                                 reference_experiment, run_experiment, worker_count)
from ctwindow.sweep import run_shift_sweep, write_sweep_csv
from ctwindow.volume import Slice2D, extract_slice
from ctwindow.windowing import SwnParams, normalize_for_testing


def single_organ_config(noise=0.0, mean_hu=40.0, seed=0):
    return PhantomConfig(
        dims=(20, 20, 6),
        organs=[OrganSpec(1, "organ", (10, 10, 3), (5, 6, 2), mean_hu, noise)],
        background_hu=-1000.0,
        background_noise_std=noise,
        seed=seed,
    )


def cell(rows, shift_hu, label_id):
    """The mean dice of one (shift, label) of a sweep's rows."""
    for row in rows:
        if row.shift_hu == shift_hu and row.label_id == label_id:
            return row.mean_dice
    raise KeyError((shift_hu, label_id))


def test_noiseless_phantom_has_two_values_and_matching_labels():
    vol, lab = generate_phantom(single_organ_config())
    assert set(np.unique(vol.voxels)) == {-1000.0, 40.0}
    inside = int((lab.voxels == 1).sum())
    xs, ys, zs = np.meshgrid(*[np.arange(d, dtype=float) for d in (20, 20, 6)], indexing="ij")
    expected = ((xs - 10) / 5) ** 2 + ((ys - 10) / 6) ** 2 + ((zs - 3) / 2) ** 2 <= 1.0
    assert inside == int(expected.sum())
    assert np.array_equal(lab.voxels == 1, vol.voxels == 40.0)
    assert lab.label_names == {0: "background", 1: "organ"}


def test_phantom_determinism():
    cfg = single_organ_config(noise=12.0, seed=77)
    a_vol, a_lab = generate_phantom(cfg)
    b_vol, b_lab = generate_phantom(cfg)
    assert np.array_equal(a_vol.voxels, b_vol.voxels)
    assert np.array_equal(a_lab.voxels, b_lab.voxels)
    c_vol, _ = generate_phantom(single_organ_config(noise=12.0, seed=78))
    assert not np.array_equal(a_vol.voxels, c_vol.voxels)


def test_phantom_rejects_overlap_and_out_of_bounds():
    overlapping = PhantomConfig(
        dims=(20, 20, 6),
        organs=[OrganSpec(1, "a", (8, 10, 3), (5, 5, 2), 40.0, 0.0),
                OrganSpec(2, "b", (12, 10, 3), (5, 5, 2), 80.0, 0.0)],
    )
    with pytest.raises(ValueError, match="overlaps"):
        generate_phantom(overlapping)
    with pytest.raises(ValueError, match="outside"):
        PhantomConfig(dims=(10, 10, 4),
                      organs=[OrganSpec(1, "a", (9, 5, 2), (3, 3, 1), 40.0, 0.0)])
    with pytest.raises(ValueError, match="unique"):
        PhantomConfig(dims=(30, 30, 6),
                      organs=[OrganSpec(1, "a", (8, 8, 3), (2, 2, 1), 40.0, 0.0),
                              OrganSpec(1, "b", (20, 20, 3), (2, 2, 1), 80.0, 0.0)])


def test_band_validation():
    with pytest.raises(ValueError, match="lo < hi"):
        Band(1, 5.0, 5.0)
    # an infinite end would give an infinite or NaN center
    for lo, hi in ((-np.inf, 10.0), (0.0, np.inf), (-np.inf, np.inf), (np.nan, 1.0)):
        with pytest.raises(ValueError, match="label 3 needs finite lo < hi"):
            Band(3, lo, hi)
    # a bool end was a number (centre 3.0), and a string end raised NumPy's TypeError
    for lo, hi in ((True, 5), ("0", "5")):
        with pytest.raises(ValueError, match="^band for label 1 needs finite lo < hi, got "):
            Band(1, lo, hi)
    # a label id is a whole number in 1..255: not truncated, and not NumPy's OverflowError
    for label_id in (1.5, 0, 256, 300, True, "1"):
        with pytest.raises(ValueError,
                           match="^band label_id: expected a whole number in 1..255, got "):
            Band(label_id, 0.0, 10.0)
    assert type(Band(np.uint8(2), 0.0, 10.0).label_id) is int
    assert BandSegmenter([Band(2.0, 0.0, 10.0)]).predict([5.0]).tolist() == [2]
    with pytest.raises(ValueError, match="tie_break"):
        BandSegmenter([Band(1, 0.0, 1.0)], tie_break="nope")
    with pytest.raises(ValueError, match="unique"):
        BandSegmenter([Band(1, 0.0, 1.0), Band(1, 2.0, 3.0)])


def test_fit_noiseless_stn_band_collapses_to_epsilon_floor():
    pair = generate_phantom(single_organ_config())
    seg = fit_band_segmenter([pair], "STN", fit=FitParams(epochs=2))
    band = seg.bands[0]
    # 40 HU maps to 127.5 exactly; the degenerate band widens by 0.5 each side
    assert (band.lo, band.hi) == (127.0, 128.0)


def test_fit_swn_zero_sigma_equals_stn():
    pair = generate_phantom(single_organ_config(noise=10.0, seed=3))
    stn = fit_band_segmenter([pair], "STN", fit=FitParams(epochs=3))
    swn = fit_band_segmenter([pair], "SWN", swn=SwnParams(0.0, 0.0, seed=1),
                             fit=FitParams(epochs=3))
    assert [(b.lo, b.hi) for b in swn.bands] == [(b.lo, b.hi) for b in stn.bands]


def test_fit_swn_band_strictly_wider_than_stn():
    pairs = [generate_phantom(single_organ_config(noise=10.0, seed=s)) for s in (1, 2)]
    stn = fit_band_segmenter(pairs, "STN", fit=FitParams(epochs=4))
    swn = fit_band_segmenter(pairs, "SWN", swn=SwnParams(50.0, 50.0, seed=5),
                             fit=FitParams(epochs=4))
    width = lambda b: b.hi - b.lo
    assert width(swn.bands[0]) > width(stn.bands[0])


def test_fit_parameter_validation():
    pair = generate_phantom(single_organ_config())
    with pytest.raises(ValueError, match="swn"):
        fit_band_segmenter([pair], "STN", swn=SwnParams(1, 1, 0))
    with pytest.raises(ValueError, match="swn"):
        fit_band_segmenter([pair], "SWN")
    with pytest.raises(ValueError, match="nonempty"):
        fit_band_segmenter([], "STN")
    with pytest.raises(ValueError, match="percentiles"):
        fit_band_segmenter([pair], "STN", fit=FitParams(percentiles=(99.0, 1.0)))


def test_fit_settings_come_from_one_fit_params():
    pair = generate_phantom(single_organ_config(noise=10.0, seed=3))
    assert list(inspect.signature(fit_band_segmenter).parameters) == \
        ["training", "strategy", "swn", "fit", "slice_axis"]
    # no fit is FitParams(), 12 epochs, for SWN as for STN
    for strategy, swn in (("STN", None), ("SWN", SwnParams(50.0, 50.0, seed=5))):
        assert fit_band_segmenter([pair], strategy, swn=swn).bands == \
            fit_band_segmenter([pair], strategy, swn=swn, fit=FitParams()).bands
    with pytest.raises(ValueError, match=r"^fit: expected a FitParams, got \{'epochs': 2\}$"):
        fit_band_segmenter([pair], "STN", fit={"epochs": 2})


def test_the_segmenter_holds_bands_and_a_tie_break_only():
    seg = BandSegmenter([Band(1, 0.0, 10.0)], tie_break="nearest_center")
    assert not hasattr(seg, "strategy")
    # a strategy in the old second place is a bad tie_break, not a silently stored name
    with pytest.raises(ValueError, match="^tie_break: expected one of .*, got 'STN'$"):
        BandSegmenter([Band(1, 0.0, 10.0)], "STN")
    # a sweep's result is its list of SweepRow, from run_shift_sweep as from run_experiment
    assert not hasattr(ctwindow, "SweepResult")
    assert not hasattr(ctwindow.simulation, "SweepResult")


def test_fit_errors_on_label_without_voxels():
    vol, lab = generate_phantom(single_organ_config())
    lab.label_names[9] = "ghost"
    with pytest.raises(ValueError, match="no voxels"):
        fit_band_segmenter([(vol, lab)], "STN", fit=FitParams(epochs=1))


def test_band_segmenter_predict_modes():
    seg_low = BandSegmenter([Band(1, 0.0, 10.0), Band(2, 0.0, 10.0)], tie_break="lowest_id")
    seg_near = BandSegmenter([Band(1, 0.0, 10.0), Band(2, 6.0, 10.0)],
                             tie_break="nearest_center")
    s = Slice2D(np.array([[2.0, 9.0, 50.0]], dtype=np.float32))
    assert seg_low.predict(s.values).tolist() == [[1, 1, 0]]
    # 9.0 sits in both bands; centers are 5.0 and 8.0, so label 2 is nearer
    assert seg_near.predict(s.values).tolist() == [[1, 2, 0]]


def test_sweep_self_consistency_noiseless():
    pair = generate_phantom(single_organ_config())
    seg = fit_band_segmenter([pair], "STN", fit=FitParams(epochs=1))
    rows = run_shift_sweep(seg, [pair], "STN", [0])
    assert cell(rows, 0, 1) == 1.0


def test_sweep_row_grid_and_saturation_collapse():
    pairs = [generate_phantom(single_organ_config(noise=5.0, seed=s)) for s in (1, 2)]
    seg = fit_band_segmenter(pairs, "STN", fit=FitParams(epochs=2))
    shifts = list(range(-300, 301, 25))
    rows = run_shift_sweep(seg, pairs, "STN", shifts)
    assert len(shifts) == 25
    assert len(rows) == 25  # one label
    assert [r.shift_hu for r in rows] == shifts
    # organ at 40 HU shifted +300 saturates with the rest of the tissue
    assert cell(rows, 300, 1) < 0.1
    assert cell(rows, 0, 1) > 0.9


def test_sweep_requires_test_subjects():
    seg = fit_band_segmenter([generate_phantom(single_organ_config())], "STN",
                             fit=FitParams(epochs=1))
    with pytest.raises(ValueError, match="test set must be nonempty"):
        run_shift_sweep(seg, [], "STN", [0])


def test_sweep_requires_shifts():
    pair = generate_phantom(single_organ_config())
    seg = fit_band_segmenter([pair], "STN", fit=FitParams(epochs=1))
    with pytest.raises(ValueError, match="nonempty"):
        run_shift_sweep(seg, [pair], "STN", [])
    # int(1e300) is a whole number, as the CLI passes it; 4e38 overflows float32;
    # True swept shift 1 and wrote shift_hu True, and "5" wrote shift_hu '5'
    for shifts in ([0, float("nan")], [-float("inf")], [int(1e300)], [4e38], [True, 0], ["5"]):
        with pytest.raises(ValueError, match="^shifts: expected a finite number in "):
            run_shift_sweep(seg, [pair], "STN", shifts)


def test_the_shift_cap_covers_the_python_api():
    with pytest.raises(ValueError, match="^shifts: at most 65536 shifts, got 65537$"):
        replace(reference_experiment(), shifts=[0] * 65537)
    with pytest.raises(ValueError, match="^shifts: at most 65536 shifts, got 65537$"):
        replace(reference_experiment(), shifts=range(-32768, 32769))


def test_a_numpy_shift_grid_sweeps_like_its_list(tmp_path):
    exp = ExperimentConfig(phantom=single_organ_config(noise=10.0),
                           strategies=[StrategySpec("STN"), StrategySpec("SWN", 50, 50)],
                           shifts=[-50, 0, 50], n_train=1, n_test=2,
                           fit=FitParams(epochs=2), seed=4)
    paths = []
    for shifts in ([-50, 0, 50], np.arange(-50, 51, 50)):
        rows, _ = run_experiment(replace(exp, shifts=shifts))
        paths.append(tmp_path / f"sweep{len(paths)}.csv")
        write_sweep_csv(rows, str(paths[-1]))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with pytest.raises(ValueError, match="nonempty"):
        run_experiment(replace(exp, shifts=np.array([], dtype=np.int64)))


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("CTWINDOW_THREADS", "2")
    assert worker_count(10) == 2
    assert worker_count(1) == 1
    monkeypatch.setenv("CTWINDOW_THREADS", "0")
    assert worker_count(10) >= 1
    # auto reports the fill threads: the CPUs this process may run on, so a pinned run is 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert worker_count(10) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert worker_count(10) == 3 and worker_count(2) == 2
    monkeypatch.delenv("CTWINDOW_THREADS")
    assert worker_count(10) == 3
    monkeypatch.setenv("CTWINDOW_THREADS", "-3")
    with pytest.raises(ValueError, match="^CTWINDOW_THREADS must be >= 0, got -3$"):
        worker_count(10)
    monkeypatch.setenv("CTWINDOW_THREADS", "lots")
    with pytest.raises(ValueError, match="^CTWINDOW_THREADS must be an integer, got 'lots'$"):
        worker_count(10)


def test_wir_shift_response_is_linear_without_saturation():
    rng = np.random.default_rng(6)
    values = rng.uniform(-500, 500, size=(8, 8)).astype(np.float32)
    for shift in (-300.0, 150.0, 25.0):
        base = normalize_for_testing(Slice2D(values), "WIR").values
        moved = normalize_for_testing(Slice2D(values + np.float32(shift)), "WIR").values
        assert np.allclose(moved - base, 255.0 * shift / 2000.0, atol=1e-3)


def test_run_experiment_small_and_deterministic():
    exp = ExperimentConfig(
        phantom=single_organ_config(noise=10.0),
        strategies=[StrategySpec("STN"), StrategySpec("SWN", 50, 50)],
        shifts=[-25, 0, 25],
        n_train=2,
        n_test=2,
        fit=FitParams(epochs=2, percentiles=(2.5, 97.5), tie_break="nearest_center"),
        seed=11,
    )
    rows_a, segs = run_experiment(exp)
    rows_b, _ = run_experiment(exp)
    assert rows_a == rows_b
    assert sorted(segs) == ["STN", "SWN[50,50]"]
    assert {r.strategy for r in rows_a} == {"STN", "SWN[50,50]"}


# perfbench's tracer wraps these by ``vars(ctwindow.simulation)[name]``
PERFBENCH_PINS = ("generate_phantom", "fit_band_segmenter", "run_shift_sweep", "BandSegmenter",
                  "multi_label_dice", "extract_slice", "stack_slices", "shift_intensity",
                  "normalize_for_training", "normalize_for_testing", "worker_count")


def test_the_names_perfbench_traces_are_the_ones_the_run_calls(monkeypatch):
    """A pinned name missing from ``simulation`` is a KeyError in every traced run. The run
    calls the fit, the sweep and the phantom through ``simulation``'s globals, and the fit and
    the sweep call the kernels through ``_kernels``, so that the tracer's wrappers see them."""
    assert [name for name in PERFBENCH_PINS if name not in vars(simulation)] == []
    stage, calls = [], []

    def wrap(module, name, record):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            record(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("window_normalize", "classify_bands"):
        wrap(_kernels, name, lambda name: calls.append((stage[-1], name)))
    for name in ("fit_band_segmenter", "run_shift_sweep", "generate_phantom"):
        wrap(simulation, name, stage.append)
    cfg = replace(reference_experiment(), n_train=1, n_test=1, shifts=[0])
    run_experiment(cfg)
    assert set(calls) == {("fit_band_segmenter", "window_normalize"),
                          ("run_shift_sweep", "window_normalize"),
                          ("run_shift_sweep", "classify_bands")}
    assert stage == ["fit_band_segmenter"] * 3 + ["run_shift_sweep"] * 3
    simulation.experiment_phantom(cfg, 1, 0)
    assert stage[-1] == "generate_phantom"


def test_derive_seed_is_stable_and_keyed():
    assert derive_seed(7, 0, 1) == derive_seed(7, 0, 1)
    assert derive_seed(7, 0, 1) != derive_seed(7, 0, 2)
    assert derive_seed(7, 0, 1) != derive_seed(8, 0, 1)


def test_reference_experiment_shape():
    exp = reference_experiment()
    assert [o.mean_hu for o in exp.phantom.organs] == [40.0, 120.0, 235.0]
    assert all(-160.0 < o.mean_hu < 240.0 for o in exp.phantom.organs)
    assert len(exp.shifts) == 25
    assert exp.fit.tie_break == "nearest_center"
    labels = [s.label for s in exp.strategies]
    assert labels == ["STN", "WIR", "SWN[50,50]"]


@pytest.mark.parametrize("epochs", [0, -1, 1.5, True, "2", None])
def test_fit_rejects_epochs_below_one_or_not_whole(epochs):
    pair = generate_phantom(single_organ_config())
    with pytest.raises(ValueError, match="epochs: expected a whole number >= 1"):
        fit_band_segmenter([pair], "STN", fit=FitParams(epochs=epochs))
    with pytest.raises(ValueError, match="epochs: expected a whole number >= 1"):
        fit_band_segmenter([pair], "SWN", swn=SwnParams(1.0, 1.0, seed=0),
                           fit=FitParams(epochs=epochs))


def test_fit_accepts_whole_float_epochs():
    pair = generate_phantom(single_organ_config(noise=10.0, seed=3))
    assert fit_band_segmenter([pair], "STN", fit=FitParams(epochs=3.0)).bands == \
        fit_band_segmenter([pair], "STN", fit=FitParams(epochs=3)).bands


def test_phantom_rejects_label_ids_outside_uint8():
    with pytest.raises(ValueError, match="1..255"):
        PhantomConfig(dims=(20, 20, 6),
                      organs=[OrganSpec(256, "a", (8, 8, 3), (2, 2, 1), 40.0, 0.0)])


@pytest.mark.parametrize("spacing,kind", [
    ((0, 1, 1), "positive"), ((1, -2, 1), "positive"), ((1, 1, float("inf")), "finite"),
    ((1, float("nan"), 1), "finite"), ((1, 1), "finite"),
])
def test_phantom_rejects_spacing_that_is_not_positive_and_finite(spacing, kind):
    # a value that is not positive and one that is not finite now break one rule
    expected = "a finite number > 0" if len(spacing) == 3 else "a list of 3 numbers"
    with pytest.raises(ValueError, match=f"^spacing: expected {expected}, got "):
        PhantomConfig(dims=(20, 20, 6), organs=[], spacing=spacing)


def test_subnormal_radius_warns_nothing_and_keeps_its_voxels():
    # 1e-320 overflows that axis' term to inf away from the center: only x = 4 is inside
    cfg = PhantomConfig(dims=(8, 8, 8),
                        organs=[OrganSpec(1, "organ", (4, 4, 4), (1e-320, 2, 1), 40.0, 10.0)],
                        background_noise_std=5.0, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, lab = generate_phantom(cfg)
    assert np.argwhere(lab.voxels).tolist() == [[4, 2, 4], [4, 3, 4], [4, 4, 3], [4, 4, 4],
                                                [4, 4, 5], [4, 5, 4], [4, 6, 4]]
