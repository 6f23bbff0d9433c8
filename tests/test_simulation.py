import warnings

import numpy as np
import pytest

from ctwindow.simulation import (Band, BandSegmenter, ExperimentConfig, FitParams,
                                 OrganSpec, PhantomConfig, StrategySpec, derive_seed,
                                 fit_band_segmenter, generate_phantom,
                                 reference_experiment, run_experiment,
                                 run_shift_sweep, worker_count)
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
    with pytest.raises(ValueError, match="tie_break"):
        BandSegmenter([Band(1, 0.0, 1.0)], "STN", tie_break="nope")
    with pytest.raises(ValueError, match="unique"):
        BandSegmenter([Band(1, 0.0, 1.0), Band(1, 2.0, 3.0)], "STN")


def test_fit_noiseless_stn_band_collapses_to_epsilon_floor():
    pair = generate_phantom(single_organ_config())
    seg = fit_band_segmenter([pair], "STN", epochs=2)
    band = seg.bands[0]
    # 40 HU maps to 127.5 exactly; the degenerate band widens by 0.5 each side
    assert (band.lo, band.hi) == (127.0, 128.0)
    assert seg.strategy == "STN"


def test_fit_swn_zero_sigma_equals_stn():
    pair = generate_phantom(single_organ_config(noise=10.0, seed=3))
    stn = fit_band_segmenter([pair], "STN", epochs=3)
    swn = fit_band_segmenter([pair], "SWN", swn=SwnParams(0.0, 0.0, seed=1), epochs=3)
    assert [(b.lo, b.hi) for b in swn.bands] == [(b.lo, b.hi) for b in stn.bands]


def test_fit_swn_band_strictly_wider_than_stn():
    pairs = [generate_phantom(single_organ_config(noise=10.0, seed=s)) for s in (1, 2)]
    stn = fit_band_segmenter(pairs, "STN", epochs=4)
    swn = fit_band_segmenter(pairs, "SWN", swn=SwnParams(50.0, 50.0, seed=5), epochs=4)
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
        fit_band_segmenter([pair], "STN", percentiles=(99.0, 1.0))


def test_fit_errors_on_label_without_voxels():
    vol, lab = generate_phantom(single_organ_config())
    lab.label_names[9] = "ghost"
    with pytest.raises(ValueError, match="no voxels"):
        fit_band_segmenter([(vol, lab)], "STN", epochs=1)


def test_band_segmenter_predict_modes():
    seg_low = BandSegmenter([Band(1, 0.0, 10.0), Band(2, 0.0, 10.0)], "STN",
                            tie_break="lowest_id")
    seg_near = BandSegmenter([Band(1, 0.0, 10.0), Band(2, 6.0, 10.0)], "STN",
                             tie_break="nearest_center")
    s = Slice2D(np.array([[2.0, 9.0, 50.0]], dtype=np.float32))
    assert seg_low.predict(s.values).tolist() == [[1, 1, 0]]
    # 9.0 sits in both bands; centers are 5.0 and 8.0, so label 2 is nearer
    assert seg_near.predict(s.values).tolist() == [[1, 2, 0]]


def test_sweep_self_consistency_noiseless():
    pair = generate_phantom(single_organ_config())
    seg = fit_band_segmenter([pair], "STN", epochs=1)
    result = run_shift_sweep(seg, [pair], "STN", [0])
    assert result.cell(0, 1) == 1.0


def test_sweep_row_grid_and_saturation_collapse():
    pairs = [generate_phantom(single_organ_config(noise=5.0, seed=s)) for s in (1, 2)]
    seg = fit_band_segmenter(pairs, "STN", epochs=2)
    shifts = list(range(-300, 301, 25))
    result = run_shift_sweep(seg, pairs, "STN", shifts)
    assert len(shifts) == 25
    assert len(result.rows) == 25  # one label
    assert [r.shift_hu for r in result.rows] == shifts
    # organ at 40 HU shifted +300 saturates with the rest of the tissue
    assert result.cell(300, 1) < 0.1
    assert result.cell(0, 1) > 0.9


def test_sweep_requires_test_subjects():
    seg = fit_band_segmenter([generate_phantom(single_organ_config())], "STN", epochs=1)
    with pytest.raises(ValueError, match="test set must be nonempty"):
        run_shift_sweep(seg, [], "STN", [0])


def test_sweep_requires_shifts():
    pair = generate_phantom(single_organ_config())
    seg = fit_band_segmenter([pair], "STN", epochs=1)
    with pytest.raises(ValueError, match="nonempty"):
        run_shift_sweep(seg, [pair], "STN", [])
    # int(1e300) is a whole number, as the CLI passes it; 4e38 overflows float32
    for shifts in ([0, float("nan")], [-float("inf")], [int(1e300)], [4e38]):
        with pytest.raises(ValueError, match="finite"):
            run_shift_sweep(seg, [pair], "STN", shifts)


def test_worker_count_env(monkeypatch):
    monkeypatch.setenv("CTWINDOW_THREADS", "2")
    assert worker_count(10) == 2
    monkeypatch.setenv("CTWINDOW_THREADS", "0")
    assert worker_count(10) >= 1
    monkeypatch.setenv("CTWINDOW_THREADS", "-3")
    with pytest.raises(ValueError):
        worker_count(10)
    monkeypatch.setenv("CTWINDOW_THREADS", "lots")
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError, match="epochs must be a whole number >= 1"):
        fit_band_segmenter([pair], "STN", epochs=epochs)
    with pytest.raises(ValueError, match="epochs must be a whole number >= 1"):
        fit_band_segmenter([pair], "SWN", swn=SwnParams(1.0, 1.0, seed=0), epochs=epochs)


def test_fit_accepts_whole_float_epochs():
    pair = generate_phantom(single_organ_config(noise=10.0, seed=3))
    assert fit_band_segmenter([pair], "STN", epochs=3.0).bands == \
        fit_band_segmenter([pair], "STN", epochs=3).bands


def test_phantom_rejects_label_ids_outside_uint8():
    with pytest.raises(ValueError, match="1..255"):
        PhantomConfig(dims=(20, 20, 6),
                      organs=[OrganSpec(256, "a", (8, 8, 3), (2, 2, 1), 40.0, 0.0)])


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
