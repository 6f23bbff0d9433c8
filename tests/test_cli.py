import json
from dataclasses import replace

import numpy as np
import pytest

from ctwindow.cli import experiment_to_config, main, parse_experiment, parse_shifts
from ctwindow.metrics import read_dice_csv
from ctwindow.simulation import reference_experiment
from ctwindow.volume import (CtVolume, LabelVolume, load_label_volume, load_volume,
                             save_label_volume, save_volume)


@pytest.fixture
def image_path(tmp_path):
    rng = np.random.default_rng(0)
    vol = CtVolume(rng.integers(-1000, 1000, size=(8, 8, 4)).astype(np.int16))
    path = str(tmp_path / "img.ctv.json")
    save_volume(vol, path)
    return path


def small_config(tmp_path, **overrides):
    cfg = {
        "seed": 5,
        "n_train": 2,
        "n_test": 2,
        "phantom": {
            "dims": [20, 20, 6],
            "background_hu": -1000,
            "background_noise_std": 10,
            "organs": [{"label_id": 1, "label_name": "organ", "center": [10, 10, 3],
                        "radii": [5, 6, 2], "mean_hu": 40, "noise_std": 10}],
        },
        "strategies": [{"strategy": "STN"}, {"strategy": "SWN", "x": 50, "y": 50}],
        "fit": {"epochs": 2, "percentiles": [2.5, 97.5], "tie_break": "nearest_center"},
        "shifts": {"start": -50, "stop": 50, "step": 50},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def raw_bytes(header_path):
    name = header_path[: -len(".ctv.json")] + ".raw"
    return open(name, "rb").read()


def test_window_stn_output_range_and_json_line(tmp_path, image_path, capsys):
    out = str(tmp_path / "out.ctv.json")
    assert main(["window", image_path, out, "--strategy", "STN"]) == 0
    line = json.loads(capsys.readouterr().out.strip())
    assert line == {"strategy": "STN", "level": 40.0, "half_width": 200.0}
    normalized = load_volume(out)
    assert normalized.voxels.dtype == np.float32
    assert normalized.voxels.min() >= 0.0 and normalized.voxels.max() <= 255.0


def test_window_swn_zero_sigma_equals_stn_byte_for_byte(tmp_path, image_path, capsys):
    out_stn = str(tmp_path / "stn.ctv.json")
    out_swn = str(tmp_path / "swn.ctv.json")
    main(["window", image_path, out_stn, "--strategy", "STN", "--mode", "train"])
    main(["window", image_path, out_swn, "--strategy", "SWN", "--x", "0", "--y", "0",
          "--mode", "train", "--seed", "123"])
    assert raw_bytes(out_stn) == raw_bytes(out_swn)
    lines = [json.loads(ln) for ln in capsys.readouterr().out.strip().split("\n")]
    per_slice = [ln for ln in lines if "slice" in ln]
    assert len(per_slice) == 4  # one draw per slice along z
    assert all(ln["level"] == 40.0 and ln["half_width"] == 200.0 for ln in per_slice)


def test_window_swn_test_mode_ignores_params(tmp_path, image_path):
    out_a = str(tmp_path / "a.ctv.json")
    out_b = str(tmp_path / "b.ctv.json")
    main(["window", image_path, out_a, "--strategy", "SWN", "--mode", "test",
          "--x", "90", "--y", "90", "--seed", "1"])
    main(["window", image_path, out_b, "--strategy", "STN", "--mode", "test"])
    assert raw_bytes(out_a) == raw_bytes(out_b)


def test_window_missing_input_fails_with_message(tmp_path, capsys):
    code = main(["window", str(tmp_path / "nope.ctv.json"), str(tmp_path / "o.ctv.json"),
                 "--strategy", "STN"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_dice_command(tmp_path):
    arr = np.zeros((6, 6, 2), dtype=np.uint8)
    arr[1:4, 1:4, :] = 1
    truth = LabelVolume(arr, label_names={0: "background", 1: "organ"})
    pred_arr = arr.copy()
    pred_arr[1, 1, 0] = 0
    pred = LabelVolume(pred_arr, label_names=truth.label_names)
    t_path = str(tmp_path / "truth.ctv.json")
    p_path = str(tmp_path / "pred.ctv.json")
    save_label_volume(truth, t_path)
    save_label_volume(pred, p_path)
    out = str(tmp_path / "dice.csv")
    assert main(["dice", p_path, t_path, "-o", out]) == 0
    records = read_dice_csv(out)
    assert len(records) == 1
    assert records[0].subject_id == "truth"
    assert records[0].label_name == "organ"
    assert 0.9 < records[0].dice < 1.0


def test_compare_command_writes_csv_and_sidecar(tmp_path):
    rng = np.random.default_rng(1)
    base = rng.uniform(0.7, 0.9, 20)
    paths = {}
    for name, delta in (("STN", 0.0), ("SWN", 0.04)):
        rows = "subject_id,label_id,label_name,dice\n" + "\n".join(
            f"s{i:02d},1,liver,{min(1.0, v + delta)}" for i, v in enumerate(base))
        path = tmp_path / f"{name}.csv"
        path.write_text(rows + "\n")
        paths[name] = str(path)
    out = str(tmp_path / "cmp.csv")
    assert main(["compare", "--table", f"STN={paths['STN']}",
                 "--table", f"SWN={paths['SWN']}", "--reference", "STN",
                 "--alpha", "0.05", "--m", "12", "-o", out]) == 0
    text = open(out, encoding="utf-8").read()
    assert "Ref." in text and "↑" in text
    meta = json.loads(open(str(tmp_path / "cmp.meta.json"), encoding="utf-8").read())
    assert meta["comparison_count_m"] == 12
    assert meta["fdr_method"] == "benjamini_hochberg"


def test_phantom_command_writes_suite(tmp_path):
    cfg = small_config(tmp_path)
    out_dir = tmp_path / "suite"
    assert main(["phantom", cfg, "--out-dir", str(out_dir)]) == 0
    images = sorted(p.name for p in out_dir.glob("*_image.ctv.json"))
    assert images == ["test_00_image.ctv.json", "test_01_image.ctv.json",
                      "train_00_image.ctv.json", "train_01_image.ctv.json"]
    vol = load_volume(str(out_dir / "train_00_image.ctv.json"))
    lab = load_label_volume(str(out_dir / "train_00_labels.ctv.json"))
    assert vol.dims == lab.dims == (20, 20, 6)
    assert lab.label_names[1] == "organ"


def test_augment_command_identity(tmp_path, image_path):
    labels = LabelVolume(np.zeros((8, 8, 4), dtype=np.uint8))
    lab_path = str(tmp_path / "lab.ctv.json")
    save_label_volume(labels, lab_path)
    cfg_path = tmp_path / "aug.json"
    cfg_path.write_text(json.dumps({"augment": {
        "crop_size": [8, 8], "max_rotation_deg": 0, "max_translation": [0, 0], "seed": 3}}))
    out_img = str(tmp_path / "aug_img.ctv.json")
    out_lab = str(tmp_path / "aug_lab.ctv.json")
    assert main(["augment", image_path, lab_path, str(cfg_path),
                 "--out-image", out_img, "--out-labels", out_lab]) == 0
    original = load_volume(image_path)
    augmented = load_volume(out_img)
    assert np.array_equal(augmented.voxels, original.voxels.astype(np.float32))
    assert np.array_equal(load_label_volume(out_lab).voxels, labels.voxels)


def test_sweep_command_runs_and_is_byte_deterministic(tmp_path):
    cfg = small_config(tmp_path)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["sweep", cfg, "-o", str(out_a)]) == 0
    assert main(["sweep", cfg, "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert lines[0] == "shift_hu,strategy,label_id,label_name,mean_dice"
    assert len(lines) == 1 + 3 * 2  # 3 shifts x 2 strategies x 1 label


def test_sweep_rejects_unknown_config_keys(tmp_path, capsys):
    cfg = small_config(tmp_path, typo_key=True)
    code = main(["sweep", cfg, "-o", str(tmp_path / "x.csv")])
    assert code == 1
    assert "unknown keys" in capsys.readouterr().err


def test_sweep_default_config_round_trips(capsys):
    assert main(["sweep", "--default-config"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    exp = parse_experiment(cfg)
    assert exp.n_train == 5 and exp.n_test == 5
    assert len(exp.shifts) == 25


def test_parse_shifts_grid_matches_sweep_convention():
    shifts = parse_shifts({"start": -300, "stop": 300, "step": 25})
    assert len(shifts) == 25
    assert len(set(shifts)) == 25
    assert shifts[0] == -300 and shifts[-1] == 300
    assert parse_shifts([-10, 0, 10]) == [-10, 0, 10]
    with pytest.raises(ValueError):
        parse_shifts({"start": 0, "stop": -10, "step": 5})
    with pytest.raises(ValueError):
        parse_shifts([])


@pytest.mark.parametrize("bad", [[0, 12.5], [-0.7], {"start": 0, "stop": 50, "step": 12.5}])
def test_fractional_shifts_are_an_error_not_truncated(tmp_path, capsys, bad):
    with pytest.raises(ValueError, match="whole HU"):
        parse_shifts(bad)
    cfg = small_config(tmp_path, shifts=bad)
    assert main(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctwindow: error:") and "whole HU" in err
    shifts = parse_shifts([12.0, -3])
    assert shifts == [12, -3] and all(type(s) is int for s in shifts)


def test_non_uniform_shift_list_round_trips():
    for shifts in ([0, 10, 100], [50, 0, -50], [-300, -275, -250]):
        exp = replace(reference_experiment(), shifts=shifts)
        assert parse_experiment(experiment_to_config(exp)).shifts == shifts
    uniform = experiment_to_config(reference_experiment())["shifts"]
    assert uniform == {"start": -300, "stop": 300, "step": 25}


@pytest.mark.parametrize("key,value", [("n_test", 0), ("n_train", 0), ("n_test", -2)])
def test_nonpositive_subject_counts_are_config_errors(tmp_path, capsys, key, value):
    cfg = small_config(tmp_path, **{key: value})
    assert main(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctwindow: error: config: n_train and n_test must be positive")


def test_strategy_validation(tmp_path, capsys):
    cfg = small_config(tmp_path, strategies=[{"strategy": "XXX"}])
    assert main(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 1
    assert "unknown strategy" in capsys.readouterr().err
