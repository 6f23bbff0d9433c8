import hashlib
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

import ctwindow
from ctwindow import phantom, simulation
from ctwindow._checks import MAX_SHIFTS
from ctwindow.cli import ConfigError, experiment_to_config, main, parse_experiment, parse_shifts
from ctwindow.metrics import read_dice_csv
from ctwindow.augmentation import AugmentConfig, augment_pair
from ctwindow.simulation import (ExperimentConfig, FitParams, OrganSpec, PhantomConfig,
                                 StrategySpec, reference_experiment, run_experiment)
from ctwindow.volume import (CtVolume, LabelVolume, Slice2D, load_label_volume, load_volume,
                             save_label_volume, save_volume, stack_slices)


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


@pytest.mark.parametrize("args, raw_sha256, stdout_sha256", [
    (["--x", "50", "--y", "50", "--seed", "3"],
     "926cbc7b04e63662f9355956ad953c855e8749a3d80ab9a017b1fe45fd47eff7",
     "eac87bbe84edff2adffcb08ed210ca98a915f19486dc48c3584f2813380eeb39"),
    # three of these 600 half-widths are floored at W_MIN
    (["--x", "80", "--y", "350", "--seed", "12"],
     "0923e3c70f2a3333fd7d35e9b9b7ccb22ffdeca15af7392df3f7180c987ffa32",
     "24648381b3774e1da8d2451315d577ceaf06df5ca39615b94ed8a4ead0d8b6b6"),
], ids=["50-50", "80-350"])
def test_window_swn_train_bytes_are_pinned(tmp_path, capsys, args, raw_sha256, stdout_sha256):
    """600 slices draw 1,200 normals over three of the sampler's blocks; output and stdout pinned.

    The digests are those of the scalar-scaled sampler (one Python float
    multiply and add per draw), which the block-scaled one must reproduce.
    """
    rng = np.random.default_rng(3)
    image = str(tmp_path / "img.ctv.json")
    save_volume(CtVolume(rng.integers(-1100, 1100, size=(3, 2, 600)).astype(np.int16)), image)
    out = str(tmp_path / "out.ctv.json")
    assert main(["window", image, out, "--strategy", "SWN", "--mode", "train", *args]) == 0
    assert hashlib.sha256(raw_bytes(out)).hexdigest() == raw_sha256
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha256


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


@pytest.fixture
def label_paths(tmp_path):
    arr = np.zeros((6, 6, 2), dtype=np.uint8)
    arr[1:4, 1:4, :] = 1
    arr[4:, 4:, :] = 2
    path = str(tmp_path / "truth.ctv.json")
    save_label_volume(LabelVolume(arr, label_names={1: "organ", 2: "bone"}), path)
    return path


@pytest.mark.parametrize("labels,expected", [
    ("2", [2]), ("2,1", [2, 1]), (" 1, 2", [1, 2]), ("0,255", [0, 255]), ("001", [1]),
])
def test_dice_labels_are_written_in_the_given_order(tmp_path, label_paths, labels, expected):
    out = str(tmp_path / "dice.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # 255 has no name in either volume
        assert main(["dice", label_paths, label_paths, "-o", out, "--labels", labels]) == 0
    assert [r.label_id for r in read_dice_csv(out)] == expected


@pytest.mark.parametrize("labels,message", [
    ("1,1,2", "label 1 is given more than once"),
    ("1,001", "label 1 is given more than once"),
    ("1,x", "got 'x'"), ("1.0", "got '1.0'"), ("300", "got '300'"), ("-1", "got '-1'"),
    ("+1", "got '+1'"), ("1,,2", "got ''"), ("", "got ''"), ("1,2,", "got ''"),
    ("9" * 5000, "expected whole numbers in 0..255"),
], ids=["duplicate", "duplicate-zeros", "word", "fraction", "256-up", "negative", "plus",
        "empty-field", "empty", "trailing-comma", "huge"])
def test_bad_dice_labels_are_one_error_line_naming_the_option(tmp_path, label_paths, capsys,
                                                             labels, message):
    out = tmp_path / "dice.csv"
    assert main(["dice", label_paths, label_paths, "-o", str(out), f"--labels={labels}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctwindow: error: --labels: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["STN", "SWN"])
def test_window_negative_seed_is_an_error_naming_the_option(tmp_path, image_path, capsys,
                                                            strategy):
    out = tmp_path / "out.ctv.json"
    assert main(["window", image_path, str(out), "--strategy", strategy, "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ctwindow: error: --seed: expected a whole number >= 0, got -1\n"
    assert not out.exists()


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


@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "-1", "1", "2"])
def test_compare_alpha_outside_the_open_unit_interval_is_an_error(tmp_path, capsys, alpha):
    paths = {}
    for name, delta in (("STN", 0.0), ("SWN", 0.1)):
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("subject_id,label_id,label_name,dice\n" + "".join(
            f"s{i},1,liver,{0.5 + 0.01 * i + delta}\n" for i in range(8)))
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--table", f"STN={paths['STN']}", "--table", f"SWN={paths['SWN']}",
                 "--reference", "STN", f"--alpha={alpha}", "-o", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and err.startswith("ctwindow: error: alpha: expected a finite number in (0, 1)")
    assert not out.exists()


@pytest.mark.parametrize("flag,value", [("--x", "nan"), ("--y", "nan"), ("--x", "inf"),
                                        ("--y", "-inf"), ("--x", "-5"), ("--y", "-1e-300")])
def test_window_swn_non_finite_sigma_is_an_error(tmp_path, image_path, capsys, flag, value):
    out = tmp_path / "out.ctv.json"
    code = main(["window", image_path, str(out), "--strategy", "SWN", "--mode", "train",
                 f"{flag}={value}"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"ctwindow: error: {flag}: expected a finite number >= 0, "
                            f"got {float(value)!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["STN", "SWN"])
def test_window_bad_sigma_is_rejected_before_the_volume_is_loaded(tmp_path, capsys, strategy):
    code = main(["window", str(tmp_path / "missing.ctv.json"), str(tmp_path / "out.ctv.json"),
                 "--strategy", strategy, "--x", "nan"])
    assert code == 1
    assert capsys.readouterr().err == \
        "ctwindow: error: --x: expected a finite number >= 0, got nan\n"


def test_window_swn_width_float32_cannot_represent_is_an_error(tmp_path, image_path, capsys):
    out = tmp_path / "out.ctv.json"
    code = main(["window", image_path, str(out), "--strategy", "SWN", "--mode", "train",
                 "--y", "1e39"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("ctwindow: error: window [")
    assert "not representable in float32" in captured.err
    assert not out.exists()


def test_window_swn_bad_draw_after_good_ones_prints_nothing(tmp_path, image_path, capsys):
    # seed 2 draws a representable window for slice 0 and an unrepresentable one after it
    out = tmp_path / "out.ctv.json"
    code = main(["window", image_path, str(out), "--strategy", "SWN", "--mode", "train",
                 "--y", "5e35", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("ctwindow: error: window [")
    assert sorted(os.listdir(tmp_path)) == ["img.ctv.json", "img.raw"]


def test_sweep_swn_level_float32_cannot_represent_is_an_error(tmp_path, capsys):
    cfg = small_config(tmp_path, strategies=[{"strategy": "SWN", "x": 1e30, "y": 50}])
    out = tmp_path / "x.csv"
    assert main(["sweep", cfg, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ctwindow: error: window [") and "not representable in float32" in err
    assert not out.exists()


def test_sweep_swn_level_float32_rounds_visibly_is_an_error(tmp_path, capsys):
    # levels drawn around +-1e9 HU have float32 ends tens of HU off, several output steps
    cfg = small_config(tmp_path, strategies=[{"strategy": "SWN", "x": 1e9, "y": 50}])
    out = tmp_path / "x.csv"
    assert main(["sweep", cfg, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("ctwindow: error: window [") and "not representable in float32" in err
    assert not out.exists()


@pytest.mark.parametrize("name", [None, ["x", 1], 7])
def test_sweep_non_string_label_name_is_an_error(tmp_path, capsys, name):
    cfg = json.loads(open(small_config(tmp_path)).read())
    cfg["phantom"]["organs"][0]["label_name"] = name
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "x.csv"
    assert main(["sweep", str(path), "-o", str(out)]) == 1
    assert capsys.readouterr().err == ("ctwindow: error: phantom.organs[0].label_name: "
                                       f"expected a string, got {name!r}\n")
    assert not out.exists()


def run_cli(argv, code=None):
    """``ctwindow`` in a child process (``code`` instead of ``-m ctwindow.cli`` if given)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctwindow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    entry = ["-m", "ctwindow.cli"] if code is None else ["-c", code]
    return subprocess.run([sys.executable, *entry, *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_phantom_command_with_a_subnormal_radius_writes_nothing_to_stderr(tmp_path):
    cfg = edited_config(tmp_path, lambda c: c["phantom"]["organs"][0].update(radii=[1e-320, 6, 2]))
    result = run_cli(["phantom", cfg, "--out-dir", str(tmp_path / "suite")])
    assert (result.returncode, result.stderr) == (0, "")
    assert (tmp_path / "suite" / "train_00_labels.ctv.json").exists()


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


def test_phantom_command_writes_the_phantoms_run_experiment_generates(tmp_path):
    """The files reduce to the subjects ``run_experiment`` draws: whole test subjects, and
    the organ values and per-plane counts of training subjects."""
    spacing = [0.5, 0.75, 2.0]

    def edit(c):
        c["phantom"].update(spacing_mm=spacing)
        c["slice_axis"] = 1
    cfg = edited_config(tmp_path, edit)
    drawn = {"_drawn_training_subject": [], "_drawn_test_subject": []}

    def spy(name):
        real = getattr(simulation, name)

        def record(*args):
            drawn[name].append(real(*args))
            return drawn[name][-1]
        return mock.patch.object(simulation, name, side_effect=record)

    with spy("_drawn_training_subject"), spy("_drawn_test_subject"):
        run_experiment(parse_experiment(json.load(open(cfg, encoding="utf-8"))))
    assert main(["phantom", cfg, "--out-dir", str(tmp_path / "suite")]) == 0
    files = [(f"train_{i:02d}", s) for i, s in enumerate(drawn["_drawn_training_subject"])] \
        + [(f"test_{i:02d}", s) for i, s in enumerate(drawn["_drawn_test_subject"])]
    assert [stem for stem, _ in files] == ["train_00", "train_01", "test_00", "test_01"]
    for stem, subject in files:
        label_path = str(tmp_path / "suite" / f"{stem}_labels.ctv.json")
        written = load_volume(str(tmp_path / "suite" / f"{stem}_image.ctv.json"))
        labels = load_label_volume(label_path)
        assert written.voxels.dtype == np.float32
        reduced = (phantom._training_subject(written, labels, 1) if stem.startswith("train")
                   else phantom._test_subject(written, labels))
        assert subject.label_names == reduced.label_names == labels.label_names
        assert subject.planes == reduced.planes
        assert list(subject.values) == list(reduced.values)
        for lid, values in subject.values.items():
            assert values.dtype == np.float32
            assert values.tobytes() == reduced.values[lid].tobytes()
        if stem.startswith("train"):
            assert list(subject.plane_counts) == list(reduced.plane_counts)
            for lid, counts in subject.plane_counts.items():
                assert counts.tolist() == reduced.plane_counts[lid].tolist()
        assert list(written.spacing) == spacing
        assert json.load(open(label_path, encoding="utf-8"))["spacing_mm"] == spacing


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


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_augment_command_matches_augment_pair_on_c_ordered_planes(tmp_path, axis, dtype):
    """The command resamples F-ordered planes; a loop over C-ordered copies gives its bytes."""
    rng = np.random.default_rng(axis)
    dims = (13, 11, 9)
    voxels = rng.integers(-1000, 1000, dims).astype(dtype)
    if dtype == np.float32:
        voxels.ravel()[rng.choice(voxels.size, 60, replace=False)] = \
            rng.choice([np.nan, np.inf, -np.inf], 60)
    img_path, lab_path = str(tmp_path / "img.ctv.json"), str(tmp_path / "lab.ctv.json")
    save_volume(CtVolume(voxels), img_path)
    save_label_volume(LabelVolume(rng.integers(0, 5, dims).astype(np.uint8)), lab_path)
    config = {"crop_size": [12, 10], "max_rotation_deg": 30.0, "max_translation": [3.0, 3.0],
              "pad_value_image": -5.0, "pad_value_label": 7, "seed": 5}
    (tmp_path / "aug.json").write_text(json.dumps(config))
    out_img, out_lab = str(tmp_path / "out_img.ctv.json"), str(tmp_path / "out_lab.ctv.json")
    assert main(["augment", img_path, lab_path, str(tmp_path / "aug.json"), "--slice-axis",
                 str(axis), "--out-image", out_img, "--out-labels", out_lab]) == 0

    image, labels = load_volume(img_path), load_label_volume(lab_path)
    cfg, draws = AugmentConfig(**config), np.random.default_rng(config["seed"])
    planes = [augment_pair(Slice2D(np.ascontiguousarray(np.moveaxis(image.voxels, axis, 0)[i],
                                                        dtype=np.float32)),
                           np.ascontiguousarray(np.moveaxis(labels.voxels, axis, 0)[i]), cfg,
                           draws)
              for i in range(dims[axis])]
    assert any(np.isnan(p.values).any() for p, _ in planes) == (dtype == np.float32)
    assert raw_bytes(out_img) == stack_slices([p.values for p, _ in planes], axis).tobytes("F")
    assert raw_bytes(out_lab) == stack_slices([lab for _, lab in planes], axis).tobytes("F")


@pytest.mark.parametrize("spelling", ["out.ctv.json", "sub/../out.ctv.json"])
def test_augment_outputs_naming_one_file_are_an_error(tmp_path, capsys, image_path, spelling):
    # the labels would overwrite the image's header and raw file, and the run would exit 0
    save_label_volume(LabelVolume(np.zeros((8, 8, 4), dtype=np.uint8)),
                      str(tmp_path / "lab.ctv.json"))
    (tmp_path / "sub").mkdir()
    (tmp_path / "aug.json").write_text(json.dumps({"crop_size": [8, 8]}))
    before = sorted(os.listdir(tmp_path))
    assert main(["augment", image_path, str(tmp_path / "lab.ctv.json"), str(tmp_path / "aug.json"),
                 "--out-image", str(tmp_path / "out.ctv.json"),
                 "--out-labels", str(tmp_path / spelling)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("ctwindow: error: --out-labels: ")
    assert sorted(os.listdir(tmp_path)) == before
    assert os.listdir(tmp_path / "sub") == []


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


def test_default_config_bytes_are_pinned(capsys):
    # the bundled config's exact stdout; a field moved or reformatted changes this digest
    assert main(["sweep", "--default-config"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == \
        "3df56014af149bee77d8769a1b8d11357ab87b04387797f9533edcbfdd3dbda2"


def test_default_config_gives_sigmas_and_seeds_only_to_swn(capsys):
    assert main(["sweep", "--default-config"]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["strategies"] == [{"strategy": "STN"}, {"strategy": "WIR"},
                                 {"strategy": "SWN", "x": 50, "y": 50}]
    assert "seed" not in cfg["phantom"]
    assert parse_experiment(cfg) == reference_experiment()
    seeded = replace(reference_experiment(), strategies=[StrategySpec("SWN", 1.5, 0, seed=9)])
    assert experiment_to_config(seeded)["strategies"] == [
        {"strategy": "SWN", "x": 1.5, "y": 0, "seed": 9}]
    assert parse_experiment(experiment_to_config(seeded)) == seeded


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


def test_parse_shifts_caps_the_count_before_building_the_grid():
    assert MAX_SHIFTS == 65536
    assert len(parse_shifts({"start": -32768, "stop": 32767, "step": 1})) == MAX_SHIFTS
    assert len(parse_shifts([0] * MAX_SHIFTS)) == MAX_SHIFTS
    for too_many in ({"start": -32768, "stop": 32768, "step": 1},
                     {"start": 0, "stop": 2 * MAX_SHIFTS, "step": 2}, [0] * (MAX_SHIFTS + 1)):
        with pytest.raises(ConfigError, match="^shifts: at most 65536 shifts, got 65537$"):
            parse_shifts(too_many)


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
    assert err.startswith(f"ctwindow: error: config.{key}: expected a whole number >= 1, "
                          f"got {value}")


def test_strategy_validation(tmp_path, capsys):
    cfg = small_config(tmp_path, strategies=[{"strategy": "XXX"}])
    assert main(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 1
    assert ("strategies[0].strategy: expected one of STN, WIR, SWN, got 'XXX'"
            in capsys.readouterr().err)



def edited_config(tmp_path, edit):
    cfg = json.loads(open(small_config(tmp_path), encoding="utf-8").read())
    edit(cfg)
    return small_config(tmp_path, **cfg)


@pytest.mark.parametrize("edit,message", [
    (lambda c: c["phantom"].update(dims=5), "phantom.dims: expected a list of 3 numbers"),
    (lambda c: c["phantom"]["organs"][0].update(radii="x"),
     "phantom.organs[0].radii: expected a list of 3 numbers"),
    (lambda c: c["phantom"]["organs"][0].update(radii=[0, 6, 2]),
     "phantom.organs[0].radii: expected a finite number > 0, got 0"),
    (lambda c: c["phantom"]["organs"][0].update(center=[10, 10]),
     "phantom.organs[0].center: expected a list of 3 numbers"),
    (lambda c: c["phantom"].update(dims=[20.5, 20, 6]),
     "phantom.dims: expected a whole number >= 1, got 20.5"),
    (lambda c: c.update(strategies={"strategy": "STN"}), "config.strategies: expected a list"),
    (lambda c: c.update(fit={"percentiles": 5}), "fit.percentiles: expected a list of 2"),
], ids=["dims_int", "radii_str", "radii_zero", "center_short", "dims_fraction",
        "strategies_object", "percentiles_int"])
def test_malformed_phantom_configs_are_config_errors(tmp_path, capsys, recwarn, edit, message):
    assert main(["sweep", edited_config(tmp_path, edit), "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ctwindow: error:") and message in err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def set_field(path, value):
    """An edit for ``edited_config`` that sets the field at ``path`` (keys and list indices)."""
    def edit(cfg):
        *parents, last = path
        for key in parents:
            cfg = cfg[key]
        cfg[last] = value
    return edit


SCALAR_FIELDS = {
    "config.seed": ("seed",),
    "config.n_train": ("n_train",),
    "config.n_test": ("n_test",),
    "config.slice_axis": ("slice_axis",),
    "fit.epochs": ("fit", "epochs"),
    "fit.band_epsilon": ("fit", "band_epsilon"),
    "phantom.background_hu": ("phantom", "background_hu"),
    "phantom.background_noise_std": ("phantom", "background_noise_std"),
    "phantom.organs[0].label_id": ("phantom", "organs", 0, "label_id"),
    "phantom.organs[0].mean_hu": ("phantom", "organs", 0, "mean_hu"),
    "phantom.organs[0].noise_std": ("phantom", "organs", 0, "noise_std"),
    "strategies[1].x": ("strategies", 1, "x"),
    "strategies[1].y": ("strategies", 1, "y"),
    "strategies[1].seed": ("strategies", 1, "seed"),
}


@pytest.mark.parametrize("value", [[1], "7", True, {"a": 1}], ids=["list", "str", "bool", "object"])
@pytest.mark.parametrize("field", sorted(SCALAR_FIELDS))
def test_wrong_type_scalar_sweep_fields_are_config_errors(tmp_path, capsys, field, value):
    cfg = edited_config(tmp_path, set_field(SCALAR_FIELDS[field], value))
    assert main(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ctwindow: error: {field}: expected a ") and err.count("\n") == 1


@pytest.mark.parametrize("value", [[1], "7", True, {"a": 1}, 0],
                         ids=["list", "str", "bool", "object", "zero"])
def test_phantom_seed_is_an_unknown_key(tmp_path, capsys, value):
    """Every phantom's seed derives from the experiment seed; a phantom.seed would change nothing."""
    cfg = edited_config(tmp_path, set_field(("phantom", "seed"), value))
    assert main(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "ctwindow: error: phantom: unknown keys ['seed']\n"


@pytest.mark.parametrize("epochs", [0, -3, 2.5])
def test_epochs_below_one_or_fractional_are_config_errors(tmp_path, capsys, epochs):
    cfg = edited_config(tmp_path, set_field(("fit", "epochs"), epochs))
    assert main(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        "ctwindow: error: fit.epochs: expected a whole number >= 1")


@pytest.mark.parametrize("field,value", [
    ("tie_break", "bogus"), ("tie_break", 5), ("tie_break", None), ("tie_break", ["lowest_id"]),
    ("percentiles", [97.5, 2.5]), ("percentiles", [50, 50]), ("percentiles", [-1, 99]),
    ("percentiles", [1, 100.5]), ("percentiles", [1, 1e300]),
])
def test_bad_fit_fields_are_rejected_before_any_phantom(tmp_path, capsys, field, value):
    assert_rejected_before_any_phantom(tmp_path, capsys, set_field(("fit", field), value),
                                       f"fit.{field}: ")


def assert_rejected_before_any_phantom(tmp_path, capsys, edit, message):
    """The bundled config, edited, fails with one error line before any phantom is generated."""
    cfg = experiment_to_config(reference_experiment())
    edit(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    with mock.patch.object(simulation, "generate_phantom",
                           side_effect=simulation.generate_phantom) as spy:
        assert main(["sweep", str(path), "-o", str(tmp_path / "x.csv")]) == 1
    assert spy.call_count == 0
    err = capsys.readouterr().err
    assert err.startswith(f"ctwindow: error: {message}") and err.count("\n") == 1


FLOAT32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("path,value,message", [
    (("strategies", 2, "x"), -1, "strategies[2].x: expected a finite number >= 0, got -1"),
    (("strategies", 2, "y"), -0.5, "strategies[2].y: expected a finite number >= 0"),
    (("strategies", 0, "x"), 0.0, "strategies[0]: unknown keys ['x']"),
    (("strategies", 1, "y"), 50, "strategies[1]: unknown keys ['y']"),
    (("strategies", 1, "seed"), 3, "strategies[1]: unknown keys ['seed']"),
    (("phantom", "seed"), 1, "phantom: unknown keys ['seed']"),
    (("shifts",), [0, 1e39], "shifts: expected a finite number in "),
    (("shifts",), [-3.4028236e38], "shifts: expected a finite number in "),
    (("shifts",), {"start": -1e39, "stop": 0, "step": 1}, "shifts: expected a finite number in "),
    (("shifts",), {"start": 0, "stop": 10 ** 39, "step": 10 ** 38},
     "shifts: expected a finite number in "),
    (("shifts",), {"start": -3e38, "stop": 3e38, "step": 1}, "shifts: at most 65536 shifts, got "),
    (("fit", "band_epsilon"), 1e308, "fit.band_epsilon: expected a finite number in 0.."),
    (("fit", "band_epsilon"), 3.4028236e38, "fit.band_epsilon: expected a finite number in 0.."),
    (("phantom", "spacing_mm"), [0, 1, 1],
     "phantom.spacing: expected a finite number > 0, got 0"),
    (("phantom", "spacing_mm"), [1, -2, 1],
     "phantom.spacing: expected a finite number > 0, got -2"),
], ids=["swn-x-negative", "swn-y-negative", "stn-x", "wir-y", "wir-seed", "phantom-seed",
        "shift-list", "shift-list-just-beyond", "shift-start", "shift-stop", "shift-count",
        "band-epsilon", "band-epsilon-just-beyond", "spacing-zero", "spacing-negative"])
def test_bad_config_fields_are_rejected_before_any_phantom(tmp_path, capsys, path, value,
                                                           message):
    assert_rejected_before_any_phantom(tmp_path, capsys, set_field(path, value), message)


# the JSON path of each config class's object, the class, and valid values of its fields
CONFIG_CLASSES = {
    "config": ((), ExperimentConfig, dict(phantom=PhantomConfig(dims=(4, 4, 4), organs=[]),
                                          strategies=[StrategySpec("STN")], shifts=[0])),
    "phantom": (("phantom",), PhantomConfig, dict(dims=(20, 20, 6), organs=[])),
    "phantom.organs[0]": (("phantom", "organs", 0), OrganSpec,
                          dict(label_id=1, label_name="organ", center=(10, 10, 3),
                               radii=(5, 6, 2), mean_hu=40)),
    "strategies[1]": (("strategies", 1), StrategySpec, dict(strategy="SWN")),
    "fit": (("fit",), FitParams, {}),
    "augment": (None, AugmentConfig, dict(crop_size=(8, 8))),
}


@pytest.mark.parametrize("context,field,value", [
    ("phantom.organs[0]", "label_id", 1.5), ("phantom.organs[0]", "label_id", 256),
    ("phantom.organs[0]", "label_name", None), ("phantom.organs[0]", "radii", [0, 6, 2]),
    ("phantom.organs[0]", "noise_std", -1),
    ("phantom", "dims", ["4", "4", "4"]), ("phantom", "spacing", [0, 1, 1]),
    ("phantom", "background_hu", "x"),
    ("strategies[1]", "strategy", "XXX"), ("strategies[1]", "x", -1),
    ("strategies[1]", "seed", 1.5),
    ("fit", "epochs", -3), ("fit", "percentiles", [50, 50]), ("fit", "tie_break", "bogus"),
    ("fit", "band_epsilon", 1e39),
    ("config", "n_test", 0), ("config", "n_train", 2.5), ("config", "seed", -1),
    ("config", "slice_axis", 3),
    ("augment", "pad_value_label", 300), ("augment", "pad_value_label", 1.5),
    ("augment", "crop_size", [8.5, 8]), ("augment", "max_translation", [1, -1]),
    ("augment", "pad_value_image", 1e39), ("augment", "seed", True),
])
def test_config_classes_reject_what_the_parser_rejects(tmp_path, capsys, context, field, value):
    """The CLI's one error line is the JSON path, then the message the class raises in Python."""
    path, cls, valid = CONFIG_CLASSES[context]
    with pytest.raises(ValueError) as raised:
        cls(**{**valid, field: value})
    key = "spacing_mm" if field == "spacing" else field
    if path is None:
        cfg = tmp_path / "aug.json"
        cfg.write_text(json.dumps({"crop_size": [8, 8], key: value}))
        argv = ["augment", str(tmp_path / "img.ctv.json"), str(tmp_path / "lab.ctv.json"),
                str(cfg), "--out-image", str(tmp_path / "i.ctv.json"),
                "--out-labels", str(tmp_path / "l.ctv.json")]
    else:
        argv = ["sweep", edited_config(tmp_path, set_field(path + (key,), value)),
                "-o", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"ctwindow: error: {context}.{raised.value}\n"


def test_float32_max_is_a_valid_shift_and_band_epsilon(tmp_path, capsys):
    assert parse_shifts([-FLOAT32_MAX, FLOAT32_MAX]) == [-int(FLOAT32_MAX), int(FLOAT32_MAX)]
    cfg = edited_config(tmp_path, set_field(("fit", "band_epsilon"), FLOAT32_MAX))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["sweep", cfg, "-o", str(tmp_path / "x.csv")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("field,value", [
    ("crop_size", 5), ("crop_size", [8]), ("crop_size", ["8", 8]), ("crop_size", [8.5, 8]),
    ("max_rotation_deg", [1]), ("max_translation", 5), ("max_translation", [0, "x"]),
    ("pad_value_image", "x"), ("pad_value_label", [0]), ("pad_value_label", 256),
    ("seed", [1]), ("seed", 1.5),
])
def test_wrong_type_augment_fields_are_config_errors(tmp_path, capsys, image_path, field, value):
    lab_path = str(tmp_path / "lab.ctv.json")
    save_label_volume(LabelVolume(np.zeros((8, 8, 4), dtype=np.uint8)), lab_path)
    augment = {"crop_size": [8, 8], "max_rotation_deg": 0, "max_translation": [0, 0]}
    augment[field] = value
    cfg_path = tmp_path / "aug.json"
    cfg_path.write_text(json.dumps({"augment": augment}))
    assert main(["augment", image_path, lab_path, str(cfg_path),
                 "--out-image", str(tmp_path / "i.ctv.json"),
                 "--out-labels", str(tmp_path / "l.ctv.json")]) == 1
    assert capsys.readouterr().err.startswith(f"ctwindow: error: augment.{field}: expected ")


@pytest.mark.parametrize("value", [1e300, -1e39, 3.4028236e38])
def test_augment_pad_value_beyond_float32_is_a_config_error(tmp_path, image_path, value):
    lab_path = str(tmp_path / "lab.ctv.json")
    save_label_volume(LabelVolume(np.zeros((8, 8, 4), dtype=np.uint8)), lab_path)
    cfg_path = tmp_path / "aug.json"
    cfg_path.write_text(json.dumps({"crop_size": [16, 16], "pad_value_image": value}))
    result = run_cli(["augment", image_path, lab_path, str(cfg_path),
                      "--out-image", str(tmp_path / "i.ctv.json"),
                      "--out-labels", str(tmp_path / "l.ctv.json")])
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("ctwindow: error: augment.pad_value_image: ")
    assert result.stderr.count("\n") == 1  # no RuntimeWarning
    assert not (tmp_path / "i.ctv.json").exists()


@pytest.mark.parametrize("field,value,code", [
    ("max_translation", [1e308, 1e308], 1), ("max_translation", [9e307, 0], 1),
    ("max_rotation_deg", 1e308, 1), ("max_translation", [8.98e307, 8.98e307], 0),
    ("max_rotation_deg", 8.98e307, 0),
])
def test_augment_range_spans_beyond_float64_are_config_errors(tmp_path, capsys, image_path,
                                                              field, value, code):
    lab_path = str(tmp_path / "lab.ctv.json")
    save_label_volume(LabelVolume(np.zeros((8, 8, 4), dtype=np.uint8)), lab_path)
    cfg_path = tmp_path / "aug.json"
    cfg_path.write_text(json.dumps({"crop_size": [8, 8], field: value}))
    assert main(["augment", image_path, lab_path, str(cfg_path),
                 "--out-image", str(tmp_path / "i.ctv.json"),
                 "--out-labels", str(tmp_path / "l.ctv.json")]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"ctwindow: error: augment.{field}: the span 2 * t ")
        assert err.count("\n") == 1 and not (tmp_path / "i.ctv.json").exists()
    else:  # a span just inside float64 moves every pixel out of the crop
        assert err == ""
        assert np.all(load_volume(str(tmp_path / "i.ctv.json")).voxels == 0.0)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_augment_out_of_memory_is_an_error_not_a_traceback(tmp_path, image_path):
    """A crop of 1e7 x 1e7 pixels asks for 364 TiB; an address-space cap makes it fail at once."""
    lab_path = str(tmp_path / "lab.ctv.json")
    save_label_volume(LabelVolume(np.zeros((8, 8, 4), dtype=np.uint8)), lab_path)
    cfg_path = tmp_path / "aug.json"
    cfg_path.write_text(json.dumps({"crop_size": [10_000_000, 10_000_000]}))
    capped = ("import os, resource, sys\n"
              "import ctwindow.cli\n"
              "used = int(open('/proc/self/statm').read().split()[0]) * os.sysconf('SC_PAGESIZE')\n"
              "resource.setrlimit(resource.RLIMIT_AS, (used + 2 ** 30, used + 2 ** 30))\n"
              "sys.exit(ctwindow.cli.main(sys.argv[1:]))\n")
    result = run_cli(["augment", image_path, lab_path, str(cfg_path),
                      "--out-image", str(tmp_path / "i.ctv.json"),
                      "--out-labels", str(tmp_path / "l.ctv.json")], code=capped)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("ctwindow: error: out of memory: ")
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr


def test_augment_config_that_is_not_an_object_is_a_config_error(tmp_path, capsys, image_path):
    lab_path = str(tmp_path / "lab.ctv.json")
    save_label_volume(LabelVolume(np.zeros((8, 8, 4), dtype=np.uint8)), lab_path)
    cfg_path = tmp_path / "aug.json"
    cfg_path.write_text(json.dumps([{"crop_size": [8, 8]}]))
    assert main(["augment", image_path, lab_path, str(cfg_path),
                 "--out-image", str(tmp_path / "i.ctv.json"),
                 "--out-labels", str(tmp_path / "l.ctv.json")]) == 1
    assert capsys.readouterr().err == "ctwindow: error: augment: expected a JSON object\n"


@pytest.mark.parametrize("row,line,message", [
    ("s01,1,liver", 3, "expected 4 fields, got 3"),
    ("", 3, "expected 4 fields, got 0"),
    ("s01,1,liver,0.5,extra", 3, "expected 4 fields, got 5"),
    ("s01,one,liver,0.5", 3, "invalid literal for int()"),
    ("s01,1,liver,1.5", 3, "dice: expected a finite number in 0..1, got 1.5"),
    ("s01,300,liver,0.5", 3, "label_id: expected a whole number in 0..255, got 300"),
], ids=["short", "blank", "long", "label", "dice", "label-range"])
def test_malformed_dice_csv_rows_are_errors_naming_the_line(tmp_path, capsys, row, line, message):
    good = tmp_path / "good.csv"
    good.write_text("subject_id,label_id,label_name,dice\ns00,1,liver,0.5\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(f"subject_id,label_id,label_name,dice\ns00,1,liver,0.5\n{row}\n")
    assert main(["compare", "--table", f"A={good}", "--table", f"B={bad}", "--reference", "A",
                 "-o", str(tmp_path / "cmp.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ctwindow: error: {bad}:{line}: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("names", [
    {"1": None}, {"1": ["a"]}, {"1": 7}, {"1_0": "x"}, {" 1": "a"}, {"01": "a"}, {"+1": "a"},
    {"x": "a"}, {"256": "a"}, {"-1": "a"}, {"1": "organ", "2": None},
], ids=["null", "list", "number", "underscore", "space", "leading-zero", "plus", "word",
        "256", "negative", "second-entry"])
def test_malformed_label_names_are_errors_naming_the_file(tmp_path, capsys, names):
    labels = np.zeros((4, 3, 2), dtype=np.uint8)
    labels[1, 1, :] = 1
    path = str(tmp_path / "labels.ctv.json")
    save_label_volume(LabelVolume(labels, label_names={1: "organ"}), path)
    with open(path, encoding="utf-8") as fh:
        header = json.load(fh)
    header["label_names"] = names
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh)
    out = tmp_path / "dice.csv"
    assert main(["dice", path, path, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ctwindow: error: {path}: label_names ") and err.count("\n") == 1
    assert not out.exists()


def test_label_names_of_every_id_round_trip(tmp_path):
    labels = np.arange(256, dtype=np.uint8).reshape(8, 8, 4)
    names = {lid: f"n{lid}" for lid in range(256)}
    path = str(tmp_path / "labels.ctv.json")
    save_label_volume(LabelVolume(labels, label_names=names), path)
    assert load_label_volume(path).label_names == names
