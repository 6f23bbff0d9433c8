"""Importing ctwindow loads no SciPy and no thread pool; commands load only the SciPy they call.

Every CLI command runs as a fresh process, so SciPy's import time is paid by
each command that loads it: only ``compare`` loads ``scipy.special`` (for the
normal tail at n > 20), on first use. ``augment`` resamples in NumPy and
loads no SciPy, and nothing loads ``scipy.stats``.
"""

import json
import os
import subprocess
import sys

import numpy as np

import ctwindow
from ctwindow.metrics import DiceRecord, write_dice_csv
from ctwindow.volume import CtVolume, LabelVolume, save_label_volume, save_volume

CHILD = """
import json, sys

import ctwindow, ctwindow.cli


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


loaded = {"import": scipy_modules(), "thread_pool": "concurrent.futures" in sys.modules}
for name, argv in json.loads(sys.argv[1]):
    assert ctwindow.cli.main(argv) == 0, name
    loaded[name] = scipy_modules()
print(json.dumps(loaded))
"""


def run_child(runs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ctwindow.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_commands_load_scipy_only_on_first_use(tmp_path):
    rng = np.random.default_rng(0)
    image = str(tmp_path / "img.ctv.json")
    labels = str(tmp_path / "lab.ctv.json")
    save_volume(CtVolume(rng.integers(-500, 500, size=(6, 6, 3)).astype(np.int16)), image)
    save_label_volume(LabelVolume(rng.integers(0, 3, size=(6, 6, 3))), labels)
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "seed": 1, "n_train": 1, "n_test": 1,
        "phantom": {"dims": [8, 8, 5], "organs": [
            {"label_id": 1, "label_name": "organ", "center": [4, 4, 2],
             "radii": [3, 3, 2], "mean_hu": 40, "noise_std": 5}]},
        "strategies": [{"strategy": "STN"}], "shifts": [0, 50]}))
    tables = []
    for name, delta in (("A", 0.0), ("B", 0.01)):  # 25 nonzero differences: normal approx
        path = str(tmp_path / f"{name}.csv")
        write_dice_csv([DiceRecord(f"s{i}", 1, "organ", 0.5 + 0.01 * i + delta * (1 + i % 3))
                        for i in range(25)], path)
        tables += ["--table", f"{name}={path}"]
    augment = tmp_path / "augment.json"
    augment.write_text(json.dumps({"crop_size": [5, 5], "seed": 3}))

    loaded = run_child([
        ("sweep_default", ["sweep", "--default-config"]),
        ("sweep", ["sweep", str(config), "-o", str(tmp_path / "sweep.csv")]),
        ("window", ["window", image, str(tmp_path / "w.ctv.json"), "--strategy", "STN"]),
        ("dice", ["dice", labels, labels, "-o", str(tmp_path / "dice.csv")]),
        ("augment", ["augment", image, labels, str(augment),
                     "--out-image", str(tmp_path / "ai.ctv.json"),
                     "--out-labels", str(tmp_path / "al.ctv.json")]),
        ("compare", ["compare"] + tables + ["--reference", "A", "-o", str(tmp_path / "cmp.csv")]),
    ])
    assert loaded["thread_pool"] is False
    for step in ("import", "sweep_default", "sweep", "window", "dice"):
        assert loaded[step] == [], step
    assert loaded["augment"] == []
    assert "scipy.special" in loaded["compare"]
    assert "scipy.stats" not in loaded["compare"]
