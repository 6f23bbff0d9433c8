"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import functools
import json
import time

import numpy as np
import pytest

from oracles import (brute_force_wilcoxon_p, stepup_fdr, triple_loop_dice,
                     window_pseudocode)

import ctwindow as cw
from ctwindow.cli import main
from ctwindow.simulation import SweepResult
from ctwindow.volume import Slice2D


def reported(label):
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")
        return wrapper
    return decorator


def ulp_distance(a, b):
    return np.abs(a.view(np.int32) - b.view(np.int32))


@reported("1 windowing exactness")
def test_criterion_1_windowing_exactness():
    rng = np.random.default_rng(101)
    n_windows, n_values = 1000, 100  # 10^5 random (v, L, W) triples
    levels = rng.uniform(-500, 500, n_windows)
    widths = rng.uniform(1.0, 1000.0, n_windows)
    batches = rng.uniform(-3000, 3000, (n_windows, n_values)).astype(np.float32)

    start = time.perf_counter()
    results = [
        cw.apply_window(Slice2D(batches[i].reshape(1, -1)),
                        cw.WindowSpec(levels[i], widths[i])).values.ravel()
        for i in range(n_windows)
    ]
    elapsed = time.perf_counter() - start

    worst = 0
    for i in range(n_windows):
        expected = window_pseudocode(batches[i], levels[i], widths[i])
        worst = max(worst, int(ulp_distance(results[i], expected).max()))
    assert worst <= 1, f"max deviation {worst} ulp"
    assert elapsed < 1.0, f"apply_window over 1e5 triples took {elapsed:.3f}s"

    soft = cw.preset("soft_tissue")
    exact = cw.apply_window(
        Slice2D(np.array([[-160.0, 240.0, 40.0]], dtype=np.float32)), soft).values.ravel()
    assert exact[0] == 0.0 and exact[1] == 255.0 and exact[2] == 127.5


@reported("2 shift equivariance")
def test_criterion_2_shift_equivariance():
    rng = np.random.default_rng(202)
    for _ in range(500):
        n = int(rng.integers(1, 257))
        values = rng.integers(-2000, 2001, n).astype(np.float32)
        level = float(rng.integers(-400, 401))
        width = float(rng.integers(1, 1001))
        offset = float(rng.integers(-300, 301))
        base = cw.apply_window(Slice2D(values.reshape(1, -1)),
                               cw.WindowSpec(level, width)).values
        moved = cw.apply_window(Slice2D((values + np.float32(offset)).reshape(1, -1)),
                                cw.WindowSpec(level + offset, width)).values
        assert np.array_equal(base.view(np.uint32), moved.view(np.uint32))


@reported("3 SWN degeneracy")
def test_criterion_3_swn_zero_sigma_byte_identical(tmp_path):
    rng = np.random.default_rng(303)
    vol = cw.CtVolume(rng.integers(-1024, 3072, size=(32, 32, 8)).astype(np.int16))
    src = str(tmp_path / "in.ctv.json")
    cw.save_volume(vol, src)
    out_stn = str(tmp_path / "stn.ctv.json")
    out_swn = str(tmp_path / "swn.ctv.json")
    assert main(["window", src, out_stn, "--strategy", "STN", "--mode", "train"]) == 0
    assert main(["window", src, out_swn, "--strategy", "SWN", "--x", "0", "--y", "0",
                 "--seed", "9", "--mode", "train"]) == 0
    stn_raw = open(str(tmp_path / "stn.raw"), "rb").read()
    swn_raw = open(str(tmp_path / "swn.raw"), "rb").read()
    assert stn_raw == swn_raw


@reported("4 sampler statistics")
def test_criterion_4_sampler_statistics():
    sampler = cw.WindowSampler(cw.SwnParams(50.0, 50.0, seed=404))
    draws = [sampler.sample() for _ in range(100000)]
    levels = np.array([w.level for w in draws])
    widths = np.array([w.half_width for w in draws])
    assert abs(levels.mean() - 40.0) < 0.5
    assert abs(levels.std(ddof=1) - 50.0) < 0.5
    # abs/floor effects on the width draw are negligible at sigma 50
    assert abs(widths.mean() - 200.0) < 0.5
    assert abs(widths.std(ddof=1) - 50.0) < 0.5
    assert widths.min() >= 1.0
    # force the abs/floor rule to bite and confirm the floor still holds
    degenerate = cw.WindowSampler(cw.SwnParams(0.0, 1e6, seed=405))
    assert min(degenerate.sample().half_width for _ in range(5000)) >= 1.0


@reported("5 Wilcoxon oracle")
def test_criterion_5_wilcoxon_exact_oracle():
    res = cw.wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.5, 1.0, 2.0, 3.0, 4.0])
    assert res.p_two_sided == 0.0625

    rng = np.random.default_rng(505)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 13))
        d = rng.normal(0, 1, n)
        if checked % 4 == 0:
            d = np.round(d, 1)  # tie-heavy inputs
        d = d[d != 0]
        if d.size == 0:
            continue
        mine = cw.wilcoxon_signed_rank(d, np.zeros_like(d))
        assert mine.method == "exact"
        assert mine.p_two_sided == brute_force_wilcoxon_p(d)
        checked += 1


@reported("6 FDR oracle")
def test_criterion_6_fdr_oracle():
    assert cw.fdr_bh([0.004], m=12)[0] == pytest.approx(0.048, abs=1e-12)
    rng = np.random.default_rng(606)
    for trial in range(100):
        m = (4, 12, 20)[trial % 3]
        k = int(rng.integers(1, m + 1))
        p = rng.uniform(0.0005, 1.0, k).tolist()
        assert cw.fdr_bh(p, m) == pytest.approx(stepup_fdr(p, m), abs=1e-14)


@reported("7 dice oracle")
def test_criterion_7_dice_oracle():
    rng = np.random.default_rng(707)
    labels = list(range(1, 8))
    for _ in range(10):
        pred_arr = rng.integers(0, 8, size=(16, 16, 16)).astype(np.uint8)
        truth_arr = rng.integers(0, 8, size=(16, 16, 16)).astype(np.uint8)
        records = cw.multi_label_dice(cw.LabelVolume(pred_arr), cw.LabelVolume(truth_arr),
                                      labels)
        expected = triple_loop_dice(pred_arr, truth_arr, labels)
        for record in records:
            assert record.dice == expected[record.label_id]


@reported("8 shift-sweep analog")
def test_criterion_8_shift_sweep_analog():
    start = time.perf_counter()
    rows, _ = cw.run_experiment(cw.reference_experiment(seed=7))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"

    by_strategy = {}
    for row in rows:
        by_strategy.setdefault(row.strategy, []).append(row)
    results = {name: SweepResult(rs) for name, rs in by_strategy.items()}
    assert set(results) == {"STN", "WIR", "SWN[50,50]"}
    organs = (1, 2, 3)

    for name, result in results.items():
        for lid in organs:
            at_zero = result.cell(0, lid)
            assert at_zero >= 0.95, f"{name} label {lid} dice at shift 0 = {at_zero:.4f}"

    stn, swn = results["STN"], results["SWN[50,50]"]
    widths = [(swn.tolerance_width(lid), stn.tolerance_width(lid)) for lid in organs]
    assert all(w_swn >= w_stn for w_swn, w_stn in widths), widths
    assert any(w_swn > w_stn for w_swn, w_stn in widths), widths

    assert stn.cell(300, 1) < 0.1


@reported("9 sweep determinism")
def test_criterion_9_cmd_sweep_byte_identical(tmp_path, capsys):
    assert main(["sweep", "--default-config"]) == 0
    config_path = tmp_path / "reference.json"
    config_path.write_text(capsys.readouterr().out)
    out_a = tmp_path / "sweep_a.csv"
    out_b = tmp_path / "sweep_b.csv"
    assert main(["sweep", str(config_path), "-o", str(out_a)]) == 0
    assert main(["sweep", str(config_path), "-o", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith("shift_hu,strategy,label_id,label_name,mean_dice")
