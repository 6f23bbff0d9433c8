"""Tests of the benchmark itself: seeded inputs, the tracer and the contract.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ctwindow
import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SMALL_CLI = (40, 36, 4)


def small_sweep(seed):
    cfg = workloads.ref_sweep_config(seed)
    return replace(cfg, n_train=2, n_test=2, shifts=[-50, 0, 50],
                   fit=replace(cfg.fit, epochs=2))


def test_same_seed_builds_identical_cli_inputs(tmp_path):
    wl = workloads.CliWorkload(SMALL_CLI)
    digests = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        (tmp_path / name).mkdir()
        inputs = wl.build(seed, str(tmp_path / name))
        digests.append(wl.input_digest(inputs, str(tmp_path / name)))
    assert digests[0] == digests[1]
    assert all(digests[2][f] != digests[0][f] for f in digests[0] if f.endswith((".raw", ".csv")))


def test_same_seed_builds_identical_sweep_inputs():
    for make in (workloads.ref_sweep_config, workloads.fit_heavy_config):
        assert repr(make(3)) == repr(make(3))
        assert repr(make(3)) != repr(make(4))
        a, b, c = (ctwindow.generate_phantom(replace(make(s).phantom,
                                                     seed=ctwindow.derive_seed(s, 0, 0)))
                   for s in (3, 3, 4))
        assert a[0].voxels.tobytes() == b[0].voxels.tobytes()
        assert a[0].voxels.tobytes() != c[0].voxels.tobytes()


def test_default_seed_is_the_reference_experiment():
    assert repr(workloads.ref_sweep_config(workloads.DEFAULT_SEED)) == \
        repr(ctwindow.reference_experiment())
    assert run.DEFAULT_SEED == workloads.DEFAULT_SEED


def test_cli_dice_tables_exercise_both_wilcoxon_paths():
    scores = workloads.make_dice_tables(5)
    for method in ("WIR", "SWN"):
        diffs = scores[method] - scores["STN"]
        assert (diffs[:, 0] != 0).sum() > ctwindow.stats.EXACT_CUTOFF
        assert (diffs[:, 2] != 0).sum() <= ctwindow.stats.EXACT_CUTOFF


def originals():
    return {(owner, attr): vars(tracing._resolve(owner))[attr]
            for owner, attr, *_ in tracing.TARGETS}


def run_and_digest(wl, inputs, outdir, span):
    outdir.mkdir()
    files = wl.run_pass(inputs, str(outdir), span)
    wl.check(inputs, files)
    return workloads.digest_files(files)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tracer_restores_functions_and_leaves_outputs_unchanged(tmp_path, monkeypatch, threads):
    monkeypatch.setenv("CTWINDOW_THREADS", threads)
    before = originals()
    cli_wl = workloads.CliWorkload(SMALL_CLI)
    (tmp_path / "in").mkdir()
    cli_inputs = cli_wl.build(9, str(tmp_path / "in"))
    sweep_wl, sweep_cfg = workloads.WORKLOADS["ref_sweep"], small_sweep(9)
    plain = [run_and_digest(sweep_wl, sweep_cfg, tmp_path / "s0", workloads.no_span),
             run_and_digest(cli_wl, cli_inputs, tmp_path / "c0", workloads.no_span)]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(vars(tracing._resolve(o))[a] is not f for (o, a), f in before.items())
        traced = [run_and_digest(sweep_wl, sweep_cfg, tmp_path / "s1", tracer.span),
                  run_and_digest(cli_wl, cli_inputs, tmp_path / "c1", tracer.span)]
    finally:
        tracer.uninstall()

    assert originals() == before
    assert all(vars(tracing._resolve(o))[a] is f for (o, a), f in before.items())
    assert traced == plain
    spans = tracer.take()
    tops = [s for s in spans if s[4] is None]
    assert sorted({s[1] for s in tops}) == ["cli.augment", "cli.compare", "cli.dice",
                                            "cli.window", "simulation.run_experiment"]
    m = tracing.layer_metrics(spans)
    nz = sweep_cfg.phantom.dims[2]
    assert m["windowing.sample.calls"] == sweep_cfg.fit.epochs * sweep_cfg.n_train * nz \
        + SMALL_CLI[2]
    assert m["simulation.sweep.cells"] == 3 * len(sweep_cfg.shifts) * sweep_cfg.n_test
    assert m["simulation.sweep.threads"] == int(threads)
    assert 0.0 < m["simulation.sweep.busy_frac"] <= 1.0
    assert m["stats.wilcoxon.calls"] == 6 and m["stats.wilcoxon.exact_calls"] == 2
    assert m["volume.extract_slice.calls"] > 0 and m["cli.window.s"] > 0
    assert set(m) | {n for n, _ in tracing.PER_LAYER if n.startswith("trace.")
                     or n.endswith("mvox_s_1e6")} == {n for n, _ in tracing.PER_LAYER}


def test_self_time_on_a_synthetic_span_tree():
    # a [0, 10] has children b [1, 4] and c [3, 6] (overlapping, as from two
    # threads) and d [8, 12], which outlives it; b has a child e [1, 2]
    spans = [(0, "simulation.sweep.stn", 0.0, 10.0, None, {"cells": 2, "threads": 2}),
             (1, "volume.extract_slice", 1.0, 4.0, 0, None),
             (2, "simulation.predict", 3.0, 6.0, 0, None),
             (3, "metrics.multi_label_dice", 8.0, 12.0, 0, None),
             (4, "kernels.classify_bands", 1.0, 2.0, 1, {"vox": 10, "bytes": 50})]
    assert tracing.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert tracing.self_times(spans) == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0})
    m = tracing.layer_metrics(spans)
    assert m["self_s.simulation"] == pytest.approx(6.0)
    assert m["self_s.volume"] == pytest.approx(2.0)
    assert m["simulation.sweep.busy_frac"] == pytest.approx((3 + 3 + 4) / (10 * 2))
    assert m["kernels.classify_bands.mvox_s"] == pytest.approx(10e-6 / 1.0)


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert spec["paths"] == [HERE.name]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "ref_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
