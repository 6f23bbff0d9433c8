"""``run_experiment`` draws each suite's phantoms on worker threads, into buffers it allocates.

Each phantom has its own seed and its own buffers, so the rows and bands must
not depend on the thread count, which follows the CPUs the process may run
on. These tests check the count, and the rows and bands against the serial
path over slice axes, suite sizes and seeds; that two fills really run at
once; that many threads switching often fill each phantom once; that the
buffers are allocated and the subjects built on the calling thread; that a
failing fill is re-raised in the caller with every thread joined; and that a
fill out of memory ends ``ctwindow sweep`` in one error line.
"""

import json
import os
import sys
import threading
from dataclasses import replace
from unittest import mock

import pytest

from ctwindow import phantom, simulation
from ctwindow.cli import main
from ctwindow.simulation import (OrganSpec, PhantomConfig, derive_seed, reference_experiment,
                                 run_experiment)

SMALL_SWEEP = {
    "seed": 5, "n_train": 3, "n_test": 2,
    "phantom": {"dims": [20, 20, 6], "background_noise_std": 10,
                "organs": [{"label_id": 1, "label_name": "organ", "center": [10, 10, 3],
                            "radii": [5, 6, 2], "mean_hu": 40, "noise_std": 10}]},
    "strategies": [{"strategy": "STN"}], "shifts": [-50, 0, 50]}


def pin(monkeypatch, cpus):
    """Let the process run on ``cpus`` CPUs, as ``taskset`` would."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def run(monkeypatch, cpus, cfg):
    pin(monkeypatch, cpus)
    rows, segmenters = run_experiment(cfg)
    return rows, {label: (seg.bands, seg.tie_break) for label, seg in segmenters.items()}


def spy(module, name, calls):
    """Patch ``module.<name>`` to record ``(thread id, args)`` of each call, then run it."""
    real = getattr(module, name)

    def record(*args):
        calls.append((threading.get_ident(), args))
        return real(*args)
    return mock.patch.object(module, name, side_effect=record)


def test_the_fill_thread_count(monkeypatch):
    """One thread per CPU the process may run on, at most one per phantom and MAX_FILL_THREADS."""
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    pin(monkeypatch, 1)
    assert phantom._fill_threads(10) == 1
    pin(monkeypatch, 3)
    assert phantom._fill_threads(10) == 3 and phantom._fill_threads(2) == 2
    pin(monkeypatch, 64)
    assert phantom._fill_threads(10) == phantom.MAX_FILL_THREADS == 4
    assert phantom._fill_threads(0) == 1
    # where the platform has no affinity call, os.cpu_count(), and 1 when that is unknown
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert phantom._fill_threads(10) == 4 and phantom._fill_threads(3) == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert phantom._fill_threads(10) == 1


def test_one_cpu_fills_on_the_calling_thread(monkeypatch):
    pin(monkeypatch, 1)
    fills = []
    before = threading.active_count()
    with spy(phantom, "_fill", fills):
        run_experiment(replace(reference_experiment(), n_train=3, n_test=2, shifts=[0]))
    assert [thread for thread, _ in fills] == [threading.get_ident()] * 5
    assert threading.active_count() == before


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("n_train,n_test", [(5, 5), (1, 3), (3, 2)])
@pytest.mark.parametrize("slice_axis", [0, 1, 2])
def test_rows_and_bands_do_not_depend_on_the_thread_count(monkeypatch, slice_axis, n_train,
                                                           n_test, seed):
    cfg = replace(reference_experiment(seed), n_train=n_train, n_test=n_test,
                  slice_axis=slice_axis)
    serial = run(monkeypatch, 1, cfg)
    for cpus in (2, 3, 4):
        assert run(monkeypatch, cpus, cfg) == serial, cpus


def test_two_fills_run_at_once_and_every_worker_is_joined(monkeypatch):
    """Each fill waits for a second one, so the run fails unless two are drawn at once."""
    barrier = threading.Barrier(2, timeout=60)
    fills = []
    real = phantom._fill

    def fill(*args):
        fills.append(threading.get_ident())
        barrier.wait()
        real(*args)
    cfg = replace(reference_experiment(), n_train=2, n_test=2)
    serial = run(monkeypatch, 1, cfg)
    before = threading.active_count()
    with mock.patch.object(phantom, "_fill", side_effect=fill):
        assert run(monkeypatch, 2, cfg) == serial
    assert threading.active_count() == before
    train, test = fills[:cfg.n_train], fills[cfg.n_train:]
    assert len(set(train)) == len(set(test)) == 2 and threading.get_ident() in train


def test_many_threads_fill_every_phantom_once_with_its_serial_draws(monkeypatch):
    """More threads than CPUs, switching every microsecond, split the phantoms between them."""
    cfg = PhantomConfig(dims=(6, 5, 4), background_noise_std=10.0,
                        organs=[OrganSpec(1, "organ", (3, 2, 2), (2, 2, 1), 40.0, 5.0)])
    labels, _, organs = phantom._layout(cfg)
    seeds = list(range(300))
    pin(monkeypatch, 8)
    monkeypatch.setattr(phantom, "MAX_FILL_THREADS", 8)
    fills = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with spy(phantom, "_fill", fills):
            drawn = phantom._fill_all(cfg, organs, seeds, labels)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(args[2] for _, args in fills) == seeds
    assert len({thread for thread, _ in fills}) > 1
    for seed, (background, values) in zip(seeds, drawn):
        expected = phantom._buffers(cfg, organs, True)
        phantom._fill(cfg, organs, seed, *expected, labels)
        assert background.tobytes() == expected[0].tobytes()
        assert [v.tobytes() for v in values] == [v.tobytes() for v in expected[1]]


def test_the_calling_thread_allocates_the_buffers_and_builds_the_subjects(monkeypatch):
    pin(monkeypatch, 3)
    cfg = replace(reference_experiment(), n_train=4, n_test=3, shifts=[0])
    allocated, fills, built = [], [], []
    with spy(phantom, "_buffers", allocated), spy(phantom, "_fill", fills), \
            spy(simulation, "_drawn_training_subject", built), \
            spy(simulation, "_drawn_test_subject", built):
        run_experiment(cfg)
    me = threading.get_ident()
    assert [thread for thread, _ in allocated] == [me] * (cfg.n_train + cfg.n_test)
    assert [thread for thread, _ in built] == [me] * (cfg.n_train + cfg.n_test)
    assert len({thread for thread, _ in fills}) > 1
    seeds = sorted(args[2] for _, args in fills)
    assert seeds == sorted([derive_seed(cfg.seed, 0, i) for i in range(cfg.n_train)]
                           + [derive_seed(cfg.seed, 1, i) for i in range(cfg.n_test)])


@pytest.mark.parametrize("kind,k", [(0, 0), (0, 3), (1, 0), (1, 1)])
@pytest.mark.parametrize("cpus", [1, 3])
def test_a_failing_fill_is_raised_in_the_caller_with_every_thread_joined(monkeypatch, cpus,
                                                                         kind, k):
    cfg = replace(reference_experiment(), n_train=5, n_test=2, shifts=[0])
    bad = derive_seed(cfg.seed, kind, k)
    real = phantom._fill

    def fill(phantom_cfg, organs, seed, *buffers):
        if seed == bad:
            raise RuntimeError(f"no draws for phantom ({kind}, {k})")
        real(phantom_cfg, organs, seed, *buffers)
    pin(monkeypatch, cpus)
    before = threading.active_count()
    with mock.patch.object(phantom, "_fill", side_effect=fill), \
            pytest.raises(RuntimeError, match=rf"^no draws for phantom \({kind}, {k}\)$"):
        run_experiment(cfg)
    assert threading.active_count() == before


@pytest.mark.parametrize("kind", [0, 1])
def test_a_fill_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch, kind):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps(SMALL_SWEEP))
    bad = derive_seed(SMALL_SWEEP["seed"], kind, 1)
    real = phantom._fill

    def fill(phantom_cfg, organs, seed, *buffers):
        if seed == bad:
            raise MemoryError("Unable to allocate 128. KiB for an array")
        real(phantom_cfg, organs, seed, *buffers)
    pin(monkeypatch, 2)
    before = threading.active_count()
    with mock.patch.object(phantom, "_fill", side_effect=fill):
        assert main(["sweep", str(config), "-o", str(tmp_path / "sweep.csv")]) == 1
    assert capsys.readouterr().err == \
        "ctwindow: error: out of memory: Unable to allocate 128. KiB for an array\n"
    assert threading.active_count() == before
