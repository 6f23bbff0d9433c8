"""Intensity-shift robustness experiment on synthetic phantoms.

``run_experiment`` draws a training suite of phantoms (``phantom``), fits
one band segmenter per strategy on it (``model``), then draws a test suite
and sweeps each segmenter over a HU shift grid (``sweep``). It returns the
``SweepRow``s, one per (strategy, shift, label), and the segmenters. It
builds no phantom volume: on the calling thread, in index order, it builds
each subject from its phantom's draws, so it holds the values a reduction
of ``generate_phantom``'s pair gives. The fits and the sweeps run on the
calling thread alone.

All randomness derives from explicit seeds. ``run_experiment`` derives
per-subject and per-strategy streams from the experiment seed with spawn
keys (0, i) for training phantom i, (1, i) for test phantom i
(``experiment_phantom``) and (2, j) for the window sampler of strategy j.
"""

import os
from dataclasses import dataclass, field, replace

import numpy as np

from ._checks import _list_of, number, one_of, shift_grid
from .model import FitParams, _fit_params, fit_band_segmenter
from .phantom import (OrganSpec, PhantomConfig, _drawn_test_subject, _drawn_training_subject,
                      _fill_all, _fill_threads, _layout, generate_phantom)
from .sweep import run_shift_sweep
from .windowing import STRATEGIES, SwnParams

# Not called here; kept because perfbench's tracer wraps these names on this module.
from .metrics import multi_label_dice  # noqa: F401
from .model import BandSegmenter  # noqa: F401
from .volume import extract_slice, shift_intensity, stack_slices  # noqa: F401
from .windowing import normalize_for_testing, normalize_for_training  # noqa: F401


def derive_seed(base_seed, *key):
    """Stable 64-bit sub-seed for a (base seed, key path) pair."""
    seq = np.random.SeedSequence(entropy=number(base_seed, "base_seed", whole=True, lo=0),
                                 spawn_key=tuple(number(k, "key", whole=True, lo=0) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


def worker_count(n):
    """Thread count reported for ``n`` jobs; CTWINDOW_THREADS caps it (0 = auto).

    Not called here; kept because perfbench reports it. Auto is
    ``_fill_threads(n)``, the threads ``run_experiment`` fills ``n``
    phantoms on; the variable changes the report and nothing else.
    """
    raw = os.environ.get("CTWINDOW_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"CTWINDOW_THREADS must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"CTWINDOW_THREADS must be >= 0, got {cap}")
    return max(1, min(cap, n)) if cap else _fill_threads(n)


@dataclass
class StrategySpec:
    strategy: str
    x: float = 0.0
    y: float = 0.0
    seed: int = None  # None: derived from the experiment seed

    def __post_init__(self):
        one_of(self.strategy, "strategy", STRATEGIES)
        number(self.x, "x", lo=0)
        number(self.y, "y", lo=0)
        if self.seed is not None:
            self.seed = number(self.seed, "seed", whole=True, lo=0)

    @property
    def label(self):
        if self.strategy == "SWN":
            return f"SWN[{self.x:g},{self.y:g}]"
        return self.strategy


@dataclass
class ExperimentConfig:
    phantom: PhantomConfig
    strategies: list
    shifts: list
    n_train: int = 5
    n_test: int = 5
    fit: FitParams = field(default_factory=FitParams)
    seed: int = 0
    slice_axis: int = 2

    def __post_init__(self):
        if not isinstance(self.phantom, PhantomConfig):
            raise ValueError(f"phantom: expected a PhantomConfig, got {self.phantom!r}")
        _list_of(self.strategies, "strategies", StrategySpec, nonempty=True)
        shift_grid(self.shifts)
        self.n_train = number(self.n_train, "n_train", whole=True, lo=1)
        self.n_test = number(self.n_test, "n_test", whole=True, lo=1)
        _fit_params(self.fit)
        self.seed = number(self.seed, "seed", whole=True, lo=0)
        self.slice_axis = number(self.slice_axis, "slice_axis", whole=True, lo=0, hi=2)


def experiment_phantom(cfg, kind, i):
    """Phantom i of an experiment's training (kind 0) or test (kind 1) suite."""
    return generate_phantom(replace(cfg.phantom, seed=derive_seed(cfg.seed, kind, i)))


def run_experiment(cfg):
    """Fit one segmenter per strategy on the training suite, then sweep each on the test suite.

    Returns the concatenated sweep rows (strategy blocks in config order)
    and the fitted segmenters keyed by strategy label.

    No phantom volume is built. Every phantom of the config shares one
    draw-free layout (``_layout``), and each subject is built from its
    phantom's stream: a training subject holds each organ's values in plane
    order along ``cfg.slice_axis`` with their per-plane counts
    (``_drawn_training_subject``), a test subject each id's sorted values
    (``_drawn_test_subject``). These are the subjects that
    ``_training_subject`` and ``_test_subject`` reduce from the phantoms of
    ``experiment_phantom``, so the rows and bands are those of calls on the
    phantoms. Every strategy is fitted and the training subjects dropped
    before the test phantoms are drawn.

    Each suite's phantoms are drawn at once (``_fill_all``) on
    ``_fill_threads(n)`` threads for its n phantoms, into buffers allocated
    here; the subjects are then built here, in index order. Each phantom
    has its own seed and its own buffers, so neither the thread count nor
    the order the fills run in changes a byte.
    """
    names, organs = _layout(cfg.phantom)[1:]  # so no label volume is held through the fits
    drawn = _fill_all(cfg.phantom, organs,
                      [derive_seed(cfg.seed, 0, i) for i in range(cfg.n_train)], None)
    drawn.reverse()  # popped in index order, so each phantom's draws go once its subject is built
    train = [_drawn_training_subject(cfg.phantom, names, organs, drawn.pop()[1], cfg.slice_axis)
             for _ in range(cfg.n_train)]
    fitted = []
    for j, spec in enumerate(cfg.strategies):
        swn = None
        if spec.strategy == "SWN":
            seed = spec.seed if spec.seed is not None else derive_seed(cfg.seed, 2, j)
            swn = SwnParams(spec.x, spec.y, seed=seed)
        fitted.append(fit_band_segmenter(train, spec.strategy, swn=swn, fit=cfg.fit,
                                         slice_axis=cfg.slice_axis))
    del train
    labels = _layout(cfg.phantom)[0]  # only the test phantoms' fills read it
    drawn = _fill_all(cfg.phantom, organs,
                      [derive_seed(cfg.seed, 1, i) for i in range(cfg.n_test)], labels)
    del labels
    test = [_drawn_test_subject(names, organs, *draws) for draws in drawn]
    rows = []
    for spec, seg in zip(cfg.strategies, fitted):
        rows += run_shift_sweep(seg, test, spec.strategy, cfg.shifts, strategy_label=spec.label)
    return rows, {spec.label: seg for spec, seg in zip(cfg.strategies, fitted)}


def reference_experiment(seed=7):
    """The bundled desk-scale experiment: three soft-tissue organs on air.

    Organ means (40 / 120 / 235 HU) sit inside the soft-tissue band with
    spacing chosen so the fitted bands of all three strategies separate
    cleanly at shift 0, and the fit uses nearest-center band resolution
    with (2.5, 97.5) percentiles, which keeps the wide stochastic-window
    bands from swallowing neighboring organs.
    """
    phantom = PhantomConfig(
        dims=(64, 64, 24),
        organs=[
            OrganSpec(1, "organ_a", (16, 16, 12), (10, 12, 6), 40.0, 15.0),
            OrganSpec(2, "organ_b", (46, 16, 12), (9, 10, 5), 120.0, 15.0),
            OrganSpec(3, "organ_c", (32, 46, 12), (6, 7, 4), 235.0, 15.0),
        ],
        background_hu=-1000.0,
        background_noise_std=15.0,
    )
    return ExperimentConfig(
        phantom=phantom,
        strategies=[StrategySpec("STN"), StrategySpec("WIR"), StrategySpec("SWN", 50, 50)],
        shifts=list(range(-300, 301, 25)),
        n_train=5,
        n_test=5,
        fit=FitParams(epochs=12, percentiles=(2.5, 97.5), tie_break="nearest_center"),
        seed=seed,
    )
