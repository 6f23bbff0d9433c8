"""Intensity-shift robustness simulation on synthetic phantoms.

A phantom is an air background with ellipsoidal soft-tissue organs, each
drawn as Gaussian noise around a mean HU. The segmenter is a percentile
band classifier fitted in normalized-intensity space that labels each
voxel by its intensity alone, so its shift tolerance is determined
entirely by the normalization strategy it was trained under. The sweep
shifts whole test volumes over a HU grid, re-normalizes them with the
strategy's test-time window, and reports mean dice per (shift, label).

All randomness derives from explicit seeds. ``run_experiment`` derives
per-subject and per-strategy streams from the experiment seed with spawn
keys (0, i) for training phantom i, (1, i) for test phantom i and (2, j)
for the window sampler of strategy j.
"""

import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .metrics import dice_from_counts
from .volume import CtVolume, LabelVolume
from .windowing import SwnParams, WindowSampler, strategy_window

# Not called here; kept because perfbench's tracer wraps these names on this module.
from .metrics import multi_label_dice  # noqa: F401
from .volume import extract_slice, shift_intensity, stack_slices  # noqa: F401
from .windowing import normalize_for_testing, normalize_for_training  # noqa: F401

SWEEP_CSV_COLUMNS = ("shift_hu", "strategy", "label_id", "label_name", "mean_dice")

SLAB_VOXELS = 1 << 17  # voxels per sweep-cell slab; bounds each pool thread's scratch memory


def derive_seed(base_seed, *key):
    """Stable 64-bit sub-seed for a (base seed, key path) pair."""
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


def worker_count(n_cells):
    """Thread count for sweep cells; CTWINDOW_THREADS caps it (0 = auto)."""
    raw = os.environ.get("CTWINDOW_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(f"CTWINDOW_THREADS must be an integer, got {raw!r}") from None
    if cap < 0:
        raise ValueError(f"CTWINDOW_THREADS must be >= 0, got {cap}")
    if cap == 0:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_cells))


@dataclass
class OrganSpec:
    label_id: int
    label_name: str
    center: tuple
    radii: tuple
    mean_hu: float
    noise_std: float


@dataclass
class PhantomConfig:
    dims: tuple
    organs: list
    background_hu: float = -1000.0
    background_noise_std: float = 0.0
    spacing: tuple = (1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        self.dims = tuple(int(d) for d in self.dims)
        if len(self.dims) != 3 or any(d <= 0 for d in self.dims):
            raise ValueError(f"dims must be 3 positive integers, got {self.dims}")
        ids = [o.label_id for o in self.organs]
        if len(set(ids)) != len(ids) or any(i <= 0 for i in ids):
            raise ValueError("organ label ids must be unique and nonzero")
        for organ in self.organs:
            lo = np.asarray(organ.center) - np.asarray(organ.radii)
            hi = np.asarray(organ.center) + np.asarray(organ.radii)
            if np.any(lo < 0) or np.any(hi > np.asarray(self.dims) - 1):
                raise ValueError(f"organ {organ.label_name!r} ellipsoid extends outside dims")


def generate_phantom(cfg):
    """Build one (CtVolume, LabelVolume) pair; deterministic under cfg.seed."""
    rng = np.random.default_rng(cfg.seed)
    voxels = rng.normal(cfg.background_hu, cfg.background_noise_std,
                        size=cfg.dims).astype(np.float32)
    labels = np.zeros(cfg.dims, dtype=np.uint8)
    grids = np.meshgrid(*[np.arange(d, dtype=np.float64) for d in cfg.dims], indexing="ij")
    names = {0: "background"}
    for organ in cfg.organs:
        mask = sum(((g - c) / r) ** 2
                   for g, c, r in zip(grids, organ.center, organ.radii)) <= 1.0
        if np.any(labels[mask]):
            raise ValueError(f"organ {organ.label_name!r} overlaps another organ")
        voxels[mask] = rng.normal(organ.mean_hu, organ.noise_std,
                                  size=int(mask.sum())).astype(np.float32)
        labels[mask] = organ.label_id
        names[organ.label_id] = organ.label_name
    return (CtVolume(voxels, spacing=cfg.spacing), LabelVolume(labels, label_names=names))


@dataclass
class Band:
    label_id: int
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"band for label {self.label_id} needs lo < hi, "
                             f"got [{self.lo}, {self.hi}]")

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)


class BandSegmenter:
    """Per-label intensity bands in normalized [0, 255] space.

    A voxel inside several bands goes to the lowest label id
    (``tie_break="lowest_id"``) or to the containing band whose center is
    nearest (``tie_break="nearest_center"``, ties again to the lowest id).
    """

    def __init__(self, bands, strategy, tie_break="lowest_id"):
        if tie_break not in _kernels.TIE_BREAK_MODES:
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.bands = sorted(bands, key=lambda b: b.label_id)
        ids = [b.label_id for b in self.bands]
        if len(set(ids)) != len(ids) or any(i <= 0 for i in ids):
            raise ValueError("band label ids must be unique and nonzero")
        self.strategy = strategy
        self.tie_break = tie_break
        self._lo = np.array([b.lo for b in self.bands], dtype=np.float32)
        self._hi = np.array([b.hi for b in self.bands], dtype=np.float32)
        self._center = np.array([b.center for b in self.bands], dtype=np.float32)
        self._labels = np.array(ids, dtype=np.uint8)

    def predict(self, normalized):
        """uint8 labels for a normalized float array of any shape."""
        return _kernels.classify_bands(normalized, self._lo, self._hi,
                                       self._center, self._labels, self.tie_break)


def fit_band_segmenter(training, strategy, swn=None, epochs=1,
                       percentiles=(1.0, 99.0), band_epsilon=0.5,
                       tie_break="lowest_id", slice_axis=2):
    """Fit per-label percentile bands in normalized space.

    Every epoch re-normalizes every volume with the strategy's training
    window; SWN draws a fresh window for each plane along ``slice_axis``,
    so it pools values over many random windows, widening its bands. Each
    label's normalized intensities are pooled; the band is the stated
    percentile range of the pool, widened to ``2 * band_epsilon`` when it
    degenerates.
    """
    if not training:
        raise ValueError("training set must be nonempty")
    if (swn is not None) != (strategy == "SWN"):
        raise ValueError("swn params are required for SWN and disallowed otherwise")
    lo_pct, hi_pct = percentiles
    if not 0.0 <= lo_pct < hi_pct <= 100.0:
        raise ValueError(f"percentiles must satisfy 0 <= lo < hi <= 100, got {percentiles}")

    label_ids = sorted({lid for _, lab in training for lid in lab.label_names if lid != 0})
    if not label_ids:
        raise ValueError("training labels contain no nonzero ids")
    sampler = WindowSampler(swn) if strategy == "SWN" else None
    window = strategy_window(strategy, "train")

    # percentiles depend only on the multiset of pooled values: pooling by volume is exact
    pools = {lid: [] for lid in label_ids}
    for _ in range(int(epochs)):
        for vol, lab in training:
            if vol.dims != lab.dims:
                raise ValueError(f"volume/label dims mismatch: {vol.dims} vs {lab.dims}")
            if window is not None:
                normalized = _kernels.window_normalize(vol.voxels, window.lower, window.upper)
            else:
                normalized = np.empty(vol.dims, dtype=np.float32)
                planes = np.moveaxis(normalized, slice_axis, 0)
                for index, plane in enumerate(np.moveaxis(vol.voxels, slice_axis, 0)):
                    drawn = sampler.sample()
                    planes[index] = _kernels.window_normalize(plane, drawn.lower, drawn.upper)
            for lid in label_ids:
                values = normalized[lab.voxels == lid]
                if values.size:
                    pools[lid].append(values)

    bands = []
    for lid in label_ids:
        if not pools[lid]:
            raise ValueError(f"label {lid} has no voxels in any training volume")
        pooled = np.concatenate(pools[lid])
        lo, hi = np.percentile(pooled, [lo_pct, hi_pct])
        if hi - lo < 2.0 * band_epsilon:
            mid = 0.5 * (lo + hi)
            lo, hi = mid - band_epsilon, mid + band_epsilon
        bands.append(Band(lid, float(lo), float(hi)))
    return BandSegmenter(bands, strategy, tie_break=tie_break)


@dataclass
class SweepRow:
    shift_hu: float
    strategy: str
    label_id: int
    label_name: str
    mean_dice: float


@dataclass
class SweepResult:
    rows: list

    def cell(self, shift_hu, label_id):
        for row in self.rows:
            if row.shift_hu == shift_hu and row.label_id == label_id:
                return row.mean_dice
        raise KeyError((shift_hu, label_id))

    def tolerance_width(self, label_id, threshold=0.5):
        """Number of shifts at which the label's mean dice stays >= threshold."""
        return sum(1 for row in self.rows
                   if row.label_id == label_id and row.mean_dice >= threshold)


def run_shift_sweep(seg, test, strategy, shifts, strategy_label=None):
    """Mean dice per (shift, label) of a segmenter on shifted test volumes.

    Cells (shift x subject) are independent; they run on a thread pool
    capped by CTWINDOW_THREADS and are reduced in fixed order, so the
    result is identical regardless of scheduling. A cell works on slabs of
    whole rows along axis 0, at most SLAB_VOXELS each (one row if a row is
    larger), and adds their label overlap counts.
    """
    if not shifts:
        raise ValueError("shifts grid must be nonempty")
    if not np.all(np.isfinite(shifts)):
        raise ValueError(f"shifts must be finite, got {shifts}")
    label_names = {}
    for _, lab in test:
        for lid, name in lab.label_names.items():
            if lid != 0:
                label_names.setdefault(lid, name)
    label_ids = sorted(label_names)
    strategy_label = strategy_label or strategy
    window = strategy_window(strategy, "test")

    def cell(shift, vol, lab):
        if vol.dims != lab.dims:
            raise ValueError(f"volume/label dims mismatch: {vol.dims} vs {lab.dims}")
        rows = max(1, SLAB_VOXELS // (vol.dims[1] * vol.dims[2]))
        counts = np.zeros((3, 256), dtype=np.int64)
        for start in range(0, vol.dims[0], rows):
            hu = np.asarray(vol.voxels[start:start + rows], dtype=np.float32) + np.float32(shift)
            pred = seg.predict(_kernels.window_normalize(hu, window.lower, window.upper))
            counts += _kernels.label_overlap_counts(pred, lab.voxels[start:start + rows])
        return [dice_from_counts(counts, lid) for lid in label_ids]

    cells = [(i, j) for i in range(len(shifts)) for j in range(len(test))]
    with ThreadPoolExecutor(max_workers=worker_count(len(cells))) as pool:
        futures = {(i, j): pool.submit(cell, shifts[i], *test[j]) for i, j in cells}
    scores = {key: fut.result() for key, fut in futures.items()}

    rows = []
    for i, shift in enumerate(shifts):
        stacked = np.array([scores[(i, j)] for j in range(len(test))], dtype=np.float64)
        means = stacked.mean(axis=0)
        for lid, mean in zip(label_ids, means):
            rows.append(SweepRow(shift, strategy_label, lid, label_names[lid], float(mean)))
    return SweepResult(rows)


def write_sweep_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.shift_hu, r.strategy, r.label_id, r.label_name,
                             str(r.mean_dice)])


@dataclass
class StrategySpec:
    strategy: str
    x: float = 0.0
    y: float = 0.0
    seed: int = None  # None: derived from the experiment seed

    @property
    def label(self):
        if self.strategy == "SWN":
            return f"SWN[{self.x:g},{self.y:g}]"
        return self.strategy


@dataclass
class FitParams:
    epochs: int = 12
    percentiles: tuple = (1.0, 99.0)
    band_epsilon: float = 0.5
    tie_break: str = "lowest_id"


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


def run_experiment(cfg):
    """Generate phantom suites, fit one segmenter per strategy, sweep each.

    Returns the concatenated sweep rows (strategy blocks in config order)
    and the fitted segmenters keyed by strategy label.
    """
    train = [generate_phantom(replace(cfg.phantom, seed=derive_seed(cfg.seed, 0, i)))
             for i in range(cfg.n_train)]
    test = [generate_phantom(replace(cfg.phantom, seed=derive_seed(cfg.seed, 1, i)))
            for i in range(cfg.n_test)]
    rows = []
    segmenters = {}
    for j, spec in enumerate(cfg.strategies):
        swn = None
        if spec.strategy == "SWN":
            seed = spec.seed if spec.seed is not None else derive_seed(cfg.seed, 2, j)
            swn = SwnParams(spec.x, spec.y, seed=seed)
        seg = fit_band_segmenter(train, spec.strategy, swn=swn, epochs=cfg.fit.epochs,
                                 percentiles=cfg.fit.percentiles,
                                 band_epsilon=cfg.fit.band_epsilon,
                                 tie_break=cfg.fit.tie_break, slice_axis=cfg.slice_axis)
        result = run_shift_sweep(seg, test, spec.strategy, cfg.shifts,
                                 strategy_label=spec.label)
        segmenters[spec.label] = seg
        rows.extend(result.rows)
    return rows, segmenters


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
