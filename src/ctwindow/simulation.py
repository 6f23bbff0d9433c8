"""Intensity-shift robustness simulation on synthetic phantoms.

A phantom is an air background with ellipsoidal soft-tissue organs, each
drawn as Gaussian noise around a mean HU. The segmenter is a percentile
band classifier fitted in normalized-intensity space that labels each
voxel by its intensity alone, so its shift tolerance is determined
entirely by the normalization strategy it was trained under. The sweep
reports mean dice per (shift, label) of test volumes shifted over a HU
grid and re-normalized with the strategy's test-time window. It sorts
each test subject's voxel values once per truth label and reads every
shift's dice counts off the sorted values (see ``run_shift_sweep``),
because normalization is monotone and the classifier is piecewise
constant in normalized intensity.

The fit and the sweep each start by reducing a (CtVolume, LabelVolume)
pair to what they read of it: a training subject to one gather of every
labelled voxel in plane order (``_gather_pooled``), a test subject to its
per-label sorted values (``_prepare_test``). Neither reduction depends on
the strategy, so ``run_experiment`` reduces each phantom once, as soon as
it is generated, drops the phantom, and passes the reduced subjects to
every strategy's fit and sweep. The fit pools them in one loop; the sweep
counts them in one loop over subjects.

All randomness derives from explicit seeds. ``run_experiment`` derives
per-subject and per-strategy streams from the experiment seed with spawn
keys (0, i) for training phantom i, (1, i) for test phantom i
(``experiment_phantom``) and (2, j) for the window sampler of strategy j.
"""

import csv
import numbers
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from .volume import CtVolume, LabelVolume, uint8_ids_present
from .windowing import SwnParams, WindowSampler, strategy_window

# Not called here; kept because perfbench's tracer wraps these names on this module.
from .metrics import multi_label_dice  # noqa: F401
from .volume import extract_slice, shift_intensity, stack_slices  # noqa: F401
from .windowing import normalize_for_testing, normalize_for_training  # noqa: F401

SWEEP_CSV_COLUMNS = ("shift_hu", "strategy", "label_id", "label_name", "mean_dice")

TIE_BREAKS = ("lowest_id", "nearest_center")

SLAB_VOXELS = 1 << 17  # values per chunk of the direct sweep; bounds its scratch memory


def derive_seed(base_seed, *key):
    """Stable 64-bit sub-seed for a (base seed, key path) pair."""
    seq = np.random.SeedSequence(entropy=int(base_seed), spawn_key=tuple(int(k) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


# Not called here; kept because perfbench/child.py and perfbench/tracing.py report it.
def worker_count(n_cells):
    """Thread count reported for ``n_cells`` sweep cells; CTWINDOW_THREADS caps it (0 = auto)."""
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
        dims = _three_numbers(self.dims, "dims")
        if any(d <= 0 or not d.is_integer() for d in dims):
            raise ValueError(f"dims must be 3 positive integers, got {self.dims}")
        self.dims = tuple(int(d) for d in dims)
        ids = [o.label_id for o in self.organs]
        if len(set(ids)) != len(ids) or any(not 0 < i <= 255 for i in ids):
            raise ValueError(f"organ label ids must be unique and in 1..255, got {ids}")
        for organ in self.organs:
            center = np.array(_three_numbers(organ.center, f"organ {organ.label_name!r} center"))
            radii = np.array(_three_numbers(organ.radii, f"organ {organ.label_name!r} radii"))
            if np.any(radii <= 0):
                raise ValueError(f"organ {organ.label_name!r} radii must be positive, "
                                 f"got {organ.radii}")
            lo, hi = center - radii, center + radii
            if np.any(lo < 0) or np.any(hi > np.asarray(self.dims) - 1):
                raise ValueError(f"organ {organ.label_name!r} ellipsoid extends outside dims")


def _three_numbers(value, what):
    """``value`` as a tuple of 3 finite floats; ValueError naming ``what`` otherwise."""
    try:
        numbers = tuple(float(v) for v in value)
    except (TypeError, ValueError):
        numbers = ()
    if len(numbers) != 3 or not np.all(np.isfinite(numbers)):
        raise ValueError(f"{what} must be 3 finite numbers, got {value!r}")
    return numbers


def generate_phantom(cfg):
    """Build one (CtVolume, LabelVolume) pair; deterministic under cfg.seed.

    An organ's mask is the float64 sum of one term ``((g - c) / r) ** 2``
    per axis, ``<= 1``. Each axis' term is computed once over that axis,
    and the mask only on the box of indices where every axis' term is
    ``<= 1``: outside it one term exceeds 1, and a float64 sum of
    non-negative terms is at least each term, so the mask there is all
    False. C order inside the box is the volume's C order restricted to
    the box, so the organ's draws land on the same voxels as with a mask
    over the whole volume. An organ with radii too small to cover a grid
    point has an empty box and draws nothing.
    """
    rng = np.random.default_rng(cfg.seed)
    voxels = rng.normal(cfg.background_hu, cfg.background_noise_std,
                        size=cfg.dims).astype(np.float32)
    labels = np.zeros(cfg.dims, dtype=np.uint8)
    axes = [np.arange(d, dtype=np.float64) for d in cfg.dims]
    names = {0: "background"}
    for organ in cfg.organs:
        # a subnormal radius overflows a term to inf, which still compares > 1
        with np.errstate(over="ignore"):
            terms = [((x - c) / r) ** 2 for x, c, r in zip(axes, organ.center, organ.radii)]
        inside = [np.flatnonzero(t <= 1.0) for t in terms]
        box = tuple(slice(i[0], i[-1] + 1) if i.size else slice(0, 0) for i in inside)
        t0, t1, t2 = (t[b] for t, b in zip(terms, box))
        mask = t0[:, None, None] + t1[:, None] + t2 <= 1.0
        if np.any(labels[box][mask]):
            raise ValueError(f"organ {organ.label_name!r} overlaps another organ")
        voxels[box][mask] = rng.normal(organ.mean_hu, organ.noise_std,
                                       size=int(mask.sum())).astype(np.float32)
        labels[box][mask] = organ.label_id
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
        if tie_break not in TIE_BREAKS:
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
    label's normalized intensities are pooled over all epochs and volumes;
    the band is the stated percentile range of the pool, widened to
    ``2 * band_epsilon`` when it degenerates. The labels are the nonzero
    named ids of all subjects.

    ``training`` holds (CtVolume, LabelVolume) pairs, gathered on entry,
    or subjects ``run_experiment`` gathered once for every strategy; either
    way a volume's labelled voxels are gathered once as float32, plane by
    plane along the slice axis (``_gather_pooled``). Windowing is exact on
    them: the kernel windows each value on its own, and ``np.percentile``
    depends only on the multiset of pooled values. One loop pools. STN and
    WIR make one pass, since every epoch would add the same values again,
    and ``_tiled_percentile`` reads ``np.percentile``'s result on the
    ``epochs``-fold pool off that one copy. SWN makes ``epochs`` passes and
    draws one window per plane in the order epoch, volume, plane, planes
    without a pooled voxel included, so its random stream is the one a
    per-plane fit draws; it windows each volume's gathered values in one
    kernel call, each value with the float32 bounds of its own plane's
    draw, as a call per plane would.
    """
    if not training:
        raise ValueError("training set must be nonempty")
    if (swn is not None) != (strategy == "SWN"):
        raise ValueError("swn params are required for SWN and disallowed otherwise")
    if (isinstance(epochs, bool) or not isinstance(epochs, numbers.Real)
            or not float(epochs).is_integer() or epochs < 1):
        raise ValueError(f"epochs must be a whole number >= 1, got {epochs!r}")
    epochs = int(epochs)
    lo_pct, hi_pct = percentiles
    if not 0.0 <= lo_pct < hi_pct <= 100.0:
        raise ValueError(f"percentiles must satisfy 0 <= lo < hi <= 100, got {percentiles}")

    window = strategy_window(strategy, "train")
    sampler = WindowSampler(swn) if window is None else None
    gathered = [s if isinstance(s, _TrainingSubject) else _gather_pooled(*s, slice_axis)
                for s in training]
    label_ids = sorted({lid for s in gathered for lid in s.label_names if lid != 0})
    if not label_ids:
        raise ValueError("training labels contain no nonzero ids")

    pools = {lid: [] for lid in label_ids}
    for _ in range(1 if window is not None else epochs):
        for subject in gathered:
            if window is None:
                counts = subject.counts
                drawn = [sampler.sample() for _ in counts]
                lower = np.repeat(np.array([w.lower for w in drawn], dtype=np.float32), counts)
                upper = np.repeat(np.array([w.upper for w in drawn], dtype=np.float32), counts)
            else:
                lower, upper = window.lower, window.upper
            normalized = _kernels.window_normalize(subject.values, lower, upper)
            for lid in label_ids:
                if lid in subject.masks:
                    pools[lid].append(normalized[subject.masks[lid]])

    bands = []
    for lid in label_ids:
        if not pools[lid]:
            raise ValueError(f"label {lid} has no voxels in any training volume")
        lo, hi = _tiled_percentile(np.concatenate(pools[lid]), [lo_pct, hi_pct],
                                   epochs if window is not None else 1)
        if hi - lo < 2.0 * band_epsilon:
            mid = 0.5 * (lo + hi)
            lo, hi = mid - band_epsilon, mid + band_epsilon
        bands.append(Band(lid, float(lo), float(hi)))
    return BandSegmenter(bands, strategy, tie_break=tie_break)


def _tiled_percentile(values, percentiles, copies):
    """``np.percentile(np.concatenate([values] * copies), percentiles)``, off one copy.

    ``values`` is a nonempty 1-D float array, ``percentiles`` a list of
    numbers in [0, 100]. Sorted, the tiled pool repeats each order
    statistic of ``values`` ``copies`` times, so its k-th is the
    ``k // copies``-th of ``values``. NumPy's "linear" method on the
    ``copies * n``-value pool takes the virtual index
    ``i = (copies * n - 1) * q`` with ``q = percentiles / 100``, the order
    statistics ``floor(i)`` and ``floor(i) + 1``, both replaced by index -1
    (the last) where ``i >= copies * n - 1``, and interpolates them with
    weight ``t = i - floor(i)``, taken after that replacement, as its
    ``_lerp`` does: ``a + (b - a) * t``, or ``b - (b - a) * (1 - t)`` where
    ``t >= 0.5``, with ``b - a`` in the values' dtype. This repeats each of
    those steps on the same index and the same two values, so it returns
    the same floats and dtype, NaN included where the pool holds a NaN; it
    partitions one copy instead of ``copies``.
    """
    q = np.true_divide(percentiles, 100)
    count = copies * values.size
    virtual = (count - 1) * q
    prev = np.floor(virtual)
    nxt = prev + 1
    above = virtual >= count - 1
    prev[above] = nxt[above] = -1
    prev, nxt = prev.astype(np.intp), nxt.astype(np.intp)
    first, second = prev // copies % values.size, nxt // copies % values.size
    part = np.partition(values, np.unique(np.concatenate((first, second, [values.size - 1]))))
    a, b = part[first], part[second]
    t = virtual - prev
    diff = b - a
    result = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    if np.isnan(part[-1]):  # NaN sorts last; np.percentile then returns NaN throughout
        result[:] = part[-1]
    return result


@dataclass
class _TrainingSubject:
    """A training subject as the fit reads it (see ``_gather_pooled``)."""

    values: np.ndarray
    counts: np.ndarray
    masks: dict
    label_names: dict


def _gather_pooled(vol, lab, slice_axis):
    """One training volume's labelled voxels, gathered in plane order along ``slice_axis``.

    Returns the float32 values of every voxel whose label is not 0, the
    number of them in each plane and, per id present, a mask over them,
    with the volume's label names.
    """
    _check_dims(vol, lab)
    labels = np.moveaxis(lab.voxels, slice_axis, 0)
    keep = labels != 0
    values = np.moveaxis(vol.voxels, slice_axis, 0)[keep].astype(np.float32, copy=False)
    kept = labels[keep]
    return _TrainingSubject(values, np.count_nonzero(keep, axis=(1, 2)),
                            {int(lid): kept == lid for lid in uint8_ids_present(kept)},
                            lab.label_names)


@dataclass
class _TestSubject:
    """A test subject as the sweep reads it: names, and each present id's sorted values."""

    label_names: dict
    values: dict  # label id -> that label's voxel values as float32, ascending


def _prepare_test(vol, lab):
    """Sort each label's voxel values of a test subject, one label at a time."""
    _check_dims(vol, lab)
    values = {}
    for lid in uint8_ids_present(lab.voxels):
        label_values = vol.voxels[lab.voxels == lid].astype(np.float32, copy=False)
        label_values.sort()
        values[int(lid)] = label_values
    return _TestSubject(lab.label_names, values)


def _check_dims(vol, lab):
    if vol.dims != lab.dims:
        raise ValueError(f"volume/label dims mismatch: {vol.dims} vs {lab.dims}")


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

    ``test`` holds (CtVolume, LabelVolume) pairs or subjects that
    ``run_experiment`` prepared once for every strategy with
    ``_prepare_test``: the label names, and each present id's values sorted
    as float32. One loop takes the subjects in turn, preparing a pair when
    its turn comes, so one pair's sorted values are held at a time. It
    counts each subject's predicted, truth and overlap voxels per (shift,
    id), off the per-label values since dice counts do not depend on where
    a voxel is, and turns them into dice for all 256 ids; the nonzero named
    ids of all subjects are selected at the end.

    The counts are exact. The test-time map
    ``n(x) = window_normalize(f32(x) + f32(shift))`` is monotone
    non-decreasing in a voxel's value x: float32 addition rounds
    monotonically, and clip, subtract, multiply and divide by positives and
    the 0/255 pins are all monotone. ``classify_bands`` looks at n only
    through tests that switch at most once as n grows: ``n >= lo_j`` and
    ``n > hi_j`` for every band, and in ``nearest_center`` mode
    ``|n - c_k| < |n - c_j|`` for every pair j < k of band centers (see
    ``_sorted_sweep_applies``). So at one shift the prediction is constant
    on each run of voxel values between the points where a test switches.
    ``_run_starts`` bisects float32 order keys for those points, probing
    with the real ``window_normalize`` and the kernels' comparisons, and
    labels each run with ``seg.predict`` on its first value; NaN voxels are
    a run of their own. ``_sorted_counts`` then counts each label's sorted
    values in each run with ``np.searchsorted``. Where the tests are not
    proven monotone, ``_direct_counts`` classifies every value at every
    shift instead, in chunks of at most SLAB_VOXELS.
    """
    if not test:
        raise ValueError("test set must be nonempty")
    if not shifts:
        raise ValueError("shifts grid must be nonempty")
    # the sweep adds shifts as float32; NaN fails the comparison too
    if not np.all(np.abs(np.asarray(shifts, dtype=np.float64)) <= np.finfo(np.float32).max):
        raise ValueError(f"shifts must be finite in float32, got {shifts}")
    window = strategy_window(strategy, "test")
    counts_of = (_sorted_counts if _sorted_sweep_applies(seg) else _direct_counts)(
        seg, window, shifts)

    label_names = {}
    tables = []
    for subject in test:
        if not isinstance(subject, _TestSubject):
            subject = _prepare_test(*subject)
        for lid, name in subject.label_names.items():
            if lid != 0:
                label_names.setdefault(lid, name)
        tables.append(_dice_table(counts_of(subject)))

    label_ids = sorted(label_names)
    rows = []
    for i, shift in enumerate(shifts):
        means = np.array([table[i, label_ids] for table in tables]).mean(axis=0)
        for lid, mean in zip(label_ids, means):
            rows.append(SweepRow(shift, strategy_label or strategy, lid, label_names[lid],
                                 float(mean)))
    return SweepResult(rows)


def _sorted_sweep_applies(seg):
    """Whether every test ``classify_bands`` makes switches at most once as n grows.

    The band tests always do. In ``nearest_center`` mode, take centers
    c_j < c_k: for n below c_j, ``|n - c_k| < |n - c_j|`` is false; between
    the centers one side shrinks and the other grows, so it switches once;
    above c_k it holds as long as float32 rounding cannot make
    ``n - c_k`` and ``n - c_j`` equal, which ``c_k - c_j`` greater than the
    float32 spacing at the largest ``|n - c|`` for n in [0, 255] rules out.
    With centers in [0, 255], as every fitted segmenter has, that spacing is
    at most 2**-16. Equal centers are fine (the lower id always wins); a
    non-finite center is not covered.
    """
    if seg.tie_break != "nearest_center":
        return True
    centers = seg._center.astype(np.float64)
    reach = np.max(np.maximum(np.abs(centers), np.abs(255.0 - centers)), initial=0.0)
    spacing = np.spacing(np.float32(reach))
    gaps = np.abs(centers[:, None] - centers[None, :])
    return bool(np.all((gaps == 0) | (gaps > spacing)))


_NEG_INF_KEY = 0x007FFFFF  # order key of float32 -inf
_POS_INF_KEY = 0xFF800000  # order key of float32 +inf


def _key_values(keys):
    """float32 values of uint32 order keys, which sort like the values (-0.0 before 0.0)."""
    keys = np.asarray(keys, dtype=np.uint32)
    return np.where(keys & 0x80000000, keys & 0x7FFFFFFF, ~keys).view(np.float32)


def _band_tests(seg):
    """The tests classify_bands makes on n, and how many there are.

    ``tests(n)`` takes n of shape (..., count) and applies test t to
    ``n[..., t]``: ``n >= lo_j``, then ``n > hi_j``, then in
    ``nearest_center`` mode ``|n - c_k| < |n - c_j|`` for each pair j < k.
    """
    n_bands = len(seg.bands)
    j, k = np.triu_indices(n_bands if seg.tie_break == "nearest_center" else 0, 1)

    def tests(n):
        pair = n[..., 2 * n_bands:]
        return np.concatenate([n[..., :n_bands] >= seg._lo, n[..., n_bands:2 * n_bands] > seg._hi,
                               np.abs(pair - seg._center[k]) < np.abs(pair - seg._center[j])],
                              axis=-1)

    return tests, 2 * n_bands + len(j)


def _run_starts(seg, window, shift32):
    """Per shift, the first values of the runs on which the prediction is constant.

    Returns float32 (shifts, tests + 2), each row ascending: -inf, then the
    smallest value at which each test switches (NaN for a test that never
    does), then NaN, which starts the run of NaN voxels.
    """
    tests, count = _band_tests(seg)

    def state(keys):
        return tests(_kernels.window_normalize(_key_values(keys) + shift32,
                                               window.lower, window.upper))

    lo = np.full((shift32.shape[0], count), _NEG_INF_KEY, dtype=np.int64)
    hi = np.full_like(lo, _POS_INF_KEY)
    first = state(lo)
    switches = state(hi) != first
    for _ in range(32):  # keeps state(lo) == first != state(hi); ends with hi - lo == 1
        mid = (lo + hi) // 2
        same = state(mid) == first
        lo = np.where(same, mid, lo)
        hi = np.where(same, hi, mid)
    starts = np.sort(np.where(switches, _key_values(hi), np.float32(np.nan)), axis=1)
    edge = np.ones((len(starts), 1), dtype=np.float32)
    return np.hstack([-np.inf * edge, starts, np.nan * edge])


def _dice_table(counts):
    """Dice per (shift, id) for all 256 ids, from counts of shape (3, shifts, 256).

    Each cell takes ``dice_from_counts``'s float64 steps: 1.0 where the
    denominator is 0, else ``2.0 * overlap / (predicted + truth)``.
    """
    den = counts[0] + counts[1]
    return np.divide(2.0 * counts[2], den, out=np.ones(den.shape), where=den != 0)


def _sorted_counts(seg, window, shifts):
    """The counts of a prepared test subject, read off its sorted values.

    Returns a function of the subject; its counts have shape (3, shifts,
    256): predicted, truth and overlap voxels per (shift, id).
    """
    shift32 = np.array([np.float32(s) for s in shifts], dtype=np.float32)[:, None]
    starts = _run_starts(seg, window, shift32)
    run_labels = seg.predict(_kernels.window_normalize(starts + shift32,
                                                       window.lower, window.upper))
    rows = np.arange(len(shifts))[:, None]

    def counts_of(subject):
        counts = np.zeros((3, len(shifts), 256), dtype=np.int64)
        for lid, values in subject.values.items():
            counts[1, :, lid] = values.size
            ends = np.searchsorted(values, starts.ravel()).reshape(starts.shape)
            in_run = np.diff(ends, axis=1, append=values.size)
            np.add.at(counts[0], (rows, run_labels), in_run)
            counts[2, :, lid] = np.where(run_labels == lid, in_run, 0).sum(axis=1)
        return counts

    return counts_of


def _direct_counts(seg, window, shifts):
    """The counts of ``_sorted_counts``, from classifying every value at every shift.

    Each label's values go through in chunks of at most SLAB_VOXELS.
    """
    def counts_of(subject):
        counts = np.zeros((3, len(shifts), 256), dtype=np.int64)
        for i, shift in enumerate(shifts):
            shift32 = np.float32(shift)
            for lid, values in subject.values.items():
                counts[1, i, lid] = values.size
                for start in range(0, values.size, SLAB_VOXELS):
                    hu = values[start:start + SLAB_VOXELS] + shift32
                    pred = seg.predict(_kernels.window_normalize(hu, window.lower, window.upper))
                    counts[0, i] += np.bincount(pred, minlength=256)
                    counts[2, i, lid] += np.count_nonzero(pred == lid)
        return counts

    return counts_of


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


def experiment_phantom(cfg, kind, i):
    """Phantom i of an experiment's training (kind 0) or test (kind 1) suite."""
    return generate_phantom(replace(cfg.phantom, seed=derive_seed(cfg.seed, kind, i)))


def run_experiment(cfg):
    """Generate phantom suites, fit one segmenter per strategy, sweep each.

    Returns the concatenated sweep rows (strategy blocks in config order)
    and the fitted segmenters keyed by strategy label.

    Each phantom is reduced as soon as it is generated and then dropped, so
    the run holds the gathered training values, the sorted per-label test
    values and one phantom in flight. A training phantom's labelled voxels
    are gathered along ``cfg.slice_axis``; a test phantom is sorted per
    label. Every strategy's fit and sweep reuse these, and give the rows
    and bands of calls on the phantoms themselves. Each phantom has its own
    seed (``experiment_phantom``), so the order they are generated in
    changes no byte.
    """
    train = [_gather_pooled(*experiment_phantom(cfg, 0, i), cfg.slice_axis)
             for i in range(cfg.n_train)]
    test = [_prepare_test(*experiment_phantom(cfg, 1, i)) for i in range(cfg.n_test)]
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
                                 tie_break=cfg.fit.tie_break)
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
