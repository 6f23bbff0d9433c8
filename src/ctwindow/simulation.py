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

``fit_band_segmenter(training, strategy, swn=None, fit=None, slice_axis=2)``
takes every fit setting from one ``FitParams`` (None: ``FitParams()``, 12
epochs). ``run_shift_sweep`` and ``run_experiment`` return lists of
``SweepRow``s, one per (strategy, shift, label).

The fit reads a (CtVolume, LabelVolume) pair as a training subject: each
nonzero id's float32 values in plane order along the slice axis, with its
voxel count per plane (``_in_planes``). The sweep reads a test subject:
every id's float32 values, sorted (``_sorted_subject``). The ids are the
ones ``LabelVolume`` found when it was built. Neither depends on the
strategy. A phantom is a draw-free layout (``_layout``: labels, names,
each organ's box and mask) plus one seeded stream, which ``_fill`` writes
into float32 buffers its caller allocated. ``generate_phantom`` (and so
``ctwindow phantom``) reads it through ``_draws``, the fill into buffers of
its own, and ``run_experiment`` through ``_fill_all``, which fills a
suite's phantoms on ``_fill_threads`` threads. ``run_experiment`` builds no
phantom volume: on the calling thread, in index order, it builds each
subject from its phantom's draws through the same two helpers, so it holds
the values a reduction of ``generate_phantom``'s pair gives. The fit pools
the subjects in one loop; the sweep counts them in one loop over subjects,
and ``metrics.dice_table`` turns each subject's counts into dice. The fits
and the sweeps run on the calling thread alone.

All randomness derives from explicit seeds. ``run_experiment`` derives
per-subject and per-strategy streams from the experiment seed with spawn
keys (0, i) for training phantom i, (1, i) for test phantom i
(``experiment_phantom``) and (2, j) for the window sampler of strategy j.
Each phantom's stream and buffers are its own, so no byte depends on the
thread count or on the order the fills finish in.
"""

import csv
import math
import os
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels
from ._checks import FLOAT32_MAX, number, number_list, one_of, shift_grid, text
from .metrics import dice_table
from .volume import CtVolume, LabelVolume
from .windowing import STRATEGIES, SwnParams, WindowSampler, strategy_window

# Not called here; kept because perfbench's tracer wraps these names on this module.
from .metrics import multi_label_dice  # noqa: F401
from .volume import extract_slice, shift_intensity, stack_slices  # noqa: F401
from .windowing import normalize_for_testing, normalize_for_training  # noqa: F401

SWEEP_CSV_COLUMNS = ("shift_hu", "strategy", "label_id", "label_name", "mean_dice")
DRAW_SLAB = 1 << 14  # float64 values a phantom fill draws at a time: 128 KiB per fill thread
# Each fill thread keeps about 0.3 MiB in its own glibc malloc arena, and the
# draws are under half of a sweep's time, so more threads add memory for
# little time.
MAX_FILL_THREADS = 4


def derive_seed(base_seed, *key):
    """Stable 64-bit sub-seed for a (base seed, key path) pair."""
    seq = np.random.SeedSequence(entropy=number(base_seed, "base_seed", whole=True, lo=0),
                                 spawn_key=tuple(number(k, "key", whole=True, lo=0) for k in key))
    return int(seq.generate_state(1, np.uint64)[0])


def _fill_threads(n):
    """Threads ``run_experiment`` fills ``n`` phantoms on: at most ``n`` and ``MAX_FILL_THREADS``.

    Within those, one per CPU this process may run on
    (``os.sched_getaffinity`` where the platform has it, else
    ``os.cpu_count()``), so a run pinned to one CPU fills on the calling
    thread alone.
    """
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(n, cpus, MAX_FILL_THREADS))


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


def _list_of(value, what, cls, nonempty=False):
    if (not isinstance(value, (list, tuple)) or (nonempty and not value)
            or not all(isinstance(v, cls) for v in value)):
        some = "a nonempty list" if nonempty else "a list"
        raise ValueError(f"{what}: expected {some} of {cls.__name__}, got {value!r}")


# The config classes check every field as they are built; each message starts
# with the field name, so a parser need only put the JSON path in front of it.
# Lists become tuples of the same numbers, and whole-number fields become ints.


@dataclass
class OrganSpec:
    label_id: int
    label_name: str
    center: tuple
    radii: tuple
    mean_hu: float
    noise_std: float = 0.0

    def __post_init__(self):
        self.label_id = number(self.label_id, "label_id", whole=True, lo=1, hi=255)
        text(self.label_name, "label_name")  # str() would write rows named None or ['x', 1]
        self.center = number_list(self.center, "center", 3)
        self.radii = number_list(self.radii, "radii", 3, above=0)
        number(self.mean_hu, "mean_hu")
        number(self.noise_std, "noise_std", lo=0)


@dataclass
class PhantomConfig:
    dims: tuple
    organs: list
    background_hu: float = -1000.0
    background_noise_std: float = 0.0
    spacing: tuple = (1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        self.dims = number_list(self.dims, "dims", 3, whole=True, lo=1)
        _list_of(self.organs, "organs", OrganSpec)
        number(self.background_hu, "background_hu")
        number(self.background_noise_std, "background_noise_std", lo=0)
        self.spacing = number_list(self.spacing, "spacing", 3, above=0)
        self.seed = number(self.seed, "seed", whole=True, lo=0)
        ids = [o.label_id for o in self.organs]
        if len(set(ids)) != len(ids):
            raise ValueError(f"organs: label ids must be unique, got {ids}")
        for i, organ in enumerate(self.organs):
            if any(float(c) - float(r) < 0 or float(c) + float(r) > d - 1
                   for c, r, d in zip(organ.center, organ.radii, self.dims)):
                raise ValueError(f"organs[{i}]: the ellipsoid of {organ.label_name!r} "
                                 f"extends outside dims {self.dims}")


def generate_phantom(cfg):
    """Build one (CtVolume, LabelVolume) pair; deterministic under cfg.seed.

    The labels come from the draw-free layout (``_layout``) and the values
    from its stream (``_draws``): the background's at the zeros of the
    labels, then each organ's onto its mask, in C order inside its box.
    """
    if not isinstance(cfg, PhantomConfig):
        raise ValueError(f"cfg: expected a PhantomConfig, got {cfg!r}")
    labels, names, organs = _layout(cfg)
    background, drawn = _draws(cfg, organs, cfg.seed, labels)
    voxels = np.empty(cfg.dims, dtype=np.float32)
    voxels[labels == 0] = background
    for (_, box, mask), values in zip(organs, drawn):
        voxels[box][mask] = values
    return (CtVolume(voxels, spacing=cfg.spacing), LabelVolume(labels, label_names=names))


def _layout(cfg):
    """The draw-free part of a phantom: ``(labels, names, organs)``.

    ``labels`` is the uint8 label volume, ``names`` maps each id to its
    name, and ``organs`` holds one ``(organ, box, mask)`` per organ in config
    order. An organ's mask is the float64 sum of one term
    ``((g - c) / r) ** 2`` per axis, ``<= 1``. Each axis' term is computed
    once over that axis, and the mask only on the box of indices where every
    axis' term is ``<= 1``: outside it one term exceeds 1, and a float64 sum
    of non-negative terms is at least each term, so the mask there is all
    False. C order inside the box is the volume's C order restricted to the
    box, so an organ's draws land on the same voxels as with a mask over the
    whole volume. An organ with radii too small to cover a grid point has an
    empty box and draws nothing. The layout depends on no seed, so every
    phantom of one config shares it.
    """
    labels = np.zeros(cfg.dims, dtype=np.uint8)
    axes = [np.arange(d, dtype=np.float64) for d in cfg.dims]
    names = {0: "background"}
    organs = []
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
        labels[box][mask] = organ.label_id
        names[organ.label_id] = organ.label_name
        organs.append((organ, box, mask))
    return labels, names, organs


def _draws(cfg, organs, seed, labels=None):
    """Phantom ``seed``'s stream: ``(background, organ_values)``, ``_fill`` into its own buffers.

    ``organs`` and ``labels`` are those of ``_layout(cfg)``. ``background``
    holds the float32 values at the zeros of ``labels`` (the non-organ
    voxels) in C order, or is None when ``labels`` is; ``organ_values``
    holds each organ's float32 values in config order, in C order inside
    its box.
    """
    background, drawn = _buffers(cfg, organs, labels is not None)
    _fill(cfg, organs, seed, background, drawn, labels)
    return background, drawn


def _buffers(cfg, organs, background):
    """Unwritten float32 buffers for one phantom's ``_fill``; ``background`` False gives None."""
    sizes = [int(mask.sum()) for *_, mask in organs]
    return (np.empty(math.prod(cfg.dims) - sum(sizes), dtype=np.float32) if background else None,
            [np.empty(size, dtype=np.float32) for size in sizes])


def _fill(cfg, organs, seed, background, drawn, labels=None):
    """Write phantom ``seed``'s stream into the caller's buffers; the only code that opens one.

    The stream is the background over the whole volume in C order, then
    each organ in config order, in C order inside its box. ``background``
    and ``drawn`` are ``_buffers``; ``organs`` and ``labels`` are those of
    ``_layout(cfg)``. ``Generator.normal`` computes ``mean + std * z`` in
    float64 for the stream's next standard normal z. This draws the same z
    into one float64 slab of at most ``DRAW_SLAB`` values, scales it in
    place and casts it into the float32 buffer, so no float64 array of a
    whole volume or organ is held; the background keeps only the values
    at the zeros of ``labels``. With ``labels`` None, the background draws
    only move the stream: no scaling, no cast, and ``background`` is None.
    Each phantom's stream and buffers are its own, so phantoms may be
    filled on different threads at once (``_fill_all``).
    """
    rng = np.random.default_rng(seed)
    mean, std = cfg.background_hu, cfg.background_noise_std
    rng.normal(mean, std, size=0)  # its argument checks and errors, with no draw
    size = math.prod(cfg.dims)
    slab = np.empty(min(size, DRAW_SLAB))
    written = 0
    for start in range(0, size, DRAW_SLAB):
        part = slab[:size - start]
        rng.standard_normal(out=part)
        if background is None:
            continue
        part *= std
        part += mean
        part = part[labels.reshape(-1)[start:start + part.size] == 0]
        background[written:written + part.size] = part
        written += part.size
    for (organ, _, _), out in zip(organs, drawn):
        rng.normal(organ.mean_hu, organ.noise_std, size=0)
        for start in range(0, out.size, DRAW_SLAB):
            part = slab[:out.size - start]
            rng.standard_normal(out=part)
            part *= organ.noise_std
            part += organ.mean_hu
            out[start:start + part.size] = part


def _fill_all(cfg, organs, seeds, labels):
    """Each seed's ``_draws``, in seed order: buffers allocated here, filled on worker threads.

    The fills run on ``_fill_threads(len(seeds))`` threads, the calling
    thread one of them: thread t fills phantoms t, t + threads, ... and
    allocates none of the buffers it writes. Every thread is joined before
    this returns or raises, and the first failing thread's exception is
    re-raised here. (``concurrent.futures.ThreadPoolExecutor`` leaves the
    calling thread idle; on a 2-CPU Linux host ``fit_heavy`` ran about 7%
    slower and peaked about 1 MiB higher with it.)
    """
    buffers = [_buffers(cfg, organs, labels is not None) for _ in seeds]
    threads = _fill_threads(len(seeds))
    errors = [None] * threads

    def work(t):
        try:
            for seed, (background, drawn) in zip(seeds[t::threads], buffers[t::threads]):
                _fill(cfg, organs, seed, background, drawn, labels)
        except BaseException as exc:  # re-raised in the calling thread
            errors[t] = exc

    workers = []
    try:
        for t in range(1, threads):
            worker = threading.Thread(target=work, args=(t,))
            worker.start()
            workers.append(worker)
        work(0)
    finally:
        for worker in workers:
            worker.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return buffers


@dataclass
class Band:
    label_id: int
    lo: float
    hi: float

    def __post_init__(self):
        self.label_id = number(self.label_id, "band label_id", whole=True, lo=1, hi=255)
        try:
            ordered = number(self.lo, "lo") < number(self.hi, "hi")
        except ValueError:  # a bool, a string or a non-finite end
            ordered = False
        if not ordered:
            raise ValueError(f"band for label {self.label_id} needs finite lo < hi, "
                             f"got [{self.lo!r}, {self.hi!r}]")

    @property
    def center(self):
        return 0.5 * (self.lo + self.hi)


class BandSegmenter:
    """Per-label intensity bands in normalized [0, 255] space.

    A voxel inside several bands goes to the lowest label id
    (``tie_break="lowest_id"``) or to the containing band whose center is
    nearest by exact float64 midpoint tests (``tie_break="nearest_center"``,
    ties again to the lowest id; see ``_kernels.classify_bands``).
    """

    def __init__(self, bands, tie_break="lowest_id"):
        one_of(tie_break, "tie_break", _kernels.TIE_BREAKS)
        self.bands = sorted(bands, key=lambda b: b.label_id)
        ids = [b.label_id for b in self.bands]
        if len(set(ids)) != len(ids):
            raise ValueError(f"band label ids must be unique, got {ids}")
        self.tie_break = tie_break
        self._lo = np.array([b.lo for b in self.bands], dtype=np.float32)
        self._hi = np.array([b.hi for b in self.bands], dtype=np.float32)
        self._center = np.array([b.center for b in self.bands], dtype=np.float32)
        self._labels = np.array(ids, dtype=np.uint8)

    def predict(self, normalized):
        """uint8 labels for a normalized float array of any shape."""
        return _kernels.classify_bands(normalized, self._lo, self._hi,
                                       self._center, self._labels, self.tie_break)


def fit_band_segmenter(training, strategy, swn=None, fit=None, slice_axis=2):
    """Fit per-label percentile bands in normalized space.

    Every epoch re-normalizes every volume with the strategy's training
    window; SWN draws a fresh window for each plane along ``slice_axis``,
    so it pools values over many random windows, widening its bands. Each
    label's normalized intensities are pooled over all epochs and volumes;
    the band is the stated percentile range of the pool, widened to
    ``2 * band_epsilon`` when it degenerates. The labels are the nonzero
    named ids of all subjects. ``fit`` is a ``FitParams`` holding ``epochs``,
    ``percentiles``, ``band_epsilon`` and ``tie_break``; None means
    ``FitParams()``, 12 epochs.

    ``training`` holds (CtVolume, LabelVolume) pairs, reduced on entry
    (``_training_subject``; a malformed entry is a ValueError naming it), or
    subjects ``run_experiment`` built once for every strategy from the
    phantom draws; either way it holds each nonzero id's voxel values as
    float32, plane by plane along the slice axis, with their per-plane
    counts. Windowing is exact on them: the kernel windows
    each value on its own, and ``np.percentile`` depends only on the
    multiset of pooled values. STN and WIR make one pass, since every epoch
    would add the same values again, and ``_tiled_percentile`` reads
    ``np.percentile``'s result on the ``epochs``-fold pool off that one
    copy. SWN makes ``epochs`` passes. It
    first draws every window, one per plane in the order epoch, volume, plane,
    planes without a pooled voxel included, so its random stream is the one a
    per-plane fit draws. Then one loop over the labels does the pooling: each
    label's values over all volumes are windowed in one call per pass, with
    the float32 bounds of each value's own plane repeated by the label's
    per-plane counts, as a call per plane would. A label's pool is dropped as
    soon as its band is taken, before the next label's is allocated.
    """
    slice_axis = number(slice_axis, "slice_axis", whole=True, lo=0, hi=2)
    if not training:
        raise ValueError("training set must be nonempty")
    if (swn is not None) != (strategy == "SWN"):
        raise ValueError("swn params are required for SWN and disallowed otherwise")
    fit = _fit_params(FitParams() if fit is None else fit)

    window = strategy_window(strategy, "train")
    sampler = WindowSampler(swn) if window is None else None
    subjects = [s if isinstance(s, _Subject)
                else _training_subject(*_pair(s, f"training[{i}]"), slice_axis)
                for i, s in _entries(training, "training")]
    label_ids = sorted({lid for s in subjects for lid in s.label_names if lid != 0})
    if not label_ids:
        raise ValueError("training labels contain no nonzero ids")

    for lid in label_ids:
        if not any(lid in s.values for s in subjects):
            raise ValueError(f"label {lid} has no voxels in any training volume")

    passes = 1 if window is not None else fit.epochs
    if window is None:  # ends[p] holds the (lower, upper) of every plane of pass p
        drawn = [sampler.sample() for _ in range(passes) for s in subjects
                 for _ in range(s.planes)]
        ends = np.array([(w.lower, w.upper) for w in drawn],
                        dtype=np.float32).reshape(passes, -1, 2).transpose(0, 2, 1)
    bands = []
    for lid in label_ids:
        values = np.concatenate([s.values[lid] for s in subjects if lid in s.values])
        counts = np.concatenate([s.plane_counts[lid] if lid in s.values
                                 else np.zeros(s.planes, dtype=np.intp) for s in subjects])
        n = values.size
        pool = np.empty(passes * n, dtype=np.float32)
        for p in range(passes):
            bounds = ((window.lower, window.upper) if window is not None
                      else (np.repeat(e, counts) for e in ends[p]))
            pool[p * n:(p + 1) * n] = _kernels.window_normalize(values, *bounds)
        lo, hi = _tiled_percentile(pool, list(fit.percentiles),
                                   fit.epochs if window is not None else 1)
        del pool  # so that the next label's pool is not allocated while this one is held
        if hi - lo < 2.0 * fit.band_epsilon:
            mid = 0.5 * (lo + hi)
            lo, hi = mid - fit.band_epsilon, mid + fit.band_epsilon
        bands.append(Band(lid, float(lo), float(hi)))
    return BandSegmenter(bands, tie_break=fit.tie_break)


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
    the same floats and dtype, NaN included where the pool holds a NaN.

    It sorts ``values`` in place and reads the order statistics off it, where
    NumPy partitions the whole pool. A sorted and a partitioned array hold
    the same value at every index they are read at: both put NaN last, and
    only equal values may trade places, which changes no value here unless
    the pool mixes -0.0 and 0.0 (a windowed pool holds no -0.0). One sort
    is also faster than NumPy's partition at several indices at once,
    which leaves its SIMD selection for a scalar one.
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
    values.sort()
    a, b = values[first], values[second]
    t = virtual - prev
    diff = b - a
    result = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    if np.isnan(values[-1]):  # NaN sorts last; np.percentile then returns NaN throughout
        result[:] = values[-1]
    return result


@dataclass
class _Subject:
    """A (CtVolume, LabelVolume) pair as the fit (``_training_subject``) or the sweep reads it."""

    label_names: dict
    values: dict  # label id -> its voxel values as float32, in plane order or sorted
    plane_counts: dict = None  # training only: label id -> its voxel count in each plane
    planes: int = 0  # training only


def _entries(items, what):
    """``enumerate(items)``, or a ValueError naming ``what`` when ``items`` is no collection."""
    try:
        return enumerate(items)
    except TypeError:  # a bare CtVolume or LabelVolume, say
        raise ValueError(f"{what}: expected a collection of (CtVolume, LabelVolume) pairs, "
                         f"got {type(items).__name__}") from None


def _pair(entry, what):
    """``entry`` if it is a (CtVolume, LabelVolume) pair of equal dims, else a ValueError."""
    if not (isinstance(entry, (tuple, list)) and len(entry) == 2
            and isinstance(entry[0], CtVolume) and isinstance(entry[1], LabelVolume)):
        got = (f"({', '.join(type(e).__name__ for e in entry)})"
               if isinstance(entry, (tuple, list)) else type(entry).__name__)
        raise ValueError(f"{what}: expected a (CtVolume, LabelVolume) pair, got {got}")
    if entry[0].dims != entry[1].dims:
        raise ValueError(f"{what}: volume/label dims mismatch: {entry[0].dims} vs {entry[1].dims}")
    return entry


def _in_planes(voxels, mask, slice_axis):
    """The float32 values at ``mask`` in plane order along ``slice_axis``, and its plane counts."""
    mask = np.moveaxis(mask, slice_axis, 0)
    values = np.moveaxis(voxels, slice_axis, 0)[mask].astype(np.float32, copy=False)
    return values, mask.reshape(len(mask), -1).sum(axis=1)


def _training_subject(vol, lab, slice_axis):
    """Each nonzero id's values in plane order along ``slice_axis``, with its plane counts.

    The labels are copied into plane order once, so each id's mask is laid
    out plane by plane and its per-plane counts are row sums.
    """
    labels = np.ascontiguousarray(np.moveaxis(lab.voxels, slice_axis, 0))
    voxels = np.moveaxis(vol.voxels, slice_axis, 0)
    values, plane_counts = {}, {}
    for lid in lab.ids[lab.ids != 0].tolist():
        values[lid], plane_counts[lid] = _in_planes(voxels, labels == lid, 0)
    return _Subject(lab.label_names, values, plane_counts, labels.shape[0])


def _drawn_training_subject(cfg, names, organs, drawn, slice_axis):
    """``_training_subject`` of a phantom of ``cfg``, from its organs' ``_draws`` ``drawn``.

    ``names`` and ``organs`` are those of ``_layout(cfg)``; no label volume is
    read and no background value kept. Each organ's draws are laid onto its
    box's mask and read back through ``_in_planes``, as a pair's id mask is.
    """
    values, plane_counts = {}, {}
    for (organ, box, mask), drawn in zip(organs, drawn):
        if drawn.size:
            laid = np.empty(mask.shape, dtype=np.float32)  # only the mask's voxels are read
            laid[mask] = drawn
            values[organ.label_id], per_plane = _in_planes(laid, mask, slice_axis)
            counts = plane_counts[organ.label_id] = np.zeros(cfg.dims[slice_axis], per_plane.dtype)
            counts[box[slice_axis]] = per_plane
    return _Subject(names, dict(sorted(values.items())), dict(sorted(plane_counts.items())),
                    cfg.dims[slice_axis])


def _sorted_subject(names, values):
    """A subject as the sweep reads it: each id's nonempty float32 values, sorted in place."""
    values = {lid: v for lid, v in sorted(values.items()) if v.size}
    for v in values.values():
        v.sort()
    return _Subject(names, values)


def _test_subject(vol, lab):
    """A test pair as the sweep reads it (``_sorted_subject``)."""
    values = {lid: vol.voxels[lab.voxels == lid].astype(np.float32, copy=False)
              for lid in lab.ids.tolist()}
    return _sorted_subject(lab.label_names, values)


def _drawn_test_subject(names, organs, background, drawn):
    """``_test_subject`` of a phantom, from its ``_draws`` ``(background, drawn)``.

    ``names`` and ``organs`` are those of ``_layout``; the draws are the
    multisets of the phantom's id masks, and are sorted in place.
    """
    values = {organ.label_id: v for (organ, _, _), v in zip(organs, drawn)}
    return _sorted_subject(names, {0: background, **values})


@dataclass
class SweepRow:
    shift_hu: float
    strategy: str
    label_id: int
    label_name: str
    mean_dice: float


def run_shift_sweep(seg, test, strategy, shifts, strategy_label=None):
    """Mean dice per (shift, label) of a segmenter on shifted test volumes, as ``SweepRow``s.

    The rows come shift by shift, label ids ascending within a shift, each
    named ``strategy_label`` (a string) or, when it is None, ``strategy``.

    ``test`` holds (CtVolume, LabelVolume) pairs (``_test_subject``; a
    malformed entry is a ValueError naming it) or subjects that
    ``run_experiment`` built once for every strategy from the phantom draws:
    the label names, and the values of each id present sorted as float32.
    One loop takes the subjects in turn, reducing a pair when its turn
    comes, so one pair's sorted values are held at a time. It counts each
    subject's predicted, truth and overlap voxels per (shift, id) at the
    float32 shifts, off the per-label values since dice counts do not
    depend on where a voxel is, and ``metrics.dice_table`` turns them into
    dice for all 256 ids; the nonzero named ids are selected at the end.

    The counts are exact. The test-time map
    ``n(x) = window_normalize(f32(x) + f32(shift))`` is monotone
    non-decreasing in a voxel's value x: float32 addition rounds
    monotonically, and clip, subtract, add +0.0, multiply and divide by
    positives, and the 255 pin are all monotone. ``classify_bands`` looks at n only
    through tests that switch at most once as n grows: ``n >= lo_j`` and
    ``n > hi_j`` for every band, and in ``nearest_center`` mode one float64
    midpoint test per pair of bands (see ``_thresholds``). So at one shift
    the prediction is constant on each run of voxel values between the
    points where a test switches.
    ``_run_starts`` bisects float32 order keys for those points, probing
    with the real ``window_normalize`` and the kernels' comparisons, and
    labels each run with ``seg.predict`` on its first value; NaN voxels are
    a run of their own. ``_sorted_counts`` then counts each label's sorted
    values in each run with ``np.searchsorted``.
    """
    if not isinstance(seg, BandSegmenter):
        raise ValueError(f"seg: expected a BandSegmenter, got {seg!r}")
    if not test:
        raise ValueError("test set must be nonempty")
    entries = _entries(test, "test")
    shifts = shift_grid(shifts)
    window = strategy_window(strategy, "test")
    label = strategy if strategy_label is None else text(strategy_label, "strategy_label")
    shift32 = np.array([np.float32(s) for s in shifts], dtype=np.float32)
    counts_of = _sorted_counts(seg, window, shift32)

    label_names = {}
    tables = []
    for i, subject in entries:
        if not isinstance(subject, _Subject):
            subject = _test_subject(*_pair(subject, f"test[{i}]"))
        for lid, name in subject.label_names.items():
            if lid != 0:
                label_names.setdefault(lid, name)
        tables.append(dice_table(counts_of(subject)))

    label_ids = sorted(label_names)
    rows = []
    for i, shift in enumerate(shifts):
        means = np.array([table[i, label_ids] for table in tables]).mean(axis=0)
        for lid, mean in zip(label_ids, means):
            rows.append(SweepRow(shift, label, lid, label_names[lid],
                                 float(mean)))
    return rows


_NEG_INF_KEY = 0x007FFFFF  # order key of float32 -inf
_POS_INF_KEY = 0xFF800000  # order key of float32 +inf


def _key_values(keys):
    """float32 values of uint32 order keys, which sort like the values (-0.0 before 0.0)."""
    keys = np.asarray(keys, dtype=np.uint32)
    return np.where(keys & 0x80000000, keys & 0x7FFFFFFF, ~keys).view(np.float32)


def _thresholds(seg):
    """The tests classify_bands makes on n, each as a threshold that n crosses upward.

    Test t holds where ``n > at[t]`` if ``above[t]``, else where
    ``n >= at[t]``, for float64 ``at``, which a float32 n meets exactly:
    ``n >= lo_j``, then ``n > hi_j``, then in ``nearest_center`` mode, for
    each pair j < k, band k's test against band j at their float64 midpoint
    m_jk: ``n > m_jk`` if c_k > c_j, else ``n >= m_jk``, which switches
    where the kernel's ``n < m_jk`` does.
    """
    n_bands = len(seg.bands)
    j, k = np.triu_indices(n_bands if seg.tie_break == "nearest_center" else 0, 1)
    center = seg._center.astype(np.float64)
    at = np.concatenate([seg._lo, seg._hi, 0.5 * (center[j] + center[k])])
    above = np.concatenate([np.repeat([False, True], n_bands), center[k] > center[j]])
    return at, above


def _run_starts(seg, window, shift32):
    """Per shift, the first values of the runs on which the prediction is constant.

    Returns float32 (shifts, tests + 2), each row ascending: -inf, then the
    smallest value at which each test switches (NaN for a test that never
    does), then NaN, which starts the run of NaN voxels.
    """
    at, above = _thresholds(seg)

    def holds(keys):
        n = _kernels.window_normalize(_key_values(keys) + shift32, window.lower, window.upper)
        return np.where(above, n > at, n >= at)

    lo = np.full((shift32.shape[0], at.size), _NEG_INF_KEY, dtype=np.int64)
    hi = np.full_like(lo, _POS_INF_KEY)
    switches = holds(hi) & ~holds(lo)
    for _ in range(32):  # where a test switches, false at lo and true at hi; ends hi - lo == 1
        mid = (lo + hi) // 2
        up = holds(mid)
        lo = np.where(up, lo, mid)
        hi = np.where(up, mid, hi)
    starts = np.sort(np.where(switches, _key_values(hi), np.float32(np.nan)), axis=1)
    edge = np.ones((len(starts), 1), dtype=np.float32)
    return np.hstack([-np.inf * edge, starts, np.nan * edge])


def _sorted_counts(seg, window, shift32):
    """The counts of a test subject, read off its sorted values.

    Returns a function of the subject; its counts have shape (3, shifts,
    256): predicted, truth and overlap voxels per (shift, id).
    """
    shift32 = shift32[:, None]
    starts = _run_starts(seg, window, shift32)
    run_labels = seg.predict(_kernels.window_normalize(starts + shift32,
                                                       window.lower, window.upper))
    rows = np.arange(len(shift32))[:, None]

    def counts_of(subject):
        counts = np.zeros((3, len(shift32), 256), dtype=np.int64)
        for lid, values in subject.values.items():
            counts[1, :, lid] = values.size
            ends = np.searchsorted(values, starts.ravel()).reshape(starts.shape)
            in_run = np.diff(ends, axis=1, append=values.size)
            np.add.at(counts[0], (rows, run_labels), in_run)
            counts[2, :, lid] = np.where(run_labels == lid, in_run, 0).sum(axis=1)
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
class FitParams:
    epochs: int = 12
    percentiles: tuple = (1.0, 99.0)
    band_epsilon: float = 0.5
    tie_break: str = "lowest_id"

    def __post_init__(self):
        self.epochs = number(self.epochs, "epochs", whole=True, lo=1)
        lo, hi = self.percentiles = number_list(self.percentiles, "percentiles", 2, lo=0, hi=100)
        if not lo < hi:
            raise ValueError(f"percentiles: expected 0 <= lo < hi <= 100, got {[lo, hi]!r}")
        number(self.band_epsilon, "band_epsilon", lo=0, hi=FLOAT32_MAX)
        one_of(self.tie_break, "tie_break", _kernels.TIE_BREAKS)


def _fit_params(fit):
    if not isinstance(fit, FitParams):
        raise ValueError(f"fit: expected a FitParams, got {fit!r}")
    return fit


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
