"""The segmenter: per-label percentile bands fitted in normalized-intensity space.

``BandSegmenter`` labels each voxel by its intensity alone, so its shift
tolerance is determined entirely by the normalization strategy it was
trained under. ``fit_band_segmenter(training, strategy, swn=None, fit=None,
slice_axis=2)`` takes every fit setting from one ``FitParams`` (None:
``FitParams()``, 12 epochs) and pools the training subjects
(``phantom._training_subject``) in one loop, on the calling thread alone.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._checks import FLOAT32_MAX, number, number_list, one_of
from .phantom import _entries, _pair, _Subject, _training_subject
from .windowing import WindowSampler, strategy_window


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
    if not subjects:  # an empty generator
        raise ValueError("training set must be nonempty")
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
        level = np.array([w.level for w in drawn])
        half_width = np.array([w.half_width for w in drawn])
        # WindowSpec.lower and .upper's float64 arithmetic, then rounded to float32
        ends = np.stack([level - half_width, level + half_width]).astype(
            np.float32).reshape(2, passes, -1).transpose(1, 0, 2)
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

    It partitions ``values`` in place at each needed rank ``first``, in
    ascending order, each call on the part right of the rank before, where
    NumPy partitions the whole pool at all its ranks at once. Then the part
    from each rank on holds the order statistics from that rank on, so the
    ``second`` statistic, at the same rank or the next one, is the minimum
    of the part from it on. Where ``values`` holds a NaN, its ``max`` is
    NaN and so is every result, as with ``np.percentile``.
    The values read are those a sort or NumPy's partition puts at those
    indices: only equal values may trade places, which changes no value
    here unless the pool mixes -0.0 and 0.0 (a windowed pool holds no
    -0.0). One sort is faster than NumPy's partition at several indices at
    once, which leaves its SIMD selection for a scalar one, but a partition
    at a single index is faster than a sort.
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
    start = 0
    for rank in sorted(set(first.tolist())):  # np.unique would import numpy.ma, +1 MiB RSS
        values[start:].partition(rank - start)
        start = rank + 1
    a = values[first]
    b = np.array([values[rank:].min() for rank in second.tolist()], dtype=values.dtype)
    t = virtual - prev
    diff = b - a
    result = np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)
    top = values.max()
    if np.isnan(top):  # np.percentile returns NaN throughout where the pool holds one
        result[:] = top
    return result
