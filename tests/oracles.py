"""Independent reference implementations used to freeze expected values.

These deliberately use the most literal formulation available (full
enumeration, O(n^2) loops, triple voxel loops, per-element loops on float32
scalars) and share no code with the library paths they check. The per-plane
sweep and fit are the plain slice-by-slice formulation that the whole-volume
sweep and fit replaced, and ``per_slice_swn_window`` is the slice-by-slice
SWN ``window`` command that one broadcast kernel call replaced; all three
are built from the 2D slice API only. The per-plane fit and the SWN
``window`` oracle draw their windows from ``ScalarWindowSampler``, two
scalar ``Generator.normal`` calls per window, which is what
``WindowSampler``'s buffered draws replaced. ``full_range_run_starts`` is
the sweep's run-start search as it was before each search started from a
guessed bracket: 32 bisection steps over the whole float32 key range for
every (shift, test). ``scipy_augment_pair`` is the
augmentation the crop-only NumPy resampler replaced: two full-plane
``scipy.ndimage.affine_transform`` passes, then a crop/pad.
"""

import itertools
import math

import numpy as np
from scipy import ndimage
from scipy.stats import norm, rankdata

from ctwindow import _kernels
from ctwindow.metrics import multi_label_dice
from ctwindow.model import Band
from ctwindow.sweep import SweepRow, _thresholds
from ctwindow.volume import LabelVolume, Slice2D, extract_slice, shift_intensity, stack_slices
from ctwindow.windowing import (SOFT_TISSUE_HALF_WIDTH, SOFT_TISSUE_LEVEL, W_MIN, SwnParams,
                                WindowSpec, _check_window, apply_window, normalize_for_testing,
                                normalize_for_training)


def brute_force_wilcoxon_p(diffs):
    """Two-sided exact p over all 2^n sign assignments of the |d| ranks."""
    diffs = np.asarray(diffs, dtype=np.float64)
    diffs = diffs[diffs != 0.0]
    ranks = rankdata(np.abs(diffs))
    n = ranks.size
    observed = ranks[diffs > 0].sum()
    stats = []
    for signs in itertools.product((0, 1), repeat=n):
        stats.append(sum(r for r, s in zip(ranks, signs) if s))
    stats = np.asarray(stats)
    total = stats.size
    p_le = np.count_nonzero(stats <= observed) / total
    p_ge = np.count_nonzero(stats >= observed) / total
    return min(1.0, 2.0 * min(p_le, p_ge))


def scipy_normal_approx_p(diffs):
    """Two-sided normal-approximation p on scipy.stats' mid-ranks and normal tail.

    Continuity and tie-variance corrections as in ``ctwindow.stats``; the tie
    groups are counted afresh from the ranks.
    """
    d = np.asarray(diffs, dtype=np.float64)
    d = d[d != 0.0]
    n = d.size
    ranks = rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    _, ties = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ((ties ** 3 - ties).sum()) / 48.0
    dev = w_plus - n * (n + 1) / 4.0
    dev -= 0.5 * np.sign(dev)
    return min(1.0, 2.0 * float(norm.sf(abs(dev / np.sqrt(var)))))


def stepup_fdr(p_values, m):
    """Literal BH step-up: adj_(i) = min(1, min_{j>=i} p_(j) * m / (j+1))."""
    p = list(p_values)
    order = sorted(range(len(p)), key=lambda i: p[i])
    adjusted = [None] * len(p)
    for pos, idx in enumerate(order):
        best = 1.0
        for later in range(pos, len(order)):
            candidate = p[order[later]] * m / (later + 1)
            best = min(best, candidate)
        adjusted[idx] = min(1.0, best)
    return adjusted


def triple_loop_dice(pred, truth, labels):
    """Per-label dice via explicit voxel loops."""
    nx, ny, nz = pred.shape
    out = {}
    for label in labels:
        count_pred = count_truth = count_both = 0
        for x in range(nx):
            for y in range(ny):
                for z in range(nz):
                    p = pred[x, y, z] == label
                    t = truth[x, y, z] == label
                    count_pred += p
                    count_truth += t
                    count_both += p and t
        denom = count_pred + count_truth
        out[label] = 1.0 if denom == 0 else 2.0 * count_both / denom
    return out


def dice_from_counts(counts, label_id):
    """Dice of one label from (predicted, truth, overlap) counts of shape (3, 256), one scalar."""
    denom = counts[0, label_id] + counts[1, label_id]
    return 1.0 if denom == 0 else float(2.0 * counts[2, label_id] / denom)


def window_pseudocode(image, level, width):
    """The windowing recipe evaluated directly: threshold masks then rescale."""
    image = np.asarray(image, dtype=np.float32).copy()
    max_threshold = np.float32(level + width)
    min_threshold = np.float32(level - width)
    image[image > max_threshold] = max_threshold
    image[image < min_threshold] = min_threshold
    return np.float32(255.0) * (image - min_threshold) / (max_threshold - min_threshold)


class ScalarWindowSampler:
    """``WindowSampler`` one scalar ``Generator.normal`` draw at a time, level first.

    Each window takes the full ``_check_window`` before it is built.
    """

    def __init__(self, params):
        self.params = params
        self._rng = np.random.default_rng(params.seed)

    def sample(self):
        level = self._rng.normal(SOFT_TISSUE_LEVEL, self.params.sigma_level)
        half_width = max(abs(self._rng.normal(SOFT_TISSUE_HALF_WIDTH, self.params.sigma_width)),
                         W_MIN)
        _check_window(level, half_width)
        return WindowSpec(level, half_width)


def per_plane_sweep(seg, test, strategy, shifts, slice_axis):
    """Sweep rows from one prediction per plane along ``slice_axis``, serially."""
    label_names = {}
    for _, lab in test:
        for lid, name in lab.label_names.items():
            if lid != 0:
                label_names.setdefault(lid, name)
    label_ids = sorted(label_names)
    rows = []
    for shift in shifts:
        scores = []
        for vol, lab in test:
            shifted = shift_intensity(vol, shift)
            planes = [seg.predict(normalize_for_testing(
                extract_slice(shifted, slice_axis, index), strategy).values)
                for index in range(shifted.dims[slice_axis])]
            pred = LabelVolume(stack_slices(planes, slice_axis), label_names=label_names)
            scores.append([r.dice for r in multi_label_dice(pred, lab, label_ids)])
        means = np.array(scores, dtype=np.float64).mean(axis=0)
        rows.extend(SweepRow(shift, strategy, lid, label_names[lid], float(mean))
                    for lid, mean in zip(label_ids, means))
    return rows


def full_range_run_starts(seg, window, shift32):
    """``sweep._run_starts`` by 32 bisection steps over every float32 key, for every test.

    ``shift32`` is a float32 column of shifts. The tests are the library's
    ``_thresholds``; each (shift, test) is bisected from the keys of -inf
    and +inf, whether it switches or not, with the real window kernel.
    """
    at, above = _thresholds(seg)

    def values(keys):
        keys = np.asarray(keys, dtype=np.uint32)
        return np.where(keys & 0x80000000, keys & 0x7FFFFFFF, ~keys).view(np.float32)

    def holds(keys):
        with np.errstate(over="ignore"):  # a test that never switches is probed near +-FLT_MAX
            shifted = values(keys) + shift32
        n = _kernels.window_normalize(shifted, window.lower, window.upper)
        return np.where(above, n > at, n >= at)

    lo = np.full((shift32.shape[0], at.size), 0x007FFFFF, dtype=np.int64)  # -inf
    hi = np.full_like(lo, 0xFF800000)  # +inf
    switches = holds(hi) & ~holds(lo)
    for _ in range(32):
        mid = (lo + hi) // 2
        up = holds(mid)
        lo = np.where(up, lo, mid)
        hi = np.where(up, mid, hi)
    starts = np.sort(np.where(switches, values(hi), np.float32(np.nan)), axis=1)
    edge = np.ones((len(starts), 1), dtype=np.float32)
    return np.hstack([-np.inf * edge, starts, np.nan * edge])


def per_plane_fit_bands(training, strategy, swn, epochs, percentiles, band_epsilon,
                        slice_axis):
    """Percentile bands pooled plane by plane, one training normalization per plane."""
    label_ids = sorted({lid for _, lab in training for lid in lab.label_names if lid != 0})
    sampler = ScalarWindowSampler(swn) if strategy == "SWN" else None
    pools = {lid: [] for lid in label_ids}
    for _ in range(epochs):
        for vol, lab in training:
            for index in range(vol.dims[slice_axis]):
                normalized = normalize_for_training(
                    extract_slice(vol, slice_axis, index), strategy, sampler)
                plane = np.take(lab.voxels, index, axis=slice_axis)
                for lid in label_ids:
                    pools[lid].append(normalized.values[plane == lid])
    bands = []
    for lid in label_ids:
        lo, hi = np.percentile(np.concatenate(pools[lid]), list(percentiles))
        if hi - lo < 2.0 * band_epsilon:
            mid = 0.5 * (lo + hi)
            lo, hi = mid - band_epsilon, mid + band_epsilon
        bands.append(Band(lid, float(lo), float(hi)))
    return bands


def per_slice_swn_window(volume, axis, x, y, seed):
    """``window --strategy SWN --mode train``, one slice at a time: voxels and JSON lines."""
    sampler = ScalarWindowSampler(SwnParams(x, y, seed=seed))
    windows = [sampler.sample() for _ in range(volume.dims[axis])]
    voxels = stack_slices([apply_window(extract_slice(volume, axis, index), w).values
                           for index, w in enumerate(windows)], axis)
    lines = [{"slice": index, "level": w.level, "half_width": w.half_width}
             for index, w in enumerate(windows)]
    return voxels, lines


def full_volume_phantom(cfg):
    """A phantom's voxels, labels and label names, each organ masked over the whole volume."""
    rng = np.random.default_rng(cfg.seed)
    voxels = rng.normal(cfg.background_hu, cfg.background_noise_std,
                        size=cfg.dims).astype(np.float32)
    labels = np.zeros(cfg.dims, dtype=np.uint8)
    grids = np.ogrid[tuple(slice(0.0, d) for d in cfg.dims)]
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
    return voxels, labels, names


def scalar_window_normalize(src, lo, hi):
    """The window kernel one float32 value at a time: pin saturated values, else scale."""
    lo, hi = np.float32(lo), np.float32(hi)
    den = hi - lo
    out = np.empty(len(src), dtype=np.float32)
    for i, v in enumerate(np.asarray(src, dtype=np.float32)):
        if v <= lo:
            out[i] = np.float32(0.0)
        elif v >= hi:
            out[i] = np.float32(255.0)
        else:
            v = (v - lo) * np.float32(255.0) / den
            if v < np.float32(0.0):
                v = np.float32(0.0)
            elif v > np.float32(255.0):
                v = np.float32(255.0)
            out[i] = v
    return out


def scalar_classify_bands(src, lo, hi, center, label, mode):
    """Band labels one float32 value at a time.

    mode 0: the first band in the given order that contains the value.
    mode 1: scanning the containing bands in order, a band takes the value
    from the one holding it only where the value lies strictly on its side
    of the midpoint of their centers, in Python floats (float64), so an
    equidistant later band never displaces an earlier one.
    """
    lo, hi, center = (np.asarray(x, dtype=np.float32) for x in (lo, hi, center))
    out = np.zeros(len(src), dtype=np.uint8)
    for i, v in enumerate(np.asarray(src, dtype=np.float32)):
        best = None  # the center of the band holding v
        for j in range(len(label)):
            if lo[j] <= v <= hi[j]:
                if mode == 0:
                    out[i] = label[j]
                    break
                c, x = float(center[j]), float(v)
                if best is None or (c < best and x < 0.5 * (best + c)) or \
                        (c > best and x > 0.5 * (best + c)):
                    best = c
                    out[i] = label[j]
    return out


def scalar_label_overlap_counts(a, b):
    """(|a==k|, |b==k|, |a==k & b==k|) per uint8 label id, counted pair by pair."""
    counts = np.zeros((3, 256), dtype=np.int64)
    for va, vb in zip(np.asarray(a).tolist(), np.asarray(b).tolist()):
        counts[0, va] += 1
        counts[1, vb] += 1
        if va == vb:
            counts[2, va] += 1
    return counts


def _rotate_translate(plane, angle_deg, shift, order, cval):
    if angle_deg == 0.0 and shift == (0.0, 0.0):
        return plane.copy()
    theta = math.radians(angle_deg)
    cos, sin = math.cos(theta), math.sin(theta)
    rot = np.array([[cos, -sin], [sin, cos]])
    center = (np.asarray(plane.shape, dtype=np.float64) - 1.0) / 2.0
    # content moves by F(p) = R (p - c) + c + t; resampling pulls back via F^-1
    inv = rot.T
    offset = center - inv @ (center + np.asarray(shift))
    return ndimage.affine_transform(plane, inv, offset=offset, order=order,
                                    mode="constant", cval=cval, prefilter=False)


def _crop_or_pad(plane, target, origin_fracs, pad_value):
    out = plane
    for axis in range(2):
        deficit = target[axis] - out.shape[axis]
        if deficit > 0:
            before = deficit // 2
            pads = [(0, 0), (0, 0)]
            pads[axis] = (before, deficit - before)
            out = np.pad(out, pads, mode="constant", constant_values=pad_value)
    starts = []
    for axis in range(2):
        slack = out.shape[axis] - target[axis]
        starts.append(int(np.floor(origin_fracs[axis] * (slack + 1))) if slack > 0 else 0)
    return out[starts[0]:starts[0] + target[0], starts[1]:starts[1] + target[1]].copy()


def scipy_augment_pair(img, lab, cfg, rng):
    """``augmentation.augment_pair`` as two full-plane ``scipy.ndimage`` passes and a crop/pad."""
    lab = np.asarray(lab, dtype=np.uint8)
    if img.dims != lab.shape:
        raise ValueError(f"image/label dims mismatch: {img.dims} vs {lab.shape}")

    angle = float(rng.uniform(-cfg.max_rotation_deg, cfg.max_rotation_deg)) \
        if cfg.max_rotation_deg > 0 else 0.0
    shift = tuple(
        float(rng.uniform(-t, t)) if t > 0 else 0.0 for t in cfg.max_translation
    )
    origin_fracs = (float(rng.random()), float(rng.random()))

    moved_img = _rotate_translate(img.values, angle, shift, order=1,
                                  cval=np.float32(cfg.pad_value_image))
    moved_lab = _rotate_translate(lab, angle, shift, order=0,
                                  cval=cfg.pad_value_label)
    out_img = _crop_or_pad(moved_img, cfg.crop_size, origin_fracs, cfg.pad_value_image)
    out_lab = _crop_or_pad(moved_lab, cfg.crop_size, origin_fracs, cfg.pad_value_label)
    return Slice2D(out_img), out_lab.astype(np.uint8)
