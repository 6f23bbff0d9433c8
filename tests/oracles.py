"""Independent reference implementations used to freeze expected values.

These deliberately use the most literal formulation available (full
enumeration, O(n^2) loops, triple voxel loops, per-element loops on float32
scalars) and share no code with the library paths they check. The per-plane sweep and fit are the plain
slice-by-slice formulation that the whole-volume sweep and fit replaced;
they are built from the 2D slice API only.
"""

import itertools

import numpy as np
from scipy.stats import norm, rankdata

from ctwindow.metrics import multi_label_dice
from ctwindow.simulation import Band, SweepRow
from ctwindow.volume import LabelVolume, extract_slice, shift_intensity, stack_slices
from ctwindow.windowing import WindowSampler, normalize_for_testing, normalize_for_training


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


def window_pseudocode(image, level, width):
    """The windowing recipe evaluated directly: threshold masks then rescale."""
    image = np.asarray(image, dtype=np.float32).copy()
    max_threshold = np.float32(level + width)
    min_threshold = np.float32(level - width)
    image[image > max_threshold] = max_threshold
    image[image < min_threshold] = min_threshold
    return np.float32(255.0) * (image - min_threshold) / (max_threshold - min_threshold)


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


def per_plane_fit_bands(training, strategy, swn, epochs, percentiles, band_epsilon,
                        slice_axis):
    """Percentile bands pooled plane by plane, one training normalization per plane."""
    label_ids = sorted({lid for _, lab in training for lid in lab.label_names if lid != 0})
    sampler = WindowSampler(swn) if strategy == "SWN" else None
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
    mode 1: the containing band with the strictly nearest center, so an
    equidistant later band never displaces an earlier one.
    """
    lo, hi, center = (np.asarray(x, dtype=np.float32) for x in (lo, hi, center))
    out = np.zeros(len(src), dtype=np.uint8)
    for i, v in enumerate(np.asarray(src, dtype=np.float32)):
        best = np.float32(np.inf)
        for j in range(len(label)):
            if lo[j] <= v <= hi[j]:
                if mode == 0:
                    out[i] = label[j]
                    break
                d = abs(v - center[j])
                if d < best:
                    best = d
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
