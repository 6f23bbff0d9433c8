"""The voxel hot loops, in plain NumPy.

Each kernel takes arrays of any shape and memory layout and returns its
result. Each result equals, bit for bit, the per-element scalar loop
``scalar_<name>`` in ``tests/oracles.py``; keep the float32 operation order
when changing one.
"""

import sys

import numpy as np

BACKEND = "numpy"  # perfbench/child.py records it in each run's environment
_backend = sys.modules[__name__]  # perfbench/child.py times the kernels through it

_F255 = np.float32(255.0)
_F0 = np.float32(0.0)
_PAIR_SLAB = 1 << 16


def window_normalize(values, lo, hi):
    """255 * (clip(values, lo, hi) - lo) / (hi - lo) as float32, clamped to [0, 255].

    ``lo`` and ``hi`` are scalars, or arrays that broadcast to the values'
    shape without widening it, such as one bound per plane laid along the
    plane axis; each is rounded to float32 before any arithmetic. Bounds
    of any other shape are a ValueError. Every value takes the same float32
    steps with its own bounds, so windowing many planes at once with
    per-plane bounds gives the bytes of one call per plane. Saturated
    inputs are pinned to exactly 0 / 255; the scaled expression can
    otherwise round 1 ulp short of 255. The result keeps the values'
    memory layout, so an F-ordered volume stays F-ordered.
    """
    values = np.asarray(values)
    lo = np.asarray(lo, dtype=np.float32)
    hi = np.asarray(hi, dtype=np.float32)
    try:
        fits = np.broadcast_shapes(values.shape, lo.shape, hi.shape) == values.shape
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"bounds of shapes {lo.shape} and {hi.shape} do not broadcast "
                         f"to the values' shape {values.shape}")
    src = values.astype(np.float32, copy=False)
    out = np.clip(src, lo, hi)
    out -= lo
    out *= _F255
    out /= hi - lo
    np.clip(out, _F0, _F255, out=out)
    out[src <= lo] = _F0
    out[src >= hi] = _F255
    return out


def classify_bands(values, lo, hi, center, labels, tie_break="lowest_id"):
    """uint8 label of a band containing each value, 0 where none does.

    ``tie_break="lowest_id"``: the first containing band in the given order
    wins (bands are passed sorted by ascending label id).
    ``"nearest_center"``: the containing band with the nearest center wins;
    equal distances fall back to the first (lowest id).
    """
    if tie_break not in ("lowest_id", "nearest_center"):
        raise ValueError(f"unknown tie_break {tie_break!r}")
    src = np.asarray(values, dtype=np.float32)
    lo, hi, center = (np.asarray(b, dtype=np.float32) for b in (lo, hi, center))
    labels = np.asarray(labels, dtype=np.uint8)
    out = np.zeros_like(src, dtype=np.uint8)
    if tie_break == "lowest_id":
        assigned = np.zeros_like(src, dtype=bool)
        for j in range(labels.shape[0]):
            hit = ~assigned & (src >= lo[j]) & (src <= hi[j])
            out[hit] = labels[j]
            assigned |= hit
    else:
        best = np.full_like(src, np.inf)
        for j in range(labels.shape[0]):
            dist = np.abs(src - center[j])
            hit = (src >= lo[j]) & (src <= hi[j]) & (dist < best)
            out[hit] = labels[j]
            best[hit] = dist[hit]
    return out


def label_overlap_counts(a, b):
    """Counts per uint8 label id: (|a==k|, |b==k|, |a==k & b==k|), shape (3, 256).

    One joint histogram of the (a, b) pairs per slab; the three rows are its
    row sums, column sums and diagonal. Slabs bound the intp copy that
    ``np.bincount`` makes of its input.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    # Ravel both in F order when both are F-ordered, as loaded CTV volumes
    # are, else in C order: raveling an F-ordered volume in C order would
    # copy it whole, and the counts do not depend on the order.
    order = "F" if all(x.flags.f_contiguous and not x.flags.c_contiguous
                       for x in (a, b)) else "C"
    a = np.asarray(a, dtype=np.uint8, order=order).ravel(order)
    b = np.asarray(b, dtype=np.uint8, order=order).ravel(order)
    joint = np.zeros(1 << 16, dtype=np.int64)
    for start in range(0, a.size, _PAIR_SLAB):
        pairs = a[start:start + _PAIR_SLAB].astype(np.uint16)
        pairs <<= 8
        pairs |= b[start:start + _PAIR_SLAB]
        joint += np.bincount(pairs, minlength=1 << 16)
    joint = joint.reshape(256, 256)
    return np.stack([joint.sum(axis=1), joint.sum(axis=0), joint.diagonal()])
