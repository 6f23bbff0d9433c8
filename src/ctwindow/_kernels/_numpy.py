"""Pure-NumPy implementations of the voxel hot loops.

Each function takes flat arrays and writes into a caller-allocated output
buffer. Its result equals, bit for bit, the per-element scalar loop
``scalar_<name>`` in ``tests/oracles.py``; keep the float32 operation order
when changing one.
"""

import numpy as np

_F255 = np.float32(255.0)
_F0 = np.float32(0.0)
_PAIR_SLAB = 1 << 16


def window_normalize(src, lo, hi, out):
    """out = 255 * (clip(src, lo, hi) - lo) / (hi - lo), clamped to [0, 255].

    Saturated inputs are pinned to exactly 0 / 255; the scaled expression
    can otherwise round 1 ulp short of 255.
    """
    if np.may_share_memory(src, out):  # the pins below read src after out is written
        src = src.copy()
    np.clip(src, lo, hi, out=out)
    out -= lo
    out *= _F255
    out /= hi - lo
    np.clip(out, _F0, _F255, out=out)
    out[src <= lo] = _F0
    out[src >= hi] = _F255


def classify_bands(src, lo, hi, center, label, mode, out):
    """Assign each value the label of a band containing it, 0 if none.

    mode 0: first containing band in the given order wins (bands are passed
    sorted by ascending label id). mode 1: containing band with the nearest
    center wins; equal distances fall back to the first (lowest id).
    """
    out[:] = 0
    n_bands = label.shape[0]
    if mode == 0:
        assigned = np.zeros(src.shape, dtype=bool)
        for j in range(n_bands):
            hit = ~assigned & (src >= lo[j]) & (src <= hi[j])
            out[hit] = label[j]
            assigned |= hit
    else:
        best = np.full(src.shape, np.float32(np.inf), dtype=np.float32)
        for j in range(n_bands):
            dist = np.abs(src - center[j])
            hit = (src >= lo[j]) & (src <= hi[j]) & (dist < best)
            out[hit] = label[j]
            best[hit] = dist[hit]


def label_overlap_counts(a, b, counts):
    """Per-label voxel counts: counts[0]=|a==k|, counts[1]=|b==k|, counts[2]=|a==k & b==k|.

    One joint histogram of the (a, b) pairs per slab; the three rows are its
    row sums, column sums and diagonal. Slabs bound the intp copy that
    ``np.bincount`` makes of its input.
    """
    joint = np.zeros(1 << 16, dtype=np.int64)
    for start in range(0, a.shape[0], _PAIR_SLAB):
        pairs = a[start:start + _PAIR_SLAB].astype(np.uint16)
        pairs <<= 8
        pairs |= b[start:start + _PAIR_SLAB]
        joint += np.bincount(pairs, minlength=1 << 16)
    joint = joint.reshape(256, 256)
    counts[0, :] = joint.sum(axis=1)
    counts[1, :] = joint.sum(axis=0)
    counts[2, :] = joint.diagonal()
