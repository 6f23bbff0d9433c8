"""The voxel hot loops, in plain NumPy.

Each kernel takes arrays of any shape and memory layout and returns its
result. Each result equals, bit for bit, the per-element scalar loop
``scalar_<name>`` in ``tests/oracles.py``; keep the float32 operation order
when changing one.
"""

import sys

import numpy as np

from ._checks import one_of

BACKEND = "numpy"  # perfbench/child.py records it in each run's environment
_backend = sys.modules[__name__]  # perfbench/child.py times the kernels through it

_F255 = np.float32(255.0)
_F0 = np.float32(0.0)
# Values per slab of every label count and of the phantom's background draw; it
# bounds the intp copy np.bincount makes of a slab.
SLAB = 1 << 16
# A slab in which fewer than 1/RUN_SPARSITY of the values start a run of equal
# values is read run by run; a denser one is histogrammed voxel by voxel.
RUN_SPARSITY = 8
TIE_BREAKS = ("lowest_id", "nearest_center")  # the two rules of classify_bands


def window_normalize(values, lo, hi):
    """255 * (clip(values, lo, hi) - lo) / (hi - lo) as float32, clamped to [0, 255].

    ``lo`` and ``hi`` are scalars, or arrays that broadcast to the values'
    shape without widening it, such as one bound per plane laid along the
    plane axis; each is rounded to float32 before any arithmetic, and each
    pair must be finite with lo < hi. Bounds of any other shape are a
    ValueError. Every value takes the same float32 steps with its own
    bounds, so windowing many planes at once with per-plane bounds gives
    the bytes of one call per plane. Values >= hi are pinned to exactly
    255, which the scaled expression can miss by 1 ulp. Values <= lo need
    no pin: they clip to lo, and lo - lo scales to exactly 0. The result
    keeps the values' memory layout, so an F-ordered volume stays F-ordered.

    The result is the only full-size float array a call makes: values of
    another dtype are converted to float32 once, the pin's mask is taken
    from that copy, and the copy is windowed in place. Besides the input,
    a call holds 5 bytes per voxel at its peak.
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
    # the pin compares float32 values; NumPy 1.24 compares uint8 with 0-d float32 in float16
    at_hi = src >= hi
    # a converted copy is windowed in place; a float32 input is never written to
    out = np.clip(src, lo, hi, out=None if src is values else src)
    out -= lo
    out += _F0  # clip keeps -0.0 at lo = +0.0, and -0.0 - 0.0 is -0.0; this makes it +0.0
    out *= _F255
    out /= hi - lo
    np.clip(out, _F0, _F255, out=out)
    np.copyto(out, _F255, where=at_hi)
    return out


def classify_bands(values, lo, hi, center, labels, tie_break="lowest_id"):
    """uint8 label of a band containing each value, 0 where none does.

    ``tie_break="lowest_id"``: the first containing band in the given order
    wins (bands are passed sorted by ascending label id).
    ``"nearest_center"``: scanning the containing bands in the given order,
    band j takes a value from the band b holding it only where the value
    lies strictly on j's side of ``m = 0.5 * (f64(c_b) + f64(c_j))``: below
    m if c_j < c_b, above m if c_j > c_b. Equal centers and a value at m
    stay with b. Every comparison is exact, and m is the exact midpoint
    unless one center is below about 2**-29 of the other.
    """
    one_of(tie_break, "tie_break", TIE_BREAKS)
    src = np.asarray(values, dtype=np.float32)
    lo, hi, center = (np.asarray(b, dtype=np.float32) for b in (lo, hi, center))
    labels = np.asarray(labels, dtype=np.uint8)
    out = np.zeros_like(src, dtype=np.uint8)
    if tie_break == "lowest_id":
        # the first band is written last, so it wins wherever bands overlap
        for j in reversed(range(labels.shape[0])):
            out[(src >= lo[j]) & (src <= hi[j])] = labels[j]
    else:
        # float64 center of each value's band, NaN before any; an array, so NumPy < 2 keeps m f64
        best = np.full(src.shape, np.nan)
        for j, c in enumerate(center.astype(np.float64)):
            mid = 0.5 * (best + c)
            hit = (src >= lo[j]) & (src <= hi[j]) & (
                np.isnan(best) | ((c < best) & (src < mid)) | ((c > best) & (src > mid)))
            out[hit] = labels[j]
            best[hit] = c
    return out


def label_overlap_counts(a, b):
    """Counts per uint8 label id: (|a==k|, |b==k|, |a==k & b==k|), shape (3, 256).

    One joint count of the ``(a << 8) | b`` pairs per slab of SLAB voxels
    (see ``_add_counts``); the three rows are its row sums, column sums and
    diagonal.
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
    for start in range(0, a.size, SLAB):
        pairs = a[start:start + SLAB].astype(np.uint16)
        pairs <<= 8
        pairs |= b[start:start + SLAB]
        _add_counts(joint, pairs)
    joint = joint.reshape(256, 256)
    return np.stack([joint.sum(axis=1), joint.sum(axis=0), joint.diagonal()])


def label_counts(labels):
    """int64 voxel count of each uint8 id, shape (256,).

    The array is read once in memory order (a C-order ravel would copy a
    loaded, F-ordered volume whole), in slabs of SLAB voxels (see
    ``_add_counts``).
    """
    flat = np.asarray(labels).ravel(order="K")
    counts = np.zeros(256, dtype=np.int64)
    for start in range(0, flat.size, SLAB):
        _add_counts(counts, flat[start:start + SLAB])
    return counts


def _add_counts(counts, slab):
    """Add to ``counts`` how often each value occurs in a nonempty 1-D slab.

    Label volumes are piecewise constant, and ``np.bincount`` stalls on one
    counter over a long run of one value, so a slab with few runs (see
    ``run_starts``) adds each run's length to its value; any other slab is
    histogrammed. Either way each value is counted once, so the counts do
    not depend on how an array is cut into slabs or which side each takes.
    """
    heads = run_starts(slab)
    if heads is None:
        counts += np.bincount(slab, minlength=counts.size)
    else:
        # each run's length; np.diff(heads, append=...) costs five times more per slab
        np.add.at(counts, slab[heads], np.concatenate((heads[1:], [slab.size])) - heads)


def run_starts(flat):
    """Ascending start index of each run of equal values in a nonempty 1-D array.

    None when 1/RUN_SPARSITY or more of the values start a run: then one
    histogram of the values costs less than reading them run by run.
    """
    change = flat[1:] != flat[:-1]
    if (np.count_nonzero(change) + 1) * RUN_SPARSITY >= flat.size:
        return None
    heads = np.flatnonzero(change)
    heads += 1
    return np.concatenate(([0], heads))
