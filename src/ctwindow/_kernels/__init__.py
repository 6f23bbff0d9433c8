"""Array-shaped wrappers around the voxel kernels in ``_numpy``.

The kernels are plain NumPy and take flat arrays and caller-allocated
outputs; the wrappers here accept arrays of any shape and memory layout.
``tests/oracles.py`` holds per-element scalar loops that each kernel must
match bit for bit.
"""

import numpy as np

from . import _numpy as _backend  # perfbench/child.py times its flat kernels

BACKEND = "numpy"  # perfbench/child.py records it in each run's environment

TIE_BREAK_MODES = {"lowest_id": 0, "nearest_center": 1}


def _shared_order(*arrays):
    """The order in which to ravel every array of one call.

    'F' when every array is F-contiguous and not C-contiguous, else 'C'.
    Loaded CTV volumes are F-ordered, and raveling them in C order would
    copy them whole; the kernels work elementwise or count labels, so the
    order cannot change a result.
    """
    for a in arrays:
        if a.flags.c_contiguous or not a.flags.f_contiguous:
            return "C"
    return "F"


def window_normalize(values, lo, hi, out=None):
    """Map values through the band [lo, hi] onto [0, 255] (float32).

    ``out``, if given, is a float32 array of the values' shape that ravels
    as a view in the order shared with the values; anything else is a
    ValueError, since the kernel would write into a copy of it.
    """
    values = np.asarray(values)
    order = _shared_order(values) if out is None else _shared_order(values, out)
    src = np.asarray(values, dtype=np.float32, order=order)
    if out is None:
        out = np.empty_like(src)
    elif (out.dtype != np.float32 or out.shape != src.shape
          or not (out.flags.c_contiguous if order == "C" else out.flags.f_contiguous)):
        raise ValueError(f"out must be a {order}-contiguous float32 array of shape {src.shape}")
    _backend.window_normalize(src.ravel(order), np.float32(lo), np.float32(hi),
                              out.ravel(order))
    return out


def classify_bands(values, lo, hi, center, labels, tie_break="lowest_id"):
    """Label each value by intensity-band membership; 0 where no band matches."""
    mode = TIE_BREAK_MODES[tie_break]
    values = np.asarray(values)
    order = _shared_order(values)
    src = np.asarray(values, dtype=np.float32, order=order)
    out = np.zeros(src.shape, dtype=np.uint8, order=order)
    _backend.classify_bands(
        src.ravel(order),
        np.ascontiguousarray(lo, dtype=np.float32),
        np.ascontiguousarray(hi, dtype=np.float32),
        np.ascontiguousarray(center, dtype=np.float32),
        np.ascontiguousarray(labels, dtype=np.uint8),
        mode,
        out.ravel(order),
    )
    return out


def label_overlap_counts(a, b):
    """Counts per uint8 label id: (|a==k|, |b==k|, |a==k & b==k|), shape (3, 256)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    order = _shared_order(a, b)
    counts = np.zeros((3, 256), dtype=np.int64)
    _backend.label_overlap_counts(np.asarray(a, dtype=np.uint8, order=order).ravel(order),
                                  np.asarray(b, dtype=np.uint8, order=order).ravel(order),
                                  counts)
    return counts
