"""Paired spatial augmentation of image and label slices.

One shared geometric transform (rotate, then translate, then crop/pad to a
target size) is applied to an image slice and its label slice. Images are
resampled bilinearly, labels nearest-neighbor, so label ids are never
invented. Draw order per call: rotation angle, translation axis 0,
translation axis 1, crop origin axis 0, crop origin axis 1.

Only the kept crop is resampled, in NumPy, with the arithmetic of SciPy's
``affine_transform`` (``mode="constant"``, ``prefilter=False``) followed by
a crop/pad, so the bytes are the same as that pipeline's:

* **Crop window.** The crop is a window on the moved plane, which has the
  input's shape. On an axis where the crop is larger than the plane it
  starts at ``-(deficit // 2)``; otherwise at ``floor(frac * (slack + 1))``
  for the drawn origin fraction. Crop pixels outside the moved plane get
  the pad value.
* **Coordinates.** Content moves by ``F(p) = R (p - c) + c + t`` (rotation
  ``R``, plane center ``c = (n - 1) / 2``, shift ``t``). Moved pixel ``o``
  pulls back from the float64 source coordinates
  ``c_i = (offset_i + m_i0 * o_0) + m_i1 * o_1``, with ``m = R^T`` and
  ``offset = c - m (c + t)``. Image and labels share them. A coordinate
  outside ``[0, n - 1]`` on either axis gives the pad value.
* **Image, bilinear.** With ``i = floor(c)`` the weights are
  ``w0 = 1 - (c - i)`` and ``w1 = 1 - w0``. The second neighbor is
  ``i + 1``, mirrored to ``n - 2`` at ``i = n - 1`` (to 0 when ``n = 1``).
  The value is ``0.0`` plus the terms ``(v * w_row) * w_col`` in the order
  (0, 0), (0, 1), (1, 0), (1, 1), summed in float64 and cast to float32;
  ``inf * 0`` gives NaN without a warning.
* **Labels, nearest.** The source pixel is ``floor(c + 0.5)`` on each axis.
* **No transform.** A zero angle with a zero shift copies the plane.
"""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .volume import Slice2D

CHUNK_PIXELS = 1 << 14  # crop pixels per step (at least one row); bounds the float64 scratch


@dataclass
class AugmentConfig:
    crop_size: tuple
    max_rotation_deg: float = 10.0
    max_translation: tuple = (20.0, 20.0)
    pad_value_image: float = 0.0
    pad_value_label: int = 0
    seed: int = 0

    def __post_init__(self):
        self.crop_size = tuple(int(c) for c in self.crop_size)
        if len(self.crop_size) != 2 or any(c <= 0 for c in self.crop_size):
            raise ValueError(f"crop_size must be 2 positive integers, got {self.crop_size}")
        if self.max_rotation_deg < 0:
            raise ValueError("max_rotation_deg must be >= 0")
        self.max_translation = tuple(float(t) for t in self.max_translation)
        if len(self.max_translation) != 2 or any(t < 0 for t in self.max_translation):
            raise ValueError(f"max_translation must be 2 non-negative numbers, "
                             f"got {self.max_translation}")
        # augment_pair draws uniformly from [-t, t], which needs a span 2 * t finite in float64
        for name, ranges in (("max_rotation_deg", [self.max_rotation_deg]),
                             ("max_translation", self.max_translation)):
            if not all(math.isfinite(2.0 * t) for t in ranges):
                raise ValueError(f"{name}: the span 2 * t of each range [-t, t] must be "
                                 f"finite in float64, got {getattr(self, name)!r}")
        with np.errstate(over="ignore"):
            finite = np.isfinite(np.float32(self.pad_value_image))
        if not finite:
            raise ValueError(f"pad_value_image: expected a value finite in float32, "
                             f"got {self.pad_value_image!r}")


def _crop_starts(shape, size, origin_fracs):
    """Moved-plane index of each axis's first crop pixel; negative where the crop pads."""
    starts = []
    for n, target, frac in zip(shape, size, origin_fracs):
        deficit = target - n
        starts.append(-(deficit // 2) if deficit > 0 else math.floor(frac * (1 - deficit)))
    return starts


def _source_coordinates(shape, angle_deg, shift, rows, cols):
    """Per axis, the row and column terms whose sum is the source coordinate."""
    theta = math.radians(angle_deg)
    cos, sin = math.cos(theta), math.sin(theta)
    rot = np.array([[cos, -sin], [sin, cos]])
    center = (np.asarray(shape, dtype=np.float64) - 1.0) / 2.0
    # content moves by F(p) = R (p - c) + c + t; resampling pulls back via F^-1
    inv = rot.T
    offset = center - inv @ (center + np.asarray(shift))
    return [(offset[i] + inv[i, 0] * rows, inv[i, 1] * cols) for i in range(2)]


def _mirror_extended(plane):
    """``plane`` in float64 plus a last row and column holding the mirrored neighbors."""
    n0, n1 = plane.shape
    ext = np.empty((n0 + 1, n1 + 1))
    ext[:n0, :n1] = plane
    ext[n0, :n1] = plane[max(n0 - 2, 0)]
    ext[:, n1] = ext[:, max(n1 - 2, 0)]
    return ext


def _set_nan_signs(t, ext, k, weights, width):
    """Give each NaN of the bilinear sum ``t`` the bits SciPy's running sum carries.

    NumPy's loops do not fix which operand's NaN an addition keeps, so the
    sum's NaNs are redone here in term order: the step that first makes the
    running sum NaN decides, and its NaN is the voxel's own, quieted, when
    the voxel is NaN, or the one the hardware generates for ``inf * 0`` and
    ``inf - inf``.
    """
    at = np.flatnonzero(np.isnan(t))
    if not at.size:
        return
    k = k.ravel()[at]
    (w0r, w1r), (w0c, w1c) = ([w.ravel()[at] for w in pair] for pair in weights)
    generated = (np.array([np.inf]) * 0.0).view(np.uint64)[0]
    bits = np.zeros(at.size, dtype=np.uint64)
    total = np.zeros(at.size)
    for step, wr, wc in ((0, w0r, w0c), (1, w0r, w1c), (width, w1r, w0c), (width + 1, w1r, w1c)):
        v = ext[k + step]
        total += (v * wr) * wc
        first = np.isnan(total) & (bits == 0)
        bits[first] = np.where(np.isnan(v), v.view(np.uint64) | np.uint64(1 << 51),
                               generated)[first]
    t.ravel()[at] = bits.view(np.float64)


def _outside(c0, c1, shape):
    """Mask of the pixels whose source lies outside the plane; None when none does.

    Each coordinate is monotone along rows and along columns, so a chunk's
    four corners hold its extremes and settle the common case. NaN counts
    as outside.
    """
    corners = (slice(None, None, max(c0.shape[0] - 1, 1)),
               slice(None, None, max(c0.shape[1] - 1, 1)))
    if all(c[corners].min() >= 0 and c[corners].max() <= n - 1
           for c, n in zip((c0, c1), shape)):
        return None
    return ~((c0 >= 0) & (c0 <= shape[0] - 1) & (c1 >= 0) & (c1 <= shape[1] - 1))


def _bilinear(s, ext, width, outside, fill, finite):
    """The bilinear values at ``(s.c0, s.c1)`` in ``s.t``, from the flat mirror-extended plane."""
    np.floor(s.c0, out=s.f0)
    np.floor(s.c1, out=s.f1)
    np.multiply(s.f0, width, out=s.t)
    s.t += s.f1
    np.copyto(s.k, s.t, casting="unsafe")
    if outside is not None:
        np.copyto(s.k, 0, where=outside)
    for c, f, w0, w1 in ((s.c0, s.f0, s.w0r, s.w1r), (s.c1, s.f1, s.w0c, s.w1c)):
        np.subtract(c, f, out=w0)
        np.subtract(1.0, w0, out=w0)
        np.subtract(1.0, w0, out=w1)
    # the indices are in range; mode="wrap" only spares the copy mode="raise" makes for out=
    np.take(ext, s.k, out=s.t, mode="wrap")
    s.t *= s.w0r
    s.t *= s.w0c
    s.t += 0.0  # the sum starts at 0.0, which turns a leading -0.0 into 0.0
    for delta, wr, wc in ((1, s.w0r, s.w1c), (width - 1, s.w1r, s.w0c), (1, s.w1r, s.w1c)):
        s.k += delta
        np.take(ext, s.k, out=s.term, mode="wrap")
        s.term *= wr
        s.term *= wc
        s.t += s.term
    if not finite:
        s.k -= width + 1
        _set_nan_signs(s.t, ext, s.k, ((s.w0r, s.w1r), (s.w0c, s.w1c)), width)
    if outside is not None:
        np.copyto(s.t, fill, where=outside)
    return s.t


def _nearest(s, flat, n1, outside, fill):
    """The nearest values at ``(s.c0, s.c1)`` in ``s.v``, from the flat plane ``n1`` wide."""
    for c, f in ((s.c0, s.f0), (s.c1, s.f1)):
        np.add(c, 0.5, out=f)
        np.floor(f, out=f)
    s.f0 *= n1
    s.f0 += s.f1
    np.copyto(s.k, s.f0, casting="unsafe")
    if outside is not None:
        np.copyto(s.k, 0, where=outside)
    np.take(flat, s.k, out=s.v, mode="wrap")
    if outside is not None:
        np.copyto(s.v, fill, where=outside)
    return s.v


def _moved_crop(image, labels, angle_deg, shift, starts, size, image_fill, label_fill):
    """The ``size`` window at ``starts`` of the moved image and label planes.

    The image is resampled bilinearly and the labels nearest-neighbor; both
    planes have the same shape.
    """
    shape = image.shape
    out_img = np.full(size, image_fill, dtype=image.dtype)
    out_lab = np.full(size, label_fill, dtype=labels.dtype)
    # the crop pixels inside the moved plane
    lo = [max(0, -s) for s in starts]
    hi = [min(t, n - s) for t, n, s in zip(size, shape, starts)]
    if hi[0] <= lo[0] or hi[1] <= lo[1]:
        return out_img, out_lab
    if angle_deg == 0.0 and shift == (0.0, 0.0):
        dst = (slice(lo[0], hi[0]), slice(lo[1], hi[1]))
        src = tuple(slice(a + s, b + s) for a, b, s in zip(lo, hi, starts))
        out_img[dst] = image[src]
        out_lab[dst] = labels[src]
        return out_img, out_lab

    rows = np.arange(lo[0] + starts[0], hi[0] + starts[0], dtype=np.float64)
    cols = np.arange(lo[1] + starts[1], hi[1] + starts[1], dtype=np.float64)
    (row0, col0), (row1, col1) = _source_coordinates(shape, angle_deg, shift, rows, cols)
    # scratch buffers for one chunk of whole crop rows, reused chunk after chunk
    step = max(1, CHUNK_PIXELS // cols.size)
    full = (min(step, rows.size), cols.size)
    bufs = {name: np.empty(full) for name in ("c0", "c1", "f0", "f1", "w0r", "w1r",
                                              "w0c", "w1c", "t", "term")}
    bufs["k"] = np.empty(full, dtype=np.intp)
    bufs["v"] = np.empty(full, dtype=labels.dtype)
    flat_lab = np.ascontiguousarray(labels).ravel()
    # inf * 0 and signaling NaNs are part of the arithmetic, not errors
    with np.errstate(invalid="ignore", over="ignore"):
        ext = _mirror_extended(image).ravel()
        finite = bool(np.isfinite(image).all())
        for r in range(0, rows.size, step):
            m = min(step, rows.size - r)
            s = SimpleNamespace(**{name: buf[:m] for name, buf in bufs.items()})
            np.add(row0[r:r + m, None], col0, out=s.c0)
            np.add(row1[r:r + m, None], col1, out=s.c1)
            outside = _outside(s.c0, s.c1, shape)
            dst = (slice(lo[0] + r, lo[0] + r + m), slice(lo[1], hi[1]))
            out_img[dst] = _bilinear(s, ext, shape[1] + 1, outside, image_fill, finite)
            out_lab[dst] = _nearest(s, flat_lab, shape[1], outside, label_fill)
    return out_img, out_lab


def augment_pair(img, lab, cfg, rng):
    """Apply one random transform to an image slice and its label slice.

    Returns ``(Slice2D, uint8 array)`` with dims equal to ``cfg.crop_size``.
    """
    lab = np.asarray(lab, dtype=np.uint8)
    if img.dims != lab.shape:
        raise ValueError(f"image/label dims mismatch: {img.dims} vs {lab.shape}")

    angle = float(rng.uniform(-cfg.max_rotation_deg, cfg.max_rotation_deg)) \
        if cfg.max_rotation_deg > 0 else 0.0
    shift = tuple(
        float(rng.uniform(-t, t)) if t > 0 else 0.0 for t in cfg.max_translation
    )
    origin_fracs = (float(rng.random()), float(rng.random()))

    starts = _crop_starts(img.dims, cfg.crop_size, origin_fracs)
    out_img, out_lab = _moved_crop(img.values, lab, angle, shift, starts, cfg.crop_size,
                                   np.float32(cfg.pad_value_image), cfg.pad_value_label)
    return Slice2D(out_img, axis=img.axis, index=img.index), out_lab
