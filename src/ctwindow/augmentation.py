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

The crops come back in the image plane's memory order. An F-contiguous
plane, such as every plane of a loaded volume, is resampled in the
transposed frame, so no plane is copied across its memory order; only the
flat-index strides differ, and each pixel's arithmetic is the same.
Labels are gathered with their own strides.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._checks import FLOAT32_MAX, number, number_list
from .volume import Slice2D

# crop pixels per chunk (at least one row); sizes the chunk buffers, six float64 and one intp,
# that each plane allocates once, next to its one float64 mirror, and reuses for every chunk
CHUNK_PIXELS = 1 << 14


@dataclass
class AugmentConfig:
    crop_size: tuple
    max_rotation_deg: float = 10.0
    max_translation: tuple = (20.0, 20.0)
    pad_value_image: float = 0.0
    pad_value_label: int = 0
    seed: int = 0

    def __post_init__(self):
        self.crop_size = number_list(self.crop_size, "crop_size", 2, whole=True, lo=1)
        number(self.max_rotation_deg, "max_rotation_deg", lo=0)
        self.max_translation = number_list(self.max_translation, "max_translation", 2, lo=0)
        # augment_pair draws uniformly from [-t, t], which needs a span 2 * t finite in float64
        for name, ranges in (("max_rotation_deg", [self.max_rotation_deg]),
                             ("max_translation", self.max_translation)):
            if not all(math.isfinite(2.0 * t) for t in ranges):
                raise ValueError(f"{name}: the span 2 * t of each range [-t, t] must be "
                                 f"finite in float64, got {getattr(self, name)!r}")
        number(self.pad_value_image, "pad_value_image", lo=-FLOAT32_MAX, hi=FLOAT32_MAX)
        self.pad_value_label = number(self.pad_value_label, "pad_value_label", whole=True,
                                      lo=0, hi=255)
        self.seed = number(self.seed, "seed", whole=True, lo=0)


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


def _set_nan_signs(t, ext, k, weights, strides):
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
    s0, s1 = strides
    generated = (np.array([np.inf]) * 0.0).view(np.uint64)[0]
    bits = np.zeros(at.size, dtype=np.uint64)
    total = np.zeros(at.size)
    for step, wr, wc in ((0, w0r, w0c), (s1, w0r, w1c), (s0, w1r, w0c), (s0 + s1, w1r, w1c)):
        v = np.take(ext[step:], k, mode="clip")
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


def _flat_index(k, f0, f1, strides):
    """Write ``f0 * s0 + f1 * s1`` to the intp ``k``, overwriting the floors ``f0`` and ``f1``.

    Inside the plane every step is an exact integer in float64. Outside it
    ``k`` is whatever the cast gives, so the gathers clip their indices, and
    the pad value then overwrites those pixels.
    """
    for f, s in ((f0, strides[0]), (f1, strides[1])):
        if s != 1:
            f *= s
    f0 += f1
    np.copyto(k, f0, casting="unsafe")


def _bilinear(ext, strides, c0, c1, outside, fill, finite, out, scratch):
    """Write the bilinear values at ``(c0, c1)`` from the flat mirror-extended plane to ``out``.

    ``strides`` step ``ext`` one pixel along each plane axis. ``c0`` and
    ``c1`` are overwritten. Each shifted neighbor is gathered with the
    first's flat index ``k`` from ``ext[step:]``: an inside pixel's
    ``k + step`` lies in the mirror, and an outside pixel's clipped read is
    overwritten by the pad value.
    """
    f0, f1, t, v, k = scratch
    np.floor(c0, out=f0)
    np.floor(c1, out=f1)
    w0r = np.subtract(1.0, np.subtract(c0, f0, out=c0), out=c0)
    w0c = np.subtract(1.0, np.subtract(c1, f1, out=c1), out=c1)
    _flat_index(k, f0, f1, strides)
    w1r = np.subtract(1.0, w0r, out=f0)
    w1c = np.subtract(1.0, w0c, out=f1)
    s0, s1 = strides
    np.take(ext, k, out=t, mode="clip")
    t *= w0r
    t *= w0c
    t += 0.0  # the sum starts at 0.0, which turns a leading -0.0 into 0.0
    for step, wr, wc in ((s1, w0r, w1c), (s0, w1r, w0c), (s0 + s1, w1r, w1c)):
        np.take(ext[step:], k, out=v, mode="clip")
        v *= wr
        v *= wc
        t += v
    if not finite:
        _set_nan_signs(t, ext, k, ((w0r, w1r), (w0c, w1c)), strides)
    out[...] = t
    if outside is not None:
        out[outside] = fill


def _nearest(flat, strides, c0, c1, outside, fill, out, scratch):
    """Write the nearest values at ``(c0, c1)`` from the flat plane to ``out``."""
    f0, f1, _, _, k = scratch
    np.floor(np.add(c0, 0.5, out=f0), out=f0)
    np.floor(np.add(c1, 0.5, out=f1), out=f1)
    _flat_index(k, f0, f1, strides)
    np.take(flat, k, out=out, mode="clip")
    if outside is not None:
        out[outside] = fill


def _flat_view(a):
    """A 1D view of the memory ``a`` spans and the element steps along its axes.

    An array with a negative stride is copied to C order first.
    """
    if min(a.strides) < 0:
        a = np.ascontiguousarray(a)
    steps = [s // a.itemsize for s in a.strides]
    span = 1 + sum((n - 1) * s for n, s in zip(a.shape, steps))
    return np.lib.stride_tricks.as_strided(a, (span,), (a.itemsize,), writeable=False), steps


def _moved_crop(image, labels, angle_deg, shift, starts, size, image_fill, label_fill):
    """The ``size`` window at ``starts`` of the moved image and label planes.

    The image is resampled bilinearly and the labels nearest-neighbor; both
    planes have the same shape. The crops come back in the image's memory
    order; an image in neither C nor F order is copied to C first. Beside
    the crops and the image's float64 mirror, each plane allocates seven
    chunk buffers of at most ``CHUNK_PIXELS`` pixels, six float64 and one
    intp, and reuses them for every chunk.
    """
    if not (image.flags.c_contiguous or image.flags.f_contiguous):
        image = np.ascontiguousarray(image)
    order = "C" if image.flags.c_contiguous else "F"
    shape = image.shape
    out_img = np.full(size, image_fill, dtype=image.dtype, order=order)
    out_lab = np.full(size, label_fill, dtype=labels.dtype, order=order)
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
    terms = _source_coordinates(shape, angle_deg, shift, rows, cols)
    # the memory frame: its first axis is the plane axis with the longer stride
    frame = (0, 1) if order == "C" else (1, 0)
    kept_img = out_img[lo[0]:hi[0], lo[1]:hi[1]].transpose(frame)
    kept_lab = out_lab[lo[0]:hi[0], lo[1]:hi[1]].transpose(frame)
    (slow0, fast0), (slow1, fast1) = ((t[frame[0]], t[frame[1]]) for t in terms)
    ext_strides = (shape[1] + 1, 1) if order == "C" else (1, shape[0] + 1)
    flat_lab, lab_strides = _flat_view(labels)
    n_slow, width = kept_img.shape
    step = max(1, CHUNK_PIXELS // width)  # whole rows of the memory frame
    pixels = min(n_slow * width, max(CHUNK_PIXELS, width))
    buffers = [np.empty(pixels) for _ in range(6)] + [np.empty(pixels, np.intp)]
    # inf * 0, signaling NaNs and the index casts of outside sources are part of the
    # arithmetic, not errors
    with np.errstate(invalid="ignore", over="ignore"):
        ext = _mirror_extended(image.transpose(frame)).ravel()
        finite = bool(np.isfinite(image).all())
        for r in range(0, n_slow, step):
            rows_here = min(step, n_slow - r)
            c0, c1, *scratch = (b[:rows_here * width].reshape(rows_here, width) for b in buffers)
            # col + row is the same float as row + col, so either frame gives the same sources
            for c, slow, fast in ((c0, slow0, fast0), (c1, slow1, fast1)):
                c[...] = fast
                c += slow[r:r + rows_here, None]
            outside = _outside(c0, c1, shape)
            _nearest(flat_lab, lab_strides, c0, c1, outside, label_fill,
                     kept_lab[r:r + rows_here], scratch)
            _bilinear(ext, ext_strides, c0, c1, outside, image_fill, finite,
                      kept_img[r:r + rows_here], scratch)
    return out_img, out_lab


def augment_pair(img, lab, cfg, rng):
    """Apply one random transform to an image slice and its label slice.

    Returns ``(Slice2D, uint8 array)`` with dims equal to ``cfg.crop_size``,
    in the image's memory order (C for an image in neither C nor F order).
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
    return Slice2D(out_img), out_lab
