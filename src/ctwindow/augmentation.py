"""Paired spatial augmentation of image and label slices.

One shared geometric transform (rotate, then translate, then crop/pad to a
target size) is applied to an image slice and its label slice. Images are
resampled bilinearly, labels nearest-neighbor, so label ids are never
invented. Draw order per call: rotation angle, translation axis 0,
translation axis 1, crop origin axis 0, crop origin axis 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .volume import Slice2D


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
    # imported on first use: scipy.ndimage costs every other command's start-up
    from scipy import ndimage
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

    moved_img = _rotate_translate(img.values, angle, shift, order=1,
                                  cval=np.float32(cfg.pad_value_image))
    moved_lab = _rotate_translate(lab, angle, shift, order=0,
                                  cval=cfg.pad_value_label)
    out_img = _crop_or_pad(moved_img, cfg.crop_size, origin_fracs, cfg.pad_value_image)
    out_lab = _crop_or_pad(moved_lab, cfg.crop_size, origin_fracs, cfg.pad_value_label)
    return Slice2D(out_img, axis=img.axis, index=img.index), out_lab.astype(np.uint8)
