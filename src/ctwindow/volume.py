"""HU volumes, aligned label volumes, and the CTV on-disk format.

A CTV dataset is a JSON header ``<name>.ctv.json`` plus a sibling raw file.
Header keys: ``dims`` (3 ints), ``spacing_mm`` (3 numbers), ``dtype``
("int16" | "float32" for images, "uint8" for labels), ``raw`` (relative
path to the voxel file) and ``units`` ("HU" for images, "label" for label
volumes). Label headers may additionally carry ``label_names`` (id -> name).
The raw file holds voxels in x-fastest order, little-endian, no padding.

Volumes are treated as immutable after construction; every operation here
returns a new object and is safe to call concurrently.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

_IMAGE_DTYPES = {"int16": np.dtype("<i2"), "float32": np.dtype("<f4")}
_LABEL_DTYPE = np.dtype("u1")


class CtvFormatError(ValueError):
    """Malformed CTV header or raw payload."""


@dataclass
class CtVolume:
    """3D signed-intensity grid in Hounsfield units.

    ``voxels`` is indexed ``[x, y, z]`` and must be int16 or float32.
    """

    voxels: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)
    units: str = "HU"

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels)
        if self.voxels.ndim != 3:
            raise ValueError(f"expected a 3D array, got ndim={self.voxels.ndim}")
        if self.voxels.dtype not in (np.dtype(np.int16), np.dtype(np.float32)):
            raise ValueError(f"element kind must be int16 or float32, got {self.voxels.dtype}")
        self.spacing = tuple(float(s) for s in self.spacing)
        if len(self.spacing) != 3 or any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing components must be positive, got {self.spacing}")
        if self.units != "HU":
            raise ValueError(f"CtVolume units are fixed to 'HU', got {self.units!r}")

    @property
    def dims(self):
        return self.voxels.shape


@dataclass
class LabelVolume:
    """Integer label grid aligned to a CtVolume; id 0 is background."""

    voxels: np.ndarray
    label_names: dict = field(default_factory=dict)

    def __post_init__(self):
        voxels = np.asarray(self.voxels)
        if voxels.ndim != 3:
            raise ValueError(f"expected a 3D array, got ndim={voxels.ndim}")
        ids = np.unique(voxels)  # before the uint8 cast, which would wrap 256 to 0
        if ids.size and (ids[0] < 0 or ids[-1] > 255 or np.any(ids != np.round(ids))):
            raise ValueError(f"label ids must be integers in 0..255, got {ids[0]}..{ids[-1]}")
        self.voxels = voxels.astype(np.uint8, copy=False)
        self.label_names = {int(k): str(v) for k, v in self.label_names.items()}
        if any(not 0 <= k <= 255 for k in self.label_names):
            raise ValueError(f"label ids must be integers in 0..255, "
                             f"got names for {sorted(self.label_names)}")
        present = set(int(v) for v in ids)
        missing = sorted(present - set(self.label_names))
        for lid in missing:
            self.label_names[lid] = "background" if lid == 0 else f"label_{lid}"

    @property
    def dims(self):
        return self.voxels.shape


@dataclass
class Slice2D:
    """A float 2D view of one volume plane."""

    values: np.ndarray
    axis: int = 2
    index: int = 0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError(f"expected a 2D array, got ndim={self.values.ndim}")

    @property
    def dims(self):
        return self.values.shape


def _read_header(path):
    if not os.path.exists(path):
        raise FileNotFoundError(f"no such CTV header: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            header = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CtvFormatError(f"{path}: invalid JSON ({exc})") from exc
    required = {"dims", "spacing_mm", "dtype", "raw", "units"}
    keys = set(header)
    if not required <= keys:
        raise CtvFormatError(f"{path}: missing header keys {sorted(required - keys)}")
    extra = keys - required - {"label_names"}
    if extra:
        raise CtvFormatError(f"{path}: unknown header keys {sorted(extra)}")
    dims = header["dims"]
    if len(dims) != 3 or any(int(d) != d or d <= 0 for d in dims):
        raise CtvFormatError(f"{path}: dims must be 3 positive integers, got {dims}")
    if len(header["spacing_mm"]) != 3 or any(s <= 0 for s in header["spacing_mm"]):
        raise CtvFormatError(f"{path}: spacing_mm must be 3 positive numbers")
    return header


def _read_raw(path, header, dtype):
    raw_path = os.path.join(os.path.dirname(os.path.abspath(path)), header["raw"])
    if not os.path.exists(raw_path):
        raise FileNotFoundError(f"raw file not found: {raw_path}")
    dims = tuple(int(d) for d in header["dims"])
    expected = dims[0] * dims[1] * dims[2] * dtype.itemsize
    actual = os.path.getsize(raw_path)
    if actual != expected:
        raise CtvFormatError(
            f"{raw_path}: size mismatch, header implies {expected} bytes, file has {actual}")
    flat = np.fromfile(raw_path, dtype=dtype)
    return flat.reshape(dims, order="F")


def load_volume(path):
    """Load an image CTV (header path) into a CtVolume."""
    header = _read_header(path)
    if header["units"] != "HU":
        raise CtvFormatError(f"{path}: units={header['units']!r}; expected 'HU' "
                             "(use load_label_volume for label files)")
    kind = header["dtype"]
    if kind not in _IMAGE_DTYPES:
        raise CtvFormatError(f"{path}: unknown element kind {kind!r}")
    voxels = _read_raw(path, header, _IMAGE_DTYPES[kind])
    return CtVolume(voxels, spacing=tuple(header["spacing_mm"]))


def load_label_volume(path):
    """Load a label CTV (header path) into a LabelVolume."""
    header = _read_header(path)
    if header["units"] != "label":
        raise CtvFormatError(f"{path}: units={header['units']!r}; expected 'label'")
    if header["dtype"] != "uint8":
        raise CtvFormatError(f"{path}: label volumes must be uint8, got {header['dtype']!r}")
    voxels = _read_raw(path, header, _LABEL_DTYPE)
    names = header.get("label_names", {})
    return LabelVolume(voxels, label_names=names)


def _write(path, voxels, spacing, dtype_name, units, extra=None):
    if not path.endswith(".ctv.json"):
        raise ValueError(f"CTV header paths must end with '.ctv.json': {path}")
    raw_name = os.path.basename(path)[: -len(".ctv.json")] + ".raw"
    header = {
        "dims": [int(d) for d in voxels.shape],
        "spacing_mm": [float(s) for s in spacing],
        "dtype": dtype_name,
        "raw": raw_name,
        "units": units,
    }
    if extra:
        header.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")
    voxels.ravel(order="F").tofile(os.path.join(os.path.dirname(os.path.abspath(path)), raw_name))


def save_volume(volume, path):
    """Write a CtVolume as a CTV header plus raw file; bit-exact round trip."""
    dtype_name = "int16" if volume.voxels.dtype == np.int16 else "float32"
    data = np.asarray(volume.voxels, dtype=_IMAGE_DTYPES[dtype_name])
    _write(path, data, volume.spacing, dtype_name, "HU")


def save_label_volume(labels, path, spacing=(1.0, 1.0, 1.0)):
    """Write a LabelVolume as a uint8 CTV with its label-name map."""
    names = {str(k): v for k, v in sorted(labels.label_names.items())}
    _write(path, labels.voxels, spacing, "uint8", "label", extra={"label_names": names})


def shift_intensity(volume, offset):
    """Add a constant HU offset; output is float32 regardless of input kind."""
    if not np.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset}")
    shifted = np.asarray(volume.voxels, dtype=np.float32) + np.float32(offset)
    return CtVolume(shifted, spacing=volume.spacing)


def extract_slice(volume, axis, index):
    """Pure projection of one plane, converted to float32."""
    if axis not in (0, 1, 2):
        raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
    n = volume.voxels.shape[axis]
    if not 0 <= index < n:
        raise IndexError(f"slice index {index} out of range for axis {axis} with extent {n}")
    # a view; np.take would copy an F-ordered volume whole for every plane
    plane = np.moveaxis(volume.voxels, axis, 0)[index]
    return Slice2D(np.ascontiguousarray(plane, dtype=np.float32), axis=axis, index=index)


def stack_slices(planes, axis):
    """Reassemble 2D planes (in index order) into a 3D voxel array."""
    return np.moveaxis(np.stack(planes, axis=0), 0, axis)
