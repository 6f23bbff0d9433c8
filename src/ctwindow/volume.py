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

from ._checks import FLOAT32_MAX, number, number_list, text
from ._kernels import label_counts

_IMAGE_DTYPES = {"int16": np.dtype("<i2"), "float32": np.dtype("<f4")}
_LABEL_DTYPE = np.dtype("u1")
# the label_names keys save_label_volume writes, and the only ones load_label_volume reads
_LABEL_KEYS = frozenset(str(i) for i in range(256))


class CtvFormatError(ValueError):
    """Malformed CTV header or raw payload."""


@dataclass
class CtVolume:
    """3D signed-intensity grid, always in Hounsfield units (a CTV header's ``units`` "HU").

    ``voxels`` is indexed ``[x, y, z]`` and must be int16 or float32.
    """

    voxels: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        self.voxels = np.asarray(self.voxels)
        if self.voxels.ndim != 3:
            raise ValueError(f"expected a 3D array, got ndim={self.voxels.ndim}")
        if self.voxels.dtype not in (np.dtype(np.int16), np.dtype(np.float32)):
            raise ValueError(f"element kind must be int16 or float32, got {self.voxels.dtype}")
        self.spacing = tuple(float(s) for s in number_list(self.spacing, "spacing", 3, above=0))

    @property
    def dims(self):
        return self.voxels.shape


@dataclass
class LabelVolume:
    """Integer label grid aligned to a CtVolume; id 0 is background.

    The ids present are those with a nonzero count in
    ``_kernels.label_counts``, which reads the volume once in memory order
    where ``np.unique`` would sort a copy of it. uint8 voxels, which every
    loader and the phantom generator produce, are counted as they are.
    Other dtypes are checked to hold only whole numbers in 0..255 (their
    min, their max and, for floats, whether each value is whole), then
    cast to uint8 and counted the same way. ``ids`` keeps the scan's
    result, the ascending ids present as an intp array, so that readers of
    the volume need not scan it again.
    """

    voxels: np.ndarray
    label_names: dict = field(default_factory=dict)
    ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        voxels = np.asarray(self.voxels)
        if voxels.ndim != 3:
            raise ValueError(f"expected a 3D array, got ndim={voxels.ndim}")
        if voxels.dtype != _LABEL_DTYPE and voxels.size:
            # before the uint8 cast, which would wrap 256 to 0; NaN fails both bounds
            lo, hi = voxels.min(), voxels.max()
            if not (lo >= 0 and hi <= 255
                    and (voxels.dtype.kind != "f" or np.all(np.floor(voxels) == voxels))):
                raise ValueError(f"label ids must be integers in 0..255, got {lo}..{hi}")
        self.voxels = voxels.astype(np.uint8, copy=False)
        self.ids = np.flatnonzero(label_counts(self.voxels))
        if not isinstance(self.label_names, dict):
            raise ValueError(f"label_names: expected a dict, got {self.label_names!r}")
        self.label_names = {number(lid, "label_names", whole=True, lo=0, hi=255):
                            text(name, "label_names") for lid, name in self.label_names.items()}
        for lid in sorted(set(self.ids.tolist()) - set(self.label_names)):
            self.label_names[lid] = "background" if lid == 0 else f"label_{lid}"

    @property
    def dims(self):
        return self.voxels.shape


@dataclass
class Slice2D:
    """One volume plane as a float32 2D array."""

    values: np.ndarray

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
    if not isinstance(header, dict):
        raise CtvFormatError(f"{path}: expected a JSON object")
    required = {"dims", "spacing_mm", "dtype", "raw", "units"}
    keys = set(header)
    if not required <= keys:
        raise CtvFormatError(f"{path}: missing header keys {sorted(required - keys)}")
    extra = keys - required - {"label_names"}
    if extra:
        raise CtvFormatError(f"{path}: unknown header keys {sorted(extra)}")
    try:
        number_list(header["dims"], "dims", 3, whole=True, lo=1)
        number_list(header["spacing_mm"], "spacing_mm", 3, above=0)
    except ValueError as exc:
        raise CtvFormatError(f"{path}: {exc}") from None
    raw = header["raw"]
    if (not isinstance(raw, str) or os.path.isabs(raw)
            or os.path.normpath(raw).split(os.sep)[0] in (os.curdir, os.pardir)):
        raise CtvFormatError(f"{path}: raw must name a file inside the header's directory, "
                             f"got {raw!r}")
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
    if not isinstance(kind, str) or kind not in _IMAGE_DTYPES:
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
    if not isinstance(names, dict):
        raise CtvFormatError(f"{path}: label_names must be a JSON object")
    for key, name in names.items():
        if key not in _LABEL_KEYS or not isinstance(name, str):
            raise CtvFormatError(f"{path}: label_names must map ids written as \"0\".."
                                 f"\"255\" to strings, got {key!r}: {name!r}")
    return LabelVolume(voxels, label_names={int(k): v for k, v in names.items()})


def _write(path, voxels, spacing, dtype_name, units, extra=None):
    if not path.endswith(".ctv.json"):
        raise ValueError(f"CTV header paths must end with '.ctv.json': {path}")
    number_list(spacing, "spacing", 3, above=0)  # a CtVolume's spacing may have been reassigned
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
    """Add a constant HU offset, finite in float32; output is float32 regardless of input kind."""
    number(offset, "offset", lo=-FLOAT32_MAX, hi=FLOAT32_MAX)
    shifted = np.asarray(volume.voxels, dtype=np.float32) + np.float32(offset)
    return CtVolume(shifted, spacing=volume.spacing)


def extract_slice(volume, axis, index):
    """Pure projection of one plane, converted to float32 in its memory order.

    The copy keeps the plane's own layout, so an axis-2 plane of a loaded
    (F-ordered) volume comes back F-contiguous, with no transposing copy.
    """
    axis = number(axis, "axis", whole=True, lo=0, hi=2)
    index = number(index, "index", whole=True)
    n = volume.voxels.shape[axis]
    if not 0 <= index < n:
        raise IndexError(f"slice index {index} out of range for axis {axis} with extent {n}")
    # a view; np.take would copy an F-ordered volume whole for every plane
    plane = np.moveaxis(volume.voxels, axis, 0)[index]
    return Slice2D(np.array(plane, dtype=np.float32, order="K"))


def stack_slices(planes, axis):
    """Reassemble 2D planes (in index order) into a 3D voxel array.

    The array is F-ordered like a loaded volume, so saving it writes the
    x-fastest raw file without a transposing copy.
    """
    axis = number(axis, "axis", whole=True, lo=0, hi=2)
    planes = [np.asarray(p) for p in planes]
    if not planes:
        raise ValueError("need at least one plane to stack")
    shape = list(planes[0].shape)
    shape.insert(axis, len(planes))
    out = np.empty(shape, dtype=np.result_type(*{p.dtype for p in planes}), order="F")
    return np.stack(planes, axis=axis, out=out)
