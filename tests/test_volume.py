import json
import os

import numpy as np
import pytest

from ctwindow.volume import (CtVolume, CtvFormatError, LabelVolume, extract_slice,
                             load_label_volume, load_volume, save_label_volume,
                             save_volume, shift_intensity, stack_slices)


def write_ctv(tmp_path, name, dims, dtype, payload, units="HU", spacing=(1, 1, 1),
              raw_bytes=None, extra=None):
    header = {"dims": list(dims), "spacing_mm": list(spacing), "dtype": dtype,
              "raw": f"{name}.raw", "units": units}
    if extra:
        header.update(extra)
    header_path = tmp_path / f"{name}.ctv.json"
    header_path.write_text(json.dumps(header))
    data = raw_bytes if raw_bytes is not None else payload.tobytes()
    (tmp_path / f"{name}.raw").write_bytes(data)
    return str(header_path)


def test_load_decodes_x_fastest_order(tmp_path):
    raw = np.array([0, -1000, 40, 240], dtype="<i2")
    path = write_ctv(tmp_path, "tiny", (2, 2, 1), "int16", raw)
    vol = load_volume(path)
    assert vol.dims == (2, 2, 1)
    assert vol.voxels[0, 0, 0] == 0
    assert vol.voxels[1, 0, 0] == -1000
    assert vol.voxels[0, 1, 0] == 40
    assert vol.voxels[1, 1, 0] == 240


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_save_load_round_trip_is_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(3)
    if dtype is np.int16:
        voxels = rng.integers(-1024, 3072, size=(7, 5, 4)).astype(np.int16)
    else:
        voxels = rng.normal(0, 300, size=(7, 5, 4)).astype(np.float32)
    vol = CtVolume(voxels, spacing=(0.8, 0.8, 2.5))
    path = str(tmp_path / "v.ctv.json")
    save_volume(vol, path)
    reloaded = load_volume(path)
    assert reloaded.voxels.dtype == voxels.dtype
    assert np.array_equal(reloaded.voxels, voxels)
    assert reloaded.spacing == vol.spacing
    save_volume(reloaded, str(tmp_path / "v2.ctv.json"))
    assert (tmp_path / "v.raw").read_bytes() == (tmp_path / "v2.raw").read_bytes()


def test_size_mismatch_is_rejected(tmp_path):
    short = np.zeros(16 * 16 * 9, dtype="<i2")  # header will claim 10 z-slices
    path = write_ctv(tmp_path, "bad", (16, 16, 10), "int16", short)
    with pytest.raises(CtvFormatError, match="size mismatch"):
        load_volume(path)


def test_header_validation_errors(tmp_path):
    raw = np.zeros(8, dtype="<i2")
    with pytest.raises(CtvFormatError, match="element kind"):
        load_volume(write_ctv(tmp_path, "k", (2, 2, 2), "int32", raw))
    with pytest.raises(CtvFormatError, match="dims"):
        load_volume(write_ctv(tmp_path, "d", (2, -2, 2), "int16", raw))
    with pytest.raises(CtvFormatError, match="spacing"):
        load_volume(write_ctv(tmp_path, "s", (2, 2, 2), "int16", raw, spacing=(1, 0, 1)))
    with pytest.raises(FileNotFoundError):
        load_volume(str(tmp_path / "missing.ctv.json"))
    path = write_ctv(tmp_path, "noraw", (2, 2, 2), "int16", raw)
    os.remove(tmp_path / "noraw.raw")
    with pytest.raises(FileNotFoundError):
        load_volume(path)
    with pytest.raises(CtvFormatError, match="unknown header keys"):
        load_volume(write_ctv(tmp_path, "x", (2, 2, 2), "int16", raw, extra={"oops": 1}))


def test_label_volume_round_trip_and_units_guard(tmp_path):
    labels = LabelVolume(np.array([[[0, 1], [2, 0]]], dtype=np.uint8).reshape(1, 2, 2),
                         label_names={0: "background", 1: "liver", 2: "spleen"})
    path = str(tmp_path / "lab.ctv.json")
    save_label_volume(labels, path)
    reloaded = load_label_volume(path)
    assert np.array_equal(reloaded.voxels, labels.voxels)
    assert reloaded.label_names == labels.label_names
    with pytest.raises(CtvFormatError, match="units"):
        load_volume(path)


def test_label_names_synthesized_for_unnamed_ids():
    lab = LabelVolume(np.array([0, 3], dtype=np.uint8).reshape(1, 1, 2))
    assert lab.label_names == {0: "background", 3: "label_3"}


@pytest.mark.parametrize("bad", [256, -1, 1.5, float("nan")])
def test_label_volume_rejects_ids_outside_uint8(bad):
    with pytest.raises(ValueError, match="0..255"):
        LabelVolume(np.array([0, bad]).reshape(1, 1, 2))
    with pytest.raises(ValueError, match="0..255"):
        LabelVolume(np.zeros((1, 1, 1), dtype=np.uint8), label_names={256: "x"})
    wide = LabelVolume(np.array([0, 255, 7], dtype=np.int64).reshape(1, 1, 3))
    assert wide.voxels.dtype == np.uint8 and wide.voxels.ravel().tolist() == [0, 255, 7]


def test_shift_identity_and_arithmetic():
    vol = CtVolume(np.array([[[40, -1000]]], dtype=np.int16).reshape(1, 1, 2))
    assert np.array_equal(shift_intensity(vol, 0).voxels, vol.voxels.astype(np.float32))
    shifted = shift_intensity(vol, 25)
    assert shifted.voxels.dtype == np.float32
    assert shifted.voxels[0, 0, 0] == 65.0
    assert shifted.spacing == vol.spacing


def test_shift_round_trips_within_float32():
    rng = np.random.default_rng(5)
    vol = CtVolume(rng.normal(0, 200, size=(4, 4, 4)).astype(np.float32))
    back = shift_intensity(shift_intensity(vol, 25.0), -25.0)
    assert np.allclose(back.voxels, vol.voxels, atol=1e-3)
    ints = CtVolume(rng.integers(-1000, 1000, size=(4, 4, 4)).astype(np.float32))
    back = shift_intensity(shift_intensity(ints, 300.0), -300.0)
    assert np.array_equal(back.voxels, ints.voxels)  # exact on representable grids


def test_shift_requires_finite_offset():
    vol = CtVolume(np.zeros((1, 1, 1), dtype=np.float32))
    with pytest.raises(ValueError):
        shift_intensity(vol, float("nan"))


def test_extract_slice_projects_without_altering_values():
    vol = CtVolume(np.array([0, -1000, 40, 240], dtype=np.int16).reshape((2, 2, 1), order="F"))
    s = extract_slice(vol, 2, 0)
    assert s.dims == (2, 2)
    assert s.values.dtype == np.float32
    assert np.array_equal(s.values, vol.voxels[:, :, 0].astype(np.float32))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_slices_reassemble_into_the_volume(axis):
    rng = np.random.default_rng(11)
    vol = CtVolume(rng.integers(-500, 500, size=(3, 4, 5)).astype(np.int16))
    planes = [extract_slice(vol, axis, i).values for i in range(vol.dims[axis])]
    assert np.array_equal(stack_slices(planes, axis), vol.voxels.astype(np.float32))


def test_extract_slice_bounds():
    vol = CtVolume(np.zeros((2, 3, 4), dtype=np.float32))
    with pytest.raises(IndexError):
        extract_slice(vol, 1, 3)
    with pytest.raises(ValueError):
        extract_slice(vol, 5, 0)


def test_volume_constructor_validation():
    with pytest.raises(ValueError, match="element kind"):
        CtVolume(np.zeros((2, 2, 2), dtype=np.float64))
    with pytest.raises(ValueError, match="3D"):
        CtVolume(np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(ValueError, match="spacing"):
        CtVolume(np.zeros((2, 2, 2), dtype=np.float32), spacing=(1, 1, -1))
