"""The whole-volume passes of the CLI: label scans by runs, the window kernel's
one float32 result, and ``augment`` writing into its output volumes.

The label counts and the overlap counts read a slab with few runs run by
run and histogram any other; they are checked against ``np.bincount`` and
the scalar oracle on piecewise-constant, i.i.d. and mixed label volumes,
with runs across slab ends and in C, F and strided layouts. The window kernel is
checked to take the pins and every step from the float32 copy of its input,
and both passes against a bound on what they hold at their peak.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import ctwindow._kernels as kernels
from ctwindow.augmentation import CHUNK_PIXELS
from ctwindow.cli import main
from ctwindow.volume import CtVolume, LabelVolume, save_label_volume, save_volume
from oracles import scalar_label_overlap_counts, scalar_window_normalize

# --- label scans by runs --------------------------------------------------------

def volume_shape(slab):
    """Two or more slabs of voxels, few where small slabs make many kernel calls."""
    return (10, 9, 8) if slab <= 5 else (40, 36, 30) if slab <= 1000 else (64, 64, 48)


def piecewise(rng, ids, shape):
    """Boxes of ids painted over a background: long runs in every layout."""
    labels = np.zeros(shape, dtype=np.uint8)
    for lid in ids:
        lo = [int(rng.integers(0, n - 4)) for n in shape]
        hi = [int(rng.integers(a + 2, n + 1)) for a, n in zip(lo, shape)]
        labels[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = lid
    return labels


def iid(rng, ids, shape):
    return rng.choice(np.asarray(ids, dtype=np.uint8), size=shape)


def mixed(rng, ids, shape):
    """Piecewise constant in the first half along axis 0, i.i.d. in the second."""
    labels = piecewise(rng, ids, shape)
    half = shape[0] // 2
    labels[half:] = iid(rng, ids, shape)[half:]
    return labels


KINDS = {"piecewise": piecewise, "iid": iid, "mixed": mixed}


def layouts(labels):
    """``labels`` as C-ordered, F-ordered and strided arrays, with the same values."""
    padded = np.zeros(tuple(2 * d for d in labels.shape), dtype=np.uint8)
    padded[::2, ::2, ::2] = labels
    return {"C": np.ascontiguousarray(labels), "F": np.asfortranarray(labels),
            "strided": padded[::2, ::2, ::2]}


def straddling_runs(rng, slab):
    """Runs of random ids whose lengths straddle slab ends; a run ends on the last value."""
    lengths = rng.integers(1, 2 * slab, 12)
    return np.repeat(rng.integers(0, 256, lengths.size).astype(np.uint8), lengths)


def mark_slab_ends(labels, slab):
    """Id 9 at the last voxel of every slab in memory order, then id 11 at the last voxel."""
    flat = labels.ravel(order="K")  # a copy for a strided view, which is C-ordered here
    flat[slab - 1::slab] = 9
    flat[-1] = 11
    if not np.shares_memory(flat, labels):
        labels[...] = flat.reshape(labels.shape)


@pytest.fixture
def sides():
    """Counts of the slabs read by runs and of the slabs histogrammed, during one test."""
    original = kernels.run_starts
    counts = {"runs": 0, "histogram": 0}

    def counted(flat):
        heads = original(flat)
        counts["histogram" if heads is None else "runs"] += 1
        return heads

    with mock.patch.object(kernels, "run_starts", counted):
        yield counts


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("slab", [5, 97, 1000, 1 << 16])
def test_id_scan_matches_unique(kind, slab, sides):
    """``label_counts`` equals ``np.bincount``, and ``LabelVolume.ids`` ``np.unique``."""
    rng = np.random.default_rng([slab, len(kind)])
    labels = KINDS[kind](rng, [0, 3, 7, 200, 255], volume_shape(slab))
    with mock.patch.object(kernels, "SLAB", slab):
        for layout, arr in layouts(labels).items():
            mark_slab_ends(arr, slab)
            expected = np.bincount(arr.ravel(), minlength=256)
            assert expected[9] >= 2 and expected[11] == 1
            got = kernels.label_counts(arr)
            assert got.dtype == np.int64 and np.array_equal(got, expected), layout
            assert np.array_equal(LabelVolume(arr).ids, np.unique(arr)), layout
        # both sides of the rule run, except where the volume or the slab rules one out:
        # a slab of 5 voxels holds at least one run, which is not fewer than 5 / 8
        assert (sides["runs"] > 0) == (kind != "iid" and slab > 5)
        assert sides["histogram"] > 0 or kind == "piecewise"
        runs = straddling_runs(rng, slab)
        assert np.array_equal(kernels.label_counts(runs), np.bincount(runs, minlength=256))


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("slab", [1, 5, 97, 1 << 16])
def test_overlap_counts_match_the_scalar_loop(kind, slab, sides):
    rng = np.random.default_rng([slab, len(kind), 1])
    a = KINDS[kind](rng, [0, 1, 2, 255], volume_shape(slab))
    # a prediction: the same volume with one box moved and a few voxels flipped
    b = np.roll(a, 3, axis=1)
    b.flat[rng.integers(0, b.size, 50)] = 2
    expected = scalar_label_overlap_counts(a.ravel(), b.ravel())
    with mock.patch.object(kernels, "SLAB", slab):
        for la, arr_a in layouts(a).items():
            for lb, arr_b in layouts(b).items():
                got = kernels.label_overlap_counts(arr_a, arr_b)
                assert np.array_equal(got, expected), (la, lb)
    assert (sides["runs"] > 0) == (kind != "iid" and slab > 5)
    assert sides["histogram"] > 0 or kind == "piecewise"


@pytest.mark.parametrize("slab", [97, 1 << 16])
def test_runs_across_slab_ends_count_once(slab):
    """Runs of lengths that straddle every slab end; a run ends on the last voxel."""
    rng = np.random.default_rng(slab)
    lengths = rng.integers(1, 2 * slab, 12)
    a = np.repeat(rng.integers(0, 256, lengths.size).astype(np.uint8), lengths)
    b = np.repeat(rng.integers(0, 256, lengths.size).astype(np.uint8), np.roll(lengths, 1))
    n = min(a.size, b.size)
    a, b = a[:n], b[:n]
    with mock.patch.object(kernels, "SLAB", slab):
        assert np.array_equal(kernels.label_overlap_counts(a, b),
                              scalar_label_overlap_counts(a, b))


def test_run_starts_takes_runs_only_when_they_are_few():
    flat = np.repeat(np.arange(3, dtype=np.uint16), [10, 1, 13])  # 3 runs in 24 values
    assert kernels.run_starts(flat) is None  # 3 * 8 is not below 24
    flat = np.append(flat, np.uint16(2))  # the last run grows: 3 runs in 25 values
    assert kernels.run_starts(flat).tolist() == [0, 10, 11]
    assert kernels.run_starts(np.zeros(9, dtype=np.uint8)).tolist() == [0]
    assert kernels.run_starts(np.zeros(8, dtype=np.uint8)) is None


# --- the window kernel -----------------------------------------------------------

DTYPES = ["int8", "uint8", "int16", "uint16", "int32", "int64",
          "float16", "float32", "float64"]


def window_inputs(dtype, lo, hi):
    """Values of ``dtype`` around the bounds, with the edge values of the type.

    Float inputs include each bound and its float32 neighbors, and the float64
    values either side of those, which round onto them in float32.
    """
    info = np.iinfo(dtype) if np.dtype(dtype).kind in "iu" else None
    if info is not None:
        base = [info.min, info.max, 0, 1, 40, 41, 42, 43, 99, 100, 127]
        if info.bits >= 32:  # whole numbers float32 rounds to a neighbor
            base += [(1 << 24) + k for k in range(-3, 6)] + [-(1 << 24) - 1]
        values = [v for v in base if info.min <= v <= info.max]
        values += np.random.default_rng(1).integers(max(info.min, -300), min(info.max, 300),
                                                    500).tolist()
        return np.array(values, dtype=dtype)
    values = np.random.default_rng(2).uniform(-300, 300, 500)
    edges = [np.nan, np.inf, -np.inf, -0.0, 0.0, lo, hi, 1 << 24, (1 << 24) + 1]
    inf = np.float32(np.inf)
    ulps = [np.float64(np.nextafter(np.float32(b), d)) for b in (lo, hi) for d in (-inf, b, inf)]
    near = [np.nextafter(u, d) for u in ulps for d in (-np.inf, np.inf)]
    with np.errstate(over="ignore"):
        return np.concatenate([values, edges, ulps, near]).astype(dtype)


# Bounds float16 cannot hold: it rounds 40.99 and 42.01 across a whole number, and
# NumPy 1.24 compares a uint8 array with a 0-d float32 bound in float16. At
# (40.3, 42.4445) the scaled expression rounds 1 ulp short of 255 at the upper
# bound, so only the pin makes it 255. At (0.0, 127.0) clip keeps a -0.0 input at
# lo = +0.0, and it must still come out +0.0.
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lo,hi", [(40.3, 42.4445), (40.99, 42.01), (-0.0, 127.0), (0.0, 127.0),
                                   ((1 << 24) - 1, (1 << 24) + 4)])
def test_window_takes_the_float32_steps_of_its_float32_copy(dtype, lo, hi):
    values = window_inputs(dtype, lo, hi)
    as32 = values.astype(np.float32)
    before = values.tobytes()
    got = kernels.window_normalize(values, lo, hi)
    assert values.tobytes() == before  # the caller's array, float32 or not, is not written to
    want = kernels.window_normalize(as32, lo, hi)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    oracle = scalar_window_normalize(as32, np.float32(lo), np.float32(hi))
    assert got.view(np.uint32).tolist() == oracle.view(np.uint32).tolist()


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def test_window_holds_one_float32_result_and_two_masks():
    values = np.asfortranarray(
        np.random.default_rng(3).integers(-1024, 3072, (128, 128, 32)).astype(np.int16))
    kernels.window_normalize(values[:2], -160.0, 240.0)  # first-call imports do not count
    out, peak = traced_peak(kernels.window_normalize, values, -160.0, 240.0)
    # the float32 result and the one boolean pin mask (the name dates from a second
    # mask, for the low pin); a second mask adds 1 B
    assert peak <= 5 * values.size + (64 << 10), (peak, values.size)
    assert out.flags.f_contiguous


# --- augment into its output volumes -----------------------------------------------

def test_augment_holds_its_inputs_outputs_and_one_plane(tmp_path):
    # many small planes, so that one plane's scratch is small next to the volumes
    dims, crop = (32, 32, 400), (30, 28)
    rng = np.random.default_rng(4)
    image, labels = str(tmp_path / "img.ctv.json"), str(tmp_path / "lab.ctv.json")
    save_volume(CtVolume(rng.integers(-1000, 1000, dims).astype(np.int16)), image)
    save_label_volume(LabelVolume(rng.integers(0, 4, dims).astype(np.uint8)), labels)
    config = tmp_path / "augment.json"
    config.write_text(json.dumps({"crop_size": list(crop), "seed": 2}))

    def augment(stem):
        return main(["augment", image, labels, str(config),
                     "--out-image", str(tmp_path / f"{stem}_img.ctv.json"),
                     "--out-labels", str(tmp_path / f"{stem}_lab.ctv.json")])

    assert augment("warm") == 0  # first-call imports do not count
    code, peak = traced_peak(augment, "out")
    assert code == 0
    in_voxels, plane = int(np.prod(dims)), dims[0] * dims[1]
    crop_pixels = crop[0] * crop[1]
    out_voxels = crop_pixels * dims[2]
    bound = (3 * in_voxels + 5 * out_voxels  # the loaded int16 image and uint8 labels, the outputs
             + 8 * kernels.SLAB  # the intp copy of one histogrammed label slab
             # one plane's scratch: its float32 copy, its float64 mirror, its
             # outputs and the resampler's chunk buffers
             + 12 * plane + 5 * crop_pixels + 96 * min(CHUNK_PIXELS, crop_pixels)
             + (256 << 10))
    # per-plane lists and a stacked copy of the image would add 4 to 9 B per output voxel
    assert peak <= bound, (peak, bound)
    assert (tmp_path / "out_img.raw").read_bytes() == (tmp_path / "warm_img.raw").read_bytes()
