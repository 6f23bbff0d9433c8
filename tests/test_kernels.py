import subprocess
import sys

import numpy as np
import pytest

import ctwindow._kernels as kernels
from ctwindow._kernels import _numpy as numpy_backend

try:
    from ctwindow._kernels import _core as cython_backend
except ImportError:
    cython_backend = None

BACKENDS = [pytest.param(numpy_backend, id="numpy")]
if cython_backend is not None:
    BACKENDS.append(pytest.param(cython_backend, id="cython"))


def random_values(n=50000, seed=0):
    return np.random.default_rng(seed).uniform(-3000, 3000, n).astype(np.float32)


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_normalize_matches_reference_expression(backend):
    src = random_values()
    lo, hi = np.float32(-160.0), np.float32(240.0)
    out = np.empty_like(src)
    backend.window_normalize(src, lo, hi, out)
    expected = np.clip(src, lo, hi)
    expected = (expected - lo) * np.float32(255.0) / (hi - lo)
    assert np.allclose(out, expected, atol=2e-5)
    assert out.min() >= 0.0 and out.max() <= 255.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_window_normalize_in_place_matches_a_separate_out(backend):
    src = random_values(seed=2)
    lo, hi = np.float32(-160.0), np.float32(240.0)
    out = np.empty_like(src)
    backend.window_normalize(src, lo, hi, out)
    backend.window_normalize(src, lo, hi, src)
    assert np.array_equal(src.view(np.uint32), out.view(np.uint32))


@pytest.mark.skipif(cython_backend is None, reason="extension not built")
def test_backends_are_bit_identical():
    src = random_values(seed=4)
    for lo, hi in ((-160.0, 240.0), (-1000.0, 1000.0), (12.5, 13.75)):
        out_np = np.empty_like(src)
        out_cy = np.empty_like(src)
        numpy_backend.window_normalize(src, np.float32(lo), np.float32(hi), out_np)
        cython_backend.window_normalize(src, np.float32(lo), np.float32(hi), out_cy)
        assert np.array_equal(out_np.view(np.uint32), out_cy.view(np.uint32))


@pytest.mark.skipif(cython_backend is None, reason="extension not built")
@pytest.mark.parametrize("mode", [0, 1])
def test_classify_backends_agree(mode):
    rng = np.random.default_rng(9)
    src = rng.uniform(0, 255, 20000).astype(np.float32)
    lo = np.array([10, 50, 40], np.float32)
    hi = np.array([60, 120, 200], np.float32)
    center = (lo + hi) / 2
    labels = np.array([1, 2, 3], np.uint8)
    out_np = np.zeros(src.shape, np.uint8)
    out_cy = np.zeros(src.shape, np.uint8)
    numpy_backend.classify_bands(src, lo, hi, center, labels, mode, out_np)
    cython_backend.classify_bands(src, lo, hi, center, labels, mode, out_cy)
    assert np.array_equal(out_np, out_cy)


@pytest.mark.parametrize("backend", BACKENDS)
def test_classify_semantics(backend):
    lo = np.array([0.0, 0.0], np.float32)
    hi = np.array([10.0, 10.0], np.float32)
    center = np.array([5.0, 9.0], np.float32)
    labels = np.array([1, 2], np.uint8)
    src = np.array([-1.0, 2.0, 8.0, 7.0, 11.0], np.float32)
    lowest = np.zeros(5, np.uint8)
    backend.classify_bands(src, lo, hi, center, labels, 0, lowest)
    assert lowest.tolist() == [0, 1, 1, 1, 0]
    nearest = np.zeros(5, np.uint8)
    backend.classify_bands(src, lo, hi, center, labels, 1, nearest)
    # 7.0 is equidistant from both centers: ties go to the lowest id
    assert nearest.tolist() == [0, 1, 2, 1, 0]


@pytest.mark.parametrize("backend", BACKENDS)
def test_label_overlap_counts_against_bincount(backend):
    rng = np.random.default_rng(3)
    a = rng.integers(0, 9, 10000).astype(np.uint8)
    b = rng.integers(0, 9, 10000).astype(np.uint8)
    counts = np.zeros((3, 256), np.int64)
    backend.label_overlap_counts(a, b, counts)
    assert np.array_equal(counts[0, :9], np.bincount(a, minlength=9))
    assert np.array_equal(counts[1, :9], np.bincount(b, minlength=9))
    assert np.array_equal(counts[2, :9], np.bincount(a[a == b], minlength=9))


def test_wrapper_shape_and_dtype_handling():
    values = np.arange(12, dtype=np.int16).reshape(3, 4)
    result = kernels.window_normalize(values, 0.0, 11.0)
    assert result.shape == (3, 4) and result.dtype == np.float32
    with pytest.raises(KeyError):
        kernels.classify_bands(values, [0.0], [1.0], [0.5], [1], tie_break="bogus")
    with pytest.raises(ValueError, match="shape"):
        kernels.label_overlap_counts(np.zeros(3, np.uint8), np.zeros(4, np.uint8))


def test_env_var_forces_python_backend():
    import os

    code = "import ctwindow._kernels as k; print(k.BACKEND)"
    env = dict(os.environ, CTWINDOW_KERNELS="python")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=env)
    assert result.stdout.strip() == "numpy"
