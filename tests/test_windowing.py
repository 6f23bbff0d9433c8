import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctwindow.volume import Slice2D
from ctwindow.windowing import (SwnParams, WindowSampler, WindowSpec, W_MIN,
                                apply_window, normalize_for_testing,
                                normalize_for_training, normalize_wir, preset)


def slc(*values):
    return Slice2D(np.array(values, dtype=np.float32).reshape(1, -1))


def out(s):
    return s.values.ravel()


def test_presets():
    soft = preset("soft_tissue")
    assert (soft.level, soft.half_width) == (40.0, 200.0)
    assert (soft.lower, soft.upper) == (-160.0, 240.0)
    lung = preset("lung")
    assert (lung.lower, lung.upper) == (-1150.0, 350.0)
    assert (lung.level, lung.half_width) == (-400.0, 750.0)
    whole = preset("whole_range")
    assert (whole.lower, whole.upper) == (-1000.0, 1000.0)
    with pytest.raises(ValueError, match="preset"):
        preset("bone")


def test_window_spec_floor():
    with pytest.raises(ValueError):
        WindowSpec(40.0, 0.5)


@pytest.mark.parametrize("level,half_width", [
    (40.0, 1e37), (40.0, 1e36), (0.0, 1e39), (1e30, 200.0), (-3e38, 1e38),
    (float("nan"), 200.0), (float("inf"), 200.0), (40.0, float("inf")),
    # float32 ends 384 HU apart, not 400; ends each rounded 3 HU, 7.65 output steps together
    (1e9, 200.0), (1e8 + 3, 200.0)])
def test_window_spec_rejects_windows_float32_cannot_represent(level, half_width):
    with pytest.raises(ValueError, match="not representable in float32"):
        WindowSpec(level, half_width)


@pytest.mark.parametrize("level,half_width", [
    (40.0, 6.6e35), (1e7 + 0.3, 200.0), (1e6, 200.0), (40.0, W_MIN), (-400.0, 750.0)])
def test_window_spec_accepts_windows_float32_rounds_by_under_half_a_step(level, half_width):
    w = WindowSpec(level, half_width)
    lower, upper = (float(np.float32(e)) for e in (w.lower, w.upper))
    assert (abs(lower - w.lower) + abs(upper - w.upper)) * 255 <= 0.5 * (w.upper - w.lower)


def test_every_accepted_huge_window_maps_without_overflow():
    # 255 times the width overflows float32 from a half-width of about 6.67e35 on
    accepted = 0
    for half_width in np.geomspace(1e35, 1e37, 41):
        try:
            w = WindowSpec(40.0, float(half_width))
        except ValueError:
            assert half_width > 6.6e35
            continue
        accepted += 1
        values = np.array([w.lower, -0.5 * w.upper, 40.0, 0.5 * w.upper, w.upper], np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = out(apply_window(slc(*values), w))
        expected = 255.0 * (values.astype(np.float64) - w.lower) / (w.upper - w.lower)
        assert np.allclose(got, expected, rtol=1e-6, atol=1e-4)
    assert 0 < accepted < 41


def test_apply_window_boundary_cases_exact():
    soft = preset("soft_tissue")
    values = out(apply_window(slc(240.0, -160.0, 40.0, 1000.0, -5000.0), soft))
    assert values[0] == 255.0
    assert values[1] == 0.0
    assert values[2] == 127.5
    assert values[3] == 255.0
    assert values[4] == 0.0


def test_normalize_wir_examples():
    values = out(normalize_wir(slc(0.0, -1000.0, 1000.0, 3000.0)))
    assert values[0] == 127.5
    assert values[1] == 0.0
    assert values[2] == 255.0
    assert values[3] == 255.0


def test_testing_mode_is_fixed_and_deterministic():
    s = slc(240.0, 40.0)
    stn = out(normalize_for_testing(s, "STN"))
    swn = out(normalize_for_testing(s, "SWN"))
    assert np.array_equal(stn, swn)
    assert stn[0] == 255.0
    wir = out(normalize_for_testing(s, "WIR"))
    assert wir[0] == pytest.approx(255.0 * 1240.0 / 2000.0, abs=1e-3)  # 158.1
    again = out(normalize_for_testing(s, "WIR"))
    assert np.array_equal(wir, again)


def test_training_mode_dispatch():
    s = slc(40.0)
    assert out(normalize_for_training(s, "STN"))[0] == 127.5
    with pytest.raises(ValueError, match="Sampler"):
        normalize_for_training(s, "SWN")
    with pytest.raises(ValueError, match="strategy"):
        normalize_for_training(s, "SWM")


def test_swn_zero_sigma_degenerates_to_stn():
    sampler = WindowSampler(SwnParams(0.0, 0.0, seed=42))
    rng = np.random.default_rng(0)
    s = Slice2D(rng.uniform(-2000, 2000, size=(16, 16)).astype(np.float32))
    for _ in range(5):
        swn = normalize_for_training(s, "SWN", sampler)
        stn = normalize_for_training(s, "STN")
        assert np.array_equal(swn.values, stn.values)


def test_successive_swn_draws_differ():
    sampler = WindowSampler(SwnParams(0.0, 100.0, seed=7))
    s = slc(40.0, 100.0, 200.0)
    first = out(normalize_for_training(s, "SWN", sampler))
    second = out(normalize_for_training(s, "SWN", sampler))
    assert not np.array_equal(first, second)


def test_sampler_draw_order_and_determinism():
    a = WindowSampler(SwnParams(50.0, 50.0, seed=123))
    b = WindowSampler(SwnParams(50.0, 50.0, seed=123))
    windows_a = [a.sample() for _ in range(10)]
    windows_b = [b.sample() for _ in range(10)]
    assert windows_a == windows_b


def test_sampler_zero_sigma_is_exactly_soft_tissue():
    sampler = WindowSampler(SwnParams(0.0, 0.0, seed=9))
    for _ in range(10):
        w = sampler.sample()
        assert (w.level, w.half_width) == (40.0, 200.0)


@pytest.mark.parametrize("sigmas", [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 50.0),
                                    (50.0, float("inf")), (-1.0, 0.0), (0.0, -1e-9)])
def test_swn_params_reject_negative_and_non_finite_sigmas(sigmas):
    with pytest.raises(ValueError, match="finite and >= 0"):
        SwnParams(*sigmas)


def test_sampled_width_floor_always_holds():
    sampler = WindowSampler(SwnParams(0.0, 1e6, seed=2))  # widths near zero are common
    widths = [sampler.sample().half_width for _ in range(2000)]
    assert min(widths) >= W_MIN


def test_sampler_statistics_quick():
    sampler = WindowSampler(SwnParams(50.0, 50.0, seed=31))
    levels = np.array([sampler.sample().level for _ in range(20000)])
    assert abs(levels.mean() - 40.0) < 1.5
    assert abs(levels.std(ddof=1) - 50.0) < 1.5


@given(
    values=st.lists(st.integers(-2000, 2000), min_size=1, max_size=64),
    level=st.integers(-400, 400),
    half_width=st.integers(1, 1000),
    offset=st.integers(-300, 300),
)
@settings(max_examples=200, deadline=None)
def test_shift_equivariance_bit_exact(values, level, half_width, offset):
    # integer HU grids keep float32 sums exact, the paper's shift setting
    s = slc(*[float(v) for v in values])
    shifted = slc(*[float(v + offset) for v in values])
    base = apply_window(s, WindowSpec(level, half_width))
    moved = apply_window(shifted, WindowSpec(level + offset, half_width))
    assert np.array_equal(base.values.view(np.uint32), moved.values.view(np.uint32))


@given(
    values=st.lists(st.floats(-5000, 5000, width=32), min_size=1, max_size=64),
    level=st.floats(-500, 500),
    half_width=st.floats(1, 1000),
)
@settings(max_examples=200, deadline=None)
def test_range_boundaries_and_monotonicity(values, level, half_width):
    w = WindowSpec(level, half_width)
    result = out(apply_window(slc(*values), w))
    assert np.all(result >= 0.0) and np.all(result <= 255.0)
    arr = np.array(values, dtype=np.float32)
    assert np.all(result[arr <= w.lower] == 0.0)
    assert np.all(result[arr >= w.upper] == 255.0)
    order = np.argsort(arr, kind="stable")
    assert np.all(np.diff(result[order]) >= 0.0)


def test_band_idempotence_exact_on_representable_grid():
    # W = 128 and integer HU make every step of the round trip exact in float32
    w = WindowSpec(40.0, 128.0)
    values = np.arange(int(w.lower), int(w.upper) + 1, dtype=np.float32)
    first = out(apply_window(Slice2D(values.reshape(1, -1)), w))
    back_to_hu = np.float32(w.lower) + first * np.float32(2 * w.half_width) / np.float32(255.0)
    second = out(apply_window(Slice2D(back_to_hu.reshape(1, -1)), w))
    assert np.array_equal(first, second)


def test_band_idempotence_within_one_ulp_generally():
    rng = np.random.default_rng(8)
    w = WindowSpec(37.0, 173.0)
    values = rng.uniform(w.lower, w.upper, size=512).astype(np.float32)
    first = out(apply_window(Slice2D(values.reshape(1, -1)), w))
    back = np.float32(w.lower) + first * np.float32(2 * w.half_width) / np.float32(255.0)
    second = out(apply_window(Slice2D(back.reshape(1, -1)), w))
    ulps = np.abs(first.view(np.int32) - second.view(np.int32))
    assert ulps.max() <= 1
