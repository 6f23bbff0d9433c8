import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ScalarWindowSampler

from ctwindow import windowing
from ctwindow.volume import Slice2D
from ctwindow.windowing import (SOFT_TISSUE, WHOLE_RANGE, SwnParams, WindowSampler, WindowSpec,
                                W_MIN, _DRAW_BLOCK, _check_window, apply_window,
                                normalize_for_testing, normalize_for_training)


def slc(*values):
    return Slice2D(np.array(values, dtype=np.float32).reshape(1, -1))


def out(s):
    return s.values.ravel()


def test_presets():
    assert (SOFT_TISSUE.level, SOFT_TISSUE.half_width) == (40.0, 200.0)
    assert (SOFT_TISSUE.lower, SOFT_TISSUE.upper) == (-160.0, 240.0)
    assert (WHOLE_RANGE.lower, WHOLE_RANGE.upper) == (-1000.0, 1000.0)


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
    values = out(apply_window(slc(240.0, -160.0, 40.0, 1000.0, -5000.0), SOFT_TISSUE))
    assert values[0] == 255.0
    assert values[1] == 0.0
    assert values[2] == 127.5
    assert values[3] == 255.0
    assert values[4] == 0.0


def test_normalize_wir_examples():
    values = out(normalize_for_testing(slc(0.0, -1000.0, 1000.0, 3000.0), "WIR"))
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


def outcomes(sampler, count):
    """Each of ``count`` draws as (type, level, half-width) in hex, or its ValueError message."""
    drawn = []
    for _ in range(count):
        try:
            w = sampler.sample()
        except ValueError as exc:
            drawn.append(str(exc))
        else:
            drawn.append((type(w.level), type(w.half_width), w.level.hex(), w.half_width.hex()))
    return drawn


# 1e308 * z overflows to +-inf wherever |z| > 1.8: those draws fail in WindowSpec
SIGMAS = st.one_of(st.sampled_from([0.0, 1e4, 1e36, 1e308]), st.floats(0.0, 500.0))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), x=SIGMAS, y=SIGMAS)
def test_buffered_draws_equal_scalar_normal_draws(seed, x, y):
    """Values bit for bit, and which draws fail with which message, over several draw blocks.

    Every warning is an error here, so the block arithmetic must overflow as
    Python's floats do: to an infinity, silently. Where the platform fuses
    ``loc + scale * z`` inside ``Generator.normal``, this fails.
    """
    params = SwnParams(x, y, seed=seed)
    count = _DRAW_BLOCK + _DRAW_BLOCK // 2 + 3  # 1,542 standard normals: four draw blocks
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert outcomes(WindowSampler(params), count) == \
            outcomes(ScalarWindowSampler(params), count)


def nudged(x, steps):
    """``x`` moved by ``steps`` float64 ulps."""
    for _ in range(abs(steps)):
        x = math.nextafter(x, math.copysign(math.inf, steps))
    return x


SPECIAL = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 3.4e38, 1e36,
                           0.0, -0.0, W_MIN, 2048.0, -2048.0, 2047.0, 5e-324])


@st.composite
def window_args(draw):
    """(level, half_width) pairs, most of them on or near ``|level| + half_width = 2048``.

    The rest are arbitrary, special, or of any magnitude up to 2**60 with
    narrow widths, where float32 rounding makes the full check reject.
    """
    kind = draw(st.sampled_from(["edge", "edge", "floor", "scaled", "any"]))
    if kind == "any":
        return draw(st.one_of(SPECIAL, st.floats())), draw(st.one_of(SPECIAL, st.floats()))
    if kind == "scaled":
        level = draw(st.integers(-2 ** 53, 2 ** 53)) * 2.0 ** draw(st.integers(-53, 7))
        return level, draw(st.floats(0.5, 2.0)) * 2.0 ** draw(st.integers(0, 12))
    level = draw(st.one_of(st.floats(-2047.0, 2047.0), st.sampled_from([0.0, -0.0, 2047.0])))
    steps = draw(st.integers(-3, 3))
    if kind == "edge":
        return level, nudged(2048.0 - abs(level), steps)
    return nudged(math.copysign(2048.0 - W_MIN, level), draw(st.integers(-3, 3))), \
        nudged(W_MIN, steps)


def check_error(make):
    try:
        make()
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=1000, deadline=None)
@given(args=window_args())
def test_window_fast_accept_agrees_with_the_full_check(args):
    level, half_width = args
    assert check_error(lambda: WindowSpec(level, half_width)) == \
        check_error(lambda: _check_window(level, half_width))


def test_window_fast_accept_skips_the_full_check_only_inside_its_bound():
    with mock.patch.object(windowing, "_check_window",
                           side_effect=windowing._check_window) as full:
        WindowSpec(40.0, 200.0)
        WindowSpec(-2047.0, 1.0)
        assert full.call_count == 0
        WindowSpec(nudged(-2047.0, -3), 1.0)
        WindowSpec(1e6, 200.0)
        assert full.call_count == 2


# (True, 0.0) was taken as sigma 1
@pytest.mark.parametrize("sigmas", [(float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 50.0),
                                    (50.0, float("inf")), (-1.0, 0.0), (0.0, -1e-9), (True, 0.0)])
def test_swn_params_reject_negative_and_non_finite_sigmas(sigmas):
    with pytest.raises(ValueError, match="^sigma_(level|width): expected a finite number >= 0, "):
        SwnParams(*sigmas)


@pytest.mark.parametrize("seed", [1.5, -1])
def test_swn_params_seed_is_a_whole_number_at_least_0(seed):
    # both failed only in NumPy, at the sampler, and without the field name
    with pytest.raises(ValueError, match=f"^seed: expected a whole number >= 0, got {seed}$"):
        SwnParams(1.0, 1.0, seed=seed)
    assert SwnParams(1.0, 1.0, seed=2.0).seed == 2


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
