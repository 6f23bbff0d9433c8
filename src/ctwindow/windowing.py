"""Window normalization strategies: fixed tissue windows and stochastic windows.

A window (level L, half-width W) clamps intensities to [L-W, L+W] and
rescales the band linearly onto [0, 255] float32. Three strategies are
supported:

* ``STN``  - fixed soft-tissue window (L=40, W=200).
* ``WIR``  - whole intensity range, (L=0, W=1000).
* ``SWN``  - per-call random windows, L ~ N(40, x) and W ~ |N(200, y)|,
  so the same slice is normalized with a fresh window on every training
  pass; at test time SWN falls back to the fixed soft-tissue window.

Gaussian draws come from NumPy's PCG64 generator (ziggurat normals); the
stream is fully determined by the seed, level drawn before width.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .volume import Slice2D

STRATEGIES = ("STN", "WIR", "SWN")

W_MIN = 1.0  # floor on sampled half-widths; |N(200,y)| can land near zero

SOFT_TISSUE_LEVEL = 40.0
SOFT_TISSUE_HALF_WIDTH = 200.0

_PRESETS = {
    "soft_tissue": (SOFT_TISSUE_LEVEL, SOFT_TISSUE_HALF_WIDTH),  # band [-160, 240]
    "lung": (-400.0, 750.0),                                     # band [-1150, 350]
    "whole_range": (0.0, 1000.0),                                # band [-1000, 1000]
}


def _float32(x):
    """``x`` rounded to float32, as a Python float; OverflowError if it rounds to inf.

    Float64 arithmetic on float32 values rounded back to float32 is exactly
    float32 arithmetic (53 >= 2 * 24 + 2 bits), so this checks the kernel's
    float32 steps without NumPy scalars and their overflow warnings.
    """
    return struct.unpack("f", struct.pack("f", x))[0]


@dataclass(frozen=True)
class WindowSpec:
    """One tissue window: center level and half-width, both in HU."""

    level: float
    half_width: float

    def __post_init__(self):
        if not self.half_width >= W_MIN:
            raise ValueError(f"half_width must be >= {W_MIN} HU, got {self.half_width}")
        # The kernel windows in float32 and scales (v - lower) * 255 before it
        # divides, so the band's ends and 255 times its float32 width must all
        # be finite float32 numbers, the ends distinct; otherwise voxels would
        # come out 255 or NaN where the answer lies inside [0, 255]. Rounding
        # the ends to float32 may move an output by at most half a step (a
        # step is the width / 255); otherwise a window far from 0 HU would be
        # windowed visibly narrower or wider than it was asked for.
        try:
            lower, upper = _float32(self.lower), _float32(self.upper)
            representable = (math.isfinite(lower) and lower < upper
                             and math.isfinite(_float32(_float32(upper - lower) * 255.0))
                             and (abs(lower - self.lower) + abs(upper - self.upper)) * 255.0
                             <= 0.5 * (self.upper - self.lower))
        except OverflowError:
            representable = False
        if not representable:
            raise ValueError(f"window [{self.lower}, {self.upper}] (level {self.level}, "
                             f"half_width {self.half_width}) is not representable in float32: "
                             f"its ends must be distinct finite float32 numbers, rounding them "
                             f"to float32 may move an output by at most half a step, and 255 "
                             f"times its width must be at most "
                             f"{float(np.finfo(np.float32).max)}")

    @property
    def lower(self):
        return self.level - self.half_width

    @property
    def upper(self):
        return self.level + self.half_width


@dataclass(frozen=True)
class SwnParams:
    """Stochastic-window coefficients: sigma of the level and width draws."""

    sigma_level: float
    sigma_width: float
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 <= s < np.inf for s in (self.sigma_level, self.sigma_width)):
            raise ValueError(f"sigma_level and sigma_width must be finite and >= 0, "
                             f"got {self.sigma_level} and {self.sigma_width}")


class WindowSampler:
    """Deterministic stream of random windows centered on the soft-tissue window."""

    def __init__(self, params):
        self.params = params
        self._rng = np.random.default_rng(params.seed)

    def sample(self):
        """Draw one window: level first, then width, |width| floored at W_MIN."""
        level = self._rng.normal(SOFT_TISSUE_LEVEL, self.params.sigma_level)
        width = abs(self._rng.normal(SOFT_TISSUE_HALF_WIDTH, self.params.sigma_width))
        return WindowSpec(level, max(width, W_MIN))


def preset(name):
    """Named window presets: soft_tissue, lung, whole_range."""
    try:
        level, half_width = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown window preset {name!r}; "
                         f"expected one of {sorted(_PRESETS)}") from None
    return WindowSpec(level, half_width)


def apply_window(s, window):
    """Clamp a slice to the window band and rescale onto [0, 255] float32.

    The mapping is monotone; values at or below the band floor map to
    exactly 0 and values at or above the band ceiling to exactly 255.
    """
    out = _kernels.window_normalize(s.values, window.lower, window.upper)
    return Slice2D(out, axis=s.axis, index=s.index)


def normalize_wir(s):
    """Whole-intensity-range normalization; clamps outside [-1000, 1000]."""
    return apply_window(s, preset("whole_range"))


def strategy_window(strategy, mode):
    """A strategy's fixed window in mode "train" or "test"; None for SWN training."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if strategy == "WIR":
        return preset("whole_range")
    if strategy == "SWN" and mode == "train":
        return None
    return preset("soft_tissue")


def normalize_for_training(s, strategy, sampler=None):
    """Training-time normalization; SWN draws a fresh window per call."""
    window = strategy_window(strategy, "train")
    if window is None:
        if sampler is None:
            raise ValueError("strategy SWN requires a WindowSampler")
        window = sampler.sample()
    return apply_window(s, window)


def normalize_for_testing(s, strategy):
    """Test-time normalization: never random; SWN uses the soft-tissue window."""
    return apply_window(s, strategy_window(strategy, "test"))
