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
``WindowSampler`` draws its standard normals in blocks and scales each
block in NumPy, which gives the values of one scalar ``Generator.normal``
call per draw, but still returns one window per ``sample()`` call.
``WindowSpec`` accepts a window well inside float32's exact range without
the full representability check, which it provably passes.
"""

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._checks import number, one_of
from .volume import Slice2D

STRATEGIES = ("STN", "WIR", "SWN")
MODES = ("train", "test")

W_MIN = 1.0  # floor on sampled half-widths; |N(200,y)| can land near zero

SOFT_TISSUE_LEVEL = 40.0
SOFT_TISSUE_HALF_WIDTH = 200.0


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
        """Accept the window or raise ``_check_window``'s error.

        A window of two Python floats with ``half_width >= W_MIN`` and
        ``|level| + half_width <= 2048`` passes ``_check_window``, so it is
        accepted without it; the sampler and the fixed windows pass floats. Its
        float64 ends, rounded from ``level -+ half_width``, are at most 2048
        in magnitude, because rounding is monotone and ``|level -+ half_width|
        <= |level| + half_width``. They lie ``2 * half_width >= 2`` apart,
        less at most 2**-41 of rounding. Float32 numbers of magnitude up to
        2048 are at most 2**-13 apart, so rounding an end to float32 moves it
        by at most 2**-14 HU. So the float32 ends are finite and distinct,
        255 times their width (at most 4096) is finite, and the check's sum
        of the two moves times 255 is at most ``2 * 2**-14 * 255 < 0.032``,
        against a bound of half the width, at least ``0.5 * (2 - 2**-41)``.
        Every other window, NaN and infinite ones included, takes the full
        check.
        """
        level, half_width = self.level, self.half_width
        if not (type(level) is float and type(half_width) is float
                and half_width >= W_MIN and abs(level) + half_width <= 2048.0):
            _check_window(level, half_width)

    @property
    def lower(self):
        return self.level - self.half_width

    @property
    def upper(self):
        return self.level + self.half_width


def _check_window(level, half_width):
    """Raise ValueError unless the kernel windows [level -+ half_width] as asked."""
    for value, what in ((level, "level"), (half_width, "half_width")):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            number(value, what)  # raises; NaN and the infinities fail as unrepresentable below
    if not half_width >= W_MIN:
        raise ValueError(f"half_width must be >= {W_MIN} HU, got {half_width}")
    # The kernel windows in float32 and scales (v - lower) * 255 before it
    # divides, so the band's ends and 255 times its float32 width must all
    # be finite float32 numbers, the ends distinct; otherwise voxels would
    # come out 255 or NaN where the answer lies inside [0, 255]. Rounding
    # the ends to float32 may move an output by at most half a step (a
    # step is the width / 255); otherwise a window far from 0 HU would be
    # windowed visibly narrower or wider than it was asked for.
    try:
        lower, upper = level - half_width, level + half_width
        lower32, upper32 = _float32(lower), _float32(upper)
        representable = (math.isfinite(lower32) and lower32 < upper32
                         and math.isfinite(_float32(_float32(upper32 - lower32) * 255.0))
                         and (abs(lower32 - lower) + abs(upper32 - upper)) * 255.0
                         <= 0.5 * (upper - lower))
    except OverflowError:
        representable = False
    if not representable:
        raise ValueError(f"window [{level - half_width}, {level + half_width}] (level {level}, "
                         f"half_width {half_width}) is not representable in float32: "
                         f"its ends must be distinct finite float32 numbers, rounding them "
                         f"to float32 may move an output by at most half a step, and 255 "
                         f"times its width must be at most "
                         f"{float(np.finfo(np.float32).max)}")


SOFT_TISSUE = WindowSpec(SOFT_TISSUE_LEVEL, SOFT_TISSUE_HALF_WIDTH)  # STN: band [-160, 240]
WHOLE_RANGE = WindowSpec(0.0, 1000.0)                               # WIR: band [-1000, 1000]


@dataclass(frozen=True)
class SwnParams:
    """Stochastic-window coefficients: sigma of the level and width draws."""

    sigma_level: float
    sigma_width: float
    seed: int = 0

    def __post_init__(self):
        number(self.sigma_level, "sigma_level", lo=0)
        number(self.sigma_width, "sigma_width", lo=0)
        # stored as int (the class is frozen): NumPy takes no float seed, 2.0 included
        object.__setattr__(self, "seed", number(self.seed, "seed", whole=True, lo=0))


_DRAW_BLOCK = 512  # standard normals per refill; even, so no window's pair straddles two


class WindowSampler:
    """Deterministic stream of random windows centered on the soft-tissue window.

    ``Generator.normal(loc, scale)`` returns ``loc + scale * z`` for the
    stream's next standard normal z, and ``standard_normal(n)`` gives the
    next n of them. So the sampler draws z in blocks of ``_DRAW_BLOCK`` and
    scales each block in NumPy into a list of levels and one of half-widths,
    one window per ``sample()`` call. Its float64 multiply and add are
    separate ufunc calls, each rounded once as Python's float operations
    are, and overflow to an infinity as they do, without a warning; the
    window that holds one fails in ``WindowSpec``, at its own draw.
    """

    def __init__(self, params):
        self._rng = np.random.default_rng(params.seed)
        self._sigma_level = float(params.sigma_level)
        self._sigma_width = float(params.sigma_width)
        self._levels = self._half_widths = []
        self._next = 0

    def sample(self):
        """Draw one window: level first, then width, |width| floored at W_MIN."""
        if self._next == len(self._levels):
            z = self._rng.standard_normal(_DRAW_BLOCK)
            with np.errstate(over="ignore", invalid="ignore"):
                self._levels = (SOFT_TISSUE_LEVEL + self._sigma_level * z[0::2]).tolist()
                width = np.abs(SOFT_TISSUE_HALF_WIDTH + self._sigma_width * z[1::2])
                self._half_widths = np.maximum(width, W_MIN).tolist()
            self._next = 0
        i = self._next
        self._next += 1
        return WindowSpec(self._levels[i], self._half_widths[i])


def apply_window(s, window):
    """Clamp a slice to the window band and rescale onto [0, 255] float32.

    The mapping is monotone; values at or below the band floor map to
    exactly 0 and values at or above the band ceiling to exactly 255.
    """
    out = _kernels.window_normalize(s.values, window.lower, window.upper)
    return Slice2D(out)


def strategy_window(strategy, mode):
    """A strategy's fixed window in a mode of ``MODES``; None for SWN training."""
    one_of(strategy, "strategy", STRATEGIES)
    one_of(mode, "mode", MODES)
    if strategy == "WIR":
        return WHOLE_RANGE
    if strategy == "SWN" and mode == "train":
        return None
    return SOFT_TISSUE


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
