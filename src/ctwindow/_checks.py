"""The field rules (a number, a string, a choice) and their messages, each naming the field."""

import math
import numbers

FLOAT32_MAX = 3.4028234663852886e38  # float(np.finfo(np.float32).max)
MAX_SHIFTS = 1 << 16  # shifts per sweep: the whole-HU values of the int16 range


def number(value, what, whole=False, lo=None, hi=None, above=None, below=None):
    """``value`` if it is a finite real number in range, as int when ``whole``.

    The range is ``lo <= value <= hi`` and ``above < value < below`` (``below``
    only with ``above``), each bound optional. Anything else (a string, a bool,
    None, a list, NaN, an infinity, an int too large for a float, a fraction
    where a whole number is due) is a ValueError ``<what>: expected …, got …``.
    """
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value) and (not whole or float(value).is_integer())
    except OverflowError:  # an int too large for a float
        ok = False
    if not (ok and (lo is None or value >= lo) and (hi is None or value <= hi)
            and (above is None or value > above) and (below is None or value < below)):
        span = (f" in {lo}..{hi}" if hi is not None else f" >= {lo}" if lo is not None
                else f" in ({above}, {below})" if below is not None
                else f" > {above}" if above is not None else "")
        kind = "a whole number" if whole else "a finite number"
        raise ValueError(f"{what}: expected {kind}{span}, got {value!r}")
    return int(value) if whole else value


def text(value, what):
    """``value`` if it is a str, else a ValueError ``<what>: expected a string, got …``."""
    if not isinstance(value, str):
        raise ValueError(f"{what}: expected a string, got {value!r}")
    return value


def one_of(value, what, choices):
    """A ValueError ``<what>: expected one of …`` unless ``value`` is in ``choices``."""
    if value not in choices:
        raise ValueError(f"{what}: expected one of {', '.join(choices)}, got {value!r}")


def number_list(value, what, count, **bounds):
    """A list or tuple of ``count`` numbers, each checked by ``number``, as a tuple."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise ValueError(f"{what}: expected a list of {count} numbers, got {value!r}")
    return tuple(number(v, what, **bounds) for v in value)


def shift_grid(shifts, what="shifts"):
    """A sweep's shifts as a list: 1..MAX_SHIFTS numbers finite in float32, kept as given.

    A range is counted from its ends (``len()`` overflows past ``sys.maxsize``),
    so a grid over the cap fails before its list is built.
    """
    if isinstance(shifts, range):
        count = -((shifts.start - shifts.stop) // shifts.step)
    else:
        try:
            count = len(shifts)
        except TypeError:  # a number, None, a generator or a 0-d array
            raise ValueError(f"{what}: expected a list of numbers, got {shifts!r}") from None
    if count <= 0:
        raise ValueError(f"{what}: expected a nonempty grid")
    if count > MAX_SHIFTS:
        raise ValueError(f"{what}: at most {MAX_SHIFTS} shifts, got {count}")
    return [number(s, what, lo=-FLOAT32_MAX, hi=FLOAT32_MAX) for s in shifts]
