"""The shift sweep: mean dice per (shift, label) of a segmenter on shifted test volumes.

The test volumes are shifted over a HU grid and re-normalized with the
strategy's test-time window. The sweep reads every shift's dice counts off
each test subject's sorted voxel values (see ``run_shift_sweep``), because
normalization is monotone and the classifier is piecewise constant in
normalized intensity. It scores the named label ids only, in one loop over
subjects (``_subject_dice``), each into its (shifts, named ids) dice table,
on the calling thread alone. ``run_shift_sweep`` returns a list of
``SweepRow``s, one per (shift, label).
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._checks import shift_grid, text
from .metrics import dice_table
from .model import BandSegmenter
from .phantom import _entries, _pair, _Subject, _test_subject
from .windowing import strategy_window

SWEEP_CSV_COLUMNS = ("shift_hu", "strategy", "label_id", "label_name", "mean_dice")


@dataclass
class SweepRow:
    shift_hu: float
    strategy: str
    label_id: int
    label_name: str
    mean_dice: float



def run_shift_sweep(seg, test, strategy, shifts, strategy_label=None):
    """Mean dice per (shift, label) of a segmenter on shifted test volumes, as ``SweepRow``s.

    The rows come shift by shift, label ids ascending within a shift, each
    named ``strategy_label`` (a string) or, when it is None, ``strategy``.
    The labels are the nonzero ids named by any test subject, each under
    the first name given to it.

    ``test`` holds (CtVolume, LabelVolume) pairs (``_test_subject``; a
    malformed entry is a ValueError naming it) or subjects that
    ``run_experiment`` built once for every strategy from the phantom draws:
    the label names, and the values of each id present sorted as float32.
    Every entry is checked, in index order, before one is reduced; then one
    loop takes the subjects in turn, reducing a pair when its turn comes, so
    one pair's sorted values are held at a time. ``_subject_dice`` scores a
    subject over the named ids only, into one C-ordered (shifts, subjects,
    ids) float64 array whose mean over axis 1 gives the rows. So the sweep
    holds one float64 per (shift, subject, named id), and one subject's
    integer counts per (named id, shift, run).

    The counts are exact. The test-time map
    ``n(x) = window_normalize(f32(x) + f32(shift))`` is monotone
    non-decreasing in a voxel's value x: float32 addition rounds
    monotonically, and clip, subtract, add +0.0, multiply and divide by
    positives, and the 255 pin are all monotone. ``classify_bands`` looks at n only
    through tests that switch at most once as n grows: ``n >= lo_j`` and
    ``n > hi_j`` for every band, and in ``nearest_center`` mode one float64
    midpoint test per pair of bands (see ``_thresholds``). So at one shift
    the prediction is constant on each run of voxel values between the
    points where a test switches.
    ``_run_starts`` bisects float32 order keys for those points, probing
    with the real ``window_normalize`` and the kernels' comparisons, each
    from a checked bracket around the window's inverse where it holds the
    point, else over every key; ``seg.predict`` on a run's first value
    labels the run, and NaN voxels are a run of their own.
    ``_subject_dice`` then cuts each id's sorted values at the run starts
    with ``np.searchsorted`` and sums the subject's counts as whole integer
    arrays.
    """
    if not isinstance(seg, BandSegmenter):
        raise ValueError(f"seg: expected a BandSegmenter, got {seg!r}")
    if not test:
        raise ValueError("test set must be nonempty")
    entries = _entries(test, "test")
    shifts = shift_grid(shifts)
    window = strategy_window(strategy, "test")
    label = strategy if strategy_label is None else text(strategy_label, "strategy_label")
    entries = [e if isinstance(e, _Subject) else _pair(e, f"test[{i}]") for i, e in entries]
    if not entries:  # an empty generator
        raise ValueError("test set must be nonempty")

    label_names = {}
    for entry in entries:
        for lid, name in (entry if isinstance(entry, _Subject) else entry[1]).label_names.items():
            if lid != 0:
                label_names.setdefault(lid, name)
    label_ids = sorted(label_names)
    shift32 = np.array([np.float32(s) for s in shifts], dtype=np.float32)
    dice_of = _subject_dice(seg, window, shift32, label_ids)
    # C-ordered (shifts, subjects, ids), so each shift's block is the C-ordered
    # (subjects, ids) array that one mean per shift would sum: NumPy sums the rows
    # of such an array in turn, but a single column of 8 or more pairwise.
    scores = np.empty((len(shifts), len(entries), len(label_ids)))
    for i, entry in enumerate(entries):
        scores[:, i] = dice_of(entry if isinstance(entry, _Subject) else _test_subject(*entry))
    return [SweepRow(shift, label, lid, label_names[lid], mean)
            for shift, row in zip(shifts, scores.mean(axis=1).tolist())
            for lid, mean in zip(label_ids, row)]


_NEG_INF_KEY = 0x007FFFFF  # order key of float32 -inf
_POS_INF_KEY = 0xFF800000  # order key of float32 +inf
# Float32 ulps either side of a run-start search's guess that its first bracket reaches
# (see ``_run_starts``), taken at the largest magnitude the search's arithmetic meets.
_BRACKET_ULPS = 16


def _key_values(keys):
    """float32 values of uint32 order keys, which sort like the values (-0.0 before 0.0)."""
    keys = np.asarray(keys, dtype=np.uint32)
    return np.where(keys & 0x80000000, keys & 0x7FFFFFFF, ~keys).view(np.float32)


def _value_keys(values):
    """uint32 order keys of float32 values, the inverse of ``_key_values``."""
    bits = np.asarray(values, dtype=np.float32).view(np.uint32)
    return np.where(bits & 0x80000000, ~bits, bits | 0x80000000)


def _thresholds(seg):
    """The tests classify_bands makes on n, each as a threshold that n crosses upward.

    Test t holds where ``n > at[t]`` if ``above[t]``, else where
    ``n >= at[t]``, for float64 ``at``, which a float32 n meets exactly:
    ``n >= lo_j``, then ``n > hi_j``, then in ``nearest_center`` mode, for
    each pair j < k, band k's test against band j at their float64 midpoint
    m_jk: ``n > m_jk`` if c_k > c_j, else ``n >= m_jk``, which switches
    where the kernel's ``n < m_jk`` does.
    """
    n_bands = len(seg.bands)
    j, k = np.triu_indices(n_bands if seg.tie_break == "nearest_center" else 0, 1)
    center = seg._center.astype(np.float64)
    at = np.concatenate([seg._lo, seg._hi, 0.5 * (center[j] + center[k])])
    above = np.concatenate([np.repeat([False, True], n_bands), center[k] > center[j]])
    return at, above


def _run_starts(seg, window, shift32):
    """Per shift, the first values of the runs on which the prediction is constant.

    ``shift32`` is a float32 column of shifts. Returns float32 (shifts,
    tests + 2), each row ascending: -inf, then the smallest value at which
    each test switches (NaN for a test that never does), then NaN, which
    starts the run of NaN voxels.

    A test holds at a float32 order key where the real ``window_normalize``
    of the key's value plus the shift passes the kernels' comparison
    (``holds``). That is monotone in the key, so bisecting any bracket that
    fails at its lower key and holds at its upper key ends on the first key
    that holds, whatever the bracket. Each (shift, test) starts from a
    guess, the window's float64 inverse ``x0 = f32(lower + at * (upper -
    lower) / 255 - shift)``, and a bracket ``_BRACKET_ULPS`` float32 ulps
    either side of it, the ulps taken at the largest magnitude among that
    HU value, the shift and the window's ends, which bounds the rounding of
    the kernel's float32 steps. One probe reads both ends of every bracket
    and the full key range [-inf, +inf]. A bracket is kept where it fails
    at its lower end and holds at its upper end; every other (shift, test)
    that switches over the full range is bisected over all of it. A guess
    on the float32 plateau near x = 0, where ``x + shift`` rounds to the
    shift, reaches across 0.0 and so over most keys: it takes about as
    many steps as the full range. A test that never switches is closed at
    once, on the keys of -inf and -FLT_MAX, so it is probed at -inf alone;
    probes near +-FLT_MAX would overflow ``x + shift`` for shifts of 1e31
    and more. The bisection runs until every bracket is one key wide.
    """
    at, above = _thresholds(seg)
    lower, upper = window.lower, window.upper

    def holds(keys):
        n = _kernels.window_normalize(_key_values(keys) + shift32, lower, upper)
        return np.where(above, n > at, n >= at)

    hu = lower + at * (upper - lower) / 255.0
    shift = shift32.astype(np.float64)
    scale = np.maximum(np.maximum(np.abs(hu), np.abs(shift)), max(abs(lower), abs(upper)))
    with np.errstate(over="ignore", invalid="ignore"):  # a guess beyond float32 fails its probe
        guess = (hu - shift).astype(np.float32).astype(np.float64)
        reach = _BRACKET_ULPS * np.spacing(scale.astype(np.float32)).astype(np.float64)
        guessed = _value_keys(np.stack([guess - reach, guess + reach]).astype(np.float32))
    guessed = np.clip(guessed.astype(np.int64), _NEG_INF_KEY, _POS_INF_KEY)
    full = np.broadcast_to(np.array([_NEG_INF_KEY, _POS_INF_KEY], dtype=np.int64)[:, None, None],
                           guessed.shape)
    guess_lo, guess_hi, full_lo, full_hi = holds(np.concatenate([guessed, full]))
    kept = guess_hi & ~guess_lo
    lo = np.where(kept, guessed[0], _NEG_INF_KEY)
    hi = np.where(kept, guessed[1], _POS_INF_KEY)
    switches = full_hi & ~full_lo
    lo[~switches], hi[~switches] = _NEG_INF_KEY, _NEG_INF_KEY + 1
    while (hi - lo > 1).any():  # false at lo and true at hi wherever a test switches
        mid = (lo + hi) // 2
        up = holds(mid)
        lo = np.where(up, lo, mid)
        hi = np.where(up, mid, hi)
    starts = np.sort(np.where(switches, _key_values(hi), np.float32(np.nan)), axis=1)
    edge = np.ones((len(starts), 1), dtype=np.float32)
    return np.hstack([-np.inf * edge, starts, np.nan * edge])


def _subject_dice(seg, window, shift32, label_ids):
    """A test subject's float64 dice per (shift, id) for ``label_ids``, read off its sorted values.

    Returns a function of the subject. The run starts and run labels are
    computed once, here, with the (ids, shifts, runs) mask of the runs each
    id's label holds. Each id's sorted values are cut at every shift's run
    starts by one ``np.searchsorted``, which gives its voxels per (shift,
    run); the ids not in ``label_ids``, background 0 among them, share one
    extra row. An id's predicted count is the sum of every row over the runs
    its label holds, its overlap that of its own row, and its truth count
    its number of values; ``metrics.dice_table`` turns the three into dice.
    """
    shift32 = shift32[:, None]
    starts = _run_starts(seg, window, shift32)
    run_labels = seg.predict(_kernels.window_normalize(starts + shift32,
                                                       window.lower, window.upper))
    held = run_labels == np.array(label_ids, dtype=np.intp)[:, None, None]
    row_of = {lid: k for k, lid in enumerate(label_ids)}

    def dice_of(subject):
        in_run = np.zeros((len(label_ids) + 1, *run_labels.shape), dtype=np.intp)
        truth = np.zeros(len(label_ids) + 1, dtype=np.intp)
        for lid, values in subject.values.items():
            k = row_of.get(lid, len(label_ids))
            in_run[k] += np.diff(np.searchsorted(values, starts), axis=1, append=values.size)
            truth[k] += values.size
        predicted = np.where(held, in_run.sum(axis=0), 0).sum(axis=2).T
        overlap = np.where(held, in_run[:-1], 0).sum(axis=2).T
        return dice_table((predicted, truth[:-1], overlap))

    return dice_of


def write_sweep_csv(rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_CSV_COLUMNS)
        for r in rows:
            writer.writerow([r.shift_hu, r.strategy, r.label_id, r.label_name,
                             str(r.mean_dice)])
