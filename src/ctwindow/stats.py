"""Paired nonparametric method comparison with FDR correction.

Wilcoxon signed-rank conventions: zero differences are dropped; |d| ranks
use mid-rank ties; the statistic is the positive-rank sum W+. For
``n_effective`` up to ``EXACT_CUTOFF`` (20) the two-sided p-value
is exact, computed from the full distribution of W+ over all 2^n sign
assignments of the observed ranks; beyond that a normal approximation with
continuity and tie-variance corrections is used.

FDR adjustment is Benjamini-Hochberg step-up with an explicit comparison
count m, which may exceed the number of p-values passed (comparisons run
in other calls still count toward the family).
"""

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import number, text
from .metrics import summarize

EXACT_CUTOFF = 20

COMPARISON_CSV_COLUMNS = (
    "organ", "method", "reference", "n", "median", "mean", "std",
    "W", "p_raw", "p_fdr", "symbol", "fdr_significant",
)

SYMBOL_NOT_SIGNIFICANT = "—"
SYMBOL_HIGHER = "↑"
SYMBOL_LOWER = "↓"
SYMBOL_REFERENCE = "Ref."


class ZeroDifferencesError(ValueError):
    """All paired differences are zero: no test is possible."""


@dataclass
class WilcoxonResult:
    n_effective: int
    statistic: float
    p_two_sided: float
    method: str  # "exact" | "normal_approx"


@dataclass
class ComparisonRow:
    organ: str
    method: str
    reference: str
    summary: object
    statistic: float = None
    p_raw: float = None
    p_fdr: float = None
    symbol: str = SYMBOL_REFERENCE
    fdr_significant: bool = None


def _exact_positive_rank_distribution(ranks):
    """Counts of each value of 2*W+ over all sign assignments of the ranks."""
    doubled = np.rint(2.0 * np.asarray(ranks)).astype(np.int64)
    dist = np.zeros(int(doubled.sum()) + 1, dtype=np.int64)
    dist[0] = 1
    for r in doubled:  # r >= 2: mid-ranks are at least 1
        dist[r:] = dist[r:] + dist[:-r]
    return dist


def _average_ranks(x):
    """Mid-ranks of a 1D array (1-based, ties share their mean rank) and the tie-group sizes.

    Every rank is a half-integer, so it is exact in float64 and equals
    ``scipy.stats.rankdata(x)``; the group sizes come in ascending value order.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], x.size)
    sizes = ends - starts
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), sizes)
    return ranks, sizes


# Cephes ndtr.c, the standard normal CDF behind scipy.special.ndtr and so
# scipy.stats.norm.sf(|z|) = ndtr(-|z|): erfc(x) = exp(-x^2) P(x)/Q(x) for
# 1 <= x < 8 and R(x)/S(x) from 8 on, erf(x) = x T(x^2)/U(x^2) below 1. Q, S and
# U have a leading 1 that is not stored. math.erfc differs from Cephes' erfc in
# the last bits, so the p-values would too.
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_MAXLOG = 7.09782712893383996843e2  # log of the largest double
_SQRT1_2 = 0.7071067811865476


def _polevl(x, coefs, monic=False):
    """Horner's rule in Cephes' order; ``monic`` adds p1evl's unstored leading 1."""
    ans = x + coefs[0] if monic else coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes erf for |x| < 1, the only range ``_ndtr`` reaches.

    Cephes takes -erf(-x) for x < 0, which rounds to the same float.
    """
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)


def _erfc(x):
    """Cephes erfc for x > 0, the only range ``_ndtr`` reaches."""
    if x < 1.0:
        return 1.0 - _erf(x)
    z = -x * x
    if z < -_MAXLOG:  # exp(z) underflows
        return 0.0
    if x < 8.0:
        p, q = _polevl(x, _ERFC_P), _polevl(x, _ERFC_Q, monic=True)
    else:
        p, q = _polevl(x, _ERFC_R), _polevl(x, _ERFC_S, monic=True)
    return math.exp(z) * p / q


def _ndtr(a):
    """Standard normal CDF of a float, bit for bit ``scipy.special.ndtr``."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def wilcoxon_signed_rank(a, b):
    """Two-sided paired Wilcoxon signed-rank test of a vs b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1D sequences of equal length")
    if a.size == 0:
        raise ValueError("need at least one pair")
    d = a - b
    if np.isnan(d).any():  # NaN has no rank
        raise ValueError("paired differences contain NaN")
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise ZeroDifferencesError("all paired differences are zero")
    ranks, tie_counts = _average_ranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= EXACT_CUTOFF:
        dist = _exact_positive_rank_distribution(ranks)
        total = float(2 ** n)
        w2 = int(np.rint(2.0 * w_plus))
        p_le = dist[: w2 + 1].sum() / total
        p_ge = dist[w2:].sum() / total
        p = min(1.0, 2.0 * min(p_le, p_ge))
        return WilcoxonResult(n, w_plus, p, "exact")

    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ((tie_counts ** 3 - tie_counts).sum()) / 48.0
    dev = w_plus - mean
    dev -= 0.5 * np.sign(dev)  # continuity correction
    z = dev / np.sqrt(var)
    p = min(1.0, 2.0 * _ndtr(-abs(float(z))))
    return WilcoxonResult(n, w_plus, p, "normal_approx")


def fdr_bh(p_values, m):
    """Benjamini-Hochberg step-up adjusted p-values with family size m."""
    m = number(m, "m", whole=True, lo=0)
    p = np.asarray(p_values, dtype=np.float64)
    # p = 0 is valid: the normal approximation underflows to it at large n
    if not np.all((p >= 0.0) & (p <= 1.0)):  # NaN fails both
        raise ValueError("p-values must lie in [0, 1]")
    if m < p.size:
        raise ValueError(f"comparison count m={m} smaller than the {p.size} p-values given")
    order = np.argsort(p, kind="stable")
    scaled = p[order] * m / np.arange(1, p.size + 1)
    adjusted = np.minimum.accumulate(scaled[::-1])[::-1]
    np.minimum(adjusted, 1.0, out=adjusted)
    out = np.empty_like(adjusted)
    out[order] = adjusted
    return out.tolist()


def _direction_symbol(method_scores, reference_scores):
    med = float(np.median(method_scores)) - float(np.median(reference_scores))
    if med > 0:
        return SYMBOL_HIGHER
    if med < 0:
        return SYMBOL_LOWER
    mean = float(np.mean(method_scores)) - float(np.mean(reference_scores))
    if mean > 0:
        return SYMBOL_HIGHER
    if mean < 0:
        return SYMBOL_LOWER
    warnings.warn("significant test but equal medians and means; reporting as not significant")
    return SYMBOL_NOT_SIGNIFICANT


def compare_methods(dice_tables, reference, alpha=0.05, m=12):
    """Per-organ Wilcoxon comparison of every method against a reference.

    ``dice_tables`` maps method name to a list of DiceRecord covering the
    same (subject, label) pairs for every method, each pair once. Identical
    scores yield no test and are reported as not significant with p fixed
    at 1. Returns one row per (organ, method), reference rows marked ``Ref.``.
    ``alpha`` must lie in (0, 1); NaN would fail every ``p >= alpha`` test and
    mark every method significant.
    """
    _check_comparison(reference, alpha, m)
    if reference not in dice_tables:
        raise ValueError(f"reference {reference!r} not among methods {sorted(dice_tables)}")

    def keyed(name, records):
        table = {}
        for r in records:
            if (r.label_id, r.subject_id) in table:
                raise ValueError(f"method {name!r} has more than one row for subject "
                                 f"{r.subject_id!r}, label {r.label_id}")
            table[(r.label_id, r.subject_id)] = r
        return table

    tables = {name: keyed(name, records) for name, records in dice_tables.items()}
    ref_keys = set(tables[reference])
    for name, table in tables.items():
        if set(table) != ref_keys:
            raise ValueError(f"method {name!r} covers different (subject, label) pairs "
                             f"than reference {reference!r}")

    organs = {}
    for r in dice_tables[reference]:
        organs.setdefault(r.label_id, r.label_name)

    rows = []
    for label_id, organ in sorted(organs.items()):
        subjects = sorted(sid for lid, sid in ref_keys if lid == label_id)
        scores = {
            name: np.array([tables[name][(label_id, sid)].dice for sid in subjects])
            for name in dice_tables
        }
        ref_scores = scores[reference]
        rows.append(ComparisonRow(organ, reference, reference, summarize(ref_scores)))

        organ_rows = []
        p_raws = []
        for name in dice_tables:
            if name == reference:
                continue
            try:
                res = wilcoxon_signed_rank(scores[name], ref_scores)
                statistic, p_raw = res.statistic, res.p_two_sided
            except ZeroDifferencesError:
                statistic, p_raw = 0.0, 1.0
            symbol = (SYMBOL_NOT_SIGNIFICANT if p_raw >= alpha
                      else _direction_symbol(scores[name], ref_scores))
            organ_rows.append(ComparisonRow(organ, name, reference, summarize(scores[name]),
                                            statistic=statistic, p_raw=p_raw, symbol=symbol))
            p_raws.append(p_raw)
        for row, p_fdr in zip(organ_rows, fdr_bh(p_raws, m)):
            row.p_fdr = p_fdr
            row.fdr_significant = bool(p_fdr < alpha)
        rows.extend(organ_rows)
    return rows


def write_comparison_csv(rows, path):
    def fmt(value):
        return "" if value is None else str(value)

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_CSV_COLUMNS)
        for r in rows:
            writer.writerow([
                r.organ, r.method, r.reference, r.summary.n,
                str(r.summary.median), str(r.summary.mean), str(r.summary.std),
                fmt(r.statistic), fmt(r.p_raw), fmt(r.p_fdr),
                r.symbol, fmt(r.fdr_significant),
            ])


def _check_comparison(reference, alpha, m):
    text(reference, "reference")
    number(alpha, "alpha", above=0, below=1)
    number(m, "m", whole=True, lo=0)


def write_comparison_metadata(path, reference, alpha, m):
    _check_comparison(reference, alpha, m)
    meta = {
        "alpha": alpha,
        "comparison_count_m": m,
        "fdr_method": "benjamini_hochberg",
        "reference": reference,
        "wilcoxon": {
            "exact_cutoff": EXACT_CUTOFF,
            "zero_differences": "dropped; all-zero pairs reported not significant (p=1)",
            "two_sided": "doubled smaller tail, capped at 1",
            "large_n": "normal approximation with continuity and tie corrections",
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
