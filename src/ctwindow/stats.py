"""Paired nonparametric method comparison with FDR correction.

Wilcoxon signed-rank conventions: zero differences are dropped; |d| ranks
use mid-rank ties; the statistic is the positive-rank sum W+. For
``n_effective`` up to the exact cutoff (default 20) the two-sided p-value
is exact, computed from the full distribution of W+ over all 2^n sign
assignments of the observed ranks; beyond that a normal approximation with
continuity and tie-variance corrections is used.

FDR adjustment is Benjamini-Hochberg step-up with an explicit comparison
count m, which may exceed the number of p-values passed (comparisons run
in other calls still count toward the family).
"""

import csv
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

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


def wilcoxon_signed_rank(a, b, exact_cutoff=EXACT_CUTOFF):
    """Two-sided paired Wilcoxon signed-rank test of a vs b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("a and b must be 1D sequences of equal length")
    if a.size == 0:
        raise ValueError("need at least one pair")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise ZeroDifferencesError("all paired differences are zero")
    ranks = sps.rankdata(np.abs(d))
    w_plus = float(ranks[d > 0].sum())

    if n <= exact_cutoff:
        dist = _exact_positive_rank_distribution(ranks)
        total = float(2 ** n)
        w2 = int(np.rint(2.0 * w_plus))
        p_le = dist[: w2 + 1].sum() / total
        p_ge = dist[w2:].sum() / total
        p = min(1.0, 2.0 * min(p_le, p_ge))
        return WilcoxonResult(n, w_plus, p, "exact")

    mean = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - ((tie_counts ** 3 - tie_counts).sum()) / 48.0
    dev = w_plus - mean
    dev -= 0.5 * np.sign(dev)  # continuity correction
    z = dev / np.sqrt(var)
    p = min(1.0, 2.0 * float(sps.norm.sf(abs(z))))
    return WilcoxonResult(n, w_plus, p, "normal_approx")


def fdr_bh(p_values, m):
    """Benjamini-Hochberg step-up adjusted p-values with family size m."""
    p = np.asarray(p_values, dtype=np.float64)
    # p = 0 is valid: the normal approximation underflows to it at large n
    if p.size and (np.any(p < 0.0) or np.any(p > 1.0)):
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
    """
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


def write_comparison_metadata(path, reference, alpha, m):
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
