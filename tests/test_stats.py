import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_wilcoxon_p, scipy_normal_approx_p, stepup_fdr

from ctwindow.metrics import DiceRecord
from ctwindow.stats import (SYMBOL_HIGHER, SYMBOL_LOWER, SYMBOL_NOT_SIGNIFICANT,
                            SYMBOL_REFERENCE, ZeroDifferencesError, _average_ranks, _ndtr,
                            compare_methods, fdr_bh, wilcoxon_signed_rank,
                            write_comparison_csv)


def test_all_positive_five_pairs_exact():
    res = wilcoxon_signed_rank([2.0, 3.0, 5.0, 7.0, 11.0], [1.0, 2.0, 4.0, 6.0, 10.5])
    assert res.method == "exact"
    assert res.n_effective == 5
    assert res.statistic == 15.0
    assert res.p_two_sided == 0.0625  # 2 of 32 assignments as extreme


def test_identical_inputs_raise_distinct_error():
    with pytest.raises(ZeroDifferencesError):
        wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])


def test_zero_differences_are_dropped():
    res = wilcoxon_signed_rank([1.0, 5.0, 3.0], [1.0, 4.0, 1.0])
    assert res.n_effective == 2


def test_swap_reflects_statistic_and_keeps_p():
    rng = np.random.default_rng(0)
    a = rng.normal(0, 1, 9)
    b = a + rng.normal(0.3, 1, 9)
    fwd = wilcoxon_signed_rank(a, b)
    rev = wilcoxon_signed_rank(b, a)
    n = fwd.n_effective
    assert rev.statistic == n * (n + 1) / 2 - fwd.statistic
    assert rev.p_two_sided == fwd.p_two_sided


def test_exact_p_matches_enumeration_with_and_without_ties():
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(1, 11))
        d = rng.normal(0, 1, n)
        if trial % 3 == 0:
            d = np.round(d, 1)  # induce ties (and occasional zeros)
        d = d[d != 0]
        if d.size == 0:
            continue
        res = wilcoxon_signed_rank(d, np.zeros_like(d))
        assert res.p_two_sided == brute_force_wilcoxon_p(d)


def test_exact_p_matches_scipy_exact_mode_without_ties():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 21))
        d = rng.normal(0.2, 1.0, n)
        d = d[d != 0]
        if np.unique(np.abs(d)).size != d.size:
            continue
        res = wilcoxon_signed_rank(d, np.zeros_like(d))
        expected = scipy.stats.wilcoxon(d, method="exact")
        assert res.p_two_sided == pytest.approx(expected.pvalue, abs=1e-14)


def test_normal_approximation_matches_scipy():
    rng = np.random.default_rng(5)
    a = rng.normal(0, 1, 40)
    b = a + rng.normal(0.2, 0.7, 40)
    res = wilcoxon_signed_rank(a, b)
    assert res.method == "normal_approx"
    expected = scipy.stats.wilcoxon(a, b, zero_method="wilcox", correction=True,
                                    method="approx")
    assert res.p_two_sided == pytest.approx(expected.pvalue, abs=1e-12)


# few distinct magnitudes, so most draws are heavily tied
tied_values = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0, np.inf]),
                        st.floats(0, 10, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(st.lists(tied_values, min_size=1, max_size=60))
def test_average_ranks_equal_scipy_rankdata(values):
    x = np.array(values)
    ranks, sizes = _average_ranks(x)
    expected = scipy.stats.rankdata(x)
    assert ranks.dtype == expected.dtype
    assert ranks.tobytes() == expected.tobytes()
    assert np.array_equal(sizes, np.unique(expected, return_counts=True)[1])


@settings(max_examples=200, deadline=None)
@given(nonzero=st.lists(st.one_of(st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 2.0]),
                                  st.floats(-3, 3, allow_nan=False).filter(bool)),
                        min_size=21, max_size=120),
       zeros=st.integers(0, 5))
def test_normal_approximation_p_equals_scipy_stats_bit_for_bit(nonzero, zeros):
    d = np.array(nonzero + [0.0] * zeros)
    res = wilcoxon_signed_rank(d, np.zeros_like(d))
    assert res.method == "normal_approx" and res.n_effective == len(nonzero)
    assert res.p_two_sided == scipy_normal_approx_p(d)


def test_ndtr_equals_scipy_special_ndtr_bit_for_bit():
    """The Wilcoxon tail takes ``_ndtr(-|z|)``, so the arguments are z <= 0, edges included."""
    rng = np.random.default_rng(0)
    edges = [-0.0, 0.0, -1e-300, -5e-324, -37.5, -38.5, -39.0, -1e10, -np.inf]
    z = -np.abs(np.concatenate([rng.normal(0.0, 3.0, 30_000), rng.uniform(0.0, 40.0, 30_000),
                                rng.standard_cauchy(20_000), np.linspace(-40.0, 0.0, 20_001)]))
    z = np.concatenate([z, edges])
    got = np.array([_ndtr(float(v)) for v in z])
    assert got.tobytes() == scipy.special.ndtr(z).tobytes()


def test_wilcoxon_rejects_nan_differences():
    for n in (3, 25):  # exact and normal-approximation sizes
        with pytest.raises(ValueError, match="NaN"):
            wilcoxon_signed_rank([np.nan] + [1.0] * (n - 1), [0.0] * n)


def test_wilcoxon_input_validation():
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        wilcoxon_signed_rank([], [])


def test_fdr_examples():
    assert fdr_bh([0.004], m=12)[0] == pytest.approx(0.048)
    assert fdr_bh([0.01, 0.02, 0.03, 0.04], m=4) == pytest.approx([0.04] * 4)
    assert fdr_bh([1.0, 1.0], m=5) == [1.0, 1.0]
    assert fdr_bh([], m=0) == []


def test_fdr_matches_stepup_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = int(rng.choice([4, 12, 20]))
        k = int(rng.integers(1, m + 1))
        p = rng.uniform(0.001, 1.0, k).tolist()
        assert fdr_bh(p, m) == pytest.approx(stepup_fdr(p, m), abs=1e-14)


def test_fdr_properties():
    rng = np.random.default_rng(2)
    p = rng.uniform(0.001, 1.0, 10)
    adjusted = np.array(fdr_bh(p.tolist(), m=12))
    assert np.all(adjusted >= p)
    perm = rng.permutation(10)
    permuted = np.array(fdr_bh(p[perm].tolist(), m=12))
    assert permuted == pytest.approx(adjusted[perm])
    ordered = np.sort(p)
    assert np.all(np.diff(fdr_bh(ordered.tolist(), m=12)) >= 0)


def test_fdr_validation():
    with pytest.raises(ValueError, match="smaller"):
        fdr_bh([0.1, 0.2], m=1)
    with pytest.raises(ValueError):
        fdr_bh([-0.1], m=3)
    with pytest.raises(ValueError):
        fdr_bh([1.1], m=3)
    # a fractional m scaled the p-values: [0.01] with m = 1.5 gave [0.015]
    with pytest.raises(ValueError, match="^m: expected a whole number >= 0, got 1.5$"):
        fdr_bh([0.01], 1.5)


@pytest.mark.parametrize("p", [[0.01, float("nan")], [float("nan")], [0.5, float("inf")]])
def test_fdr_rejects_a_p_value_outside_the_unit_interval(p):
    # a NaN used to pass the range check and turn every adjusted value into NaN
    with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
        fdr_bh(p, m=len(p))


def test_fdr_accepts_p_underflowed_to_zero():
    # a constant difference over 2500 pairs puts z near 43; its tail underflows
    res = wilcoxon_signed_rank(np.full(2500, 0.51), np.full(2500, 0.5))
    assert res.method == "normal_approx" and res.p_two_sided == 0.0
    assert fdr_bh([0.0, 0.5], m=3) == [0.0, 0.75]
    ref = [DiceRecord(f"s{i}", 1, "liver", 0.5) for i in range(2500)]
    better = [DiceRecord(f"s{i}", 1, "liver", 0.51) for i in range(2500)]
    rows = compare_methods({"REF": ref, "M": better}, "REF")
    m_row = next(r for r in rows if r.method == "M")
    assert (m_row.p_raw, m_row.p_fdr, m_row.symbol) == (0.0, 0.0, SYMBOL_HIGHER)


def test_compare_rejects_duplicate_subject_label_rows():
    tables = _tables(n_subjects=3)
    tables["M"].append(tables["M"][0])
    with pytest.raises(ValueError, match="more than one row"):
        compare_methods(tables, "REF")
    tables = _tables(n_subjects=3)
    tables["REF"][2] = tables["REF"][1]
    with pytest.raises(ValueError, match="'REF' has more than one row"):
        compare_methods(tables, "REF")


def _tables(n_subjects=20, delta=0.0, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.6, 0.9, n_subjects)
    ref = [DiceRecord(f"s{i:02d}", 1, "liver", float(b)) for i, b in enumerate(base)]
    method = [DiceRecord(f"s{i:02d}", 1, "liver", float(min(1.0, b + delta)))
              for i, b in enumerate(base)]
    return {"REF": ref, "M": method}


def test_compare_identical_tables_not_significant():
    tables = _tables(delta=0.0)
    rows = compare_methods(tables, "REF", alpha=0.05, m=12)
    ref_row = next(r for r in rows if r.method == "REF")
    assert ref_row.symbol == SYMBOL_REFERENCE
    m_row = next(r for r in rows if r.method == "M")
    assert m_row.symbol == SYMBOL_NOT_SIGNIFICANT
    assert m_row.p_raw == 1.0 and m_row.p_fdr == 1.0
    assert m_row.fdr_significant is False


def test_compare_strict_domination_exact_p():
    rows = compare_methods(_tables(delta=0.05), "REF", alpha=0.05, m=12)
    m_row = next(r for r in rows if r.method == "M")
    assert m_row.symbol == SYMBOL_HIGHER
    assert m_row.p_raw == 2.0 / 2.0 ** 20
    assert m_row.p_fdr == pytest.approx(12 * 2.0 / 2.0 ** 20)
    assert m_row.fdr_significant is True
    lower = compare_methods(_tables(delta=-0.05), "REF", alpha=0.05, m=12)
    assert next(r for r in lower if r.method == "M").symbol == SYMBOL_LOWER


def test_compare_subject_mismatch_rejected():
    tables = _tables()
    tables["M"] = tables["M"][:-1]
    with pytest.raises(ValueError, match="pairs"):
        compare_methods(tables, "REF")
    with pytest.raises(ValueError, match="reference"):
        compare_methods(tables, "NOPE")


def test_direction_tie_breaks_by_mean_then_warns():
    from ctwindow.stats import _direction_symbol

    assert _direction_symbol([0.5, 0.5, 0.9], [0.5, 0.5, 0.1]) == SYMBOL_HIGHER
    with pytest.warns(UserWarning, match="equal medians"):
        symbol = _direction_symbol([0.2, 0.8], [0.8, 0.2])
    assert symbol == SYMBOL_NOT_SIGNIFICANT


def test_comparison_csv_layout(tmp_path):
    rows = compare_methods(_tables(delta=0.05), "REF", alpha=0.05, m=12)
    path = str(tmp_path / "cmp.csv")
    write_comparison_csv(rows, path)
    text = open(path, encoding="utf-8").read()
    lines = text.strip().split("\n")
    assert lines[0] == ("organ,method,reference,n,median,mean,std,"
                        "W,p_raw,p_fdr,symbol,fdr_significant")
    assert "Ref." in text and SYMBOL_HIGHER in text and "True" in text
