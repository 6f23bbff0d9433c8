"""Bad values in the Python API are a ValueError whose message starts with the field name.

Each case was accepted, or raised another error, before these functions took
their rules from ``ctwindow._checks``.
"""

import numpy as np
import pytest

from ctwindow import (Band, BandSegmenter, CtVolume, DiceRecord, ExperimentConfig, LabelVolume,
                      StrategySpec, WindowSpec, compare_methods, derive_seed, extract_slice,
                      fit_band_segmenter, generate_phantom, multi_label_dice,
                      reference_experiment, run_shift_sweep, stack_slices, strategy_window,
                      write_comparison_metadata)

VOLUME = CtVolume(np.zeros((2, 3, 4), dtype=np.int16))
LABELS = LabelVolume(np.zeros((2, 2, 2), dtype=np.uint8))
PAIR = (VOLUME, LabelVolume(np.ones((2, 3, 4), dtype=np.uint8)))
SEG = BandSegmenter([Band(1, 0.0, 10.0)])
PAIR_OF = r"expected a \(CtVolume, LabelVolume\) pair, got "
PAIRS_OF = r"expected a collection of \(CtVolume, LabelVolume\) pairs, got "
TABLES = {m: [DiceRecord(f"s{i}", 1, "a", 0.5 + 0.01 * i + d) for i in range(6)]
          for m, d in (("A", 0.0), ("B", 0.1))}


@pytest.mark.parametrize("call,message", [
    # any mode but "train" was test mode: SWN training got the soft-tissue window
    (lambda: strategy_window("SWN", "Train"), "^mode: expected one of train, test, got 'Train'$"),
    # a CSV round trip turned a None name into ''
    (lambda: DiceRecord("s", 1, None, 0.5), "^label_name: expected a string, got None$"),
    (lambda: DiceRecord(7, 1, "a", 0.5), "^subject_id: expected a string, got 7$"),
    (lambda: multi_label_dice(LABELS, LABELS, [0], subject_id=None),
     "^subject_id: expected a string, got None$"),
    # TypeError from the comparison
    (lambda: compare_methods(TABLES, "A", alpha="0.05"),
     r"^alpha: expected a finite number in \(0, 1\), got '0.05'$"),
    # TypeError: unhashable type: 'list'
    (lambda: compare_methods(TABLES, ["A"]), r"^reference: expected a string, got \['A'\]$"),
    # with no rows to correct, m was never checked
    (lambda: compare_methods({"A": []}, "A", m=-3), "^m: expected a whole number >= 0, got -3$"),
    # TypeError from abs(), and a bool was a number: (40.0, True) windowed [39, 41]
    (lambda: WindowSpec("40", 200.0), "^level: expected a finite number, got '40'$"),
    (lambda: WindowSpec(True, 200.0), "^level: expected a finite number, got True$"),
    (lambda: WindowSpec(40.0, True), "^half_width: expected a finite number, got True$"),
    # True was axis 1, and as an index it added an axis: a 4D plane
    (lambda: extract_slice(VOLUME, True, 0), "^axis: expected a whole number in 0..2, got True$"),
    (lambda: extract_slice(VOLUME, 2, True), "^index: expected a whole number, got True$"),
    # NumPy's own messages named no field, or the fraction was truncated
    (lambda: derive_seed(7.9), "^base_seed: expected a whole number >= 0, got 7.9$"),
    (lambda: derive_seed(7, 0.5, 1), "^key: expected a whole number >= 0, got 0.5$"),
    (lambda: derive_seed(-1), "^base_seed: expected a whole number >= 0, got -1$"),
    # True fitted along axis 1, -1 along axis 2, and 5 raised NumPy's AxisError
    (lambda: fit_band_segmenter([PAIR], "STN", slice_axis=True),
     "^slice_axis: expected a whole number in 0..2, got True$"),
    # written as the rows' strategy, 5
    (lambda: run_shift_sweep(SEG, [PAIR], "STN", [0], strategy_label=5),
     "^strategy_label: expected a string, got 5$"),
    # AttributeError or TypeError from the reduction of the pair, naming no entry
    (lambda: fit_band_segmenter([PAIR, PAIR[::-1]], "STN"),
     rf"^training\[1\]: {PAIR_OF}\(LabelVolume, CtVolume\)$"),
    (lambda: fit_band_segmenter([(VOLUME, PAIR[1].voxels)], "STN"),
     rf"^training\[0\]: {PAIR_OF}\(CtVolume, ndarray\)$"),
    (lambda: fit_band_segmenter([PAIR + (1,)], "STN"),
     rf"^training\[0\]: {PAIR_OF}\(CtVolume, LabelVolume, int\)$"),
    (lambda: fit_band_segmenter([VOLUME], "STN"), rf"^training\[0\]: {PAIR_OF}CtVolume$"),
    (lambda: run_shift_sweep(SEG, [PAIR[::-1]], "STN", [0]),
     rf"^test\[0\]: {PAIR_OF}\(LabelVolume, CtVolume\)$"),
    (lambda: run_shift_sweep(SEG, [PAIR, (VOLUME, PAIR[1].voxels)], "STN", [0]),
     rf"^test\[1\]: {PAIR_OF}\(CtVolume, ndarray\)$"),
    (lambda: run_shift_sweep(SEG, [PAIR + (1,)], "STN", [0]),
     rf"^test\[0\]: {PAIR_OF}\(CtVolume, LabelVolume, int\)$"),
    (lambda: run_shift_sweep(SEG, [VOLUME], "STN", [0]), rf"^test\[0\]: {PAIR_OF}CtVolume$"),
    # TypeError: 'CtVolume' object is not iterable, naming neither set
    (lambda: fit_band_segmenter(VOLUME, "STN"), f"^training: {PAIRS_OF}CtVolume$"),
    (lambda: fit_band_segmenter(LABELS, "STN"), f"^training: {PAIRS_OF}LabelVolume$"),
    (lambda: run_shift_sweep(SEG, VOLUME, "STN", [0]), f"^test: {PAIRS_OF}CtVolume$"),
    (lambda: run_shift_sweep(SEG, LABELS, "STN", [0]), f"^test: {PAIRS_OF}LabelVolume$"),
    # a ValueError, but naming no entry
    (lambda: fit_band_segmenter([PAIR, (VOLUME, LABELS)], "STN"),
     r"^training\[1\]: volume/label dims mismatch: \(2, 3, 4\) vs \(2, 2, 2\)$"),
    (lambda: run_shift_sweep(SEG, [(VOLUME, LABELS)], "STN", [0]),
     r"^test\[0\]: volume/label dims mismatch: \(2, 3, 4\) vs \(2, 2, 2\)$"),
    # AttributeError: 'NoneType' object has no attribute 'bands', and 'str' has no 'dims'
    (lambda: run_shift_sweep(None, [PAIR], "STN", [0]),
     "^seg: expected a BandSegmenter, got None$"),
    (lambda: generate_phantom("x"), "^cfg: expected a PhantomConfig, got 'x'$"),
    # TypeError: object of type 'int' has no len()
    (lambda: ExperimentConfig(reference_experiment().phantom, [StrategySpec("STN")], shifts=5),
     "^shifts: expected a list of numbers, got 5$"),
    (lambda: ExperimentConfig(reference_experiment().phantom, [StrategySpec("STN")], shifts=None),
     "^shifts: expected a list of numbers, got None$"),
    (lambda: run_shift_sweep(SEG, [PAIR], "STN", 5),
     "^shifts: expected a list of numbers, got 5$"),
    (lambda: run_shift_sweep(SEG, [PAIR], "STN", (s for s in [0, 25])),
     "^shifts: expected a list of numbers, got <generator object "),
    (lambda: run_shift_sweep(SEG, [PAIR], "STN", np.array(25)),
     r"^shifts: expected a list of numbers, got array\(25\)$"),
    # the entries are checked after the shifts, so the shifts' message comes first
    (lambda: run_shift_sweep(SEG, [PAIR, PAIR[::-1]], "STN", 5),
     "^shifts: expected a list of numbers, got 5$"),
], ids=["strategy_window-mode", "DiceRecord-label_name", "DiceRecord-subject_id",
        "multi_label_dice-subject_id", "compare_methods-alpha", "compare_methods-reference",
        "compare_methods-m", "WindowSpec-str-level", "WindowSpec-bool-level",
        "WindowSpec-bool-half_width", "extract_slice-axis",
        "extract_slice-index", "derive_seed-fraction", "derive_seed-key", "derive_seed-negative",
        "fit_band_segmenter-slice_axis", "run_shift_sweep-strategy_label",
        "fit_band_segmenter-swapped-pair", "fit_band_segmenter-label-array",
        "fit_band_segmenter-3-tuple", "fit_band_segmenter-bare-volume",
        "run_shift_sweep-swapped-pair", "run_shift_sweep-label-array", "run_shift_sweep-3-tuple",
        "run_shift_sweep-bare-volume", "fit_band_segmenter-volume-as-set",
        "fit_band_segmenter-labels-as-set", "run_shift_sweep-volume-as-set",
        "run_shift_sweep-labels-as-set", "fit_band_segmenter-dims", "run_shift_sweep-dims",
        "run_shift_sweep-seg", "generate_phantom-cfg", "ExperimentConfig-int-shifts",
        "ExperimentConfig-None-shifts", "run_shift_sweep-int-shifts",
        "run_shift_sweep-generator-shifts", "run_shift_sweep-0d-array-shifts",
        "run_shift_sweep-int-shifts-bad-entry"])
def test_bad_api_fields_are_value_errors_naming_the_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_training_and_test_sets_may_be_generators():
    seg = fit_band_segmenter([PAIR], "STN")
    assert fit_band_segmenter((p for p in [PAIR]), "STN").bands == seg.bands
    assert run_shift_sweep(seg, (p for p in [PAIR, PAIR]), "STN", [0, 50]) == \
        run_shift_sweep(seg, [PAIR, PAIR], "STN", [0, 50])


def test_an_empty_strategy_label_names_the_rows():
    # "" fell back to the strategy name, as None does
    assert {row.strategy for row in run_shift_sweep(SEG, [PAIR], "STN", [0],
                                                    strategy_label="")} == {""}
    assert {row.strategy for row in run_shift_sweep(SEG, [PAIR], "STN", [0])} == {"STN"}


def test_stack_slices_takes_a_whole_float_axis_like_a_config_field():
    # 2.0 raised TypeError from the shape list; the rule for a whole number takes it as 2
    planes = [np.arange(6, dtype=np.float32).reshape(2, 3)] * 4
    assert np.array_equal(stack_slices(planes, 2.0), stack_slices(planes, 2))
    with pytest.raises(ValueError, match="^axis: expected a whole number in 0..2, got 1.5$"):
        stack_slices(planes, 1.5)


@pytest.mark.parametrize("reference,alpha,m,message", [
    # written as given: "alpha": "x", NaN (not JSON), an m of -3, a list as the reference
    ("A", "x", 12, r"^alpha: expected a finite number in \(0, 1\), got 'x'$"),
    ("A", float("nan"), -3, r"^alpha: expected a finite number in \(0, 1\), got nan$"),
    ("A", 0.05, -3, "^m: expected a whole number >= 0, got -3$"),
    (["A"], 0.05, 12, r"^reference: expected a string, got \['A'\]$"),
], ids=["alpha-str", "alpha-nan", "m-negative", "reference-list"])
def test_comparison_metadata_takes_the_rules_of_compare_methods(tmp_path, reference, alpha,
                                                                m, message):
    path = tmp_path / "cmp.meta.json"
    with pytest.raises(ValueError, match=message):
        write_comparison_metadata(str(path), reference, alpha, m)
    assert not path.exists()
