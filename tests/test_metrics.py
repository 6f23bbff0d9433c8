import numpy as np
import pytest

from ctwindow.metrics import (DiceRecord, dice, multi_label_dice, read_dice_csv,
                              summarize, write_dice_csv)
from ctwindow.volume import LabelVolume


def test_dice_examples():
    a = np.zeros((4, 4), bool)
    a[1:3, 1:3] = True
    assert dice(a, a) == 1.0
    b = np.zeros((4, 4), bool)
    b[0, 0] = True
    assert dice(a, b) == 0.0
    c = np.zeros((4, 4), bool)
    c[1, 1] = c[0, 3] = True
    d = np.zeros((4, 4), bool)
    d[1, 1] = d[3, 0] = True
    assert dice(c, d) == 0.5


def test_dice_empty_conventions_and_symmetry():
    empty = np.zeros((3, 3), bool)
    full = np.ones((3, 3), bool)
    assert dice(empty, empty) == 1.0
    assert dice(empty, full) == 0.0
    rng = np.random.default_rng(0)
    x = rng.random((6, 6)) > 0.5
    y = rng.random((6, 6)) > 0.5
    assert dice(x, y) == dice(y, x)
    with pytest.raises(ValueError, match="mismatch"):
        dice(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


def _label_volume(arr, names=None):
    return LabelVolume(np.asarray(arr, np.uint8), label_names=names or {})


def test_multi_label_dice_identity_and_empty_prediction():
    rng = np.random.default_rng(1)
    truth = _label_volume(rng.integers(0, 4, (6, 6, 3)))
    same = multi_label_dice(_label_volume(truth.voxels.copy()), truth, [1, 2, 3])
    assert all(r.dice == 1.0 for r in same)
    blank = multi_label_dice(_label_volume(np.zeros((6, 6, 3))), truth, [1, 2, 3])
    assert all(r.dice == 0.0 for r in blank)


def test_multi_label_dice_relabeling_symmetry():
    rng = np.random.default_rng(2)
    pred_arr = rng.integers(0, 3, (5, 5, 2)).astype(np.uint8)
    truth_arr = rng.integers(0, 3, (5, 5, 2)).astype(np.uint8)
    before = multi_label_dice(_label_volume(pred_arr), _label_volume(truth_arr), [1, 2])
    swap = {0: 0, 1: 2, 2: 1}
    pred_sw = np.vectorize(swap.get)(pred_arr).astype(np.uint8)
    truth_sw = np.vectorize(swap.get)(truth_arr).astype(np.uint8)
    after = multi_label_dice(_label_volume(pred_sw), _label_volume(truth_sw), [1, 2])
    assert sorted(r.dice for r in before) == sorted(r.dice for r in after)


def test_multi_label_dice_unknown_label_warns_but_records():
    truth = _label_volume(np.zeros((2, 2, 2)))
    pred = _label_volume(np.zeros((2, 2, 2)))
    with pytest.warns(UserWarning, match="absent"):
        records = multi_label_dice(pred, truth, [7])
    assert len(records) == 1
    assert records[0].dice == 1.0  # empty vs empty
    assert records[0].label_name == "label_7"


@pytest.mark.parametrize("label", [1.5, -1, 256, "1", True, np.nan])
def test_multi_label_dice_label_ids_are_whole_numbers_in_uint8(label):
    lab = _label_volume(np.ones((2, 2, 2)))
    with pytest.raises(ValueError, match="^label_id: expected a whole number in 0..255, got "):
        multi_label_dice(lab, lab, [label])
    records = multi_label_dice(lab, lab, [np.uint8(1), 1.0])
    assert [(type(r.label_id), r.label_id) for r in records] == [(int, 1), (int, 1)]


def test_multi_label_dice_dims_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        multi_label_dice(_label_volume(np.zeros((2, 2, 2))),
                         _label_volume(np.zeros((2, 2, 3))), [1])


def test_summarize_examples():
    single = summarize([0.5])
    assert (single.median, single.mean, single.std, single.n) == (0.5, 0.5, 0.0, 1)
    stats = summarize([0.2, 0.4, 0.6, 0.8])
    assert stats.median == pytest.approx(0.5)
    assert stats.mean == pytest.approx(0.5)
    assert stats.std == pytest.approx(0.2581988897471611, abs=1e-12)
    shuffled = summarize([0.6, 0.2, 0.8, 0.4])
    assert (shuffled.median, shuffled.mean, shuffled.std) == \
        (stats.median, stats.mean, stats.std)
    with pytest.raises(ValueError):
        summarize([])


def test_dice_record_bounds():
    with pytest.raises(ValueError):
        DiceRecord("s", 1, "organ", 1.2)
    # a label beyond uint8 and a bool dice were taken
    with pytest.raises(ValueError, match="^label_id: expected a whole number in 0..255, got 300$"):
        DiceRecord("s", 300, "a", 0.5)
    with pytest.raises(ValueError, match="^dice: expected a finite number in 0..1, got True$"):
        DiceRecord("s", 1, "a", True)


def test_dice_csv_round_trip(tmp_path):
    records = [DiceRecord("subj01", 1, "liver", 0.9736842105263158),
               DiceRecord("subj02", 2, "spleen", 0.5)]
    path = str(tmp_path / "dice.csv")
    write_dice_csv(records, path)
    assert read_dice_csv(path) == records
    first_line = open(path, encoding="utf-8").readline().strip()
    assert first_line == "subject_id,label_id,label_name,dice"
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n1,2,3,4\n")
    with pytest.raises(ValueError, match="header"):
        read_dice_csv(str(bad))
