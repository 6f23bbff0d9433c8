"""Segmentation overlap metrics and per-cohort summaries.

Dice convention: two empty masks agree perfectly (1.0); empty vs nonempty
is 0.0. Summaries use the sample standard deviation (n-1 denominator),
defined as 0 for a single score.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._checks import number, text

DICE_CSV_COLUMNS = ("subject_id", "label_id", "label_name", "dice")


@dataclass
class DiceRecord:
    subject_id: str
    label_id: int
    label_name: str
    dice: float

    def __post_init__(self):
        text(self.subject_id, "subject_id")  # a CSV round trip would turn None into ''
        self.label_id = number(self.label_id, "label_id", whole=True, lo=0, hi=255)
        text(self.label_name, "label_name")
        number(self.dice, "dice", lo=0, hi=1)


@dataclass
class SummaryStats:
    median: float
    mean: float
    std: float
    n: int


def dice(a, b):
    """2|a & b| / (|a| + |b|) for two binary masks of equal dims."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ValueError(f"mask dims mismatch: {a.shape} vs {b.shape}")
    counts = [np.count_nonzero(a), np.count_nonzero(b), np.count_nonzero(a & b)]
    return float(dice_table(np.array(counts)))


def multi_label_dice(pred, truth, labels, subject_id=""):
    """Per-label dice between two aligned label volumes.

    Labels missing from both volumes' name maps trigger a warning but still
    produce a record (empty-vs-empty masks score 1.0 by convention).
    """
    if pred.dims != truth.dims:
        raise ValueError(f"volume dims mismatch: {pred.dims} vs {truth.dims}")
    table = dice_table(_kernels.label_overlap_counts(pred.voxels, truth.voxels))
    records = []
    for label_id in labels:
        label_id = number(label_id, "label_id", whole=True, lo=0, hi=255)
        name = truth.label_names.get(label_id) or pred.label_names.get(label_id)
        if name is None:
            warnings.warn(f"label {label_id} absent from both label-name maps")
            name = f"label_{label_id}"
        records.append(DiceRecord(subject_id, label_id, name, float(table[label_id])))
    return records


def dice_table(counts):
    """float64 dice from predicted, truth and overlap counts, ``counts[0]`` to ``counts[2]``.

    Counts are a (3, 256) array per id or a (3,) array for one mask pair.
    The sweep passes a (predicted, truth, overlap) tuple of (shifts, ids),
    (ids,) and (shifts, ids) arrays, which broadcast together. A cell is 1.0
    where the denominator is 0, else ``2.0 * overlap / (predicted + truth)``.
    """
    den = counts[0] + counts[1]
    return np.divide(2.0 * counts[2], den, out=np.ones(den.shape), where=den != 0)


def summarize(scores):
    """Median / mean / sample std of a nonempty score list."""
    if len(scores) == 0:
        raise ValueError("cannot summarize an empty score list")
    arr = np.asarray(scores, dtype=np.float64)
    std = 0.0 if arr.size == 1 else float(np.std(arr, ddof=1))
    return SummaryStats(float(np.median(arr)), float(np.mean(arr)), std, int(arr.size))


def write_dice_csv(records, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DICE_CSV_COLUMNS)
        for r in records:
            writer.writerow([r.subject_id, r.label_id, r.label_name, str(r.dice)])


def read_dice_csv(path):
    """Read a dice CSV; a malformed row is a ValueError naming its path and line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        records = []
        try:
            header = next(reader, None)
            if header is None or tuple(header) != DICE_CSV_COLUMNS:
                raise ValueError(f"expected header {','.join(DICE_CSV_COLUMNS)}")
            for row in reader:
                if len(row) != len(DICE_CSV_COLUMNS):
                    raise ValueError(f"expected {len(DICE_CSV_COLUMNS)} fields, got {len(row)}")
                records.append(DiceRecord(row[0], int(row[1]), row[2], float(row[3])))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    return records
