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

DICE_CSV_COLUMNS = ("subject_id", "label_id", "label_name", "dice")


@dataclass
class DiceRecord:
    subject_id: str
    label_id: int
    label_name: str
    dice: float

    def __post_init__(self):
        if not 0.0 <= self.dice <= 1.0:
            raise ValueError(f"dice must lie in [0, 1], got {self.dice}")


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
    size_a = int(np.count_nonzero(a))
    size_b = int(np.count_nonzero(b))
    if size_a + size_b == 0:
        return 1.0
    overlap = int(np.count_nonzero(a & b))
    return 2.0 * overlap / (size_a + size_b)


def multi_label_dice(pred, truth, labels, subject_id=""):
    """Per-label dice between two aligned label volumes.

    Labels missing from both volumes' name maps trigger a warning but still
    produce a record (empty-vs-empty masks score 1.0 by convention).
    """
    if pred.dims != truth.dims:
        raise ValueError(f"volume dims mismatch: {pred.dims} vs {truth.dims}")
    counts = _kernels.label_overlap_counts(pred.voxels, truth.voxels)
    records = []
    for label_id in labels:
        label_id = int(label_id)
        if not 0 <= label_id <= 255:
            raise ValueError(f"label ids are uint8, got {label_id}")
        name = truth.label_names.get(label_id) or pred.label_names.get(label_id)
        if name is None:
            warnings.warn(f"label {label_id} absent from both label-name maps")
            name = f"label_{label_id}"
        records.append(DiceRecord(subject_id, label_id, name, dice_from_counts(counts, label_id)))
    return records


def dice_from_counts(counts, label_id):
    """Dice of one label from ``label_overlap_counts`` output."""
    denom = counts[0, label_id] + counts[1, label_id]
    return 1.0 if denom == 0 else float(2.0 * counts[2, label_id] / denom)


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
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != DICE_CSV_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(DICE_CSV_COLUMNS)}")
        return [DiceRecord(row[0], int(row[1]), row[2], float(row[3])) for row in reader]
