"""Metrics, report tables, severity sweep, and the level-holdout experiment."""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .detector.models import N_LABELS, classify, fit_classifier
from .scenario import (GENERATOR_BUSES, KINDS, LABELS, LABEL_INDEX,
                       THREE_CLASSES, condition_name)

# label indices of each 3-class group, in THREE_CLASSES order
CLASS_GROUPS = [[LABEL_INDEX["normal"]],
                *([LABEL_INDEX[condition_name(kind, bus)]
                   for bus in GENERATOR_BUSES] for kind in KINDS)]

# the text report's heading above each section's rows
SECTION_TITLES = {
    "label": "nine-label classification\n"
             f"  {'label':<12s} {'precision':>9s} {'recall':>9s} {'f1':>9s}\n",
    "class": "detection (3-class)\n",
    "localization": "localization (within true class)\n",
}


def confusion_counts(predictions, truths) -> np.ndarray:
    """(9, 9) integer counts of (truth, prediction) pairs of label indices;
    rows are truth, columns are prediction."""
    index = (np.asarray(truths), np.asarray(predictions))
    if index[0].shape != index[1].shape:
        raise ValueError("predictions and truths differ in length")
    counts = np.zeros((N_LABELS, N_LABELS), dtype=int)
    if index[0].size:
        if any(a.dtype.kind not in "iu" or a.min() < 0
               or a.max() >= N_LABELS for a in index):
            raise ValueError(
                f"label indices must be integers in 0..{N_LABELS - 1}")
        np.add.at(counts, index, 1)
    return counts


def accuracy(counts: np.ndarray) -> float:
    total = int(counts.sum())
    return float(np.trace(counts)) / total if total else 0.0


def _prf(tp: int, fp: int, fn: int):
    """Precision/recall/F1 with the zero-denominator-is-zero convention.

    Returns (precision, recall, f1, by_convention) where by_convention names
    each metric that is 0 only because its denominator was 0.
    """
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    convention = tuple(name for name, denominator in (
        ("precision", tp + fp), ("recall", tp + fn),
        ("f1", precision + recall)) if not denominator)
    return precision, recall, f1, convention


def _one_vs_rest(counts: np.ndarray, index: int, rows=slice(None)):
    """_prf of label `index`, counting false positives over truth `rows`."""
    tp = int(counts[index, index])
    fp = int(counts[rows, index].sum() - tp)
    fn = int(counts[index, :].sum() - tp)
    return _prf(tp, fp, fn)


def precision_recall_f1(counts: np.ndarray, label: str):
    """One-vs-rest (precision, recall, F1) of the label named `label`."""
    return _one_vs_rest(counts, LABEL_INDEX[label])[:3]


def _collapse_three_class(counts: np.ndarray) -> np.ndarray:
    """Sum the 9x9 blocks into the 3x3 normal/attack/fault matrix."""
    out = np.zeros((3, 3), dtype=int)
    for i, rows in enumerate(CLASS_GROUPS):
        for j, cols in enumerate(CLASS_GROUPS):
            out[i, j] = counts[np.ix_(rows, cols)].sum()
    return out


def report_rows(counts: np.ndarray) -> list[dict]:
    """The 9 label, 3 class and 8 localization rows of a confusion matrix.

    Each row holds section, name, precision, recall, f1 and
    zero_by_convention, the metrics that are 0 only because their
    denominator is. A localization entry counts its false positives over
    frames of its true class only: misdetections (predictions outside the
    class) count as localization misses, predictions into the class from
    outside do not.
    """
    collapsed = _collapse_three_class(counts)
    entries = [
        *(("label", name, _one_vs_rest(counts, i))
          for i, name in enumerate(LABELS)),
        *(("class", name, _one_vs_rest(collapsed, i))
          for i, name in enumerate(THREE_CLASSES)),
        *(("localization", f"{cls}@{bus}",
           _one_vs_rest(counts, LABEL_INDEX[condition_name(cls, bus)], rows))
          for cls, rows in zip(KINDS, CLASS_GROUPS[1:])
          for bus in GENERATOR_BUSES)]
    return [{"section": section, "name": name, "precision": p, "recall": r,
             "f1": f, "zero_by_convention": convention}
            for section, name, (p, r, f, convention) in entries]


def macro_f1(counts: np.ndarray) -> float:
    """Mean F1 of the nine labels' report rows."""
    return float(np.mean([row["f1"] for row in report_rows(counts)
                          if row["section"] == "label"]))


def format_report(counts: np.ndarray, rows) -> str:
    """Aligned plain-text rendering of `counts`' report_rows."""
    buf = io.StringIO()
    buf.write(f"frames evaluated: {int(counts.sum())}  "
              f"accuracy: {accuracy(counts):.4f}\n")
    for section, members in groupby(rows, key=lambda row: row["section"]):
        buf.write(SECTION_TITLES[section])
        for row in members:
            buf.write(f"  {row['name']:<12s} {row['precision']:9.4f} "
                      f"{row['recall']:9.4f} {row['f1']:9.4f}\n")
    # "normal" names a label row and a class row; it is listed once
    names = sorted({row["name"] for row in rows if row["zero_by_convention"]})
    if names:
        buf.write(f"zero-by-convention entries: {', '.join(names)}\n")
    return buf.getvalue()


def csv_table(columns, rows) -> str:
    """CSV text of `rows` (dicts) under the header `columns`: floats to six
    decimals, every other value as written."""
    buf = io.StringIO()
    buf.write(",".join(columns) + "\n")
    for row in rows:
        buf.write(",".join(f"{row[c]:.6f}" if isinstance(row[c], float)
                           else str(row[c]) for c in columns) + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------- severity

def severity_sweep(frames, classifier) -> list[dict]:
    """Per (target bus, level): F1 of the true attack label.

    frames is feature_rows' (levels, features, label indices) table. Each
    level's frame set is that level's frames followed by the normal (level
    0) frames, classified by `classifier`. Emits plot-ready rows: bus,
    level, f1.
    """
    levels, features, labels = frames
    out = []
    for level in sorted(set(levels[levels != 0].tolist())):
        kept = np.concatenate([np.flatnonzero(levels == level),
                               np.flatnonzero(levels == 0)])
        counts = confusion_counts(classify(classifier, features[kept]),
                                  labels[kept])
        for bus in GENERATOR_BUSES:
            _, _, f1 = precision_recall_f1(counts,
                                            condition_name("attack", bus))
            out.append({"bus": bus, "level": level, "f1": f1})
    return out


# ---------------------------------------------------------------- holdout

@dataclass
class HoldoutResult:
    l: int
    accuracies: list[float]
    level_sets: list[tuple[int, ...]]
    median: float
    iqr: float


def holdout_experiment(frames, l: int, replications: int,
                       seed: int) -> HoldoutResult:
    """Retrain the classifier on l randomly drawn attack levels, test on the
    rest; the features, and so the upstream feature models, stay fixed.

    frames is feature_rows' (levels, features, label indices) table. Per
    replication: draw l of the severity levels without replacement, train
    the classifier on the normal (level 0) frames plus the frames at those
    levels, then score accuracy on the other frames, those at the held-out
    levels. Replication rep fits the classifier with seed
    seed + 1000*l + rep. The table holds every level of LEVEL_FRACTIONS
    and l is below their count (cmd_holdout, load_config).
    """
    levels, features, labels = frames
    all_levels = sorted(set(levels[levels != 0].tolist()))

    accuracies = []
    level_sets = []
    for rep in range(replications):
        rng = np.random.default_rng([seed, l, rep])
        train_levels = tuple(sorted(
            rng.choice(all_levels, size=l, replace=False).tolist()))
        level_sets.append(train_levels)
        train = np.isin(levels, (0, *train_levels))
        classifier, _ = fit_classifier(features[train], labels[train],
                                       seed + 1000 * l + rep)
        preds = classify(classifier, features[~train])
        accuracies.append(float(np.mean(preds == labels[~train])))

    median, q1, q3 = _median_and_quartiles(accuracies)
    return HoldoutResult(l=l, accuracies=accuracies, level_sets=level_sets,
                         median=median, iqr=q3 - q1)


def _median_and_quartiles(values) -> tuple[float, float, float]:
    """np.median(values) and np.percentile(values, [25, 75]), bit for bit,
    by numpy's own formulas on the sorted values; those two functions load
    numpy.ma, which no stage loads. The median is the middle value or the
    mean of the two middle ones. A quartile q is numpy's default (linear)
    one: it interpolates between the values at the floor of the virtual
    index (n - 1)*q and at the next index, clipped to n - 1, in the two
    branches of numpy's _lerp."""
    ordered = sorted(values)
    n = len(ordered)
    half = n // 2
    median = (ordered[half] if n % 2
              else (ordered[half - 1] + ordered[half]) / 2)
    quartiles = []
    for q in (0.25, 0.75):
        index = (n - 1) * q
        below = int(index)
        a, b = ordered[below], ordered[min(below + 1, n - 1)]
        t = index - below
        quartiles.append(a + (b - a) * t if t < 0.5
                         else b - (b - a) * (1 - t))
    return median, *quartiles
