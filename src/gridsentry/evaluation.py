"""Metrics, report tables, severity sweep, and the level-holdout experiment."""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .detector.models import N_LABELS, classify, fit_classifier
from .scenario import (GENERATOR_BUSES, KINDS, LABELS, LABEL_INDEX,
                       LEVEL_FRACTIONS, THREE_CLASSES, condition_name)

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


def _label_index(label) -> int:
    if isinstance(label, (int, np.integer)):
        if not 0 <= label < N_LABELS:
            raise ValueError(f"label index {label} out of range")
        return int(label)
    if label not in LABEL_INDEX:
        raise ValueError(f"unknown label {label!r}")
    return LABEL_INDEX[label]


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


def precision_recall_f1(counts: np.ndarray, label):
    """One-vs-rest (precision, recall, F1) for one of the nine labels."""
    return _one_vs_rest(counts, _label_index(label))[:3]


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

def severity_sweep(rows, classifier) -> list[dict]:
    """Per (target bus, level): F1 of the true attack label.

    rows are (level, features, label indices) per series, level None for a
    normal series. Each level's frame set is that level's rows followed by
    the normal rows, classified by `classifier`. Emits plot-ready rows: bus,
    level, f1.
    """
    levels = sorted({level for level, _, _ in rows if level is not None})
    if not levels:
        raise ValueError("no severity-level rows supplied")
    normals = [(x, y) for level, x, y in rows if level is None]
    out = []
    for level in levels:
        kept = [(x, y) for lvl, x, y in rows if lvl == level] + normals
        preds = classify(classifier, np.concatenate([x for x, _ in kept]))
        counts = confusion_counts(preds, np.concatenate([y for _, y in kept]))
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


def holdout_experiment(rows, l: int, replications: int, seed: int,
                       classifier_config) -> HoldoutResult:
    """Retrain the classifier on l randomly drawn attack levels, test on the
    rest; the features, and so the upstream feature models, stay fixed.

    rows are (level, features, label indices) per series, level None for a
    normal series. Per replication: draw l of the severity levels without
    replacement, train the classifier on the normal rows plus the rows at
    those levels, then score accuracy on the rows at the held-out levels.
    Replication rep fits the classifier under classifier_config with seed
    seed + 1000*l + rep.
    """
    if not 1 <= l < len(LEVEL_FRACTIONS):
        raise ValueError(f"l must be in 1..{len(LEVEL_FRACTIONS) - 1}")
    all_levels = sorted({level for level, _, _ in rows if level is not None})
    if all_levels != sorted(LEVEL_FRACTIONS):
        raise ValueError(f"expected severity levels {sorted(LEVEL_FRACTIONS)}"
                         f", found {all_levels}")

    accuracies = []
    level_sets = []
    for rep in range(replications):
        rng = np.random.default_rng([seed, l, rep])
        train_levels = tuple(sorted(
            rng.choice(all_levels, size=l, replace=False).tolist()))
        test_levels = tuple(lvl for lvl in all_levels
                            if lvl not in train_levels)
        assert set(train_levels).isdisjoint(test_levels)
        assert set(train_levels) | set(test_levels) == set(all_levels)
        level_sets.append(train_levels)

        train_x, train_y, test_x, test_y = [], [], [], []
        for level, x, y in rows:
            if level is None or level in train_levels:
                train_x.append(x)
                train_y.append(y)
            else:
                test_x.append(x)
                test_y.append(y)
        classifier, _ = fit_classifier(
            np.concatenate(train_x), np.concatenate(train_y),
            classifier_config, seed + 1000 * l + rep)
        preds = classify(classifier, np.concatenate(test_x))
        accuracies.append(float(np.mean(preds == np.concatenate(test_y))))

    acc = np.array(accuracies)
    q1, q3 = np.percentile(acc, [25, 75])
    return HoldoutResult(l=l, accuracies=accuracies, level_sets=level_sets,
                         median=float(np.median(acc)), iqr=float(q3 - q1))
