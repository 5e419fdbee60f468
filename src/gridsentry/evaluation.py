"""Metrics, report tables, severity sweep, and the level-holdout experiment."""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .detector.models import N_LABELS, classify, fit_classifier
from .scenario import (GENERATOR_BUSES, KINDS, LABELS, LABEL_INDEX,
                       LEVEL_FRACTIONS, THREE_CLASSES, condition_name)

# label indices of each 3-class group, in THREE_CLASSES order
CLASS_GROUPS = [[LABEL_INDEX["normal"]],
                *([LABEL_INDEX[condition_name(kind, bus)]
                   for bus in GENERATOR_BUSES] for kind in KINDS)]


def _label_index(label) -> int:
    if isinstance(label, (int, np.integer)):
        if not 0 <= label < N_LABELS:
            raise ValueError(f"label index {label} out of range")
        return int(label)
    if label not in LABEL_INDEX:
        raise ValueError(f"unknown label {label!r}")
    return LABEL_INDEX[label]


@dataclass
class ConfusionMatrix:
    """9x9 integer counts; rows are truth, columns are prediction."""

    counts: np.ndarray = field(
        default_factory=lambda: np.zeros((N_LABELS, N_LABELS), dtype=int))

    @classmethod
    def from_pairs(cls, predictions, truths) -> "ConfusionMatrix":
        """Count (truth, prediction) pairs of label indices."""
        index = (np.asarray(truths), np.asarray(predictions))
        if index[0].shape != index[1].shape:
            raise ValueError("predictions and truths differ in length")
        matrix = cls()
        if index[0].size:
            if any(a.dtype.kind not in "iu" or a.min() < 0
                   or a.max() >= N_LABELS for a in index):
                raise ValueError(
                    f"label indices must be integers in 0..{N_LABELS - 1}")
            np.add.at(matrix.counts, index, 1)
        return matrix

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def accuracy(self) -> float:
        total = self.total
        return float(np.trace(self.counts)) / total if total else 0.0


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


def precision_recall_f1(matrix: ConfusionMatrix, label):
    """One-vs-rest (precision, recall, F1) for one of the nine labels."""
    return _one_vs_rest(matrix.counts, _label_index(label))[:3]


def macro_f1(matrix: ConfusionMatrix) -> float:
    return float(np.mean([precision_recall_f1(matrix, i)[2]
                          for i in range(N_LABELS)]))


@dataclass
class ClassificationReport:
    per_label: dict          # label name -> (precision, recall, f1)
    three_class: dict        # normal/attack/fault -> (precision, recall, f1)
    localization: dict       # (class, bus) -> (precision, recall, f1)
    accuracy: float
    total: int
    zero_by_convention: dict  # entry key -> metrics that are 0 by convention


def _collapse_three_class(counts: np.ndarray) -> np.ndarray:
    """Sum the 9x9 blocks into the 3x3 normal/attack/fault matrix."""
    out = np.zeros((3, 3), dtype=int)
    for i, rows in enumerate(CLASS_GROUPS):
        for j, cols in enumerate(CLASS_GROUPS):
            out[i, j] = counts[np.ix_(rows, cols)].sum()
    return out


def aggregate_report(matrix: ConfusionMatrix) -> ClassificationReport:
    """Per-label, collapsed 3-class, and within-class localization metrics.

    Localization metrics for a bus are computed on the sub-matrix restricted
    to frames whose true class matches.
    """
    counts = matrix.counts
    collapsed = _collapse_three_class(counts)
    # section -> [(table key, convention key, _one_vs_rest result)]; within
    # a true class, misdetections (predictions outside the class) count as
    # localization misses, predictions into the class from outside do not
    sections = {
        "per_label": [(name, name, _one_vs_rest(counts, i))
                      for i, name in enumerate(LABELS)],
        "three_class": [(name, name, _one_vs_rest(collapsed, i))
                        for i, name in enumerate(THREE_CLASSES)],
        "localization": [
            ((cls, bus), f"{cls}@{bus}",
             _one_vs_rest(counts, LABEL_INDEX[condition_name(cls, bus)],
                          rows))
            for cls, rows in zip(KINDS, CLASS_GROUPS[1:])
            for bus in GENERATOR_BUSES],
    }
    return ClassificationReport(
        **{section: {key: metrics[:3] for key, _, metrics in entries}
           for section, entries in sections.items()},
        accuracy=matrix.accuracy(), total=matrix.total,
        zero_by_convention={name: metrics[3]
                            for entries in sections.values()
                            for _, name, metrics in entries if metrics[3]})


def format_report(report: ClassificationReport) -> str:
    """Aligned plain-text rendering of the per-label and aggregated tables."""
    buf = io.StringIO()

    def row(name, metrics):
        p, r, f = metrics
        buf.write(f"  {name:<12s} {p:9.4f} {r:9.4f} {f:9.4f}\n")

    buf.write(f"frames evaluated: {report.total}  "
              f"accuracy: {report.accuracy:.4f}\n")
    buf.write("nine-label classification\n")
    buf.write(f"  {'label':<12s} {'precision':>9s} {'recall':>9s} {'f1':>9s}\n")
    for name in LABELS:
        row(name, report.per_label[name])
    buf.write("detection (3-class)\n")
    for name in THREE_CLASSES:
        row(name, report.three_class[name])
    buf.write("localization (within true class)\n")
    for (cls, bus), metrics in report.localization.items():
        row(f"{cls}@{bus}", metrics)
    if report.zero_by_convention:
        keys = ", ".join(sorted(report.zero_by_convention))
        buf.write(f"zero-by-convention entries: {keys}\n")
    return buf.getvalue()


def report_rows(report: ClassificationReport) -> list[dict]:
    """Machine-readable flat rows (section, name, precision, recall, f1)."""
    localization = {f"{cls}@{bus}": metrics
                    for (cls, bus), metrics in report.localization.items()}
    sections = (("label", report.per_label), ("class", report.three_class),
                ("localization", localization))
    return [{"section": section, "name": name,
             "precision": p, "recall": r, "f1": f}
            for section, table in sections
            for name, (p, r, f) in table.items()]


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
        matrix = ConfusionMatrix.from_pairs(
            preds, np.concatenate([y for _, y in kept]))
        for bus in GENERATOR_BUSES:
            _, _, f1 = precision_recall_f1(matrix,
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
