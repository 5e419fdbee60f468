"""Metrics, report tables, severity sweep, and the level-holdout experiment."""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .detector.models import N_LABELS, classify, fit_classifier
from .detector.pipeline import STAGE_DEFAULTS
from .scenario import GENERATOR_BUSES, LABELS, LABEL_INDEX, LEVEL_FRACTIONS

THREE_CLASSES = ("normal", "attack", "fault")
# label indices of each 3-class group: a label name starts with its class
CLASS_GROUPS = [[i for i, name in enumerate(LABELS)
                 if name.split("_")[0] == cls] for cls in THREE_CLASSES]


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

    Returns (precision, recall, f1, by_convention) where by_convention flags
    any metric that is 0 only because its denominator was 0.
    """
    convention = []
    if tp + fp == 0:
        precision, p_conv = 0.0, True
    else:
        precision, p_conv = tp / (tp + fp), False
    if tp + fn == 0:
        recall, r_conv = 0.0, True
    else:
        recall, r_conv = tp / (tp + fn), False
    if precision + recall == 0:
        f1, f_conv = 0.0, True
    else:
        f1 = 2 * precision * recall / (precision + recall)
        f_conv = False
    if p_conv:
        convention.append("precision")
    if r_conv:
        convention.append("recall")
    if f_conv:
        convention.append("f1")
    return precision, recall, f1, tuple(convention)


def _one_vs_rest(counts: np.ndarray, index: int):
    tp = int(counts[index, index])
    fp = int(counts[:, index].sum() - tp)
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
    convention = {}

    per_label = {}
    for i, name in enumerate(LABELS):
        p, r, f, conv = _one_vs_rest(counts, i)
        per_label[name] = (p, r, f)
        if conv:
            convention[name] = conv

    collapsed = _collapse_three_class(counts)
    three_class = {}
    for i, name in enumerate(THREE_CLASSES):
        p, r, f, conv = _one_vs_rest(collapsed, i)
        three_class[name] = (p, r, f)
        if conv:
            convention[name] = conv

    localization = {}
    for cls, rows in zip(THREE_CLASSES[1:], CLASS_GROUPS[1:]):
        for bus in GENERATOR_BUSES:
            li = LABEL_INDEX[f"{cls}_{bus}"]
            tp = int(counts[li, li])
            # frame set restricted to true class = cls: misdetections
            # (predictions outside the class) count as localization
            # misses, predictions into the class from outside do not
            fp = int(counts[rows, li].sum()) - tp
            fn = int(counts[li, :].sum()) - tp
            p, r, f, conv = _prf(tp, fp, fn)
            localization[(cls, bus)] = (p, r, f)
            if conv:
                convention[f"{cls}@{bus}"] = conv

    return ClassificationReport(
        per_label=per_label, three_class=three_class,
        localization=localization, accuracy=matrix.accuracy(),
        total=matrix.total, zero_by_convention=convention)


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
    rows = []
    for name, metrics in report.per_label.items():
        rows.append({"section": "label", "name": name,
                     "precision": metrics[0], "recall": metrics[1],
                     "f1": metrics[2]})
    for name, metrics in report.three_class.items():
        rows.append({"section": "class", "name": name,
                     "precision": metrics[0], "recall": metrics[1],
                     "f1": metrics[2]})
    for (cls, bus), metrics in report.localization.items():
        rows.append({"section": "localization", "name": f"{cls}@{bus}",
                     "precision": metrics[0], "recall": metrics[1],
                     "f1": metrics[2]})
    return rows


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
            _, _, f1 = precision_recall_f1(matrix, f"attack_{bus}")
            out.append({"bus": bus, "level": level, "f1": f1})
    return out


def sweep_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write("variant,bus,level,f1\n")
    for row in rows:
        buf.write(f"{row['variant']},{row['bus']},{row['level']},"
                  f"{row['f1']:.6f}\n")
    return buf.getvalue()


# ---------------------------------------------------------------- holdout

@dataclass
class HoldoutResult:
    l: int
    accuracies: list[float]
    level_sets: list[tuple[int, ...]]
    median: float
    iqr: float


def holdout_experiment(rows, l: int, replications: int, seed: int,
                       classifier_config=None) -> HoldoutResult:
    """Retrain the classifier on l randomly drawn attack levels, test on the
    rest; the features, and so the upstream feature models, stay fixed.

    rows are (level, features, label indices) per series, level None for a
    normal series. Per replication: draw l of the severity levels without
    replacement, train the classifier on the normal rows plus the rows at
    those levels, then score accuracy on the rows at the held-out levels.
    classifier_config (default: the classifier's STAGE_DEFAULTS row) is
    re-seeded seed + 1000*l + rep for each replication.
    """
    if not 1 <= l < len(LEVEL_FRACTIONS):
        raise ValueError(f"l must be in 1..{len(LEVEL_FRACTIONS) - 1}")
    base = classifier_config or STAGE_DEFAULTS["classifier"]
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
        cfg = replace(base, seed=seed + 1000 * l + rep)
        classifier, _ = fit_classifier(np.concatenate(train_x),
                                       np.concatenate(train_y), cfg)
        preds = classify(classifier, np.concatenate(test_x))
        accuracies.append(float(np.mean(preds == np.concatenate(test_y))))

    acc = np.array(accuracies)
    q1, q3 = np.percentile(acc, [25, 75])
    return HoldoutResult(l=l, accuracies=accuracies, level_sets=level_sets,
                         median=float(np.median(acc)), iqr=float(q3 - q1))


def holdout_csv(results: list[HoldoutResult]) -> str:
    buf = io.StringIO()
    buf.write("l,replication,accuracy\n")
    for result in results:
        for rep, acc in enumerate(result.accuracies):
            buf.write(f"{result.l},{rep},{acc:.6f}\n")
    return buf.getvalue()
