"""Metrics, report tables, severity sweep, and the level-holdout experiment."""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace

import numpy as np

from .detector.models import fit_classifier
from .detector.pipeline import (STAGE_DEFAULTS, dataset_features,
                                evaluate_predictions)
from .neural import softmax
from .scenario.generate import LABELS, LABEL_INDEX

N_LABELS = len(LABELS)
ATTACK_BUSES = (2, 3, 6, 8)
THREE_CLASSES = ("normal", "attack", "fault")


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
        predictions = list(predictions)
        truths = list(truths)
        if len(predictions) != len(truths):
            raise ValueError("predictions and truths differ in length")
        matrix = cls()
        for pred, truth in zip(predictions, truths):
            matrix.counts[_label_index(truth), _label_index(pred)] += 1
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
    groups = [[0], [1, 2, 3, 4], [5, 6, 7, 8]]
    out = np.zeros((3, 3), dtype=int)
    for i, rows in enumerate(groups):
        for j, cols in enumerate(groups):
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
    blocks = {"attack": [1, 2, 3, 4], "fault": [5, 6, 7, 8]}
    for cls, rows in blocks.items():
        for k, bus in enumerate(ATTACK_BUSES):
            li = rows[k]
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

def severity_sweep(datasets_by_level: dict, bundles_by_variant: dict,
                   case=None) -> list[dict]:
    """Per (variant, target bus, level): F1 of the true attack label.

    datasets_by_level maps level -> list of ScenarioSeries (all conditions at
    that level plus whatever normals the caller includes). Emits plot-ready
    rows: variant, bus, level, f1.
    """
    levels = sorted(datasets_by_level)
    if not levels:
        raise ValueError("no level datasets supplied")
    rows = []
    for variant, bundle in bundles_by_variant.items():
        for level in levels:
            series_list = datasets_by_level[level]
            if not series_list:
                raise ValueError(f"no data for level {level}")
            preds, truth = evaluate_predictions(bundle, series_list, case=case)
            matrix = ConfusionMatrix.from_pairs(preds, truth)
            for bus in ATTACK_BUSES:
                _, _, f1 = precision_recall_f1(matrix, f"attack_{bus}")
                rows.append({"variant": variant, "bus": bus,
                             "level": level, "f1": f1})
    return rows


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


def _series_level(series) -> int | None:
    return series.metadata.get("level")


def holdout_experiment(bundle, series_list, l: int, replications: int,
                       seed: int, case=None,
                       classifier_config=None) -> HoldoutResult:
    """Retrain the classifier on l randomly drawn attack levels, test on the
    rest; the upstream feature models stay frozen.

    Per replication: draw l of the 5 levels without replacement, train the
    classifier on normal series plus attack/fault series at those levels,
    then score accuracy on the attack/fault series at the held-out levels.
    classifier_config (default: the classifier's STAGE_DEFAULTS row) is
    re-seeded seed + 1000*l + rep for each replication.
    """
    if not 1 <= l <= 4:
        raise ValueError("l must be in 1..4")
    base = classifier_config or STAGE_DEFAULTS["classifier"]
    # feature extraction is the expensive part; do it once per series
    cache = [(series, dataset_features(bundle, [series], case=case))
             for series in series_list]
    all_levels = sorted({lvl for s, _ in cache
                         if (lvl := _series_level(s)) is not None})
    if len(all_levels) != 5:
        raise ValueError(f"expected 5 severity levels, found {all_levels}")

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
        for series, (x, y) in cache:
            level = _series_level(series)
            if level is None or level in train_levels:
                train_x.append(x)
                train_y.append(y)
            else:
                test_x.append(x)
                test_y.append(y)
        cfg = replace(base, seed=seed + 1000 * l + rep)
        classifier, _ = fit_classifier(np.concatenate(train_x),
                                       np.concatenate(train_y), cfg)
        probs = softmax(classifier.forward(np.concatenate(test_x)))
        preds = np.argmax(probs, axis=1)
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
