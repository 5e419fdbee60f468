import numpy as np
import pytest

import gridsentry.evaluation as ev
from gridsentry.evaluation import (ConfusionMatrix, HoldoutResult,
                                   aggregate_report, format_report,
                                   holdout_csv, holdout_experiment, macro_f1,
                                   precision_recall_f1, report_rows,
                                   severity_sweep, sweep_csv)
from gridsentry.neural import TrainConfig
from gridsentry.scenario import LABEL_INDEX


def pairs_from_matrix(counts):
    """Expand a confusion matrix back into (truth, prediction) pairs."""
    out = []
    for t in range(9):
        for p in range(9):
            out.extend([(t, p)] * int(counts[t, p]))
    return out


def tally_oracle(pairs, positive):
    """Brute-force one-vs-rest tally; the reference for every metric test."""
    tp = sum(1 for t, p in pairs if t == positive and p == positive)
    fp = sum(1 for t, p in pairs if t != positive and p == positive)
    fn = sum(1 for t, p in pairs if t == positive and p != positive)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


# ---------------------------------------------------------------- confusion

def test_confusion_perfect_diagonal():
    matrix = ConfusionMatrix.from_pairs(range(9), range(9))
    np.testing.assert_array_equal(matrix.counts, np.eye(9, dtype=int))
    assert matrix.accuracy() == 1.0


def test_confusion_empty():
    matrix = ConfusionMatrix.from_pairs([], [])
    assert matrix.total == 0
    assert matrix.accuracy() == 0.0


def test_confusion_three_frame_example():
    truths = [LABEL_INDEX[n] for n in ("normal", "attack_2", "attack_2")]
    preds = [LABEL_INDEX[n] for n in ("normal", "fault_2", "attack_2")]
    matrix = ConfusionMatrix.from_pairs(preds, truths)
    assert matrix.counts[0, 0] == 1
    assert matrix.counts[1, 5] == 1
    assert matrix.counts[1, 1] == 1
    assert matrix.total == 3


def test_confusion_rejects_bad_input():
    with pytest.raises(ValueError):
        ConfusionMatrix.from_pairs(["bogus"], ["normal"])
    with pytest.raises(ValueError):
        ConfusionMatrix.from_pairs([0, 1], [0])
    for bad in (9, -1):
        with pytest.raises(ValueError):
            ConfusionMatrix.from_pairs([bad], [0])
        with pytest.raises(ValueError):
            ConfusionMatrix.from_pairs([0], [bad])


# ---------------------------------------------------------------- metrics

def test_prf_formula_case():
    # TP=2, FP=1, FN=1 for attack_2
    matrix = ConfusionMatrix()
    matrix.counts[1, 1] = 2
    matrix.counts[0, 1] = 1
    matrix.counts[1, 0] = 1
    p, r, f = precision_recall_f1(matrix, "attack_2")
    assert (p, r, f) == (2 / 3, 2 / 3, 2 / 3)


def test_prf_all_correct():
    matrix = ConfusionMatrix.from_pairs([3] * 5, [3] * 5)
    assert precision_recall_f1(matrix, 3) == (1.0, 1.0, 1.0)


def test_prf_absent_label_convention():
    matrix = ConfusionMatrix.from_pairs([0] * 4, [0] * 4)
    assert precision_recall_f1(matrix, "fault_8") == (0.0, 0.0, 0.0)


def test_prf_matches_tally_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        matrix = ConfusionMatrix(counts=rng.integers(0, 7, size=(9, 9)))
        pairs = pairs_from_matrix(matrix.counts)
        for label in range(9):
            assert precision_recall_f1(matrix, label) == \
                tally_oracle(pairs, label)


def test_metric_integer_identities():
    rng = np.random.default_rng(1)
    matrix = ConfusionMatrix(counts=rng.integers(0, 20, size=(9, 9)))
    for i in range(9):
        tp = matrix.counts[i, i]
        fp = matrix.counts[:, i].sum() - tp
        fn = matrix.counts[i, :].sum() - tp
        p, r, _ = precision_recall_f1(matrix, i)
        assert round(p * (tp + fp)) == tp
        assert round(r * (tp + fn)) == tp


def test_macro_f1_uniform():
    matrix = ConfusionMatrix.from_pairs(range(9), range(9))
    assert macro_f1(matrix) == 1.0


# ---------------------------------------------------------------- aggregate

def test_aggregate_perfect():
    matrix = ConfusionMatrix.from_pairs(list(range(9)) * 3,
                                        list(range(9)) * 3)
    report = aggregate_report(matrix)
    for metrics in report.per_label.values():
        assert metrics == (1.0, 1.0, 1.0)
    for metrics in report.three_class.values():
        assert metrics == (1.0, 1.0, 1.0)
    for metrics in report.localization.values():
        assert metrics == (1.0, 1.0, 1.0)
    assert not report.zero_by_convention


def test_aggregate_always_attack2():
    # truth is any attack; prediction is always attack_2
    truths = [1, 2, 3, 4] * 5
    preds = [1] * 20
    report = aggregate_report(ConfusionMatrix.from_pairs(preds, truths))
    assert report.three_class["attack"][1] == 1.0  # 3-class recall
    assert report.localization[("attack", 2)][1] == 1.0
    for bus in (3, 6, 8):
        assert report.localization[("attack", bus)][1] == 0.0


def test_aggregate_matches_hand_tally():
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 9, size=(9, 9))
    matrix = ConfusionMatrix(counts=counts)
    report = aggregate_report(matrix)
    pairs = pairs_from_matrix(counts)

    # 3-class block: collapse pairs, then brute-force tally
    cls = lambda i: 0 if i == 0 else (1 if i <= 4 else 2)
    collapsed = [(cls(t), cls(p)) for t, p in pairs]
    for i, name in enumerate(("normal", "attack", "fault")):
        assert report.three_class[name] == tally_oracle(collapsed, i)

    # localization conditioned on true class: keep frames of that class
    for cls_name, members in (("attack", [1, 2, 3, 4]),
                              ("fault", [5, 6, 7, 8])):
        kept = [(t, p) for t, p in pairs if t in members]
        for k, bus in enumerate((2, 3, 6, 8)):
            label = members[k]
            tp = sum(1 for t, p in kept if t == label and p == label)
            fp = sum(1 for t, p in kept if t != label and p == label)
            fn = sum(1 for t, p in kept if t == label and p != label)
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = (2 * precision * recall / (precision + recall)
                  if precision + recall else 0.0)
            assert report.localization[(cls_name, bus)] == \
                (precision, recall, f1)


def test_aggregate_conservation():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 9, size=(9, 9))
    collapsed = ev._collapse_three_class(counts)
    assert collapsed.sum() == counts.sum()
    assert collapsed[0, 0] == counts[0, 0]
    assert collapsed[1, 2] == counts[1:5, 5:9].sum()


def test_report_rendering():
    matrix = ConfusionMatrix.from_pairs(range(9), range(9))
    report = aggregate_report(matrix)
    text = format_report(report)
    assert "nine-label classification" in text
    assert "attack@2" in text
    rows = report_rows(report)
    assert len(rows) == 9 + 3 + 8


# ---------------------------------------------------------------- severity

class StubClassifier:
    """Logits that pick the label index stored in feature column 0."""

    def forward(self, x):
        return 10.0 * np.eye(9)[x[:, 0].astype(int)]


def test_severity_sweep_shape_and_values():
    # predictions equal truth except at level 1, where they are all normal
    truth = np.arange(9)
    level_rows = [(lvl, (np.zeros(9) if lvl == 1 else truth)[:, None], truth)
                  for lvl in range(1, 6)]
    rows = []
    for variant in ("AEN_RNN_DNN", "RNN_DNN", "SE_DNN"):
        rows += [{"variant": variant, **row}
                 for row in severity_sweep(level_rows, StubClassifier())]
    assert len(rows) == 3 * 4 * 5
    for row in rows:
        assert row["f1"] == (0.0 if row["level"] == 1 else 1.0)
    csv = sweep_csv(rows)
    assert csv.splitlines()[0] == "variant,bus,level,f1"
    assert len(csv.splitlines()) == 61


def test_severity_sweep_missing_level():
    with pytest.raises(ValueError):
        severity_sweep([], StubClassifier())
    normal_only = [(None, np.zeros((9, 1)), np.zeros(9, dtype=int))]
    with pytest.raises(ValueError):
        severity_sweep(normal_only, StubClassifier())


# ---------------------------------------------------------------- holdout

def make_holdout_world(seed=0):
    """(level, features, labels) rows: one normal series, then one series of
    the eight attack/fault labels at each of the five levels."""
    rng = np.random.default_rng(seed)
    rows = []

    def block(label_set, level, n=12):
        feats, labels = [], []
        for lbl in label_set:
            center = np.zeros(78)
            center[lbl] = 5.0
            feats.append(center + 0.2 * rng.standard_normal((n, 78)))
            labels.append(np.full(n, lbl))
        rows.append((level, np.concatenate(feats), np.concatenate(labels)))

    block([0], None)  # normal-only series
    for level in range(1, 6):
        block(list(range(1, 9)), level)
    return rows


def test_holdout_mechanics():
    rows = make_holdout_world()
    cfg = TrainConfig(learning_rate=5e-3, epochs=15, batch_size=32, seed=0)
    result = holdout_experiment(rows, l=4, replications=3, seed=42,
                                classifier_config=cfg)
    assert isinstance(result, HoldoutResult)
    assert len(result.accuracies) == 3
    for train_levels in result.level_sets:
        assert len(train_levels) == 4  # exactly one held-out level

    again = holdout_experiment(rows, l=4, replications=3, seed=42,
                               classifier_config=cfg)
    assert again.level_sets == result.level_sets
    assert again.accuracies == result.accuracies

    csv = holdout_csv([result])
    assert csv.splitlines()[0] == "l,replication,accuracy"
    assert len(csv.splitlines()) == 4


def test_holdout_validation():
    rows = make_holdout_world()
    with pytest.raises(ValueError):
        holdout_experiment(rows, l=0, replications=1, seed=0)
    with pytest.raises(ValueError):
        holdout_experiment(rows[:2], l=2, replications=1, seed=0)
