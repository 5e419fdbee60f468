import numpy as np
import pytest

import gridsentry.evaluation as ev
from gridsentry.detector.models import STAGE_DEFAULTS
from gridsentry.evaluation import (HoldoutResult, accuracy,
                                   confusion_counts, csv_table, format_report,
                                   holdout_experiment, macro_f1,
                                   precision_recall_f1, report_rows,
                                   severity_sweep)
from gridsentry.neural import TrainConfig
from gridsentry.scenario import LABELS, LABEL_INDEX


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


def report_tables(counts):
    """report_rows keyed by (section, name), as (precision, recall, f1)."""
    return {(row["section"], row["name"]):
            (row["precision"], row["recall"], row["f1"])
            for row in report_rows(counts)}


# ---------------------------------------------------------------- confusion

def test_confusion_perfect_diagonal():
    counts = confusion_counts(range(9), range(9))
    np.testing.assert_array_equal(counts, np.eye(9, dtype=int))
    assert accuracy(counts) == 1.0


def test_confusion_empty():
    counts = confusion_counts([], [])
    assert counts.sum() == 0
    assert accuracy(counts) == 0.0


def test_confusion_three_frame_example():
    truths = [LABEL_INDEX[n] for n in ("normal", "attack_2", "attack_2")]
    preds = [LABEL_INDEX[n] for n in ("normal", "fault_2", "attack_2")]
    counts = confusion_counts(preds, truths)
    assert counts[0, 0] == 1
    assert counts[1, 5] == 1
    assert counts[1, 1] == 1
    assert counts.sum() == 3


def test_confusion_rejects_bad_input():
    with pytest.raises(ValueError):
        confusion_counts(["bogus"], ["normal"])
    with pytest.raises(ValueError):
        confusion_counts([0, 1], [0])
    for bad in (9, -1):
        with pytest.raises(ValueError):
            confusion_counts([bad], [0])
        with pytest.raises(ValueError):
            confusion_counts([0], [bad])


# ---------------------------------------------------------------- metrics

def test_prf_formula_case():
    # TP=2, FP=1, FN=1 for attack_2
    counts = np.zeros((9, 9), dtype=int)
    counts[1, 1] = 2
    counts[0, 1] = 1
    counts[1, 0] = 1
    p, r, f = precision_recall_f1(counts, "attack_2")
    assert (p, r, f) == (2 / 3, 2 / 3, 2 / 3)


def test_prf_all_correct():
    counts = confusion_counts([3] * 5, [3] * 5)
    assert precision_recall_f1(counts, LABELS[3]) == (1.0, 1.0, 1.0)


def test_prf_absent_label_convention():
    counts = confusion_counts([0] * 4, [0] * 4)
    assert precision_recall_f1(counts, "fault_8") == (0.0, 0.0, 0.0)


def test_prf_matches_tally_oracle_exactly():
    rng = np.random.default_rng(0)
    for _ in range(20):
        counts = rng.integers(0, 7, size=(9, 9))
        pairs = pairs_from_matrix(counts)
        for label in range(9):
            assert precision_recall_f1(counts, LABELS[label]) == \
                tally_oracle(pairs, label)


def test_metric_integer_identities():
    rng = np.random.default_rng(1)
    counts = rng.integers(0, 20, size=(9, 9))
    for i in range(9):
        tp = counts[i, i]
        fp = counts[:, i].sum() - tp
        fn = counts[i, :].sum() - tp
        p, r, _ = precision_recall_f1(counts, LABELS[i])
        assert round(p * (tp + fp)) == tp
        assert round(r * (tp + fn)) == tp


def test_macro_f1_uniform():
    counts = confusion_counts(range(9), range(9))
    assert macro_f1(counts) == 1.0


# ---------------------------------------------------------------- aggregate

def test_aggregate_perfect():
    rows = report_rows(confusion_counts(list(range(9)) * 3,
                                        list(range(9)) * 3))
    for row in rows:
        assert (row["precision"], row["recall"], row["f1"]) == \
            (1.0, 1.0, 1.0)
    assert not any(row["zero_by_convention"] for row in rows)


def test_aggregate_always_attack2():
    # truth is any attack; prediction is always attack_2
    truths = [1, 2, 3, 4] * 5
    preds = [1] * 20
    tables = report_tables(confusion_counts(preds, truths))
    assert tables["class", "attack"][1] == 1.0  # 3-class recall
    assert tables["localization", "attack@2"][1] == 1.0
    for bus in (3, 6, 8):
        assert tables["localization", f"attack@{bus}"][1] == 0.0


def test_aggregate_matches_hand_tally():
    rng = np.random.default_rng(2)
    counts = rng.integers(0, 9, size=(9, 9))
    tables = report_tables(counts)
    pairs = pairs_from_matrix(counts)

    # 3-class block: collapse pairs, then brute-force tally
    cls = lambda i: 0 if i == 0 else (1 if i <= 4 else 2)
    collapsed = [(cls(t), cls(p)) for t, p in pairs]
    for i, name in enumerate(("normal", "attack", "fault")):
        assert tables["class", name] == tally_oracle(collapsed, i)

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
            assert tables["localization", f"{cls_name}@{bus}"] == \
                (precision, recall, f1)


def test_aggregate_conservation():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 9, size=(9, 9))
    collapsed = ev._collapse_three_class(counts)
    assert collapsed.sum() == counts.sum()
    assert collapsed[0, 0] == counts[0, 0]
    assert collapsed[1, 2] == counts[1:5, 5:9].sum()


def test_report_rendering():
    counts = confusion_counts(range(9), range(9))
    rows = report_rows(counts)
    text = format_report(counts, rows)
    assert "nine-label classification" in text
    assert "attack@2" in text
    assert len(rows) == 9 + 3 + 8
    lines = csv_table(("section", "name", "precision", "recall", "f1"),
                      rows).splitlines()
    assert lines[0] == "section,name,precision,recall,f1"
    assert len(lines) == 1 + 9 + 3 + 8
    assert lines[1] == "label,normal,1.000000,1.000000,1.000000"
    assert lines[-1] == "localization,fault@8,1.000000,1.000000,1.000000"


# ---------------------------------------------------------- reference forms

def ref_prf(tp, fp, fn):
    """The one-vs-rest metrics written out branch by branch."""
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


def ref_one_vs_rest(counts, index):
    tp = int(counts[index, index])
    fp = int(counts[:, index].sum() - tp)
    fn = int(counts[index, :].sum() - tp)
    return ref_prf(tp, fp, fn)


def ref_report(counts):
    """The entries, text and CSV reports of `counts` written out section by
    section; entries are (section, name, (p, r, f1, by_convention))."""
    group = lambda i: 0 if i == 0 else (1 if i <= 4 else 2)
    collapsed = np.zeros((3, 3), dtype=int)
    for t in range(9):
        for p in range(9):
            collapsed[group(t), group(p)] += counts[t, p]
    entries = []  # (section, name, ref_prf result)
    for i, name in enumerate(ev.LABELS):
        entries.append(("label", name, ref_one_vs_rest(counts, i)))
    for i, name in enumerate(("normal", "attack", "fault")):
        entries.append(("class", name, ref_one_vs_rest(collapsed, i)))
    for cls, members in (("attack", [1, 2, 3, 4]), ("fault", [5, 6, 7, 8])):
        for li, bus in zip(members, (2, 3, 6, 8)):
            tp = int(counts[li, li])
            fp = int(counts[members, li].sum()) - tp
            fn = int(counts[li, :].sum()) - tp
            entries.append(("localization", f"{cls}@{bus}",
                            ref_prf(tp, fp, fn)))

    def table(section):
        return "".join(f"  {name:<12s} {p:9.4f} {r:9.4f} {f:9.4f}\n"
                       for s, name, (p, r, f, _) in entries if s == section)

    total = int(counts.sum())
    acc = float(np.trace(counts)) / total if total else 0.0
    text = (f"frames evaluated: {total}  accuracy: {acc:.4f}\n"
            "nine-label classification\n"
            "  label        precision    recall        f1\n"
            + table("label")
            + "detection (3-class)\n" + table("class")
            + "localization (within true class)\n" + table("localization"))
    names = sorted({name for _, name, metrics in entries if metrics[3]})
    if names:
        text += "zero-by-convention entries: " + ", ".join(names) + "\n"
    csv = "section,name,precision,recall,f1\n" + "".join(
        f"{s},{name},{p:.6f},{r:.6f},{f:.6f}\n"
        for s, name, (p, r, f, _) in entries)
    return entries, text, csv


def check_report(counts):
    """Compare report_rows of `counts` exactly, and every report output as
    bytes, with ref_report; returns the (section, metric) pairs of the rows
    that are 0 by convention."""
    rows = report_rows(counts)
    entries, text, csv = ref_report(counts)
    assert [(r["section"], r["name"], r["precision"], r["recall"], r["f1"],
             r["zero_by_convention"]) for r in rows] == \
        [(s, name, *metrics) for s, name, metrics in entries]
    assert format_report(counts, rows).encode() == text.encode()
    assert csv_table(("section", "name", "precision", "recall", "f1"),
                     rows).encode() == csv.encode()
    assert macro_f1(counts) == float(np.mean(
        [ref_one_vs_rest(counts, i)[2] for i in range(9)]))
    return {(r["section"], metric) for r in rows
            for metric in r["zero_by_convention"]}


def test_report_matches_reference_form():
    # all zero: every entry is 0 by convention, and "normal", the name of
    # a label row and of a class row, is listed once
    zeros = np.zeros((9, 9), dtype=int)
    check_report(zeros)
    assert format_report(zeros, report_rows(zeros)).splitlines()[-1] == (
        "zero-by-convention entries: attack, attack@2, attack@3, attack@6, "
        "attack@8, attack_2, attack_3, attack_6, attack_8, fault, fault@2, "
        "fault@3, fault@6, fault@8, fault_2, fault_3, fault_6, fault_8, "
        "normal")

    # sparse matrices with whole rows and columns zeroed, so every
    # zero-by-convention branch fires in every section
    rng = np.random.default_rng(11)
    fired = set()
    for _ in range(1500):
        density = rng.uniform(0.02, 0.6)
        counts = rng.integers(1, 30, size=(9, 9)) * (
            rng.random((9, 9)) < density)
        counts[rng.random(9) < 0.2, :] = 0
        counts[:, rng.random(9) < 0.2] = 0
        fired |= check_report(counts)
    assert fired == {(section, metric)
                     for section in ("label", "class", "localization")
                     for metric in ("precision", "recall", "f1")}


def test_csv_table_formats_floats_only():
    rows = [{"l": 4, "rep": np.int64(1), "acc": 0.5, "f1": np.float64(1 / 3),
             "name": "attack@2"}]
    assert csv_table(("name", "l", "rep", "acc", "f1"), rows) == (
        "name,l,rep,acc,f1\nattack@2,4,1,0.500000,0.333333\n")
    assert csv_table(("l", "replication", "accuracy"), []) == (
        "l,replication,accuracy\n")


# ---------------------------------------------------------------- severity

class StubClassifier:
    """Logits that pick the label index stored in feature column 0."""

    dtype = np.float64  # classify casts the features to it

    @property
    def layers(self):  # classify runs a classifier's layers one by one
        return [self]

    def forward(self, x):
        return 10.0 * np.eye(9)[x[:, 0].astype(int)], None


def test_severity_sweep_shape_and_values():
    # predictions equal truth except at level 1, where they are all normal
    truth = np.tile(np.arange(9), 5)
    levels = np.repeat(np.arange(1, 6), 9)
    features = np.where(levels == 1, 0, truth)[:, None]
    rows = []
    for variant in ("AEN_RNN_DNN", "RNN_DNN", "SE_DNN"):
        rows += [{"variant": variant, **row} for row in severity_sweep(
            (levels, features, truth), StubClassifier())]
    assert len(rows) == 3 * 4 * 5
    for row in rows:
        assert row["f1"] == (0.0 if row["level"] == 1 else 1.0)
    csv = csv_table(("variant", "bus", "level", "f1"), rows)
    assert csv.splitlines()[0] == "variant,bus,level,f1"
    assert len(csv.splitlines()) == 61


# ---------------------------------------------------------------- holdout

def make_holdout_world(seed=0):
    """(levels, features, labels) frame table: one normal series, then one
    series of the eight attack/fault labels at each of the five levels."""
    rng = np.random.default_rng(seed)
    levels, feats, labels = [], [], []

    def block(label_set, level, n=12):
        for lbl in label_set:
            center = np.zeros(78)
            center[lbl] = 5.0
            levels.append(np.full(n, level))
            feats.append(center + 0.2 * rng.standard_normal((n, 78)))
            labels.append(np.full(n, lbl))

    block([0], 0)  # normal-only series
    for level in range(1, 6):
        block(list(range(1, 9)), level)
    return tuple(map(np.concatenate, (levels, feats, labels)))


def test_holdout_mechanics(monkeypatch):
    frames = make_holdout_world()
    monkeypatch.setitem(STAGE_DEFAULTS, "classifier", TrainConfig(
        learning_rate=5e-3, epochs=15, batch_size=32))
    result = holdout_experiment(frames, l=4, replications=3, seed=42)
    assert isinstance(result, HoldoutResult)
    assert len(result.accuracies) == 3
    for train_levels in result.level_sets:
        assert len(train_levels) == 4  # exactly one held-out level

    again = holdout_experiment(frames, l=4, replications=3, seed=42)
    assert again.level_sets == result.level_sets
    assert again.accuracies == result.accuracies


def assert_numpy_median_and_quartiles(values):
    """_median_and_quartiles(values) holds the bits of np.median(values)
    and np.percentile(values, [25, 75])."""
    want = (np.median(values), *np.percentile(values, [25, 75]))
    assert ([x.hex() for x in ev._median_and_quartiles(values)]
            == [float(x).hex() for x in want]), values


def test_median_and_quartiles_match_numpy_bit_for_bit():
    # holdout computes them by numpy's formulas, as np.median and
    # np.percentile load numpy.ma; holdout.json must keep its bits. An
    # accuracy is a fraction k/m of frames; on 1/96 and 3/96 the last bit
    # tells (a + b)/2 from a + (b - a)/2, and a + (b - a)*0.5 from
    # b - (b - a)*0.5, the two branches of numpy's interpolation
    for values in ([0.7], [0.25, 0.75], [0.1, 0.1], [1 / 96, 3 / 96],
                   [1 / 96, 3 / 96, 3 / 96]):
        assert_numpy_median_and_quartiles(values)
    rng = np.random.default_rng(11)
    for _ in range(5000):
        m = rng.integers(1, 100)
        pool = rng.integers(0, m + 1, size=rng.integers(1, 5)) / m  # ties
        assert_numpy_median_and_quartiles(
            rng.choice(pool, size=rng.integers(1, 9)).tolist())


def test_holdout_median_and_iqr_match_numpy(monkeypatch):
    # two epochs leave the four replications' accuracies apart
    monkeypatch.setitem(STAGE_DEFAULTS, "classifier", TrainConfig(
        learning_rate=5e-3, epochs=2, batch_size=32))
    result = holdout_experiment(make_holdout_world(), l=1, replications=4,
                                seed=42)
    acc = result.accuracies
    assert len(set(acc)) == 4
    assert_numpy_median_and_quartiles(acc)
    q1, q3 = np.percentile(acc, [25, 75])
    assert (result.median.hex(), result.iqr.hex()) == (
        float(np.median(acc)).hex(), float(q3 - q1).hex())


def test_holdout_trains_on_drawn_levels_and_scores_the_rest(monkeypatch):
    # every replication fits on exactly the normal frames plus the frames
    # at its drawn levels, in table order, and scores every other frame
    levels, features, labels = make_holdout_world()
    features[:, 0] = np.arange(len(levels))  # column 0 names the frame
    frames = (levels, features, labels)
    fitted = []

    def stub_fit(x, y, seed):
        fitted.append(x[:, 0].astype(int))
        np.testing.assert_array_equal(y, labels[fitted[-1]])
        return None, []  # classify is stubbed too

    scored = []

    def stub_classify(classifier, x):
        scored.append(x[:, 0].astype(int))
        return labels[scored[-1]]

    monkeypatch.setattr(ev, "fit_classifier", stub_fit)
    monkeypatch.setattr(ev, "classify", stub_classify)
    result = holdout_experiment(frames, l=2, replications=4, seed=3)
    assert len(fitted) == len(scored) == len(result.level_sets) == 4
    for train_levels, train, test in zip(result.level_sets, fitted, scored):
        assert len(train_levels) == 2
        expected = [i for i, lvl in enumerate(levels)
                    if lvl == 0 or lvl in train_levels]
        np.testing.assert_array_equal(train, expected)
        np.testing.assert_array_equal(
            test, sorted(set(range(len(levels))) - set(expected)))
    assert result.accuracies == [1.0] * 4
