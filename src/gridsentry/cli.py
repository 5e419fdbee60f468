"""Command-line surface: gen-data, train, evaluate, holdout, report."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import InputError
from .config import (RunConfig, RunManifest, config_hash, load_config,
                     read_json_object)
from .detector import load_bundle, save_bundle, train_bundle
from .detector.pipeline import evaluate_predictions, feature_rows
from .dispatch import plan_generation, synthesize_loads
from .evaluation import (accuracy, confusion_counts, csv_table,
                         format_report, holdout_experiment, macro_f1,
                         report_rows, severity_sweep)
from .grid import N_SENSORS, load_case
from .scenario import (GENERATOR_BUSES, KINDS, LABEL_INDEX, LABELS,
                       LEVEL_FRACTIONS, STATUS_FLAGS, ScenarioSeries,
                       condition_name, generate_scenario, make_condition)


# the RunConfig fields that gen-data's files depend on
GENERATION_KEYS = ("seed", "horizon", "noise_sigma", "levels", "window",
                   "normal_series", "series_per_condition_per_level")
# the layout of the files gen-data writes, recorded in its config.json: a
# values array and a status array, a row of each per series
DATASET_FORMAT = 3
VALUES_FILE = "values.npy"
STATUS_FILE = "status.npy"


def _series_jobs(cfg: RunConfig):
    """Deterministic list of (name, kind, target, level, seed) jobs, in
    name order: a dataset's rows."""
    jobs = []
    for idx in range(cfg.normal_series):
        jobs.append((f"normal_s{idx:02d}", "normal", 0, 0,
                     cfg.seed * 1000003 + idx))
    for kind_code, kind in enumerate(KINDS, start=1):
        for target in GENERATOR_BUSES:
            for level in cfg.levels:
                for idx in range(cfg.series_per_condition_per_level):
                    seed = (cfg.seed * 1000003 + kind_code * 100000
                            + target * 10000 + level * 100 + idx)
                    name = condition_name(kind, target)
                    jobs.append((f"{name}_l{level}_s{idx:02d}",
                                 kind, target, level, seed))
    return sorted(jobs)


def _generate_one(args):
    cfg, case, kind, target, level, seed = args
    rng = np.random.default_rng(seed)
    demand = synthesize_loads(cfg.horizon, rng)
    plan = plan_generation(demand)
    condition = (None if kind == "normal" else
                 make_condition(case, kind, target, level, *cfg.window))
    return generate_scenario(case, plan, demand, condition,
                             noise_sigma=cfg.noise_sigma, seed=seed)


def cmd_gen_data(cfg: RunConfig, out_dir: Path) -> Path:
    manifest = RunManifest(out_dir, config_hash(cfg))
    case = load_case()
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(
        {**cfg.canonical(), "dataset_format": DATASET_FORMAT},
        indent=2, sort_keys=True) + "\n")

    jobs = _series_jobs(cfg)
    tasks = [(cfg, case, *job[1:]) for job in jobs]
    # a pool forks all its processes at its first submit, so it gets no
    # more than there are series or CPUs; no output depends on the count
    workers = min(cfg.workers, len(jobs), os.cpu_count() or 1)
    with contextlib.ExitStack() as stack:
        generated = map(_generate_one, tasks)
        if workers > 1:
            # imported only here: concurrent.futures loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=workers))
            generated = pool.map(_generate_one, tasks)
        # save writes each series before it takes the next, so a serial
        # run holds one series at a time
        status = ScenarioSeries.save(out_dir / VALUES_FILE,
                                     out_dir / STATUS_FILE, generated,
                                     (len(jobs), cfg.horizon, N_SENSORS))
    failures = [job[0] for job, hours in zip(jobs, status)
                if (hours & STATUS_FLAGS["gap_hours"]).any()]
    # _series_jobs gives every condition at least one series
    manifest.record("gen-data", [config_path, out_dir / VALUES_FILE,
                                 out_dir / STATUS_FILE],
                    status="ok" if not failures else "partial",
                    series=len(jobs), conditions=sorted(LABELS),
                    solver_gaps=failures)
    if len(failures) == len(jobs):
        raise RuntimeError("every series hit solver gaps; generation failed")
    return out_dir


def load_dataset(cfg: RunConfig, data_dir: Path, part: str, bundles=()):
    """(frames, labels, levels) of the series of cfg's gen-data in data_dir
    (_series_jobs) that a stage uses, "all" in row order or the "train"
    or "test" part of split_series: their float64 (S, T, 39) values, the
    LABEL_INDEX of each frame's label and each series' level, as each
    series' job gives them: its condition inside cfg's window, normal
    elsewhere, and its level, 0 for a normal series.

    Each record it takes in, in turn, must hold on GENERATION_KEYS what
    cfg gives, compared as JSON text (3.0 is not 3, an absent key not a
    null one): data_dir's config.json, which must also record
    DATASET_FORMAT, then the dataset record of each (path, ModelBundle)
    pair in bundles, the bundles the stage scores on the part. Only then
    are the part's rows of the values file parsed, so a defect in another
    row is not seen.
    """
    data_dir = Path(data_dir)
    given = cfg.canonical()
    generation = {key: given[key] for key in GENERATION_KEYS}
    config_path = data_dir / "config.json"
    records = [(config_path, read_json_object(config_path),
                {**generation, "dataset_format": DATASET_FORMAT}),
               *((f"bundle file {path}", bundle.dataset, generation)
                 for path, bundle in bundles)]
    for source, written, wanted in records:
        differ = [key for key in wanted if key not in written
                  or json.dumps(written[key]) != json.dumps(wanted[key])]
        if differ:
            recorded = {key: written[key] for key in differ if key in written}
            expected = {key: wanted[key] for key in differ}
            raise InputError(f"{source} records {recorded}; the config "
                             f"gives {expected}")
    jobs = _series_jobs(cfg)
    # each series' (condition, level), the group split_series keeps it in
    groups = [("normal" if kind == "normal" else condition_name(kind, target),
               level) for _, kind, target, level, _ in jobs]
    picked = (range(len(jobs)) if part == "all" else
              split_series(groups, cfg.seed)[("train", "test").index(part)])
    frames = ScenarioSeries.load(data_dir / VALUES_FILE,
                                 [job[0] for job in jobs], cfg.horizon, picked)
    labels = np.full((len(picked), cfg.horizon), LABEL_INDEX["normal"])
    levels = np.empty(len(picked), dtype=int)
    window = slice(*cfg.window)
    for row, k in enumerate(picked):
        labels[row, window] = LABEL_INDEX[groups[k][0]]
        levels[row] = groups[k][1]
    return frames, labels, levels


SPLIT_FRACTION = 0.8  # share of each (condition, level) group trained on


def split_series(keys, seed: int):
    """Deterministic series-level split, stratified by (condition, level):
    the positions in keys, each series' (condition, level), of the train
    and of the test series. SPLIT_FRACTION of each group is trained on.

    Each group keeps at least one series on either side, so a group of
    fewer than 2 series is refused with InputError.
    """
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    small = {key: len(members) for key, members in sorted(groups.items())
             if len(members) < 2}
    if small:
        raise InputError(f"the split needs at least 2 series per "
                         f"(condition, level) group; got {small}")
    train, test = [], []
    for group_id, key in enumerate(sorted(groups)):
        members = groups[key]
        order = np.random.default_rng([seed, 7, group_id])
        idx = order.permutation(len(members))
        n_train = min(max(int(round(SPLIT_FRACTION * len(members))), 1),
                      len(members) - 1)
        for j, k in enumerate(idx):
            (train if j < n_train else test).append(members[k])
    return train, test


def cmd_train(cfg: RunConfig, data_dir: Path, variant: str,
              out_dir: Path) -> Path:
    if variant not in cfg.variants:
        raise InputError(f"variant {variant!r} is not in the config's "
                         f"variants {list(cfg.variants)}")
    manifest = RunManifest(out_dir, config_hash(cfg))
    train_set = load_dataset(cfg, data_dir, "train")
    given = cfg.canonical()
    bundle = train_bundle(variant, train_set, seed=cfg.seed,
                          dataset={key: given[key] for key in GENERATION_KEYS})
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle_path = out_dir / f"bundle_{variant}.npz"
    save_bundle(bundle, bundle_path)
    history_path = out_dir / f"history_{variant}.json"
    history_path.write_text(json.dumps(bundle.history, indent=2) + "\n")
    manifest.record(f"train-{variant}", [bundle_path, history_path],
                    training_series=len(train_set[0]))
    return bundle_path


def cmd_evaluate(cfg: RunConfig, data_dir: Path, bundle_path: Path,
                 out_dir: Path) -> float:
    manifest = RunManifest(out_dir, config_hash(cfg))
    bundle = load_bundle(bundle_path)
    test_set = load_dataset(cfg, data_dir, "test", [(bundle_path, bundle)])
    preds, truth = evaluate_predictions(bundle, test_set)
    counts = confusion_counts(preds, truth)
    rows = report_rows(counts)

    out_dir.mkdir(parents=True, exist_ok=True)
    variant = bundle.variant
    text = format_report(counts, rows)
    text_path = out_dir / f"report_{variant}.txt"
    text_path.write_text(text)
    rows_path = out_dir / f"report_{variant}.csv"
    rows_path.write_text(csv_table(("section", "name", "precision",
                                    "recall", "f1"), rows))
    conf_path = out_dir / f"confusion_{variant}.csv"
    np.savetxt(conf_path, counts, fmt="%d", delimiter=",")
    score = macro_f1(counts)
    manifest.record(f"evaluate-{variant}", [text_path, rows_path, conf_path],
                    frames=int(counts.sum()), macro_f1=score,
                    accuracy=accuracy(counts))
    print(text)
    print(f"macro-F1: {score:.4f}")
    return score


def cmd_holdout(cfg: RunConfig, data_dir: Path, bundle_path: Path,
                out_dir: Path) -> Path:
    # each replication trains on l levels and tests on the others, so the
    # dataset must hold every level; refuse before loading anything
    if set(cfg.levels) != set(LEVEL_FRACTIONS):
        raise InputError(f"holdout needs levels {sorted(LEVEL_FRACTIONS)}, "
                         f"the config has levels {list(cfg.levels)}")
    manifest = RunManifest(out_dir, config_hash(cfg))
    bundle = load_bundle(bundle_path)
    frames = feature_rows(bundle, load_dataset(
        cfg, data_dir, "all", [(bundle_path, bundle)]))
    results = [holdout_experiment(frames, l, cfg.holdout_replications,
                                  cfg.seed)
               for l in cfg.holdout_l_values]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "holdout.csv"
    csv_path.write_text(csv_table(
        ("l", "replication", "accuracy"),
        ({"l": r.l, "replication": rep, "accuracy": acc}
         for r in results for rep, acc in enumerate(r.accuracies))))
    summary_path = out_dir / "holdout.json"
    summary_path.write_text(json.dumps(
        [{"l": r.l, "median": r.median, "iqr": r.iqr,
          "level_sets": [list(s) for s in r.level_sets]} for r in results],
        indent=2) + "\n")
    manifest.record("holdout", [csv_path, summary_path],
                    l_values=list(cfg.holdout_l_values),
                    replications=cfg.holdout_replications)
    return csv_path


def cmd_report(cfg: RunConfig, data_dir: Path, bundle_paths: list[Path],
               out_dir: Path) -> Path:
    manifest = RunManifest(out_dir, config_hash(cfg))
    bundles = {}
    for path in bundle_paths:
        bundle = load_bundle(path)
        if bundle.variant in bundles:
            raise InputError(f"report got two {bundle.variant} bundles; "
                             "pass one bundle per variant")
        bundles[bundle.variant] = bundle
    test_set = load_dataset(cfg, data_dir, "test",
                            zip(bundle_paths, bundles.values()))
    rows = [{"variant": variant, **row}
            for variant, bundle in bundles.items()
            for row in severity_sweep(feature_rows(bundle, test_set),
                                      bundle.classifier)]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "severity.csv"
    table = csv_table(("variant", "bus", "level", "f1"), rows)
    csv_path.write_text(table)
    manifest.record("report", [csv_path], variants=sorted(bundles))
    print(table)
    return csv_path


def finite_float(text: str) -> float:
    """A number argument that may not be nan or infinite: no score falls
    below a nan gate, and every score falls below an infinite one."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridsentry",
        description="Covert-attack/fault simulation and detection testbed")
    parser.add_argument("--config", required=True,
                        help="YAML run configuration")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-data", help="simulate the labeled dataset")
    gen.add_argument("--out", help="dataset directory (default from config)")

    tr = sub.add_parser("train", help="train one detector variant")
    tr.add_argument("--data", required=True, help="dataset directory")
    tr.add_argument("--variant", required=True)
    tr.add_argument("--out", help="model directory (default <data>/models)")

    ev = sub.add_parser("evaluate", help="score a bundle on the test split")
    ev.add_argument("--data", required=True)
    ev.add_argument("--bundle", required=True)
    ev.add_argument("--out", help="report directory (default <data>/reports)")
    ev.add_argument("--gate", type=finite_float,
                    help="exit nonzero if macro-F1 falls below this")

    ho = sub.add_parser("holdout", help="level-holdout generalization sweep")
    ho.add_argument("--data", required=True)
    ho.add_argument("--bundle", required=True)
    ho.add_argument("--out", help="output directory (default <data>/reports)")

    rp = sub.add_parser("report", help="severity sweep across bundles")
    rp.add_argument("--data", required=True)
    rp.add_argument("--bundles", required=True,
                    help="comma-separated bundle files")
    rp.add_argument("--out", help="output directory (default <data>/reports)")
    return parser


def main(argv=None) -> int:
    """Run one subcommand. An InputError, or a path missing or of the wrong
    kind, prints one `gridsentry: error: <message>` line to stderr and exits
    2, as argparse's usage errors do; any other error keeps its traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (InputError, FileNotFoundError, IsADirectoryError,
            NotADirectoryError) as exc:
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def _run(args) -> int:
    cfg = load_config(args.config)

    if args.command == "gen-data":
        cmd_gen_data(cfg, Path(args.out or cfg.output_dir))
        return 0
    data_dir = Path(args.data)
    out = (Path(args.out) if args.out else
           data_dir / ("models" if args.command == "train" else "reports"))
    if args.command == "train":
        cmd_train(cfg, data_dir, args.variant, out)
        return 0
    if args.command == "evaluate":
        score = cmd_evaluate(cfg, data_dir, Path(args.bundle), out)
        return int(args.gate is not None and score < args.gate)
    if args.command == "holdout":
        cmd_holdout(cfg, data_dir, Path(args.bundle), out)
        return 0
    if args.command == "report":
        paths = args.bundles.split(",")
        if "" in paths:
            raise InputError(f"--bundles {args.bundles!r} has an empty entry")
        cmd_report(cfg, data_dir, [Path(p) for p in paths], out)
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
