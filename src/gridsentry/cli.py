"""Command-line surface: gen-data, train, evaluate, holdout, report."""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from .config import (ConfigError, RunConfig, RunManifest, config_hash,
                     load_config, resolve_output_dir)
from .detector import load_bundle, save_bundle, train_bundle, trained
from .detector.pipeline import evaluate_predictions, feature_rows
from .dispatch import HOUSEHOLDS_PER_BUS, plan_generation, synthesize_loads
from .evaluation import (accuracy, confusion_counts, csv_table,
                         format_report, holdout_experiment, macro_f1,
                         report_rows, severity_sweep)
from .grid import load_case
from .scenario import (GENERATOR_BUSES, KINDS, LEVEL_FRACTIONS,
                       ScenarioSeries, condition_name, generate_scenario,
                       make_condition)


def _series_jobs(cfg: RunConfig):
    """Deterministic list of (filename, kind, target, level, seed) jobs."""
    jobs = []
    for idx in range(cfg.normal_series):
        jobs.append((f"normal_s{idx:02d}.csv", "normal", 0, 0,
                     cfg.seed * 1000003 + idx))
    for kind_code, kind in enumerate(KINDS, start=1):
        for target in GENERATOR_BUSES:
            for level in cfg.levels:
                for idx in range(cfg.series_per_condition_per_level):
                    seed = (cfg.seed * 1000003 + kind_code * 100000
                            + target * 10000 + level * 100 + idx)
                    name = condition_name(kind, target)
                    jobs.append((f"{name}_l{level}_s{idx:02d}.csv",
                                 kind, target, level, seed))
    return jobs


def _generate_one(args):
    cfg, case, filename, kind, target, level, seed = args
    rng = np.random.default_rng(seed)
    demand = synthesize_loads(HOUSEHOLDS_PER_BUS, cfg.horizon, rng)
    plan = plan_generation(demand)
    condition = (None if kind == "normal" else
                 make_condition(case, kind, target, level, *cfg.window))
    series = generate_scenario(case, plan, demand, condition,
                               noise_sigma=cfg.noise_sigma, seed=seed)
    return filename, series


def cmd_gen_data(cfg: RunConfig, out_dir: Path) -> Path:
    manifest = RunManifest(out_dir, config_hash(cfg))
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(
        json.dumps(cfg.canonical(), indent=2, sort_keys=True) + "\n")
    paths = [config_path]

    case = load_case(cfg.case_file)
    jobs = [(cfg, case, *job) for job in _series_jobs(cfg)]
    count, conditions_seen, failures = 0, set(), []
    with contextlib.ExitStack() as stack:
        generated = map(_generate_one, jobs)
        if cfg.workers > 1:
            # imported only here: concurrent.futures loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=cfg.workers))
            generated = pool.map(_generate_one, jobs)
        # each series is saved before the next is generated, so a serial
        # run holds one series at a time
        for filename, series in generated:
            count += 1
            if series.metadata.get("gap_hours"):
                failures.append(filename)
            series.save(out_dir / filename)
            paths += [out_dir / filename,
                      (out_dir / filename).with_suffix(".meta.json")]
            conditions_seen.add(series.metadata["condition"])
            conditions_seen.update(series.labels)
            del series  # before the next one is generated
    manifest.record("gen-data", paths,
                    status="ok" if not failures else "partial",
                    series=count, conditions=sorted(conditions_seen),
                    solver_gaps=failures)
    if len(failures) == count:
        raise RuntimeError("every series hit solver gaps; generation failed")
    return out_dir


def load_dataset(data_dir: Path) -> list[ScenarioSeries]:
    paths = sorted(p for p in Path(data_dir).glob("*.csv")
                   if not p.name.startswith(("report", "severity", "holdout",
                                             "confusion")))
    if not paths:
        raise FileNotFoundError(f"no series CSVs in {data_dir}")
    return [ScenarioSeries.load(p) for p in paths]


SPLIT_FRACTION = 0.8  # share of each (condition, level) group trained on


def split_series(series_list, fraction: float, seed: int):
    """Deterministic series-level split, stratified by (condition, level).

    Each group keeps at least one series on either side, so a group of
    fewer than 2 series is refused with ConfigError.
    """
    groups: dict = {}
    for series in series_list:
        key = (series.metadata["condition"],
               series.metadata.get("level", 0))
        groups.setdefault(key, []).append(series)
    small = {key: len(members) for key, members in sorted(groups.items())
             if len(members) < 2}
    if small:
        raise ConfigError(f"the split needs at least 2 series per "
                          f"(condition, level) group; got {small}")
    train, test = [], []
    for group_id, key in enumerate(sorted(groups)):
        members = groups[key]
        order = np.random.default_rng([seed, 7, group_id])
        idx = order.permutation(len(members))
        n_train = min(max(int(round(fraction * len(members))), 1),
                      len(members) - 1)
        for j, k in enumerate(idx):
            (train if j < n_train else test).append(members[k])
    return train, test


def cmd_train(cfg: RunConfig, data_dir: Path, variant: str,
              out_dir: Path) -> Path:
    if variant not in cfg.variants:
        raise ConfigError(f"variant {variant!r} is not in the config's "
                          f"variants {list(cfg.variants)}")
    manifest = RunManifest(out_dir, config_hash(cfg))
    case = load_case(cfg.case_file)
    series_list = load_dataset(data_dir)
    train_set, _ = split_series(series_list, SPLIT_FRACTION, cfg.seed)
    bundle = train_bundle(variant, train_set, case, seed=cfg.seed,
                          stage_configs=cfg.train_stages,
                          noise_sigma=cfg.noise_sigma)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle_path = out_dir / f"bundle_{variant}.npz"
    save_bundle(bundle, bundle_path)
    history_path = out_dir / f"history_{variant}.json"
    history_path.write_text(json.dumps(bundle.history, indent=2) + "\n")
    manifest.record(f"train-{variant}", [bundle_path, history_path],
                    training_series=len(train_set))
    return bundle_path


def cmd_evaluate(cfg: RunConfig, data_dir: Path, bundle_path: Path,
                 out_dir: Path, gate: float | None = None) -> int:
    manifest = RunManifest(out_dir, config_hash(cfg))
    case = load_case(cfg.case_file)
    bundle = load_bundle(bundle_path, case)
    series_list = load_dataset(data_dir)
    _, test_set = split_series(series_list, SPLIT_FRACTION, cfg.seed)
    preds, truth = evaluate_predictions(bundle, test_set, case)
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
    if gate is not None and score < gate:
        return 1
    return 0


def cmd_holdout(cfg: RunConfig, data_dir: Path, bundle_path: Path,
                out_dir: Path) -> Path:
    # each replication trains on l levels and tests on the others, so the
    # dataset must hold every level; refuse before loading anything
    if set(cfg.levels) != set(LEVEL_FRACTIONS):
        raise ConfigError(f"holdout needs levels {sorted(LEVEL_FRACTIONS)}, "
                          f"the config has levels {list(cfg.levels)}")
    manifest = RunManifest(out_dir, config_hash(cfg))
    case = load_case(cfg.case_file)
    bundle = load_bundle(bundle_path, case)
    rows = feature_rows(bundle, load_dataset(data_dir), case)
    results = [holdout_experiment(
        rows, l, cfg.holdout_replications, cfg.seed,
        classifier_config=cfg.train_stages["classifier"])
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
    case = load_case(cfg.case_file)
    bundles = {}
    for path in bundle_paths:
        bundle = load_bundle(path, case)
        if bundle.variant in bundles:
            raise ValueError(f"report got two {bundle.variant} bundles; "
                             "pass one bundle per variant")
        bundles[bundle.variant] = bundle
    series_list = load_dataset(data_dir)
    _, test_set = split_series(series_list, SPLIT_FRACTION, cfg.seed)
    rows = [{"variant": variant, **row}
            for variant, bundle in bundles.items()
            for row in severity_sweep(feature_rows(bundle, test_set, case),
                                      trained(bundle, "classifier"))]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "severity.csv"
    table = csv_table(("variant", "bus", "level", "f1"), rows)
    csv_path.write_text(table)
    manifest.record("report", [csv_path], variants=sorted(bundles))
    print(table)
    return csv_path


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
    ev.add_argument("--gate", type=float,
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
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config)

    if args.command == "gen-data":
        cmd_gen_data(cfg, resolve_output_dir(args.out or cfg.output_dir))
        return 0
    data_dir = resolve_output_dir(args.data)
    out = (resolve_output_dir(args.out) if args.out else
           data_dir / ("models" if args.command == "train" else "reports"))
    if args.command == "train":
        cmd_train(cfg, data_dir, args.variant, out)
        return 0
    if args.command == "evaluate":
        return cmd_evaluate(cfg, data_dir, Path(args.bundle), out,
                            gate=args.gate)
    if args.command == "holdout":
        cmd_holdout(cfg, data_dir, Path(args.bundle), out)
        return 0
    if args.command == "report":
        cmd_report(cfg, data_dir, [Path(p) for p in args.bundles.split(",")],
                   out)
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
