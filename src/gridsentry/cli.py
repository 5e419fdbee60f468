"""Command-line surface: gen-data, train, evaluate, holdout, report."""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .config import (RunConfig, RunManifest, config_hash, load_config,
                     resolve_output_dir)
from .detector import load_bundle, save_bundle, train_bundle, trained
from .detector.pipeline import evaluate_predictions, feature_rows
from .dispatch import plan_generation, synthesize_loads
from .evaluation import (ConfusionMatrix, aggregate_report, format_report,
                         holdout_csv, holdout_experiment, macro_f1,
                         report_rows, severity_sweep, sweep_csv)
from .grid import load_case
from .scenario import (FaultSpec, GENERATOR_BUSES, ScenarioSeries,
                       generate_scenario, make_attack_spec)


def _series_jobs(cfg: RunConfig):
    """Deterministic list of (filename, kind, target, level, seed) jobs."""
    jobs = []
    for idx in range(cfg.normal_series):
        jobs.append((f"normal_s{idx:02d}.csv", "normal", 0, 0,
                     cfg.seed * 1000003 + idx))
    for kind_code, kind in ((1, "attack"), (2, "fault")):
        for target in GENERATOR_BUSES:
            for level in cfg.levels:
                for idx in range(cfg.series_per_condition_per_level):
                    seed = (cfg.seed * 1000003 + kind_code * 100000
                            + target * 10000 + level * 100 + idx)
                    jobs.append((f"{kind}_{target}_l{level}_s{idx:02d}.csv",
                                 kind, target, level, seed))
    return jobs


def _generate_one(args):
    cfg_dict, filename, kind, target, level, seed = args
    cfg = RunConfig(**cfg_dict)
    case = load_case(cfg.case_file)
    rng = np.random.default_rng(seed)
    loads = synthesize_loads(cfg.num_households, cfg.horizon, rng)
    plan = plan_generation(loads)
    start, end = cfg.window
    if kind == "normal":
        condition = None
    elif kind == "attack":
        condition = make_attack_spec(case, target, level, start, end)
    else:
        condition = FaultSpec(target, level, start, end)
    series = generate_scenario(case, plan, loads, condition,
                               noise_sigma=cfg.noise_sigma, seed=seed)
    return filename, series


def cmd_gen_data(cfg: RunConfig, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(out_dir, config_hash(cfg))
    (out_dir / "config.json").write_text(
        json.dumps(cfg.canonical(), indent=2, sort_keys=True) + "\n")
    manifest.add_file(out_dir / "config.json")

    jobs = [(cfg.canonical(), *job) for job in _series_jobs(cfg)]
    failures = []
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            results = list(pool.map(_generate_one, jobs))
    else:
        results = [_generate_one(job) for job in jobs]
    conditions_seen = set()
    for filename, series in results:
        if series.metadata.get("gap_hours"):
            failures.append(filename)
        series.save(out_dir / filename)
        manifest.add_file(out_dir / filename)
        manifest.add_file((out_dir / filename).with_suffix(".meta.json"))
        conditions_seen.add(series.metadata["condition"])
        conditions_seen.update(series.labels)
    manifest.set_stage("gen-data", "ok" if not failures else "partial",
                       series=len(results),
                       conditions=sorted(conditions_seen),
                       solver_gaps=failures)
    manifest.write()
    if len(failures) == len(results):
        raise RuntimeError("every series hit solver gaps; generation failed")
    return out_dir


def load_dataset(data_dir: Path) -> list[ScenarioSeries]:
    paths = sorted(p for p in Path(data_dir).glob("*.csv")
                   if not p.name.startswith(("report", "severity", "holdout",
                                             "confusion")))
    if not paths:
        raise FileNotFoundError(f"no series CSVs in {data_dir}")
    return [ScenarioSeries.load(p) for p in paths]


def split_series(series_list, fraction: float, seed: int):
    """Deterministic series-level split, stratified by (condition, level)."""
    groups: dict = {}
    for series in series_list:
        key = (series.metadata.get("condition", "normal"),
               series.metadata.get("level", 0))
        groups.setdefault(key, []).append(series)
    train, test = [], []
    for group_id, key in enumerate(sorted(groups)):
        members = groups[key]
        order = np.random.default_rng([seed, 7, group_id])
        idx = order.permutation(len(members))
        n_train = int(round(fraction * len(members)))
        if len(members) >= 2:
            n_train = min(max(n_train, 1), len(members) - 1)
        for j, k in enumerate(idx):
            (train if j < n_train else test).append(members[k])
    return train, test


def cmd_train(cfg: RunConfig, data_dir: Path, variant: str,
              out_dir: Path) -> Path:
    case = load_case(cfg.case_file)
    series_list = load_dataset(data_dir)
    train_set, _ = split_series(series_list, cfg.split_fraction, cfg.seed)
    stage_configs = {stage: cfg.stage_config(stage)
                     for stage in cfg.train_stages}
    bundle = train_bundle(variant, train_set, case, seed=cfg.seed,
                          stage_configs=stage_configs,
                          noise_sigma=cfg.noise_sigma)
    out_dir.mkdir(parents=True, exist_ok=True)
    bundle_path = out_dir / f"bundle_{variant}.npz"
    save_bundle(bundle, bundle_path)
    history_path = out_dir / f"history_{variant}.json"
    history_path.write_text(json.dumps(bundle.history, indent=2) + "\n")

    manifest = RunManifest(out_dir, config_hash(cfg))
    manifest.add_file(bundle_path)
    manifest.add_file(history_path)
    manifest.set_stage(f"train-{variant}", "ok",
                       training_series=len(train_set))
    manifest.write()
    return bundle_path


def cmd_evaluate(cfg: RunConfig, data_dir: Path, bundle_path: Path,
                 out_dir: Path, gate: float | None = None) -> int:
    case = load_case(cfg.case_file)
    bundle = load_bundle(bundle_path, case)
    series_list = load_dataset(data_dir)
    _, test_set = split_series(series_list, cfg.split_fraction, cfg.seed)
    preds, truth = evaluate_predictions(bundle, test_set, case)
    matrix = ConfusionMatrix.from_pairs(preds, truth)
    report = aggregate_report(matrix)

    out_dir.mkdir(parents=True, exist_ok=True)
    variant = bundle.variant
    text_path = out_dir / f"report_{variant}.txt"
    text_path.write_text(format_report(report))
    rows_path = out_dir / f"report_{variant}.csv"
    with open(rows_path, "w") as fh:
        fh.write("section,name,precision,recall,f1\n")
        for row in report_rows(report):
            fh.write(f"{row['section']},{row['name']},"
                     f"{row['precision']:.6f},{row['recall']:.6f},"
                     f"{row['f1']:.6f}\n")
    conf_path = out_dir / f"confusion_{variant}.csv"
    np.savetxt(conf_path, matrix.counts, fmt="%d", delimiter=",")

    manifest = RunManifest(out_dir, config_hash(cfg))
    for path in (text_path, rows_path, conf_path):
        manifest.add_file(path)
    score = macro_f1(matrix)
    manifest.set_stage(f"evaluate-{variant}", "ok", frames=matrix.total,
                       macro_f1=score, accuracy=matrix.accuracy())
    manifest.write()
    print(format_report(report))
    print(f"macro-F1: {score:.4f}")
    if gate is not None and score < gate:
        return 1
    return 0


def cmd_holdout(cfg: RunConfig, data_dir: Path, bundle_path: Path,
                out_dir: Path) -> Path:
    case = load_case(cfg.case_file)
    bundle = load_bundle(bundle_path, case)
    rows = feature_rows(bundle, load_dataset(data_dir), case)
    results = [holdout_experiment(
        rows, l, cfg.holdout_replications, cfg.seed,
        classifier_config=cfg.stage_config("classifier"))
        for l in cfg.holdout_l_values]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "holdout.csv"
    csv_path.write_text(holdout_csv(results))
    summary_path = out_dir / "holdout.json"
    summary_path.write_text(json.dumps(
        [{"l": r.l, "median": r.median, "iqr": r.iqr,
          "level_sets": [list(s) for s in r.level_sets]} for r in results],
        indent=2) + "\n")
    manifest = RunManifest(out_dir, config_hash(cfg))
    manifest.add_file(csv_path)
    manifest.add_file(summary_path)
    manifest.set_stage("holdout", "ok",
                       l_values=list(cfg.holdout_l_values),
                       replications=cfg.holdout_replications)
    manifest.write()
    return csv_path


def cmd_report(cfg: RunConfig, data_dir: Path, bundle_paths: list[Path],
               out_dir: Path) -> Path:
    case = load_case(cfg.case_file)
    series_list = load_dataset(data_dir)
    _, test_set = split_series(series_list, cfg.split_fraction, cfg.seed)
    bundles = {}
    for path in bundle_paths:
        bundle = load_bundle(path, case)
        bundles[bundle.variant] = bundle
    rows = [{"variant": variant, **row}
            for variant, bundle in bundles.items()
            for row in severity_sweep(feature_rows(bundle, test_set, case),
                                      trained(bundle, "classifier"))]

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "severity.csv"
    csv_path.write_text(sweep_csv(rows))
    manifest = RunManifest(out_dir, config_hash(cfg))
    manifest.add_file(csv_path)
    manifest.set_stage("report", "ok", variants=sorted(bundles))
    manifest.write()
    print(sweep_csv(rows))
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
        out = resolve_output_dir(args.out or cfg.output_dir)
        cmd_gen_data(cfg, out)
        return 0
    data_dir = resolve_output_dir(args.data)
    default_models = data_dir / "models"
    default_reports = data_dir / "reports"
    if args.command == "train":
        cmd_train(cfg, data_dir, args.variant,
                  resolve_output_dir(args.out) if args.out else default_models)
        return 0
    if args.command == "evaluate":
        return cmd_evaluate(
            cfg, data_dir, Path(args.bundle),
            resolve_output_dir(args.out) if args.out else default_reports,
            gate=args.gate)
    if args.command == "holdout":
        cmd_holdout(cfg, data_dir, Path(args.bundle),
                    resolve_output_dir(args.out) if args.out
                    else default_reports)
        return 0
    if args.command == "report":
        cmd_report(cfg, data_dir,
                   [Path(p) for p in args.bundles.split(",")],
                   resolve_output_dir(args.out) if args.out
                   else default_reports)
        return 0
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
