import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import gridsentry.cli as cli
from gridsentry.config import (ConfigError, RunManifest, config_hash,
                               load_config, resolve_output_dir)
from gridsentry.detector import pipeline
from gridsentry.detector.pipeline import STAGE_DEFAULTS
from gridsentry.evaluation import HoldoutResult
from gridsentry.neural import TrainConfig
from gridsentry.scenario import LABELS

SRC = Path(__file__).resolve().parents[1] / "src"


def write_config(path, **overrides):
    cfg = {
        "seed": 77,
        "output_dir": str(path.parent / "data"),
        "horizon": 60,
        "noise_sigma": 0.01,
        "window": [24, 50],
        "levels": [5],
        "normal_series": 3,
        "series_per_condition_per_level": 2,
        "variants": ["SE_DNN"],
        "train_stages": {
            "classifier": {"learning_rate": 2e-3, "epochs": 25,
                           "batch_size": 128},
        },
        "holdout_replications": 2,
        "holdout_l_values": [4],
    }
    cfg.update(overrides)
    path.write_text(yaml.safe_dump(cfg))
    return path


# ---------------------------------------------------------------- config

def test_config_requires_seed_and_output(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"output_dir": "x"}))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)
    path.write_text(yaml.safe_dump({"seed": 1}))
    with pytest.raises(ConfigError, match="output_dir"):
        load_config(path)


def test_config_validation_before_compute(tmp_path):
    path = write_config(tmp_path / "c.yaml", case_file="/nonexistent.case")
    with pytest.raises(ConfigError, match="case file"):
        load_config(path)
    path = write_config(tmp_path / "c.yaml", window=[50, 24])
    with pytest.raises(ConfigError, match="window"):
        load_config(path)
    path = write_config(tmp_path / "c.yaml", levels=[9])
    with pytest.raises(ConfigError, match="levels"):
        load_config(path)
    path = write_config(tmp_path / "c.yaml", unknown_key=1)
    with pytest.raises(ConfigError, match="unknown"):
        load_config(path)
    # list fields, and holdout settings that would only fail in `holdout`
    for key, value in (("levels", 3), ("variants", 3),
                       ("holdout_l_values", 3), ("holdout_l_values", [7]),
                       ("holdout_replications", 0)):
        path = write_config(tmp_path / "c.yaml", **{key: value})
        with pytest.raises(ConfigError, match=key):
            load_config(path)
    # every bad train_stages entry is a ConfigError naming stage and key
    for stages, pattern in (
            ({"critic": {"epochs": 5}}, "critic"),
            ({"classifier": {"lr": 1}}, "classifier.*lr"),
            ({"classifier": {"batch_size": 0}}, "classifier.*batch_size"),
            ({"predictor": {"epochs": 0}}, "predictor.*epochs"),
            ({"predictor": {"epochs": 2.5}}, "predictor.*epochs"),
            ({"autoencoder": {"learning_rate": -1}},
             "autoencoder.*learning_rate"),
            ({"classifier": {"seed": 5}}, "classifier.*seed"),
            ({"classifier": 5}, "classifier"),
            ([], "train_stages")):
        path = write_config(tmp_path / "c.yaml", train_stages=stages)
        with pytest.raises(ConfigError, match=pattern):
            load_config(path)


def test_partial_stage_override_keeps_stage_defaults(tmp_path):
    path = write_config(tmp_path / "c.yaml",
                        train_stages={"classifier": {"epochs": 5}})
    cfg = load_config(path)
    assert cfg.stage_config("classifier") == TrainConfig(
        learning_rate=2e-3, epochs=5, batch_size=256)
    assert cfg.stage_config("predictor") == STAGE_DEFAULTS["predictor"]


def test_cli_import_leaves_out_scipy_stats():
    # scipy.stats costs about a second to import and no CLI stage uses it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, gridsentry.cli; "
            "sys.exit('scipy.stats' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_config_hash_stable(tmp_path):
    path = write_config(tmp_path / "c.yaml")
    h1 = config_hash(load_config(path))
    h2 = config_hash(load_config(path))
    assert h1 == h2
    other = write_config(tmp_path / "c2.yaml", seed=78)
    assert config_hash(load_config(other)) != h1


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDSENTRY_OUTPUT_ROOT", str(tmp_path / "root"))
    assert resolve_output_dir("runs/a") == tmp_path / "root" / "runs" / "a"
    assert resolve_output_dir("/abs/p") == Path("/abs/p")


# ---------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    config_path = write_config(base / "run.yaml")
    data_dir = base / "data"
    assert cli.main(["--config", str(config_path), "gen-data"]) == 0
    return base, config_path, data_dir


def test_gen_data_manifest_and_conditions(workspace):
    _, _, data_dir = workspace
    manifest = RunManifest.read(data_dir)
    listed = set(manifest["files"])
    on_disk = {p.name for p in data_dir.iterdir() if p.name != "manifest.json"}
    assert on_disk == listed
    assert set(manifest["stages"]["gen-data"]["conditions"]) == set(LABELS)
    assert manifest["stages"]["gen-data"]["series"] == 3 + 2 * 4 * 2


def test_gen_data_deterministic(workspace, tmp_path):
    base, config_path, data_dir = workspace
    rerun = tmp_path / "data2"
    assert cli.main(["--config", str(config_path), "gen-data",
                     "--out", str(rerun)]) == 0
    first = RunManifest.read(data_dir)["files"]
    second = RunManifest.read(rerun)["files"]
    assert first == second


def test_gen_data_workers_match_serial(tmp_path):
    files = {}
    for workers in (1, 2):
        path = write_config(tmp_path / f"w{workers}.yaml", horizon=24,
                            window=[6, 18], normal_series=1,
                            series_per_condition_per_level=1, workers=workers)
        out = tmp_path / f"data{workers}"
        assert cli.main(["--config", str(path), "gen-data",
                         "--out", str(out)]) == 0
        files[workers] = RunManifest.read(out)["files"]
        del files[workers]["config.json"]  # records `workers` itself
    assert len(files[1]) == 2 * (1 + 8)  # a CSV and a .meta.json per series
    assert files[2] == files[1]


def test_split_is_series_level_and_stratified(workspace):
    _, config_path, data_dir = workspace
    cfg = load_config(config_path)
    series = cli.load_dataset(data_dir)
    train, test = cli.split_series(series, cfg.split_fraction, cfg.seed)
    assert len(train) + len(test) == len(series)
    # every non-singleton condition group keeps at least one test series
    test_conditions = {s.metadata["condition"] for s in test}
    assert "normal" in test_conditions
    assert any(c.startswith("attack") for c in test_conditions)


def test_train_evaluate_roundtrip(workspace):
    base, config_path, data_dir = workspace
    assert cli.main(["--config", str(config_path), "train",
                     "--data", str(data_dir), "--variant", "SE_DNN"]) == 0
    bundle_path = data_dir / "models" / "bundle_SE_DNN.npz"
    assert bundle_path.exists()
    assert (data_dir / "models" / "history_SE_DNN.json").exists()

    assert cli.main(["--config", str(config_path), "evaluate",
                     "--data", str(data_dir),
                     "--bundle", str(bundle_path),
                     "--gate", "0.0"]) == 0
    report_dir = data_dir / "reports"
    assert (report_dir / "report_SE_DNN.txt").exists()
    counts = np.loadtxt(report_dir / "confusion_SE_DNN.csv", delimiter=",")
    _, test = cli.split_series(cli.load_dataset(data_dir), 0.8, 77)
    expected_frames = sum(s.horizon - 1 - 10 for s in test)
    assert counts.sum() == expected_frames

    # an impossible gate flips the exit code
    assert cli.main(["--config", str(config_path), "evaluate",
                     "--data", str(data_dir),
                     "--bundle", str(bundle_path),
                     "--gate", "1.01"]) == 1


def test_report_severity_csv(workspace):
    base, config_path, data_dir = workspace
    bundle_path = data_dir / "models" / "bundle_SE_DNN.npz"
    assert cli.main(["--config", str(config_path), "report",
                     "--data", str(data_dir),
                     "--bundles", str(bundle_path)]) == 0
    lines = (data_dir / "reports" / "severity.csv").read_text().splitlines()
    assert lines[0] == "variant,bus,level,f1"
    assert len(lines) == 1 + 4  # one variant, four buses, one level


def test_holdout_command_plumbing(workspace, monkeypatch):
    base, config_path, data_dir = workspace
    bundle_path = data_dir / "models" / "bundle_SE_DNN.npz"

    def stub_holdout(rows, l, replications, seed, classifier_config=None):
        return HoldoutResult(l=l, accuracies=[0.5] * replications,
                             level_sets=[(1, 2, 3, 4)] * replications,
                             median=0.5, iqr=0.0)

    monkeypatch.setattr(cli, "holdout_experiment", stub_holdout)
    assert cli.main(["--config", str(config_path), "holdout",
                     "--data", str(data_dir),
                     "--bundle", str(bundle_path)]) == 0
    lines = (data_dir / "reports" / "holdout.csv").read_text().splitlines()
    assert lines[0] == "l,replication,accuracy"
    assert len(lines) == 1 + 2  # one l value, two replications
    summary = json.loads((data_dir / "reports" / "holdout.json").read_text())
    assert summary[0]["l"] == 4


def test_evaluation_stages_compute_features_once(tmp_path, monkeypatch):
    # holdout over four l values, and report over the test split, run the
    # residual model once per series, not once per l or once per level
    config_path = write_config(
        tmp_path / "run.yaml", horizon=36, window=[7, 31],
        levels=[1, 2, 3, 4, 5], normal_series=4, variants=["RNN_DNN"],
        holdout_l_values=[1, 2, 3, 4], holdout_replications=1,
        train_stages={"predictor": {"epochs": 2},
                      "classifier": {"epochs": 2, "batch_size": 128}})
    data_dir = tmp_path / "data"
    assert cli.main(["--config", str(config_path), "gen-data"]) == 0
    assert cli.main(["--config", str(config_path), "train",
                     "--data", str(data_dir), "--variant", "RNN_DNN"]) == 0
    bundle_path = str(data_dir / "models" / "bundle_RNN_DNN.npz")
    series = cli.load_dataset(data_dir)
    _, test = cli.split_series(series, 0.8, 77)

    calls = []
    residuals = pipeline.predict_and_residual

    def counting(bundle, one_series, case):
        calls.append(one_series.metadata["seed"])
        return residuals(bundle, one_series, case)

    monkeypatch.setattr(pipeline, "predict_and_residual", counting)
    assert cli.main(["--config", str(config_path), "holdout",
                     "--data", str(data_dir), "--bundle", bundle_path]) == 0
    assert len(calls) == len(series)
    calls.clear()
    assert cli.main(["--config", str(config_path), "report",
                     "--data", str(data_dir), "--bundles", bundle_path]) == 0
    assert len(calls) == len(test)


def test_evaluate_refuses_wrong_sensor_map(workspace, tmp_path):
    base, config_path, data_dir = workspace
    bundle_path = data_dir / "models" / "bundle_SE_DNN.npz"
    with np.load(bundle_path) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["meta/sensor_hash"] = np.array("wrong")
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    with pytest.raises(Exception, match="sensor"):
        cli.main(["--config", str(config_path), "evaluate",
                  "--data", str(data_dir), "--bundle", str(broken)])
