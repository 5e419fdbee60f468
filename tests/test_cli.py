import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import gridsentry.cli as cli
from gridsentry.config import (ConfigError, RunManifest, config_hash,
                               load_config, resolve_output_dir)
from gridsentry.detector import (SensorMapMismatchError, load_bundle,
                                 pipeline, save_bundle)
from gridsentry.detector.models import SUBMODELS
from gridsentry.detector.pipeline import STAGE_DEFAULTS
from gridsentry.evaluation import HoldoutResult
from gridsentry.grid import DEFAULT_CASE, load_case
from gridsentry.neural import TrainConfig, get_state
from gridsentry.scenario import LABELS, ScenarioSeries
from oracles import write_weakened_case

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
    # malformed numbers that gen-data would take, or fail on only after it
    # has written config.json
    for key, value in (("seed", 1.5), ("horizon", 60.5),
                       ("levels", [True]), ("levels", [3.0]),
                       ("levels", [3, 3]), ("levels", []),
                       ("variants", ["RNN_DNN", "RNN_DNN"]),
                       ("holdout_l_values", [2, 1, 2]),
                       ("normal_series", 1.5),
                       ("series_per_condition_per_level", 1.5),
                       ("workers", 2.5), ("window", [2.5, 20]),
                       ("noise_sigma", "abc"), ("noise_sigma", -0.1),
                       ("noise_sigma", float("nan")),
                       ("noise_sigma", float("inf")),
                       ("case_file", 5), ("output_dir", 5)):
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
            ({"classifier": {"epochs": True}}, "classifier.*epochs"),
            ({"classifier": {"batch_size": True}},
             "classifier.*batch_size"),
            ({"classifier": {"learning_rate": True}},
             "classifier.*learning_rate"),
            ({"autoencoder": {"learning_rate": -1}},
             "autoencoder.*learning_rate"),
            ({"classifier": {"learning_rate": float("nan")}},
             "classifier.*learning_rate"),
            ({"predictor": {"learning_rate": float("inf")}},
             "predictor.*learning_rate"),
            ({"classifier": {"seed": 5}}, "classifier.*seed"),
            ({"classifier": 5}, "classifier"),
            ([], "train_stages")):
        path = write_config(tmp_path / "c.yaml", train_stages=stages)
        with pytest.raises(ConfigError, match=pattern):
            load_config(path)


def test_fixed_simulation_inputs_are_not_config_keys(tmp_path):
    # the households per bus and the split fraction are constants of the
    # code (dispatch.HOUSEHOLDS_PER_BUS, cli.SPLIT_FRACTION), not settings
    for key, value in (("num_households", [90, 110]),
                       ("split_fraction", 0.8)):
        path = write_config(tmp_path / "c.yaml", **{key: value})
        with pytest.raises(ConfigError,
                           match=rf"unknown config keys: \['{key}'\]"):
            load_config(path)


def test_exponent_without_dot_is_refused_as_a_string(tmp_path):
    # PyYAML reads 1e-3 (no dot) as a string; the refusal says so and
    # names the form that reads as a number
    path = tmp_path / "c.yaml"
    for text, key in (
            ("noise_sigma: 1e-2", "noise_sigma"),
            ("train_stages: {classifier: {learning_rate: 1e-3}}",
             "train_stages.classifier.*learning_rate")):
        path.write_text(f"seed: 1\noutput_dir: x\n{text}\n")
        with pytest.raises(ConfigError, match=key) as info:
            load_config(path)
        assert "read as a string" in str(info.value)
        assert "1.0e-3" in str(info.value)
        path.write_text(f"seed: 1\noutput_dir: x\n"
                        f"{text.replace('e-', '.0e-')}\n")
        load_config(path)


def test_readme_example_config_loads(tmp_path):
    # the documented run.yaml uses only keys load_config accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Minimal example (`run.yaml`):", 1)[1]
    example = example.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.yaml"
    path.write_text(example)
    cfg = load_config(path)
    assert cfg.train_stages["classifier"].epochs == 40


def test_partial_stage_override_keeps_stage_defaults(tmp_path):
    path = write_config(tmp_path / "c.yaml",
                        train_stages={"classifier": {"epochs": 5}})
    cfg = load_config(path)
    assert cfg.train_stages == {
        **STAGE_DEFAULTS,
        "classifier": TrainConfig(learning_rate=2e-3, epochs=5,
                                  batch_size=256)}


def test_config_records_every_stage_row(tmp_path):
    # config.json records the row each stage trains with, so a config that
    # overrides one stage still records the rows of the other two
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"seed": 1, "output_dir": "x"}))
    rows = {stage: {"learning_rate": row.learning_rate, "epochs": row.epochs,
                    "batch_size": row.batch_size}
            for stage, row in STAGE_DEFAULTS.items()}
    assert load_config(path).canonical()["train_stages"] == rows
    path.write_text(yaml.safe_dump({
        "seed": 1, "output_dir": "x",
        "train_stages": {"classifier": {"epochs": 5}}}))
    rows["classifier"]["epochs"] = 5
    assert load_config(path).canonical()["train_stages"] == rows


def test_every_train_config_field_is_a_config_key(tmp_path):
    # a TrainConfig field that only code could set, as a seed would be,
    # has no override that load_config accepts
    for stage, row in STAGE_DEFAULTS.items():
        for name in (f.name for f in fields(TrainConfig)):
            value = getattr(row, name) * 2
            path = write_config(tmp_path / "c.yaml",
                                train_stages={stage: {name: value}})
            assert (load_config(path).train_stages[stage]
                    == replace(row, **{name: value})), (stage, name)


@pytest.fixture(scope="module")
def cli_import_packages():
    """Top-level names of the modules that `import gridsentry.cli` loads in
    a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, gridsentry.cli; "
            "print(*sorted({m.split('.')[0] for m in sys.modules}))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    return set(result.stdout.split())


def test_cli_import_leaves_out_scipy(cli_import_packages):
    # scipy is a test dependency only: importing any of it costs start-up
    # time and loads a second OpenBLAS into every CLI process
    assert "scipy" not in cli_import_packages


def test_cli_import_leaves_out_the_process_pool(cli_import_packages):
    # only gen-data with workers > 1 starts a process pool; every other CLI
    # process, serial gen-data included, loads neither concurrent.futures
    # nor the multiprocessing it imports
    assert not {"concurrent", "multiprocessing"} & cli_import_packages


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


@pytest.fixture(scope="module")
def se_bundle(workspace):
    """The workspace's SE_DNN bundle, trained here for every test that reads
    it, so that each of them also passes when it runs alone."""
    _, config_path, data_dir = workspace
    assert cli.main(["--config", str(config_path), "train",
                     "--data", str(data_dir), "--variant", "SE_DNN"]) == 0
    return data_dir / "models" / "bundle_SE_DNN.npz"


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


def test_gen_data_saves_each_series_before_generating_the_next(
        tmp_path, monkeypatch):
    # serial gen-data holds one series at a time: it saves series k before
    # it generates series k + 1, and series k - 1 is gone by then
    events, series_refs = [], []
    generate, save = cli._generate_one, ScenarioSeries.save

    def generating(job):
        events.append(("generate", job[2], _alive(series_refs)))
        filename, series = generate(job)
        series_refs.append(weakref.ref(series))
        return filename, series

    def saving(series, path):
        events.append(("save", path.name, _alive(series_refs[:-1])))
        return save(series, path)

    monkeypatch.setattr(cli, "_generate_one", generating)
    monkeypatch.setattr(ScenarioSeries, "save", saving)
    path = write_config(tmp_path / "run.yaml", horizon=24, window=[6, 18],
                        normal_series=2, series_per_condition_per_level=1)
    assert cli.main(["--config", str(path), "gen-data",
                     "--out", str(tmp_path / "data")]) == 0
    names = [job[0] for job in cli._series_jobs(load_config(path))]
    assert len(names) == 2 + 8
    assert events == [(step, name, 0) for name in names
                      for step in ("generate", "save")]


def _alive(refs):
    return sum(ref() is not None for ref in refs)


def test_gen_data_reports_power_flow_gaps(tmp_path):
    # the packaged case with every branch reactance tripled: power flow
    # fails at some hours (122 gap hours over the 11 series at seed 7) and
    # the attacker's nominal solve at others (2 template-fallback hours)
    case_file = write_weakened_case(tmp_path / "weak.case")
    path = write_config(tmp_path / "run.yaml", seed=7, horizon=120,
                        window=[24, 104], noise_sigma=0.10, normal_series=3,
                        series_per_condition_per_level=1,
                        case_file=str(case_file))
    out = tmp_path / "data"
    assert cli.main(["--config", str(path), "gen-data",
                     "--out", str(out)]) == 0
    stage = RunManifest.read(out)["stages"]["gen-data"]
    series = {p.name: ScenarioSeries.load(p) for p in out.glob("*.csv")}
    assert stage["series"] == len(series) == 3 + 8
    gaps = {name: s.metadata["gap_hours"] for name, s in series.items()}
    fallbacks = sum(len(s.metadata["template_fallback_hours"])
                    for s in series.values())
    print(f"[gaps] {sum(map(len, gaps.values()))} gap hours in "
          f"{len(stage['solver_gaps'])} series, {fallbacks} "
          "template-fallback hours")
    assert stage["status"] == "partial"
    assert sorted(stage["solver_gaps"]) == sorted(
        name for name, hours in gaps.items() if hours)
    assert sum(map(len, gaps.values())) > 0 and fallbacks > 0
    # a gap hour repeats the hour before it; in a normal series no mask
    # touches the row afterwards
    normal_gaps = 0
    for name, s in series.items():
        if s.metadata["condition"] != "normal":
            continue
        for t in gaps[name]:
            assert t > 0 and np.array_equal(s.values[t], s.values[t - 1])
            normal_gaps += 1
    assert normal_gaps > 0


def test_split_is_series_level_and_stratified(workspace):
    _, config_path, data_dir = workspace
    cfg = load_config(config_path)
    series = cli.load_dataset(data_dir)
    train, test = cli.split_series(series, cli.SPLIT_FRACTION, cfg.seed)
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
    expected_frames = sum(len(s.values) - 1 - 10 for s in test)
    assert counts.sum() == expected_frames

    # an impossible gate flips the exit code
    assert cli.main(["--config", str(config_path), "evaluate",
                     "--data", str(data_dir),
                     "--bundle", str(bundle_path),
                     "--gate", "1.01"]) == 1


def test_float32_bundle_roundtrip(workspace, tmp_path):
    # train_bundle fits every sub-model in float32, the file keeps their
    # arrays float32, and the loaded bundle labels every frame as the
    # trained one does
    _, _, data_dir = workspace
    series = cli.load_dataset(data_dir)
    configs = {name: replace(cfg, epochs=2)
               for name, cfg in STAGE_DEFAULTS.items()}
    case = load_case()
    bundle = pipeline.train_bundle("AEN_RNN_DNN", series, case, seed=3,
                                   stage_configs=configs, noise_sigma=0.01)
    path = tmp_path / "bundle.npz"
    save_bundle(bundle, path)
    loaded = load_bundle(path, case)
    with np.load(path) as data:
        weights = [k for k in data.files if not k.startswith("meta/")]
        assert len(weights) == 23  # 6 + 6 + 5 + 6 arrays
        assert {data[k].dtype for k in weights} == {np.dtype(np.float32)}
    for name in SUBMODELS["AEN_RNN_DNN"]:
        for key, arr in get_state(getattr(loaded, name)).items():
            assert arr.dtype == np.float32, (name, key)
    preds, truth = pipeline.evaluate_predictions(bundle, series, case)
    again, truth_again = pipeline.evaluate_predictions(loaded, series, case)
    assert np.array_equal(preds, again) and np.array_equal(truth, truth_again)
    assert len(preds) == sum(len(s.values) - 1 - 10 for s in series)


def test_train_refuses_variant_outside_config(tmp_path, monkeypatch):
    # write_config's variants list only SE_DNN; training another variant
    # stops before the case or the dataset is read and before models/ exists
    config_path = write_config(tmp_path / "run.yaml")
    read = []
    monkeypatch.setattr(cli, "load_case", read.append)
    monkeypatch.setattr(cli, "load_dataset", read.append)
    data_dir = tmp_path / "data"
    with pytest.raises(ConfigError, match="RNN_DNN"):
        cli.main(["--config", str(config_path), "train",
                  "--data", str(data_dir), "--variant", "RNN_DNN"])
    assert read == [] and not (data_dir / "models").exists()


def test_report_severity_csv(workspace, se_bundle):
    base, config_path, data_dir = workspace
    assert cli.main(["--config", str(config_path), "report",
                     "--data", str(data_dir),
                     "--bundles", str(se_bundle)]) == 0
    lines = (data_dir / "reports" / "severity.csv").read_text().splitlines()
    assert lines[0] == "variant,bus,level,f1"
    assert len(lines) == 1 + 4  # one variant, four buses, one level


def test_report_refuses_repeated_variant(workspace, se_bundle, tmp_path,
                                         monkeypatch):
    # two bundles of one variant would silently keep only the last; the
    # stage refuses them before it reads the dataset
    base, config_path, data_dir = workspace
    bundle_path = str(se_bundle)
    read = []
    monkeypatch.setattr(cli, "load_dataset", read.append)
    out = tmp_path / "reports"
    with pytest.raises(ValueError, match="two SE_DNN bundles"):
        cli.main(["--config", str(config_path), "report",
                  "--data", str(data_dir), "--out", str(out),
                  "--bundles", f"{bundle_path},{bundle_path}"])
    assert read == [] and not out.exists()


def test_split_refuses_groups_of_one_series(se_bundle, tmp_path):
    # with one series per group the test split would hold no attack or
    # fault series: train and evaluate refuse the dataset, naming a group
    config_path = write_config(tmp_path / "run.yaml", horizon=24,
                               window=[6, 18], normal_series=2,
                               series_per_condition_per_level=1)
    small = tmp_path / "data"
    assert cli.main(["--config", str(config_path), "gen-data"]) == 0
    pattern = r"at least 2 series .*\('attack_2', 5\): 1"
    with pytest.raises(ConfigError, match=pattern):
        cli.main(["--config", str(config_path), "train",
                  "--data", str(small), "--variant", "SE_DNN"])
    assert not (small / "models").exists()
    out = tmp_path / "reports"
    with pytest.raises(ConfigError, match=pattern):
        cli.main(["--config", str(config_path), "evaluate",
                  "--data", str(small), "--out", str(out), "--bundle",
                  str(se_bundle)])
    assert not out.exists()


def test_stages_refuse_bundle_without_classifier(workspace, se_bundle,
                                                 tmp_path, monkeypatch):
    # a hand-edited file that lacks its variant's classifier is refused as
    # it loads, before a stage reads the dataset
    _, _, data_dir = workspace
    with np.load(se_bundle) as data:
        arrays = {k: data[k] for k in data.files
                  if not k.startswith("classifier/")}
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    read = []
    monkeypatch.setattr(cli, "load_dataset", read.append)
    config_path = str(holdout_config(tmp_path))
    for stage, flag in (("evaluate", "--bundle"), ("holdout", "--bundle"),
                        ("report", "--bundles")):
        out = tmp_path / stage
        with pytest.raises(KeyError, match=f"classifier in bundle file "
                           f"{re.escape(str(broken))}: missing parameter"):
            cli.main(["--config", config_path, stage, "--data",
                      str(data_dir), "--out", str(out), flag, str(broken)])
        assert not out.exists()
    assert read == []


def stub_holdout(rows, l, replications, seed, classifier_config=None):
    return HoldoutResult(l=l, accuracies=[0.5] * replications,
                         level_sets=[(1, 2, 3, 4)] * replications,
                         median=0.5, iqr=0.0)


def holdout_config(base):
    """The workspace config with every level, which `holdout` requires; the
    stub ignores that the workspace dataset holds only level 5."""
    return write_config(base / "holdout.yaml", levels=[1, 2, 3, 4, 5])


def test_holdout_command_plumbing(workspace, se_bundle, tmp_path,
                                  monkeypatch):
    base, _, data_dir = workspace
    monkeypatch.setattr(cli, "holdout_experiment", stub_holdout)
    out = tmp_path / "reports"
    assert cli.main(["--config", str(holdout_config(tmp_path)), "holdout",
                     "--data", str(data_dir), "--out", str(out),
                     "--bundle", str(se_bundle)]) == 0
    lines = (out / "holdout.csv").read_text().splitlines()
    assert lines[0] == "l,replication,accuracy"
    assert len(lines) == 1 + 2  # one l value, two replications
    summary = json.loads((out / "holdout.json").read_text())
    assert summary[0]["l"] == 4


def test_holdout_refuses_partial_levels_before_loading(tmp_path, monkeypatch):
    # holdout needs every level; with levels [5] it stops before it reads
    # the bundle or the dataset and before it makes its directory
    config_path = write_config(tmp_path / "run.yaml")
    assert load_config(config_path).levels == (5,)
    read = []
    monkeypatch.setattr(cli, "load_bundle", lambda *a: read.append(a))
    monkeypatch.setattr(cli, "load_dataset", read.append)
    out = tmp_path / "reports"
    with pytest.raises(ConfigError, match="levels"):
        cli.main(["--config", str(config_path), "holdout",
                  "--data", str(tmp_path / "data"), "--out", str(out),
                  "--bundle", str(tmp_path / "bundle_SE_DNN.npz")])
    assert read == [] and not out.exists()


def test_default_case_recorded_without_checkout_path(workspace):
    # the workspace config names no case_file: config.json records null, so
    # two checkouts of one commit write the same bytes; a given path is kept
    _, config_path, data_dir = workspace
    text = (data_dir / "config.json").read_text()
    assert json.loads(text)["case_file"] is None
    assert str(SRC.parent) not in text
    explicit = write_config(config_path.parent / "explicit.yaml",
                            case_file=str(DEFAULT_CASE))
    assert load_config(explicit).canonical()["case_file"] == str(DEFAULT_CASE)


def test_stages_sharing_a_directory_keep_each_others_records(
        workspace, se_bundle, tmp_path, monkeypatch):
    # evaluate and holdout both write to one directory; the manifest there
    # lists the files of both, not only those of the stage that ran last
    base, _, data_dir = workspace
    bundle_path = str(se_bundle)
    monkeypatch.setattr(cli, "holdout_experiment", stub_holdout)
    config_path = holdout_config(tmp_path)
    out = tmp_path / "shared"
    for stage in ("evaluate", "holdout"):
        assert cli.main(["--config", str(config_path), stage,
                         "--data", str(data_dir), "--bundle", bundle_path,
                         "--out", str(out)]) == 0
    manifest = RunManifest.read(out)
    on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    assert set(manifest["files"]) == on_disk
    assert set(manifest["stages"]) == {"evaluate-SE_DNN", "holdout"}


def test_gen_data_refuses_directory_of_another_config(tmp_path):
    out = tmp_path / "data"
    small = dict(horizon=24, window=[6, 18], normal_series=1,
                 series_per_condition_per_level=1)
    first = write_config(tmp_path / "l5.yaml", levels=[5], **small)
    assert cli.main(["--config", str(first), "gen-data",
                     "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    other = write_config(tmp_path / "l4.yaml", levels=[4], **small)
    with pytest.raises(ConfigError, match=re.escape(str(out))):
        cli.main(["--config", str(other), "gen-data", "--out", str(out)])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_evaluation_stages_compute_features_once(tmp_path, monkeypatch):
    # holdout over four l values, and report over the test split, run the
    # residual model once per series, not once per l or once per level:
    # every series is handed to predict_and_residual exactly once per stage
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

    def counting(bundle, series_list, case):
        calls.extend(s.metadata["seed"] for s in series_list)
        return residuals(bundle, series_list, case)

    monkeypatch.setattr(pipeline, "predict_and_residual", counting)
    assert cli.main(["--config", str(config_path), "holdout",
                     "--data", str(data_dir), "--bundle", bundle_path]) == 0
    assert sorted(calls) == sorted(s.metadata["seed"] for s in series)
    calls.clear()
    assert cli.main(["--config", str(config_path), "report",
                     "--data", str(data_dir), "--bundles", bundle_path]) == 0
    assert sorted(calls) == sorted(s.metadata["seed"] for s in test)


def test_evaluate_refuses_wrong_sensor_map(workspace, se_bundle, tmp_path):
    base, config_path, data_dir = workspace
    with np.load(se_bundle) as data:
        arrays = {k: data[k] for k in data.files}
    arrays["meta/sensor_hash"] = np.array("wrong")
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    with pytest.raises(SensorMapMismatchError, match="sensor"):
        cli.main(["--config", str(config_path), "evaluate",
                  "--data", str(data_dir), "--bundle", str(broken)])
