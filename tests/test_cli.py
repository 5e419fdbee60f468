import concurrent.futures
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import gridsentry.cli as cli
from gridsentry import InputError
from gridsentry.config import (RunManifest, config_hash, load_config,
                               read_json_object)
from gridsentry.detector import (LAGS, load_bundle, models, pipeline,
                                 save_bundle)
from gridsentry.detector.models import SUBMODELS
from gridsentry.evaluation import HoldoutResult
from gridsentry.neural import TrainConfig, get_state
from gridsentry.scenario import (LABEL_INDEX, LABELS, STATUS_FLAGS,
                                 ScenarioSeries, condition_name)
from oracles import (frame_labels, named_group, read_dataset, series_stack,
                     write_weakened_case)

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module", autouse=True)
def short_classifier_fit():
    """Every classifier fit of this module, the module-scoped workspaces'
    included, runs 25 epochs of 128 frames, not the packaged 80 of 256;
    a test patches models.STAGE_DEFAULTS further where it needs to."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(models.STAGE_DEFAULTS, "classifier", TrainConfig(
            learning_rate=2e-3, epochs=25, batch_size=128))
        yield


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
        "holdout_replications": 2,
        "holdout_l_values": [4],
    }
    cfg.update(overrides)
    path.write_text(yaml.safe_dump(cfg))
    return path


def refused(capsys, argv) -> str:
    """The message of a cli.main run refused as argparse refuses a usage
    error: one `gridsentry: error:` line on stderr, then exit code 2."""
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2, err
    assert err.startswith("gridsentry: error: ") and err.count("\n") == 1, err
    return err


def dataset_copy(data_dir, dest, edit=lambda values: values):
    """A copy at dest of data_dir's config.json, values array and status
    array, the values array passed through edit before np.save writes it."""
    dest.mkdir()
    for name in ("config.json", "status.npy"):
        (dest / name).write_bytes((data_dir / name).read_bytes())
    np.save(dest / "values.npy", edit(read_dataset(data_dir)[0]))
    return dest


# ---------------------------------------------------------------- config

def test_config_requires_seed_and_output(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(yaml.safe_dump({"output_dir": "x"}))
    with pytest.raises(InputError, match="seed"):
        load_config(path)
    path.write_text(yaml.safe_dump({"seed": 1}))
    with pytest.raises(InputError, match="output_dir"):
        load_config(path)


def test_config_validation_before_compute(tmp_path):
    path = write_config(tmp_path / "c.yaml", window=[50, 24])
    with pytest.raises(InputError, match="window"):
        load_config(path)
    path = write_config(tmp_path / "c.yaml", levels=[9])
    with pytest.raises(InputError, match="levels"):
        load_config(path)
    path = write_config(tmp_path / "c.yaml", unknown_key=1)
    with pytest.raises(InputError, match="unknown"):
        load_config(path)
    # list fields, and holdout settings that would only fail in `holdout`
    for key, value in (("levels", 3), ("variants", 3),
                       ("holdout_l_values", 3), ("holdout_l_values", [7]),
                       ("holdout_replications", 0)):
        path = write_config(tmp_path / "c.yaml", **{key: value})
        with pytest.raises(InputError, match=key):
            load_config(path)
    # malformed numbers that gen-data would take, or fail on only after it
    # has written config.json
    for key, value in (("seed", 1.5), ("horizon", 60.5),
                       ("levels", [True]), ("levels", [3.0]),
                       ("levels", [3, 3]), ("levels", []),
                       ("variants", ["RNN_DNN", "RNN_DNN"]),
                       ("holdout_l_values", [2, 1, 2]),
                       ("holdout_l_values", []),
                       ("normal_series", 1.5),
                       ("series_per_condition_per_level", 1.5),
                       ("workers", 2.5), ("window", [2.5, 20]),
                       ("noise_sigma", "abc"), ("noise_sigma", -0.1),
                       ("noise_sigma", float("nan")),
                       ("noise_sigma", float("inf")),
                       ("noise_sigma", 0.0),
                       ("output_dir", 5)):
        path = write_config(tmp_path / "c.yaml", **{key: value})
        with pytest.raises(InputError, match=key):
            load_config(path)
    # noiseless data is refused only for SE_DNN, whose WLS fit weighs each
    # sensor by its noise variance
    path = write_config(tmp_path / "c.yaml", noise_sigma=0.0)
    with pytest.raises(InputError, match="SE_DNN.*noise variance"):
        load_config(path)
    path = write_config(tmp_path / "c.yaml", noise_sigma=0.0,
                        variants=["RNN_DNN"])
    assert load_config(path).noise_sigma == 0.0


@pytest.mark.parametrize("overrides, message", [
    ({"horizon": 23}, r"^horizon must cover at least one day$"),
    ({"variants": ["SE_DNN", "CNN"]}, r"^variants must be drawn from "),
    ({"normal_series": 0}, r"^series counts must be positive$"),
    ({"series_per_condition_per_level": 0},
     r"^series counts must be positive$"),
    ({"workers": 0}, r"^workers must be >= 1$"),
], ids=["horizon", "variant", "normal_series",
        "series_per_condition_per_level", "workers"])
def test_config_refusals(tmp_path, overrides, message):
    with pytest.raises(InputError, match=message):
        load_config(write_config(tmp_path / "c.yaml", **overrides))


@pytest.mark.parametrize("overrides, message", [
    ({"seed": -1}, "seed must be >= 0"),
    ({"series_per_condition_per_level": 101},
     "series_per_condition_per_level must be <= 100, so that no two series "
     "share a seed"),
    ({"normal_series": 120101},
     "normal_series must be <= 120100, so that no two series share a seed"),
], ids=["seed", "series_per_condition_per_level", "normal_series"])
def test_config_refuses_seeds_the_series_jobs_cannot_use(tmp_path, capsys,
                                                         overrides, message):
    # a negative seed failed numpy's SeedSequence after gen-data had
    # written config.json; past these counts two series of _series_jobs
    # share a seed, and so their loads and noise draws. gen-data refuses
    # each in one line, before it writes anything
    config_path = write_config(tmp_path / "c.yaml", **overrides)
    out = tmp_path / "data"
    err = refused(capsys, ["--config", str(config_path), "gen-data",
                           "--out", str(out)])
    assert err == f"gridsentry: error: {message}\n", err
    assert not out.exists()


def test_series_seeds_are_distinct_up_to_the_count_bounds(tmp_path):
    # at the largest counts load_config takes, every series of every level
    # has its own seed; one series more of either count shares one
    cfg = load_config(write_config(
        tmp_path / "c.yaml", levels=[1, 2, 3, 4, 5], normal_series=120100,
        series_per_condition_per_level=100))
    seeds = [job[-1] for job in cli._series_jobs(cfg)]
    assert len(set(seeds)) == len(seeds) == 120100 + 8 * 5 * 100
    for key in ("normal_series", "series_per_condition_per_level"):
        seeds = [job[-1] for job in cli._series_jobs(
            replace(cfg, **{key: getattr(cfg, key) + 1}))]
        assert len(set(seeds)) < len(seeds), key


def test_config_file_refusals(tmp_path):
    missing = tmp_path / "missing.yaml"
    # the OS names a missing file; load_config does not reword it
    with pytest.raises(FileNotFoundError, match=rf"^\[Errno 2\] No such file "
                       rf"or directory: '{re.escape(str(missing))}'$"):
        load_config(missing)
    listed = tmp_path / "list.yaml"
    listed.write_text("- seed\n- output_dir\n")
    with pytest.raises(InputError, match=r"^config must be a mapping$"):
        load_config(listed)


def test_fixed_simulation_inputs_are_not_config_keys(tmp_path, capsys):
    # the households per bus, the split fraction and the grid are constants
    # of the code (dispatch.HOUSEHOLDS_PER_BUS, cli.SPLIT_FRACTION and
    # grid.case.DEFAULT_CASE, the packaged IEEE 14-bus case), not settings
    for key, value in (("num_households", [90, 110]),
                       ("split_fraction", 0.8),
                       ("case_file", "ieee14.case")):
        path = write_config(tmp_path / "c.yaml", **{key: value})
        with pytest.raises(InputError,
                           match=rf"unknown config keys: \['{key}'\]"):
            load_config(path)
    # a config that names case_file, as configs once could, is refused on
    # one line before anything is written
    out = tmp_path / "data"
    err = refused(capsys, ["--config", str(path), "gen-data",
                           "--out", str(out)])
    assert err == "gridsentry: error: unknown config keys: ['case_file']\n"
    assert not out.exists()


def test_training_settings_are_not_config_keys(tmp_path, capsys):
    # each fit trains under its row of detector.models.STAGE_DEFAULTS,
    # which only code sets; a config that names train_stages, as configs
    # once could, is refused on one line before anything is written
    config_path = write_config(tmp_path / "c.yaml",
                               train_stages={"classifier": {"epochs": 5}})
    out = tmp_path / "data"
    err = refused(capsys, ["--config", str(config_path), "gen-data",
                           "--out", str(out)])
    assert err == "gridsentry: error: unknown config keys: ['train_stages']\n"
    assert not out.exists()


def test_exponent_without_dot_is_refused_as_a_string(tmp_path):
    # PyYAML reads 1e-2 (no dot) as a string; the refusal says so and
    # names the form that reads as a number
    path = tmp_path / "c.yaml"
    path.write_text("seed: 1\noutput_dir: x\nnoise_sigma: 1e-2\n")
    with pytest.raises(InputError, match="noise_sigma") as info:
        load_config(path)
    assert "read as a string" in str(info.value)
    assert "1.0e-3" in str(info.value)
    path.write_text("seed: 1\noutput_dir: x\nnoise_sigma: 1.0e-2\n")
    assert load_config(path).noise_sigma == 1.0e-2


def test_readme_example_config_loads(tmp_path):
    # the documented run.yaml uses only keys load_config accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("Minimal example (`run.yaml`):", 1)[1]
    example = example.split("```yaml\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "run.yaml"
    path.write_text(example)
    assert load_config(path).seed == 1234


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


def test_detector_stages_leave_out_numpy_ma(tmp_path):
    # no stage loads numpy.ma (about 1.2 MB resident): train, evaluate and
    # report build their class and level sets without np.unique, and
    # holdout computes its median and quartiles without np.median and
    # np.percentile, which load it too. holdout needs every level
    config = write_config(
        tmp_path / "run.yaml", horizon=24, window=[6, 18],
        levels=[1, 2, 3, 4, 5], normal_series=6, noise_sigma=0.10,
        variants=["RNN_DNN"])
    data = tmp_path / "data"
    bundle = data / "models" / "bundle_RNN_DNN.npz"
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import gridsentry.cli as cli",
        "from gridsentry.detector.models import STAGE_DEFAULTS",
        "from gridsentry.neural import TrainConfig",
        "STAGE_DEFAULTS['predictor'] = TrainConfig(",
        "    learning_rate=5e-3, epochs=1, batch_size=8)",
        "STAGE_DEFAULTS['classifier'] = TrainConfig(",
        "    learning_rate=2e-3, epochs=1, batch_size=128)",
        f"config, data, bundle = {str(config)!r}, {str(data)!r}, "
        f"{str(bundle)!r}",
        "for argv in (['gen-data'],",
        "             ['train', '--data', data, '--variant', 'RNN_DNN'],",
        "             ['evaluate', '--data', data, '--bundle', bundle],",
        "             ['holdout', '--data', data, '--bundle', bundle],",
        "             ['report', '--data', data, '--bundles', bundle]):",
        "    assert cli.main(['--config', config, *argv]) == 0, argv",
        "print('numpy.ma' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


def test_config_hash_stable(tmp_path):
    path = write_config(tmp_path / "c.yaml")
    h1 = config_hash(load_config(path))
    h2 = config_hash(load_config(path))
    assert h1 == h2
    other = write_config(tmp_path / "c2.yaml", seed=78)
    assert config_hash(load_config(other)) != h1


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
    # a dataset is its config.json, a values array and a status array,
    # each listed in the manifest
    _, _, data_dir = workspace
    manifest = RunManifest.read(data_dir)
    listed = set(manifest["files"])
    on_disk = {p.name for p in data_dir.iterdir() if p.name != "manifest.json"}
    assert on_disk == listed == {"config.json", "values.npy", "status.npy"}
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
    assert sorted(files[1]) == ["status.npy", "values.npy"]
    assert files[2] == files[1]


def test_gen_data_caps_the_pool_at_its_series_and_the_cpus(tmp_path,
                                                          monkeypatch):
    # a pool forks all of its max_workers at its first submit, so gen-data
    # asks for no more than its series or the CPUs; the fake pool records
    # the size it is asked for, starts no process and maps in this one
    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        RecordingPool)
    path = write_config(tmp_path / "w.yaml", horizon=24, window=[6, 18],
                        normal_series=1, series_per_condition_per_level=1,
                        workers=64)
    assert len(cli._series_jobs(load_config(path))) == 9
    for cpus, size in ((4, [4]), (1000, [9]), (None, [])):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        asked.clear()
        assert cli.main(["--config", str(path), "gen-data",
                         "--out", str(tmp_path / f"data{cpus}")]) == 0
        assert asked == size, cpus


def test_gen_data_saves_each_series_before_generating_the_next(
        tmp_path, monkeypatch):
    # serial gen-data holds one series at a time, and never the whole
    # values array: series k is in the values file before series k + 1 is
    # generated, and no earlier series is alive by then
    values = tmp_path / "data" / "values.npy"
    seeds, written, alive, series_refs = [], [], [], []
    generate = cli._generate_one

    def generating(task):
        seeds.append(task[-1])
        written.append(values.stat().st_size)
        alive.append(sum(ref() is not None for ref in series_refs))
        series = generate(task)
        series_refs.append(weakref.ref(series))
        return series

    monkeypatch.setattr(cli, "_generate_one", generating)
    path = write_config(tmp_path / "run.yaml", horizon=24, window=[6, 18],
                        normal_series=2, series_per_condition_per_level=1)
    assert cli.main(["--config", str(path), "gen-data",
                     "--out", str(tmp_path / "data")]) == 0
    jobs = cli._series_jobs(load_config(path))
    assert seeds == [job[-1] for job in jobs] and len(jobs) == 2 + 8
    row = 24 * 39 * 8
    header = values.stat().st_size - len(jobs) * row
    # the header may wait in the file's buffer until the first row is out
    assert written[0] in (0, header)
    assert written[1:] == [header + k * row for k in range(1, len(jobs))]
    assert alive == [0] * len(jobs)


def test_gen_data_reports_power_flow_gaps(tmp_path, monkeypatch):
    # the packaged case with every branch reactance tripled: power flow
    # fails at some hours (122 gap hours over the 11 series at seed 7) and
    # the attacker's nominal solve at others (2 template-fallback hours)
    monkeypatch.setattr("gridsentry.grid.case.DEFAULT_CASE",
                        write_weakened_case(tmp_path / "weak.case"))
    path = write_config(tmp_path / "run.yaml", seed=7, horizon=120,
                        window=[24, 104], noise_sigma=0.10, normal_series=3,
                        series_per_condition_per_level=1)
    out = tmp_path / "data"
    assert cli.main(["--config", str(path), "gen-data",
                     "--out", str(out)]) == 0
    stage = RunManifest.read(out)["stages"]["gen-data"]
    values, status = read_dataset(out)
    names = series_names(path)
    assert stage["series"] == len(values) == len(status) == len(names) == 11
    gaps = {name: np.flatnonzero(row & STATUS_FLAGS["gap_hours"]).tolist()
            for name, row in zip(names, status)}
    fallbacks = int(np.count_nonzero(
        status & STATUS_FLAGS["template_fallback_hours"]))
    print(f"[gaps] {sum(map(len, gaps.values()))} gap hours in "
          f"{len(stage['solver_gaps'])} series, {fallbacks} "
          "template-fallback hours")
    assert stage["status"] == "partial"
    assert stage["solver_gaps"] == [name for name in names if gaps[name]]
    assert sum(map(len, gaps.values())) == 122 and fallbacks == 2
    # a gap hour repeats the hour before it; in a normal series no mask
    # touches the row afterwards
    normal_gaps = 0
    for name, series in zip(names, values):
        if named_group(name)[0] != "normal":
            continue
        for t in gaps[name]:
            assert t > 0 and np.array_equal(series[t], series[t - 1])
            normal_gaps += 1
    assert normal_gaps > 0


def test_load_dataset_refuses_mixed_horizons(workspace, tmp_path):
    # the detector stacks a dataset's series, so every series has the
    # config's horizon: a copy of the 60-h dataset whose values array holds
    # 48 h of each series is refused naming the values file
    _, config_path, data_dir = workspace
    mixed = dataset_copy(data_dir, tmp_path / "mixed",
                         lambda values: values[:, :48])
    values = re.escape(str(mixed / "values.npy"))
    with pytest.raises(ValueError, match=f"^{values}: " + re.escape(
            "a float64 array of shape (19, 48, 39); the config gives "
            "float64 of shape (19, 60, 39)") + "$"):
        cli.load_dataset(load_config(config_path), mixed, "all")


@pytest.mark.parametrize("dataset", ["mixed", "float32 series"])
def test_train_refuses_unreadable_dataset(workspace, tmp_path, capsys,
                                          dataset):
    # a copy of the dataset whose values array holds another horizon, and
    # one that holds float32 values, are refused in one line naming the
    # values file, as every other refusal of the run's input is
    _, config_path, data_dir = workspace
    edited = dataset_copy(data_dir, tmp_path / dataset,
                          (lambda values: values[:, :36]) if dataset == "mixed"
                          else (lambda values: values.astype(np.float32)))
    message = {"mixed": r"a float64 array of shape \(19, 36, 39\); the "
                        r"config gives float64 of shape \(19, 60, 39\)$",
               "float32 series": r"a float32 array of shape \(19, 60, 39\); "
                                 r"the config gives float64"}
    err = refused(capsys, ["--config", str(config_path), "train",
                           "--data", str(edited), "--variant", "SE_DNN"])
    assert re.search(re.escape(str(edited / "values.npy")) + ": "
                     + message[dataset], err), err


def older_dataset(config_path, data_dir, dest, layout):
    """A copy at dest of config_path's dataset in data_dir as an older
    gridsentry wrote it, its config.json recording the packaged case as
    `case_file: null`. In the "format 2" layout, the values and status
    arrays of today beside a config.json of dataset_format 2. Before one
    values and one status array, config.json held no dataset_format: in
    the "npy files" layout, each series' values as <name>.npy beside a
    <name>.meta.json sidecar of its status lists; in the earlier "csv
    files" layout, each series as <name>.csv of hour, sensor and label
    columns beside that sidecar, a frame's label the condition its name
    gives inside the window."""
    dest.mkdir()
    config = {**json.loads((data_dir / "config.json").read_text()),
              "case_file": None}
    if layout == "format 2":
        (dest / "config.json").write_text(
            json.dumps({**config, "dataset_format": 2}))
        for name in ("values.npy", "status.npy"):
            (dest / name).write_bytes((data_dir / name).read_bytes())
        return dest
    del config["dataset_format"]
    (dest / "config.json").write_text(json.dumps(config))
    for name, values, status in zip(series_names(config_path),
                                    *read_dataset(data_dir)):
        sidecar = {key: np.flatnonzero(status & flag).tolist()
                   for key, flag in STATUS_FLAGS.items()}
        (dest / f"{name}.meta.json").write_text(json.dumps(sidecar))
        if layout == "npy files":
            np.save(dest / f"{name}.npy", values)
            continue
        labels = frame_labels(named_group(name)[0], config["window"],
                              len(values))
        rows = ["hour," + ",".join(f"s{i:02d}" for i in range(39)) + ",label"]
        rows += [f"{t},{','.join(map(repr, row))},{label}" for t, (row, label)
                 in enumerate(zip(values.tolist(), labels))]
        (dest / f"{name}.csv").write_text("\n".join(rows) + "\n")
    return dest


@pytest.mark.parametrize("layout", ["format 2", "npy files", "csv files"])
def test_stages_refuse_a_dataset_of_an_older_format(
        holdout_workspace, holdout_bundle, tmp_path, monkeypatch, capsys,
        layout):
    # a dataset written while a config could name its case records
    # dataset_format 2 in its config.json, and one written before gen-data
    # wrote one values and one status array records none: each stage
    # refuses it in one line naming that file, before it computes a
    # feature or writes anything
    config_path, data_dir = holdout_workspace
    old = older_dataset(config_path, data_dir, tmp_path / "old", layout)
    recorded = {"dataset_format": 2} if layout == "format 2" else {}
    residuals = []
    monkeypatch.setattr(pipeline, "predict_and_residual",
                        lambda *a: residuals.append(a))
    bundle = str(holdout_bundle)
    for stage, flags in (("train", ["--variant", "SE_DNN"]),
                         ("evaluate", ["--bundle", bundle]),
                         ("holdout", ["--bundle", bundle]),
                         ("report", ["--bundles", bundle])):
        out = tmp_path / stage
        err = refused(capsys, ["--config", str(config_path), stage,
                               "--data", str(old), "--out", str(out),
                               *flags])
        assert err == (f"gridsentry: error: {old / 'config.json'} records "
                       f"{recorded}; the config gives "
                       "{'dataset_format': 3}\n"), err
        assert not out.exists()
    assert residuals == []


def test_split_is_series_level_and_stratified(workspace):
    _, config_path, data_dir = workspace
    cfg = load_config(config_path)
    groups = series_groups(config_path)
    train, test = cli.split_series(groups, cfg.seed)
    assert sorted(train + test) == list(range(len(groups)))
    # every non-singleton condition group keeps at least one test series
    test_conditions = {groups[k][0] for k in test}
    assert "normal" in test_conditions
    assert any(c.startswith("attack") for c in test_conditions)


def test_split_first_parts_are_the_split_of_the_loaded_series(workspace):
    # the stages split on their jobs alone and parse only their part: each
    # part holds the series, in the order, that loading every series and
    # splitting them gives (a job's seed is one series' own)
    _, config_path, data_dir = workspace
    cfg = load_config(config_path)
    series = cli.load_dataset(cfg, data_dir, "all")
    for part, picked in zip(("train", "test"), cli.split_series(
            series_groups(config_path), cfg.seed)):
        loaded = cli.load_dataset(cfg, data_dir, part)
        assert all(np.array_equal(got, whole[picked])
                   for got, whole in zip(loaded, series))


def test_load_dataset_stacks_each_series_file(workspace):
    # a part is one (frames, labels, levels) stack: row k holds its k-th
    # series' row of the values array, the LABEL_INDEX of the frame labels
    # of the condition its name gives inside the config's window and the
    # level its name gives, in split order; train and test partition all
    _, config_path, data_dir = workspace
    cfg = load_config(config_path)
    names = series_names(config_path)
    values = read_dataset(data_dir)[0]
    train, test = cli.split_series(series_groups(config_path), cfg.seed)
    assert sorted(train + test) == list(range(len(names)))
    for part, picked in (("all", range(len(names))), ("train", train),
                         ("test", test)):
        loaded = cli.load_dataset(cfg, data_dir, part)
        files = series_stack(values[list(picked)],
                             [names[k] for k in picked], cfg.window)
        assert [a.dtype.kind for a in loaded] == ["f", "i", "i"]
        assert loaded[0].dtype == np.float64
        assert all(np.array_equal(got, want)
                   for got, want in zip(loaded, files))
        assert set(loaded[1].ravel().tolist()) > {LABEL_INDEX["normal"]}
        assert set(loaded[2].tolist()) == {0, 5}


ABSENT = object()  # a key that the record does not hold


@pytest.mark.parametrize("name, key, value, implied", [
    # a float, a bool, a null or an absent key is not the config's value
    ("config.json", "seed", 77.0, 77),
    ("config.json", "horizon", 24.0, 24),
    ("config.json", "horizon", True, 24),
    ("config.json", "horizon", ABSENT, 24),
    ("config.json", "window", [6, 18.0], [6, 18]),
    ("config.json", "levels", None, [1, 2, 3, 4, 5]),
    # and a dataset_format other than the one this gridsentry writes
    ("config.json", "dataset_format", 1, 3)])
def test_stages_refuse_a_record_that_is_not_its_jobs(
        holdout_workspace, tmp_path, capsys, name, key, value, implied):
    # the dataset record a stage takes in is compared, as JSON text, with
    # the config on GENERATION_KEYS, which fix its _series_jobs: each
    # series' file, condition, level and split group. A stage refuses one
    # edited key of a copy of the dataset's config.json in one line naming
    # the file and both values, before it writes anything
    config_path, data_dir = holdout_workspace
    copy = tmp_path / "copy"
    copy.mkdir()
    for path in data_dir.iterdir():
        if path.is_file():
            (copy / path.name).write_bytes(path.read_bytes())
    record = json.loads((copy / name).read_text())
    record.pop(key, None)
    if value is not ABSENT:
        record[key] = value
    (copy / name).write_text(json.dumps(record))
    recorded = {} if value is ABSENT else {key: value}
    given = {} if implied is ABSENT else {key: implied}
    out = tmp_path / "models"
    err = refused(capsys, ["--config", str(config_path), "train", "--data",
                           str(copy), "--variant", "SE_DNN", "--out",
                           str(out)])
    assert err == (f"gridsentry: error: {copy / name} records {recorded}; "
                   f"the config gives {given}\n"), err
    assert not out.exists()


def series_names(config_path):
    """The names of the series that config_path's gen-data writes, in name
    order: the rows of its dataset's arrays."""
    return sorted(job[0] for job in cli._series_jobs(load_config(config_path)))


def series_groups(config_path):
    """The (condition, level) of each series of series_names(config_path),
    as its job gives them: the keys the split groups the series by."""
    return [("normal" if kind == "normal" else condition_name(kind, target),
             level) for _, kind, target, level, _
            in sorted(cli._series_jobs(load_config(config_path)))]


def test_each_stage_parses_only_the_series_it_uses(workspace, se_bundle,
                                                   holdout_workspace,
                                                   holdout_bundle,
                                                   tmp_path, monkeypatch):
    # every stage reads its dataset's config.json and no other JSON; train
    # parses the train split's rows of the values array, evaluate and
    # report the test split's, and holdout all of them, and each holds
    # only the rows it parses
    _, config_path, data_dir = workspace
    holdout_path, holdout_dir = holdout_workspace
    names = series_names(config_path)
    train, test = cli.split_series(series_groups(config_path), 77)
    read, parsed = [], []
    load = ScenarioSeries.load.__func__

    def reading(path):
        read.append(Path(path).name)
        return read_json_object(path)

    def parsing(cls, path, names, horizon, rows):
        frames = load(cls, path, names, horizon, rows)
        parsed.append((Path(path).name, [names[k] for k in rows],
                       len(frames)))
        return frames

    monkeypatch.setattr(cli, "read_json_object", reading)
    monkeypatch.setattr(ScenarioSeries, "load", classmethod(parsing))
    monkeypatch.setattr(cli, "holdout_experiment", stub_holdout)
    config, bundle = str(config_path), str(se_bundle)
    stages = {
        "train": ([config, "train", "--variant", "SE_DNN"],
                  [names[k] for k in train]),
        "evaluate": ([config, "evaluate", "--bundle", bundle],
                     [names[k] for k in test]),
        "report": ([config, "report", "--bundles", bundle],
                   [names[k] for k in test]),
        "holdout": ([str(holdout_path), "holdout", "--bundle",
                     str(holdout_bundle)], None)}
    for stage, (argv, expected) in stages.items():
        read.clear()
        parsed.clear()
        data = holdout_dir if stage == "holdout" else data_dir
        assert cli.main(["--config", *argv, "--data", str(data),
                         "--out", str(tmp_path / stage)]) == 0
        rows = series_names(argv[0]) if expected is None else expected
        assert read == ["config.json"], stage
        assert parsed == [("values.npy", rows, len(rows))], stage
    assert 0 < len(train) < len(names) and 0 < len(test) < len(names)

    # so a non-finite frame in a row of the other part is not seen: train
    # fits the same bundle with every test row broken, and evaluate scores
    # the bundle to the same report with every train row broken
    def broken(name, rows):
        def edit(values):
            values[rows, 5] = np.nan
            return values
        return dataset_copy(data_dir, tmp_path / name, edit)

    no_test, no_train = broken("no_test", test), broken("no_train", train)
    assert cli.main(["--config", config, "train", "--data", str(no_test),
                     "--variant", "SE_DNN"]) == 0
    assert ((no_test / "models" / "bundle_SE_DNN.npz").read_bytes()
            == se_bundle.read_bytes())
    for data in (data_dir, no_train):
        assert cli.main(["--config", config, "evaluate", "--data", str(data),
                         "--bundle", bundle,
                         "--out", str(tmp_path / f"scored_{data.name}")]) == 0
    for name in ("report_SE_DNN.csv", "confusion_SE_DNN.csv"):
        assert ((tmp_path / "scored_data" / name).read_bytes()
                == (tmp_path / f"scored_{no_train.name}" / name).read_bytes())


@pytest.mark.parametrize("override", [
    {"seed": 78}, {"normal_series": 2}, {"window": [20, 50]},
    {"noise_sigma": 0.02}])
def test_stages_refuse_a_dataset_of_another_config(workspace, se_bundle,
                                                   tmp_path, capsys,
                                                   override):
    # a config whose generation settings differ from the dataset's would
    # split the dataset anew, or a part of it, and score series the bundle
    # was trained on as test series; with another window it would score
    # frames labelled by the dataset's window. train and evaluate refuse
    # the dataset, naming its config.json and both values, before they
    # write anything
    _, config_path, data_dir = workspace
    other = write_config(tmp_path / "other.yaml", **override)
    (key, value), = override.items()
    recorded = load_config(config_path).canonical()[key]
    written = re.escape(str(data_dir / "config.json"))
    for stage, flags in (("train", ["--variant", "SE_DNN"]),
                         ("evaluate", ["--bundle", str(se_bundle)])):
        out = tmp_path / stage
        err = refused(capsys, ["--config", str(other), stage, "--data",
                               str(data_dir), "--out", str(out), *flags])
        assert re.search(re.escape(f"records {{'{key}': "
                                   f"{recorded}}}; the config gives "
                                   f"{{'{key}': {value}}}") + "$",
                         err.rstrip()), err
        assert re.match(f"gridsentry: error: {written} ", err), err
        assert not out.exists()


def test_holdout_refuses_a_dataset_without_every_level(
        workspace, se_bundle, tmp_path, monkeypatch, capsys):
    # holdout needs every level; the workspace config with every level is
    # not the config of its level-5 dataset, so holdout refuses the
    # dataset, naming its config.json and both level lists, before it
    # computes any feature or writes anything
    _, _, data_dir = workspace
    config_path = write_config(tmp_path / "levels.yaml",
                               levels=[1, 2, 3, 4, 5])
    residuals = []
    monkeypatch.setattr(pipeline, "predict_and_residual",
                        lambda *a: residuals.append(a))
    out = tmp_path / "reports"
    err = refused(capsys, ["--config", str(config_path), "holdout",
                           "--data", str(data_dir), "--out", str(out),
                           "--bundle", str(se_bundle)])
    assert (f"{data_dir / 'config.json'} records {{'levels': "
            "[5]}; the config gives {'levels': [1, 2, 3, 4, 5]}") in err, err
    assert residuals == [] and not out.exists()


def test_stages_refuse_a_bundle_trained_on_another_dataset(
        holdout_workspace, se_bundle, tmp_path, monkeypatch, capsys):
    # two datasets of one seed that differ only in series counts hold the
    # same series under the same name, and split it apart: attack_3_l5_s00 is
    # in A's train split and in B's test split. So a bundle trained on A
    # and scored on B would score its own training series. evaluate and
    # report refuse it, naming the bundle and the settings its dataset
    # record differs in, before any series is parsed or anything written
    monkeypatch.setitem(models.STAGE_DEFAULTS, "predictor", TrainConfig(
        learning_rate=5e-3, epochs=2, batch_size=8))
    monkeypatch.setitem(models.STAGE_DEFAULTS, "classifier", TrainConfig(
        learning_rate=2e-3, epochs=2, batch_size=256))
    shared = dict(horizon=36, window=[7, 31], noise_sigma=0.10,
                  variants=["RNN_DNN"])
    configs = {"A": write_config(tmp_path / "a.yaml", normal_series=5,
                                 series_per_condition_per_level=2, **shared),
               "B": write_config(tmp_path / "b.yaml", normal_series=10,
                                 series_per_condition_per_level=3, **shared)}
    data = {name: tmp_path / name for name in configs}
    for name, config in configs.items():
        assert cli.main(["--config", str(config), "gen-data",
                         "--out", str(data[name])]) == 0
    shared = "attack_3_l5_s00"
    rows = [(read_dataset(data[name]),
             series_names(configs[name]).index(shared)) for name in configs]
    for k in (0, 1):  # the series' values row and status row
        assert np.array_equal(rows[0][0][k][rows[0][1]],
                              rows[1][0][k][rows[1][1]])
    for name, part in (("A", 0), ("B", 1)):
        names = series_names(configs[name])
        split = cli.split_series(series_groups(configs[name]), 77)
        assert shared in [names[k] for k in split[part]], name
    assert cli.main(["--config", str(configs["A"]), "train",
                     "--data", str(data["A"]), "--variant", "RNN_DNN"]) == 0
    bundle = data["A"] / "models" / "bundle_RNN_DNN.npz"

    parsed = []
    load = ScenarioSeries.load.__func__

    def parsing(cls, path, *args):
        parsed.append(path)
        return load(cls, path, *args)

    monkeypatch.setattr(ScenarioSeries, "load", classmethod(parsing))
    for stage, flag in (("evaluate", "--bundle"), ("report", "--bundles")):
        out = tmp_path / stage
        err = refused(capsys, ["--config", str(configs["B"]), stage,
                               "--data", str(data["B"]), "--out", str(out),
                               flag, str(bundle)])
        assert err == (
            f"gridsentry: error: bundle file {bundle} records "
            "{'normal_series': 5, 'series_per_condition_per_level': 2}; the "
            "config gives {'normal_series': 10, "
            "'series_per_condition_per_level': 3}\n"), err
        assert parsed == [] and not out.exists()
    # holdout refuses the workspace's bundle on the holdout dataset too
    config_path, holdout_dir = holdout_workspace
    out = tmp_path / "holdout"
    err = refused(capsys, ["--config", str(config_path), "holdout",
                           "--data", str(holdout_dir), "--out", str(out),
                           "--bundle", str(se_bundle)])
    assert err.startswith(f"gridsentry: error: bundle file {se_bundle} "
                          "records {'horizon': 60,"), err
    assert parsed == [] and not out.exists()
    # on the dataset it was trained on, the bundle is scored
    assert cli.main(["--config", str(configs["A"]), "evaluate",
                     "--data", str(data["A"]), "--bundle", str(bundle),
                     "--out", str(tmp_path / "own")]) == 0
    assert parsed


@pytest.mark.parametrize("name", ["config.json", "manifest.json"])
def test_stages_refuse_a_json_file_that_holds_no_object(workspace, tmp_path,
                                                        capsys, name):
    # a dataset's config.json and an output directory's manifest.json are
    # each one JSON object, read by one reader; anything else is refused in
    # one line naming the file, before anything is written
    _, config_path, data_dir = workspace
    edited = dataset_copy(data_dir, tmp_path / "edited")
    out = tmp_path / "models"
    out.mkdir()
    path = (out if name == "manifest.json" else edited) / name
    for text, cause in ((b"", ": Expecting value"),
                        (b"{", ": Expecting property name"),
                        (b"[]", "$"), (b"null", "$"),
                        (b'{"a": 1}\xe9', ": 'utf-8' codec can't decode")):
        path.write_bytes(text)
        err = refused(capsys, ["--config", str(config_path), "train",
                               "--data", str(edited), "--variant", "SE_DNN",
                               "--out", str(out)])
        assert re.match(f"gridsentry: error: {re.escape(str(path))}: not a "
                        f"JSON object{cause}", err.rstrip()), err
        assert [p.name for p in out.iterdir()] == (
            ["manifest.json"] if name == "manifest.json" else [])


def test_stages_read_no_sidecar(workspace, se_bundle, tmp_path, capsys):
    # a series' labels, level and split group come from its job, and no
    # stage reads the per-hour status yet, so the dataset trains and scores
    # to the same bytes after its status array, which holds what the
    # per-series sidecars once did, is deleted
    _, config_path, data_dir = workspace
    config = str(config_path)
    bare = dataset_copy(data_dir, tmp_path / "bare")
    (bare / "status.npy").unlink()
    assert cli.main(["--config", config, "train", "--data", str(bare),
                     "--variant", "SE_DNN"]) == 0
    bundle = bare / "models" / "bundle_SE_DNN.npz"
    assert bundle.read_bytes() == se_bundle.read_bytes()
    reports = {}
    for name, data, scored in (("kept", data_dir, se_bundle),
                               ("bare", bare, bundle)):
        out = tmp_path / f"reports_{name}"
        assert cli.main(["--config", config, "evaluate", "--data", str(data),
                         "--bundle", str(scored), "--out", str(out)]) == 0
        reports[name] = {p.name: p.read_bytes() for p in out.iterdir()
                         if p.name != "manifest.json"}
    capsys.readouterr()
    assert len(reports["bare"]) == 3
    assert reports["bare"] == reports["kept"]


def test_train_evaluate_roundtrip(workspace, capsys):
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
    frames, _, _ = cli.load_dataset(load_config(config_path), data_dir,
                                    "test")
    expected_frames = len(frames) * (frames.shape[1] - 1 - 10)
    assert counts.sum() == expected_frames

    # an impossible gate flips the exit code
    assert cli.main(["--config", str(config_path), "evaluate",
                     "--data", str(data_dir),
                     "--bundle", str(bundle_path),
                     "--gate", "1.01"]) == 1
    # no score falls below a nan gate and every score below an infinite
    # one, so argparse refuses both before the stage runs
    for gate in ("nan", "inf"):
        with pytest.raises(SystemExit) as info:
            cli.main(["--config", str(config_path), "evaluate",
                      "--data", str(data_dir), "--bundle", str(bundle_path),
                      "--gate", gate])
        assert info.value.code == 2
        assert (f"argument --gate: not a finite number: '{gate}'"
                in capsys.readouterr().err)


def test_float32_bundle_roundtrip(workspace, tmp_path, monkeypatch):
    # train_bundle fits every sub-model in float32, the file keeps their
    # arrays float32, and the loaded bundle labels every frame as the
    # trained one does
    _, config_path, data_dir = workspace
    series = cli.load_dataset(load_config(config_path), data_dir, "all")
    for stage, row in list(models.STAGE_DEFAULTS.items()):
        monkeypatch.setitem(models.STAGE_DEFAULTS, stage,
                            replace(row, epochs=2))
    bundle = pipeline.train_bundle("AEN_RNN_DNN", series, seed=3,
                                   dataset={"noise_sigma": 0.01})
    path = tmp_path / "bundle.npz"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    with np.load(path) as data:
        weights = [k for k in data.files if not k.startswith("meta/")]
        assert len(weights) == 23  # 6 + 6 + 5 + 6 arrays
        assert {data[k].dtype for k in weights} == {np.dtype(np.float32)}
    for name in SUBMODELS["AEN_RNN_DNN"]:
        for key, arr in get_state(getattr(loaded, name)).items():
            assert arr.dtype == np.float32, (name, key)
    preds, truth = pipeline.evaluate_predictions(bundle, series)
    again, truth_again = pipeline.evaluate_predictions(loaded, series)
    assert np.array_equal(preds, again) and np.array_equal(truth, truth_again)
    assert len(preds) == len(series[0]) * (series[0].shape[1] - 1 - 10)


def test_se_dnn_computes_no_differences(workspace, monkeypatch):
    # SE_DNN's residuals come from WLS fits of the frames themselves, so
    # neither its training nor its features standardize a difference
    _, config_path, data_dir = workspace
    train, test = (cli.load_dataset(load_config(config_path), data_dir, part)
                   for part in ("train", "test"))

    def refuse(*args):
        raise AssertionError("SE_DNN computed standardized differences")

    monkeypatch.setattr(pipeline, "preprocess", refuse)
    monkeypatch.setattr(models, "preprocess", refuse)
    monkeypatch.setitem(models.STAGE_DEFAULTS, "classifier", replace(
        models.STAGE_DEFAULTS["classifier"], epochs=1))
    bundle = pipeline.train_bundle("SE_DNN", train, seed=3,
                                   dataset={"noise_sigma": 0.01})
    levels, table, _ = pipeline.feature_rows(bundle, test)
    assert len(levels) == len(test[0]) * (60 - 1 - LAGS)
    # its float64 WLS residuals are held in the classifier's dtype
    assert table.dtype == models.COMPUTE_DTYPE


def test_train_bundle_refuses_a_stack_without_normals(workspace):
    # train_bundle fits its normal-condition models on the level-0 series,
    # so a stack that holds none is refused before any fit
    _, config_path, data_dir = workspace
    frames, labels, levels = cli.load_dataset(load_config(config_path),
                                              data_dir, "all")
    faults = levels > 0
    assert 0 < faults.sum() < len(levels)
    with pytest.raises(InputError,
                       match="^training set contains no normal series$"):
        pipeline.train_bundle("SE_DNN", (frames[faults], labels[faults],
                                         levels[faults]),
                              seed=3, dataset={"noise_sigma": 0.01})


def test_train_refuses_variant_outside_config(tmp_path, monkeypatch,
                                              capsys):
    # write_config's variants list only SE_DNN; training another variant
    # stops before the dataset is read and before models/ exists
    config_path = write_config(tmp_path / "run.yaml")
    read = []
    monkeypatch.setattr(cli, "load_dataset", lambda *a: read.append(a))
    data_dir = tmp_path / "data"
    assert "RNN_DNN" in refused(capsys, [
        "--config", str(config_path), "train",
        "--data", str(data_dir), "--variant", "RNN_DNN"])
    assert read == [] and not (data_dir / "models").exists()


def test_train_refuses_out_naming_a_file_before_fitting(workspace, tmp_path,
                                                       monkeypatch, capsys):
    # an --out that names a file is refused as the stage opens the
    # directory's manifest, before the dataset is read or a fit runs
    _, config_path, data_dir = workspace
    afile = tmp_path / "afile"
    afile.write_text("kept")
    fits = []
    monkeypatch.setattr(cli, "train_bundle", lambda *a, **k: fits.append(a))
    assert f"{afile} is a file" in refused(capsys, [
        "--config", str(config_path), "train", "--data", str(data_dir),
        "--variant", "SE_DNN", "--out", str(afile)])
    assert fits == [] and afile.read_text() == "kept"


def test_report_severity_csv(workspace, se_bundle):
    base, config_path, data_dir = workspace
    assert cli.main(["--config", str(config_path), "report",
                     "--data", str(data_dir),
                     "--bundles", str(se_bundle)]) == 0
    lines = (data_dir / "reports" / "severity.csv").read_text().splitlines()
    assert lines[0] == "variant,bus,level,f1"
    assert len(lines) == 1 + 4  # one variant, four buses, one level


def test_report_refuses_repeated_variant(workspace, se_bundle, tmp_path,
                                         monkeypatch, capsys):
    # two bundles of one variant would silently keep only the last; the
    # stage refuses them before it reads the dataset
    base, config_path, data_dir = workspace
    bundle_path = str(se_bundle)
    read = []
    monkeypatch.setattr(cli, "load_dataset", lambda *a: read.append(a))
    out = tmp_path / "reports"
    assert "two SE_DNN bundles" in refused(capsys, [
        "--config", str(config_path), "report",
        "--data", str(data_dir), "--out", str(out),
        "--bundles", f"{bundle_path},{bundle_path}"])
    assert read == [] and not out.exists()


def test_split_refuses_groups_of_one_series(se_bundle, tmp_path, capsys):
    # with one series per group the test split would hold no attack or
    # fault series: train and evaluate refuse the dataset, naming a group.
    # No bundle can be trained on it, so evaluate gets a copy of the
    # workspace's bundle that records the small dataset
    config_path = write_config(tmp_path / "run.yaml", horizon=24,
                               window=[6, 18], normal_series=2,
                               series_per_condition_per_level=1)
    given = load_config(config_path).canonical()
    bundle = tmp_path / "bundle.npz"
    bundle_copy(se_bundle, bundle, **{"meta/dataset": np.array(json.dumps(
        {key: given[key] for key in cli.GENERATION_KEYS}))})
    small = tmp_path / "data"
    assert cli.main(["--config", str(config_path), "gen-data"]) == 0
    pattern = r"at least 2 series .*\('attack_2', 5\): 1"
    assert re.search(pattern, refused(capsys, [
        "--config", str(config_path), "train",
        "--data", str(small), "--variant", "SE_DNN"]))
    assert not (small / "models").exists()
    out = tmp_path / "reports"
    assert re.search(pattern, refused(capsys, [
        "--config", str(config_path), "evaluate",
        "--data", str(small), "--out", str(out), "--bundle", str(bundle)]))
    assert not out.exists()


def test_stages_refuse_bundle_without_classifier(holdout_workspace, se_bundle,
                                                 tmp_path, monkeypatch,
                                                 capsys):
    # a hand-edited file that lacks its variant's classifier is refused as
    # it loads, before a stage reads the dataset
    config_path, data_dir = holdout_workspace
    with np.load(se_bundle) as data:
        arrays = {k: data[k] for k in data.files
                  if not k.startswith("classifier/")}
    broken = tmp_path / "broken.npz"
    np.savez(broken, **arrays)
    read = []
    monkeypatch.setattr(cli, "load_dataset", lambda *a: read.append(a))
    for stage, flag in (("evaluate", "--bundle"), ("holdout", "--bundle"),
                        ("report", "--bundles")):
        out = tmp_path / stage
        assert re.search(f"classifier in bundle file "
                         f"{re.escape(str(broken))}: missing parameter",
                         refused(capsys, ["--config", str(config_path),
                                          stage,
                                          "--data", str(data_dir), "--out",
                                          str(out), flag, str(broken)]))
        assert not out.exists()
    assert read == []


def bundle_copy(se_bundle, path, **changes):
    """A copy of the SE_DNN bundle at `path`, with each array named in
    `changes` replaced by its value, or dropped where the value is None."""
    with np.load(se_bundle) as data:
        arrays = {k: data[k] for k in data.files}
    for key, value in changes.items():
        if value is None:
            del arrays[key]
        else:
            arrays[key] = value
    np.savez(path, **arrays)


def refused_input(case, workspace, se_bundle, tmp_path):
    """The argv of one refused input and the pattern its message matches:
    the bundle file, the config file or the cause."""
    _, config_path, data_dir = workspace
    config, bundle = str(config_path), tmp_path / "bundle.npz"

    def evaluate(**changes):
        bundle_copy(se_bundle, bundle, **changes)
        return ["--config", config, "evaluate", "--data", str(data_dir),
                "--out", str(tmp_path / "reports"), "--bundle", str(bundle)]

    named = re.escape(str(bundle))
    if case == "misshapen array":
        return (evaluate(**{"classifier/layer2.Dense.W": np.zeros(3)}),
                f"classifier in bundle file {named}: shape mismatch")
    if case == "missing array":
        return (evaluate(**{"classifier/layer0.Dense.W": None}),
                f"classifier in bundle file {named}: missing parameter "
                "'layer0.Dense.W'")
    if case.startswith("format version "):
        version = int(case[-1])
        return (evaluate(**{"meta/format_version": np.array(version)}),
                f"unsupported bundle file version {version} in {named}; "
                "expected 7$")
    if case == "unknown variant":
        return (evaluate(**{"meta/variant": np.array("XX")}),
                f"meta in bundle file {named}: unknown variant 'XX'$")
    if case == "empty bundle":
        argv = evaluate()
        bundle.write_bytes(b"")
        return argv, f"meta in bundle file {named}: No data left in file$"
    if case == "npy as bundle":
        npy = tmp_path / "arr.npy"
        np.save(npy, np.zeros(3))
        return (["--config", config, "evaluate", "--data", str(data_dir),
                 "--bundle", str(npy)],
                f"meta in bundle file {re.escape(str(npy))}: an .npy array")
    if case == "directory as bundle":
        return (["--config", config, "evaluate", "--data", str(data_dir),
                 "--bundle", str(data_dir)],
                rf"\[Errno 21\] Is a directory: '{re.escape(str(data_dir))}'$")
    if case == "empty bundles entry":
        bundles = f"{se_bundle},"
        return (["--config", config, "report", "--data", str(data_dir),
                 "--bundles", bundles],
                f"--bundles {re.escape(repr(bundles))} has an empty entry$")
    if case == "config is a directory":
        return (["--config", str(tmp_path), "gen-data"],
                f"Is a directory: '{re.escape(str(tmp_path))}'$")
    afile = tmp_path / "afile"
    afile.write_text("")
    if case == "data is a file":
        # the stage reads the dataset's config.json under --data
        return (["--config", config, "evaluate", "--data", str(afile),
                 "--bundle", str(se_bundle), "--out",
                 str(tmp_path / "reports")],
                f"Not a directory: "
                f"'{re.escape(str(afile / 'config.json'))}'$")
    if case == "gen-data out is a file":
        return (["--config", config, "gen-data", "--out", str(afile)],
                f"output directory {re.escape(str(afile))}: "
                f"{re.escape(str(afile))} is a file$")
    if case == "evaluate out under a file":
        return (["--config", config, "evaluate", "--data", str(data_dir),
                 "--bundle", str(se_bundle), "--out", str(afile / "sub")],
                f"output directory {re.escape(str(afile / 'sub'))}: "
                f"{re.escape(str(afile))} is a file$")
    if case == "csv as bundle":
        # a dataset's values file is an .npy array too
        npy = data_dir / "values.npy"
        return (["--config", config, "evaluate", "--data", str(data_dir),
                 "--bundle", str(npy)],
                f"meta in bundle file {re.escape(str(npy))}: an .npy array, "
                "not an .npz archive$")
    bad_yaml = tmp_path / "bad.yaml"
    if case == "malformed yaml":
        bad_yaml.write_text("seed: 1\noutput_dir: [a, b\nhorizon: 24\n")
        return (["--config", str(bad_yaml), "gen-data"],
                f"{re.escape(str(bad_yaml))}: malformed YAML at line 3: "
                "expected ',' or ']'")
    if case == "control character in yaml":
        # YAML's reader refuses it before the parser runs, at no line
        bad_yaml.write_text("seed: 1\noutput_dir: \x07\n")
        return (["--config", str(bad_yaml), "gen-data"],
                f"{re.escape(str(bad_yaml))}: malformed YAML: unacceptable "
                "character #x0007")
    if case == "latin-1 config":
        bad_yaml.write_bytes(b"seed: 1\noutput_dir: caf\xe9\n")
        return (["--config", str(bad_yaml), "gen-data"],
                f"{re.escape(str(bad_yaml))}: not UTF-8 text: invalid "
                "continuation byte at byte 23$")
    if case in ("truncated series", "trailing bytes"):
        # the values array lacks its last value, or has a byte after it
        edited = dataset_copy(data_dir, tmp_path / "edited")
        values = edited / "values.npy"
        good = values.read_bytes()
        values.write_bytes(good[:-8] if case == "truncated series"
                           else good + b"\0")
        return (["--config", config, "train", "--data", str(edited),
                 "--variant", "SE_DNN"],
                f"{re.escape(str(values))}: "
                + ("the array is not fully written$"
                   if case == "truncated series" else "bytes after the array$"))
    if case == "dataset without config.json":
        # the dataset's config.json is what a stage checks its config on
        edited = dataset_copy(data_dir, tmp_path / "edited")
        (edited / "config.json").unlink()
        return (["--config", config, "train", "--data", str(edited),
                 "--variant", "SE_DNN"],
                f"No such file or directory: "
                f"'{re.escape(str(edited / 'config.json'))}'$")
    if case == "nan in series":
        # each normal series holds a nan frame; train refuses the first
        # one of its split
        normals = [k for k, name in enumerate(series_names(config))
                   if named_group(name)[0] == "normal"]

        def edit(values):
            values[normals, 5, 3] = np.nan
            return values
        edited = dataset_copy(data_dir, tmp_path / "edited", edit)
        return (["--config", config, "train", "--data", str(edited),
                 "--variant", "SE_DNN"],
                f"{re.escape(str(edited / 'values.npy'))}: non-finite "
                r"frames of series normal_s\d+ at hours \[5\]$")
    if case == "repeated variant":
        return (["--config", config, "report", "--data", str(data_dir),
                 "--out", str(tmp_path / "reports"),
                 "--bundles", f"{se_bundle},{se_bundle}"],
                "report got two SE_DNN bundles")
    if case == "24 normal training frames":
        small = write_config(tmp_path / "small.yaml", horizon=24,
                             window=[6, 18], normal_series=2)
        assert cli.main(["--config", str(small), "gen-data"]) == 0
        return (["--config", str(small), "train", "--data",
                 str(tmp_path / "data"), "--variant", "SE_DNN"],
                "need at least 100 training frames, got 24$")
    assert case == "window [0, 10]"
    early = write_config(tmp_path / "early.yaml", horizon=24,
                         window=[0, 10])
    return (["--config", str(early), "train", "--data",
             str(tmp_path / "data"), "--variant", "SE_DNN"],
            r"window must end after hour LAGS \+ 1 = 11")


@pytest.mark.parametrize("case", [
    "misshapen array", "missing array", "format version 3",
    "format version 5", "format version 6",
    "unknown variant", "empty bundle", "npy as bundle",
    "directory as bundle", "empty bundles entry", "gen-data out is a file",
    "evaluate out under a file", "csv as bundle", "malformed yaml",
    "control character in yaml", "latin-1 config", "config is a directory",
    "data is a file",
    "dataset without config.json", "truncated series", "trailing bytes",
    "nan in series",
    "repeated variant", "24 normal training frames",
    "window [0, 10]"])
def test_refused_input_exits_2_on_one_line(case, workspace, se_bundle,
                                           tmp_path, capsys):
    # every check of a run's input raises an InputError, which cli.main
    # prints on one line naming the file or the cause, with exit 2, as it
    # does a path that is missing or of the wrong kind
    argv, pattern = refused_input(case, workspace, se_bundle, tmp_path)
    err = refused(capsys, argv)
    assert re.search(pattern, err), err


def stub_holdout(frames, l, replications, seed):
    return HoldoutResult(l=l, accuracies=[0.5] * replications,
                         level_sets=[(1, 2, 3, 4)] * replications,
                         median=0.5, iqr=0.0)


@pytest.fixture(scope="module")
def holdout_workspace(tmp_path_factory):
    """A config with every level, which `holdout` requires, and the dataset
    it generates: 86 series of 24 h, 5 of them normal training series."""
    base = tmp_path_factory.mktemp("holdout")
    config_path = write_config(base / "holdout.yaml", horizon=24,
                               window=[6, 18], levels=[1, 2, 3, 4, 5],
                               normal_series=6)
    assert cli.main(["--config", str(config_path), "gen-data"]) == 0
    return config_path, base / "data"


@pytest.fixture(scope="module")
def holdout_bundle(holdout_workspace):
    """The SE_DNN bundle trained on the holdout workspace's dataset, the
    one dataset a stage scores it on."""
    config_path, data_dir = holdout_workspace
    assert cli.main(["--config", str(config_path), "train",
                     "--data", str(data_dir), "--variant", "SE_DNN"]) == 0
    return data_dir / "models" / "bundle_SE_DNN.npz"


def test_holdout_command_plumbing(holdout_workspace, holdout_bundle, tmp_path,
                                  monkeypatch):
    config_path, data_dir = holdout_workspace
    monkeypatch.setattr(cli, "holdout_experiment", stub_holdout)
    out = tmp_path / "reports"
    assert cli.main(["--config", str(config_path), "holdout",
                     "--data", str(data_dir), "--out", str(out),
                     "--bundle", str(holdout_bundle)]) == 0
    lines = (out / "holdout.csv").read_text().splitlines()
    assert lines[0] == "l,replication,accuracy"
    assert len(lines) == 1 + 2  # one l value, two replications
    summary = json.loads((out / "holdout.json").read_text())
    assert summary[0]["l"] == 4


def test_missing_config_exits_2_with_one_line(tmp_path):
    # the console entry point: a refusal is one stderr line naming the
    # cause and exit status 2, with no traceback
    missing = tmp_path / "missing.yaml"
    result = subprocess.run(
        [sys.executable, "-m", "gridsentry.cli", "--config", str(missing),
         "gen-data"], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 2
    assert result.stderr == ("gridsentry: error: [Errno 2] No such file or "
                             f"directory: '{missing}'\n")


def test_holdout_refuses_partial_levels_before_loading(tmp_path, monkeypatch,
                                                       capsys):
    # holdout needs every level; with levels [5] it stops before it reads
    # the bundle or the dataset and before it makes its directory
    config_path = write_config(tmp_path / "run.yaml")
    assert load_config(config_path).levels == (5,)
    read = []
    monkeypatch.setattr(cli, "load_bundle", lambda *a: read.append(a))
    monkeypatch.setattr(cli, "load_dataset", lambda *a: read.append(a))
    out = tmp_path / "reports"
    assert "levels" in refused(capsys, [
        "--config", str(config_path), "holdout",
        "--data", str(tmp_path / "data"), "--out", str(out),
        "--bundle", str(tmp_path / "bundle_SE_DNN.npz")])
    assert read == [] and not out.exists()


def test_default_case_recorded_without_checkout_path(workspace):
    # every run is on the packaged case, which config.json does not name:
    # it records the config's settings and the dataset format, and no path
    # into the checkout, so two checkouts of one commit write the same bytes
    _, config_path, data_dir = workspace
    text = (data_dir / "config.json").read_text()
    assert json.loads(text) == {**load_config(config_path).canonical(),
                                "dataset_format": cli.DATASET_FORMAT}
    assert "case_file" not in text and str(SRC.parent) not in text


def test_stages_sharing_a_directory_keep_each_others_records(
        holdout_workspace, holdout_bundle, tmp_path, monkeypatch):
    # evaluate and holdout both write to one directory; the manifest there
    # lists the files of both, not only those of the stage that ran last
    config_path, data_dir = holdout_workspace
    bundle_path = str(holdout_bundle)
    monkeypatch.setattr(cli, "holdout_experiment", stub_holdout)
    out = tmp_path / "shared"
    for stage in ("evaluate", "holdout"):
        assert cli.main(["--config", str(config_path), stage,
                         "--data", str(data_dir), "--bundle", bundle_path,
                         "--out", str(out)]) == 0
    manifest = RunManifest.read(out)
    on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
    assert set(manifest["files"]) == on_disk
    assert set(manifest["stages"]) == {"evaluate-SE_DNN", "holdout"}


def test_gen_data_refuses_directory_of_another_config(tmp_path, capsys):
    out = tmp_path / "data"
    small = dict(horizon=24, window=[6, 18], normal_series=1,
                 series_per_condition_per_level=1)
    first = write_config(tmp_path / "l5.yaml", levels=[5], **small)
    assert cli.main(["--config", str(first), "gen-data",
                     "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    other = write_config(tmp_path / "l4.yaml", levels=[4], **small)
    assert str(out) in refused(capsys, ["--config", str(other), "gen-data",
                                        "--out", str(out)])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_evaluation_stages_compute_features_once(tmp_path, monkeypatch):
    # holdout over four l values, and report over the test split, run the
    # residual model once per series, not once per l or once per level:
    # the stacks handed to predict_and_residual are, end to end, the stage's
    # series' frames, each series exactly once
    config_path = write_config(
        tmp_path / "run.yaml", horizon=36, window=[7, 31],
        levels=[1, 2, 3, 4, 5], normal_series=4, variants=["RNN_DNN"],
        holdout_l_values=[1, 2, 3, 4], holdout_replications=1)
    monkeypatch.setitem(models.STAGE_DEFAULTS, "predictor", TrainConfig(
        learning_rate=5e-3, epochs=2, batch_size=8))
    monkeypatch.setitem(models.STAGE_DEFAULTS, "classifier", TrainConfig(
        learning_rate=2e-3, epochs=2, batch_size=128))
    data_dir = tmp_path / "data"
    assert cli.main(["--config", str(config_path), "gen-data"]) == 0
    assert cli.main(["--config", str(config_path), "train",
                     "--data", str(data_dir), "--variant", "RNN_DNN"]) == 0
    bundle_path = str(data_dir / "models" / "bundle_RNN_DNN.npz")
    cfg = load_config(config_path)
    frames, _, _ = cli.load_dataset(cfg, data_dir, "all")
    test, _, _ = cli.load_dataset(cfg, data_dir, "test")

    calls = []
    residuals = pipeline.predict_and_residual

    def counting(bundle, frames):
        calls.append(frames)
        return residuals(bundle, frames)

    monkeypatch.setattr(pipeline, "predict_and_residual", counting)
    assert cli.main(["--config", str(config_path), "holdout",
                     "--data", str(data_dir), "--bundle", bundle_path]) == 0
    assert np.array_equal(np.concatenate(calls), frames)
    calls.clear()
    assert cli.main(["--config", str(config_path), "report",
                     "--data", str(data_dir), "--bundles", bundle_path]) == 0
    assert np.array_equal(np.concatenate(calls), test)
