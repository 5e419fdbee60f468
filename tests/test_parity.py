"""tools/parity.py: run a config's stages, compare two runs' output trees
file by file, run the acceptance file per seed, and time the acceptance
world's stages."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

import gridsentry.cli as cli

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "parity.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    parity = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(parity)
    return parity


def compare(a, b):
    """The exit status and the output lines of `parity.py compare a b`."""
    result = subprocess.run([sys.executable, str(TOOL), "compare",
                             str(a), str(b)], capture_output=True, text=True)
    assert result.stderr == ""
    return result.returncode, result.stdout.splitlines()


def test_compare_names_a_moved_array_element(tmp_path):
    # two gen-data runs of one config write the same bytes, their manifests
    # differing at most in the time they were created; after one element
    # of one values array moves by 1e-9, compare names that file and the
    # difference, and exits 1
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(dict(
        seed=3, output_dir=str(tmp_path / "a"), horizon=24, window=[6, 18],
        levels=[5], normal_series=1, series_per_condition_per_level=1)))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["--config", str(config), "gen-data",
                         "--out", str(out)]) == 0
    code, lines = compare(a, b)
    manifest = lines[1]
    assert code == 0 and manifest in ("byte-equal: manifest.json",
                                      "equal without created: manifest.json")
    assert lines == ["byte-equal: config.json", manifest,
                     "byte-equal: status.npy", "byte-equal: values.npy",
                     lines[-1]]
    assert lines[-1].startswith("4 files: ")

    values = np.load(b / "values.npy")
    before = values[2, 7, 30]
    values[2, 7, 30] += 1e-9
    np.save(b / "values.npy", values)
    moved = abs(values[2, 7, 30] - before)
    scale = max(abs(before), abs(values[2, 7, 30]))
    code, lines = compare(a, b)
    assert code == 1
    assert lines[3:5] == [
        "differing: values.npy",
        f"    array: max abs diff {moved:.6g}, max rel diff "
        f"{moved / scale:.6g}, 1 of {values.size} elements differ"]
    assert "1 differing" in lines[-1]

    (a / "status.npy").unlink()
    code, lines = compare(a, b)
    assert code == 1 and "missing in A: status.npy" in lines


def test_compare_reports_each_array_of_a_bundle(tmp_path):
    # as for two bundles of different format versions and dataset records:
    # a moved scalar, a changed string, an array one archive lacks, and an
    # equal array, which goes unnamed
    a, b = tmp_path / "a", tmp_path / "b"
    for root, version, record, extra in ((a, 5, '{"seed": 1}', {}),
                                         (b, 6, "{}", {"x": np.zeros(2)})):
        root.mkdir()
        np.savez(root / "bundle.npz", version=np.array(version),
                 dataset=np.array(record), w=np.ones((2, 3)), **extra)
    code, lines = compare(a, b)
    assert code == 1
    assert lines == [
        "differing: bundle.npz",
        "    dataset: '{\"seed\": 1}' vs '{}'",
        "    version: max abs diff 1, max rel diff 0.166667, 1 of 1 elements "
        "differ",
        "    x: missing in A",
        "1 files: 1 differing"]


def test_two_runs_of_a_config_compare_equal(tmp_path):
    # `run` writes a config's stages under OUT/<config stem>, each stage
    # named on stderr; two runs write the same bytes, the manifests but for
    # the time they were created; holdout runs only on a config with every
    # level
    config = tmp_path / "tiny.yaml"
    settings = dict(seed=3, output_dir="unused", horizon=36, window=[7, 31],
                    levels=[5], normal_series=4,
                    series_per_condition_per_level=2, variants=["SE_DNN"])
    config.write_text(yaml.safe_dump(settings))
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        result = subprocess.run(
            [sys.executable, str(TOOL), "run", str(out), str(config)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert result.returncode == 0, result.stderr
        data = out / "tiny"
        bundle = data / "models" / "bundle_SE_DNN.npz"
        assert [line.split(" ", 4)[4] for line in result.stderr.splitlines()
                ] == [f"gen-data --out {data}",
                      f"train --data {data} --variant SE_DNN",
                      f"evaluate --data {data} --bundle {bundle}",
                      f"report --data {data} --bundles {bundle}"]
    code, lines = compare(a, b)
    assert code == 0, lines
    assert lines[-1].startswith("12 files: ")
    for line in lines[:-1]:
        verdict, rel = line.split(": ")
        assert verdict == "byte-equal" or (
            verdict == "equal without created"
            and rel.endswith("manifest.json")), line
    assert "byte-equal: tiny/reports/severity.csv" in lines

    parity = load_tool()
    config.write_text(yaml.safe_dump({**settings, "levels": [1, 2, 3, 4, 5],
                                      "variants": ["RNN_DNN", "SE_DNN"]}))
    assert [argv[0] for argv in parity.stages(config, a)] == [
        "gen-data", "train", "evaluate", "holdout", "train", "evaluate",
        "holdout", "report"]


TINY_ACCEPTANCE = """
import pytest

SEED = 0


def test_prints_its_seed():
    print(f"[criterion 1] PASS - seed {SEED}")


def test_even_seed():
    assert SEED % 2 == 0


@pytest.mark.xfail(reason="never holds")
def test_never():
    assert False
"""


def test_seeds_runs_the_acceptance_file_once_per_seed(tmp_path, capsys,
                                                      monkeypatch):
    # each seed's run sets the module's SEED from outside it, and prints
    # that run's criterion, FAILED and XFAIL lines and summary under the
    # seed; a failing run makes the exit status 1
    parity = load_tool()
    tiny = tmp_path / "test_tiny.py"
    tiny.write_text(TINY_ACCEPTANCE)
    monkeypatch.setattr(parity, "ACCEPTANCE", tiny)
    assert parity.seeds([4, 7]) == 1
    blocks = capsys.readouterr().out.split("\nseed ")
    assert [block.splitlines()[0] for block in blocks] == [
        "seed 4: exit status 0", "7: exit status 1"]
    for seed, block in zip((4, 7), blocks):
        lines = [line.strip() for line in block.splitlines()[1:]]
        assert lines[0] == f"[criterion 1] PASS - seed {seed}"
        assert lines[-2].startswith("XFAIL ") and "never holds" in lines[-2]
        assert lines[-1].startswith(
            "2 passed, 1 xfailed in " if seed == 4 else
            "1 failed, 1 passed, 1 xfailed in ")
    assert lines[1].startswith("FAILED ") and "test_even_seed" in lines[1]
    assert parity.seeds([4]) == 0


def test_compare_names_the_differing_cell_of_a_csv_and_line_of_a_text(
        tmp_path):
    # a report's CSV names its first differing cell, by line and header
    # column, and each numeric column's largest difference; a headerless
    # CSV (a confusion matrix) names columns by number; a text report
    # names its first differing line, and a shorter side ends there; a
    # JSON list (a holdout summary) names the differing entry by index
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        root.mkdir()
    for root, median in ((a, 0.7), (b, 0.71)):
        (root / "holdout.json").write_text(json.dumps(
            [{"l": 2, "median": 0.725, "level_sets": [[1, 2]]},
             {"l": 3, "median": median, "level_sets": [[1, 2, 3]]}]))
    (a / "report.csv").write_text(
        "section,name,precision,recall,f1\n"
        "label,normal,0.900000,0.800000,0.847059\n"
        "label,fault,0.500000,0.600000,0.545455\n")
    (b / "report.csv").write_text(
        "section,name,precision,recall,f1\n"
        "label,normal,0.900000,0.750000,0.818182\n"
        "label,fault,0.510000,0.600000,0.551351\n")
    (a / "confusion.csv").write_text("5,1\n0,7\n")
    (b / "confusion.csv").write_text("5,1\n2,5\n0,0\n")
    (a / "report.txt").write_text("macro-F1 0.70\nframes 12\n")
    (b / "report.txt").write_text("macro-F1 0.68\n")
    code, lines = compare(a, b)
    assert code == 1
    assert lines == [
        "differing: confusion.csv",
        "    2 vs 3 rows",
        "    first difference: line 2, column 1: '0' vs '2'",
        "    max abs diff by column: column 1 2, column 2 2",
        "differing: holdout.json",
        "    [1].median: 0.7 vs 0.71",
        "differing: report.csv",
        "    first difference: line 2, column 4 (recall): '0.800000' vs "
        "'0.750000'",
        "    max abs diff by column: column 3 (precision) 0.01, "
        "column 4 (recall) 0.05, column 5 (f1) 0.028877",
        "differing: report.txt",
        "    line 1: 'macro-F1 0.70' vs 'macro-F1 0.68'",
        "4 files: 4 differing"]
    (b / "report.txt").write_text("macro-F1 0.70\n")
    assert compare(a, b)[1][-2] == "    line 2: 'frames 12' vs end"


def test_time_records_every_stage_of_a_tiny_world(tmp_path, monkeypatch):
    # the world's config is RunConfig defaults with the acceptance file's
    # SEED and NOISE_SIGMA; on a tiny config with short fits, the record
    # holds each stage's median and raw times, all positive, the peak RSS
    # and where the timing was made
    from gridsentry.config import RunConfig
    from gridsentry.detector import models
    from gridsentry.neural import TrainConfig

    parity = load_tool()
    acceptance = tmp_path / "test_tiny.py"
    acceptance.write_text("SEED = 17\nNOISE_SIGMA = 0.05  # sigma\n")
    monkeypatch.setattr(parity, "ACCEPTANCE", acceptance)
    assert parity.world_config() == RunConfig(output_dir="", seed=17,
                                              noise_sigma=0.05)

    for stage in ("autoencoder", "predictor", "classifier"):
        monkeypatch.setitem(models.STAGE_DEFAULTS, stage, TrainConfig(
            learning_rate=1e-3, epochs=2, batch_size=64))
    cfg = RunConfig(output_dir="", seed=3, horizon=36, window=(7, 31),
                    levels=(5,), normal_series=4,
                    series_per_condition_per_level=2, noise_sigma=0.1)
    out = tmp_path / "BENCH_tiny.json"
    record = parity.bench(out, cfg, repeat=2)
    assert json.loads(out.read_text()) == record
    assert set(record) == {"config", "repeat", "stages", "peak_rss_mb",
                           "commit", "modified", "python", "numpy", "blas",
                           "blas_threads", "cpu", "cpus"}
    assert record["config"]["seed"] == 3 and "output_dir" not in (
        record["config"])
    assert list(record["stages"]) == [
        "gen_data", "load_dataset", "train_AEN_RNN_DNN", "score_AEN_RNN_DNN",
        "train_RNN_DNN", "score_RNN_DNN", "train_SE_DNN", "score_SE_DNN"]
    for stage in record["stages"].values():
        assert len(stage["runs_s"]) == 2
        assert min(stage["runs_s"]) > 0
        assert stage["median_s"] == np.median(stage["runs_s"])
    assert record["peak_rss_mb"] > 0 and record["repeat"] == 2
    # both None outside a git checkout
    assert record["commit"] is None or len(record["commit"]) == 40
    assert record["modified"] is None or isinstance(record["modified"], list)
