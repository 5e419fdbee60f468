"""tools/parity.py: run a config's stages, compare two runs' output trees
file by file, and run the acceptance file per seed."""

import importlib.util
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
