"""tools/parity.py compare: two runs' output trees, file by file."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

import gridsentry.cli as cli

ROOT = Path(__file__).resolve().parents[1]


def compare(a, b):
    """The exit status and the output lines of `parity.py compare a b`."""
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "parity.py"), "compare",
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
