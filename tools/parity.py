"""Run gridsentry's stages on configs, compare two runs' output trees, run
the acceptance file at several seeds, and time the acceptance world's stages.

    PYTHONPATH=src python3 tools/parity.py run OUT CONFIG...
    python3 tools/parity.py compare A B
    python3 tools/parity.py seeds [SEED...]
    PYTHONPATH=src python3 tools/parity.py time OUT.json [--repeat N]

`run` runs each config's stages in process, through the `gridsentry.cli`
that Python imports (PYTHONPATH picks the checkout), into OUT/<config
stem>/: `gen-data` there, then for each of the config's variants `train`
(into models/), `evaluate` (into reports/) and, only where the config has
every level, `holdout` (into holdout_<variant>/), then `report` over the
bundles, if there are any (into reports/). BLAS runs on one thread. It
stops at the first stage that fails, with that stage's exit status.

`compare` prints one line for every file under A or B, by its path
relative to the tree: it is missing from one tree, byte-equal, or
differing. Under a differing file come its details:

- an .npy file, or each array of an .npz archive: the largest absolute and
  relative difference, or the dtype and shape of each side where those
  differ; an array only one archive holds is named;
- a .json file: each key, dotted down nested objects and indexed down
  lists (`[1].median`), that one side lacks or whose value differs, with
  both values;
- a .csv file: the row counts where they differ, the first differing cell
  by its line and column (named by the header, if the first line is one),
  and the largest absolute difference of each numeric column;
- any other UTF-8 text file: the first differing line of each side.

`manifest.json` is compared without its `created` field, the time the
directory was first written; a manifest equal but for it is "equal without
created".

Its exit status is 1 if any file is missing or differing, else 0.

`seeds` runs tests/test_acceptance.py of this checkout once per seed
(default: SEEDS, README's seed table), each in a fresh pytest process with
BLAS on one thread and the module's SEED set to the seed by a plugin of
this file. Under each seed it prints that run's [criterion N] lines, its
FAILED, ERROR, XFAIL and XPASS lines and its summary line. Its exit status
is 1 if any seed's run fails, else 0.

`time` builds the acceptance `world` as tests/test_acceptance.py's
fixture does, in process with BLAS on one thread: RunConfig defaults with
that file's SEED and NOISE_SIGMA. Each of --repeat repetitions (default 3)
times gen-data, the loading of the dataset's parts, and each variant's
train and test-split scoring. OUT.json records each stage's median and
raw times, the process's peak RSS, the git commit of the gridsentry that
Python imports (PYTHONPATH picks the checkout) with the files modified
since it, the Python, numpy and BLAS versions, and the machine.

The tool reports; it chooses no seed, size or tolerance. `compare` needs
the standard library and numpy, `run` and `time` gridsentry too, and
`seeds` pytest and the acceptance file's imports.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import zip_longest
from pathlib import Path

ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if __name__ == "__main__":  # BLAS on one thread, set before numpy loads
    os.environ.update(ONE_THREAD)

import numpy as np

SHOWN = 120  # characters of a value shown in a detail line
ROOT = Path(__file__).resolve().parents[1]
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
SEEDS = (1234, 4242, 5555)  # the columns of README's seed table
# the lines of a pytest -q -rfExX run that seeds prints, as they start
SHOWN_LINES = ("FAILED", "ERROR", "XFAIL", "XPASS")


def files(root: Path) -> set[str]:
    return {str(p.relative_to(root)) for p in root.rglob("*") if p.is_file()}


def shown(value) -> str:
    text = repr(value)
    return text if len(text) <= SHOWN else text[:SHOWN - 3] + "..."


def array_details(name: str, a: np.ndarray, b: np.ndarray) -> list[str]:
    """One line on how arrays a and b differ, or none when they are equal."""
    numeric = a.dtype.kind in "biufc" and b.dtype.kind in "biufc"
    if a.shape != b.shape or (numeric and a.dtype != b.dtype):
        return [f"{name}: {a.dtype}{list(a.shape)} vs {b.dtype}"
                f"{list(b.shape)}"]
    if not numeric:  # strings of any width, or objects: compare the values
        return [] if a.tolist() == b.tolist() else [
            f"{name}: {shown(a.tolist())} vs {shown(b.tolist())}"]
    if np.array_equal(a, b, equal_nan=a.dtype.kind in "fc"):
        return []
    x, y = (v.astype(np.complex128).reshape(-1) for v in (a, b))
    diff = np.abs(x - y)
    diff[np.isnan(x) & np.isnan(y)] = 0.0
    scale = np.maximum(np.abs(x), np.abs(y))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return [f"{name}: max abs diff {np.nanmax(diff):.6g}, max rel diff "
            f"{np.nanmax(rel):.6g}, {np.count_nonzero(diff)} of {diff.size} "
            "elements differ"]


def archive_details(a: Path, b: Path) -> list[str]:
    with np.load(a) as left, np.load(b) as right:
        names = sorted(set(left.files) | set(right.files))
        lines = []
        for name in names:
            if name not in left.files or name not in right.files:
                side = "B" if name in left.files else "A"
                lines.append(f"{name}: missing in {side}")
            else:
                lines += array_details(name, left[name], right[name])
        return lines or ["every array equal"]


def flatten(value, prefix="") -> dict:
    """A JSON value as {key: leaf value}, descending into objects by dotted
    key and into lists by [index]; a leaf, or an empty object or list, at
    the top is keyed "(top)"."""
    if isinstance(value, dict) and value:
        items = ((f"{prefix}.{key}" if prefix else key, item)
                 for key, item in value.items())
    elif isinstance(value, list) and value:
        items = ((f"{prefix}[{i}]", item) for i, item in enumerate(value))
    else:
        return {prefix or "(top)": value}
    out = {}
    for key, item in items:
        out.update(flatten(item, key))
    return out


def json_details(a, b) -> list[str]:
    left, right = flatten(a), flatten(b)
    lines = []
    for key in sorted(set(left) | set(right)):
        if key not in right:
            lines.append(f"{key}: only in A, {shown(left[key])}")
        elif key not in left:
            lines.append(f"{key}: only in B, {shown(right[key])}")
        elif json.dumps(left[key]) != json.dumps(right[key]):
            lines.append(f"{key}: {shown(left[key])} vs {shown(right[key])}")
    return lines


def number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def csv_details(a: str, b: str) -> list[str]:
    """How the CSV texts a and b differ: row counts, the first differing
    cell and each numeric column's largest absolute difference."""
    left, right = (list(csv.reader(io.StringIO(text))) for text in (a, b))
    header = left[0] if left and None in map(number, left[0]) else []

    def column(j: int) -> str:
        return f"column {j + 1}" + (f" ({header[j]})" if j < len(header)
                                    else "")

    lines = []
    if len(left) != len(right):
        lines.append(f"{len(left)} vs {len(right)} rows")
    first, largest = None, {}
    for i, (x, y) in enumerate(zip(left, right)):
        for j, (u, v) in enumerate(zip_longest(x, y)):
            if u != v and first is None:
                first = (f"first difference: line {i + 1}, {column(j)}: "
                         f"{shown(u)} vs {shown(v)}")
            p, q = number(u or ""), number(v or "")
            if p is not None and q is not None:
                largest[j] = max(largest.get(j, 0.0), abs(p - q))
    lines += [first] if first else []
    if largest:
        lines.append("max abs diff by column: " + ", ".join(
            f"{column(j)} {largest[j]:.6g}" for j in sorted(largest)))
    return lines


def text_details(a: str, b: str) -> list[str]:
    """The first line at which the texts a and b differ, on each side."""
    for i, (x, y) in enumerate(zip_longest(a.splitlines(), b.splitlines())):
        if x != y:
            return [f"line {i + 1}: {shown(x) if x is not None else 'end'} "
                    f"vs {shown(y) if y is not None else 'end'}"]
    return ["every line equal"]  # the line endings differ


def compare_file(a: Path, b: Path) -> tuple[str, list[str]]:
    """The verdict on one file present in both trees, and its details."""
    if a.read_bytes() == b.read_bytes():
        return "byte-equal", []
    if a.suffix == ".json":
        left, right = (json.loads(p.read_text()) for p in (a, b))
        if a.name == "manifest.json":  # created is the time, not an output
            left, right = ({k: v for k, v in d.items() if k != "created"}
                           for d in (left, right))
            if left == right:
                return "equal without created", []
        return "differing", json_details(left, right)
    if a.suffix == ".npy":
        return "differing", (array_details("array", np.load(a), np.load(b))
                             or ["array equal"])
    if a.suffix == ".npz":
        return "differing", archive_details(a, b)
    try:
        left, right = (p.read_bytes().decode() for p in (a, b))
    except UnicodeDecodeError:
        return "differing", []
    if a.suffix == ".csv":
        return "differing", csv_details(left, right)
    return "differing", text_details(left, right)


def compare(a: Path, b: Path) -> int:
    """Print one line per file of trees a and b; 1 on any difference."""
    left, right = files(a), files(b)
    counts: dict[str, int] = {}
    for rel in sorted(left | right):
        if rel not in right or rel not in left:
            verdict, details = f"missing in {'B' if rel in left else 'A'}", []
        else:
            verdict, details = compare_file(a / rel, b / rel)
        counts[verdict] = counts.get(verdict, 0) + 1
        print(f"{verdict}: {rel}")
        for line in details:
            print(f"    {line}")
    print(f"{len(left | right)} files: " + ", ".join(
        f"{n} {verdict}" for verdict, n in sorted(counts.items())))
    return int(any(verdict.startswith(("differing", "missing"))
                   for verdict in counts))


def stages(config: Path, data: Path):
    """The argv, after --config, of each stage `run` runs for config into
    data, in order. The first is gen-data's; the generator reads config
    only after it, once gen-data has taken it."""
    from gridsentry.config import load_config
    from gridsentry.scenario import LEVEL_FRACTIONS

    yield ["gen-data", "--out", str(data)]
    cfg = load_config(config)
    bundles = []
    for variant in cfg.variants:
        bundle = str(data / "models" / f"bundle_{variant}.npz")
        bundles.append(bundle)
        yield ["train", "--data", str(data), "--variant", variant]
        yield ["evaluate", "--data", str(data), "--bundle", bundle]
        if set(cfg.levels) == set(LEVEL_FRACTIONS):
            yield ["holdout", "--data", str(data), "--bundle", bundle,
                   "--out", str(data / f"holdout_{variant}")]
    if bundles:
        yield ["report", "--data", str(data), "--bundles", ",".join(bundles)]


def run(out: Path, configs: list[Path]) -> int:
    """Run every stage of each config into out/<config stem>; the exit
    status of the first stage that fails, else 0."""
    from gridsentry.cli import main as cli_main

    for config in configs:
        for argv in stages(config, out / config.stem):
            argv = ["--config", str(config), *argv]
            print("parity: gridsentry " + " ".join(argv), file=sys.stderr)
            try:
                code = cli_main(argv)
            except SystemExit as exc:  # a refused input
                code = exc.code
            if code:
                print(f"parity: stage failed with exit status {code}",
                      file=sys.stderr)
                return code
    return 0


class Seed:
    """A pytest plugin that sets SEED in each test module it collects."""

    def __init__(self, seed: int):
        self.seed = seed

    def pytest_collection_modifyitems(self, items):
        for module in {item.module for item in items}:
            if not hasattr(module, "SEED"):
                raise ValueError(f"{module.__file__} has no SEED to set")
            module.SEED = self.seed


def seeds(values) -> int:
    """Run ACCEPTANCE once per seed, each in a fresh pytest process, and
    print each run's criterion, failure, xfail and summary lines under its
    seed; 1 if any run fails, else 0."""
    args = [str(ACCEPTANCE), "-q", "-s", "-rfExX", "-p", "no:cacheprovider"]
    failed = False
    for seed in values:
        code = (f"import sys, pytest; sys.path.insert(0, "
                f"{str(ROOT / 'tools')!r}); import parity; "
                f"sys.exit(pytest.main({args!r}, "
                f"plugins=[parity.Seed({seed})]))")
        # a wide terminal, so that no FAILED line's message is cut short
        result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                env={**os.environ, **ONE_THREAD,
                                     "COLUMNS": "1000"},
                                capture_output=True, text=True)
        lines = result.stdout.splitlines() or result.stderr.splitlines()
        print(f"seed {seed}: exit status {result.returncode}")
        for line in lines[:-1]:
            if "[criterion " in line:  # after the progress dots, with -s
                print("    " + line[line.index("[criterion "):])
            elif line.startswith(SHOWN_LINES):
                print("    " + line)
        print("    " + (lines[-1] if lines else "no output"), flush=True)
        failed |= result.returncode != 0
    return int(failed)


def acceptance_setting(name: str):
    """The literal that ACCEPTANCE assigns to its module-level `name`."""
    for node in ast.parse(ACCEPTANCE.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]):
            return ast.literal_eval(node.value)
    raise ValueError(f"{ACCEPTANCE} assigns no {name}")


def world_config():
    """The config of ACCEPTANCE's `world` fixture: RunConfig defaults with
    the file's SEED and NOISE_SIGMA; each repetition sets output_dir."""
    from gridsentry.config import RunConfig

    return RunConfig(output_dir="", seed=acceptance_setting("SEED"),
                     noise_sigma=acceptance_setting("NOISE_SIGMA"))


def time_stages(cfg, work: Path) -> dict[str, float]:
    """Run the `world` fixture's stages of cfg in work, as the fixture
    does; the wall time of each stage, in seconds."""
    from dataclasses import replace

    from gridsentry import cli
    from gridsentry.detector import pipeline

    cfg = replace(cfg, output_dir=str(work / "data"))
    times = {}
    start = time.perf_counter()

    def lap(stage: str) -> None:
        nonlocal start
        now = time.perf_counter()
        times[stage], start = now - start, now

    data_dir = cli.cmd_gen_data(cfg, work / "data")
    lap("gen_data")
    train, test = (cli.load_dataset(cfg, data_dir, part)
                   for part in ("train", "test"))
    lap("load_dataset")
    dataset = {key: cfg.canonical()[key] for key in cli.GENERATION_KEYS}
    for variant in cfg.variants:
        bundle = pipeline.train_bundle(variant, train, seed=cfg.seed,
                                       dataset=dataset)
        lap(f"train_{variant}")
        pipeline.evaluate_predictions(bundle, test)
        lap(f"score_{variant}")
    return times


def provenance() -> dict:
    """Where a timing was made: the gridsentry checkout's commit and the
    files modified since it, the Python, numpy and BLAS, and the machine."""
    import gridsentry

    def git(*args) -> str | None:
        try:
            result = subprocess.run(
                ["git", *args], capture_output=True, text=True,
                cwd=Path(gridsentry.__file__).resolve().parent)
        except OSError:
            return None
        return result.stdout if result.returncode == 0 else None

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit, status = git("rev-parse", "HEAD"), git("status", "--porcelain",
                                                   "--", ".")
    return {
        "commit": commit and commit.strip(),
        # porcelain lines are "XY path", with a 2-letter status
        "modified": None if status is None else [
            line[3:] for line in status.splitlines()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu": cpu,
        "cpus": os.cpu_count(),
    }


def bench(out: Path, cfg, repeat: int) -> dict:
    """Time cfg's stages `repeat` times, each in a fresh directory, and
    write the record to out; the record."""
    runs = []
    for _ in range(repeat):
        with tempfile.TemporaryDirectory(prefix="parity-time-") as work:
            runs.append(time_stages(cfg, Path(work)))
    config = cfg.canonical()
    del config["output_dir"]
    record = {
        "config": config,
        "repeat": repeat,
        "stages": {stage: {"median_s": statistics.median(
                               run[stage] for run in runs),
                           "runs_s": [run[stage] for run in runs]}
                   for stage in runs[0]},
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        **provenance(),
    }
    out.write_text(json.dumps(record, indent=2) + "\n")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parity", description=__doc__.split("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    runs = sub.add_parser("run", help="run each config's stages")
    runs.add_argument("out", type=Path)
    runs.add_argument("configs", type=Path, nargs="+")
    cmp = sub.add_parser("compare", help="compare two output trees")
    cmp.add_argument("a", type=Path)
    cmp.add_argument("b", type=Path)
    seeded = sub.add_parser("seeds", help="run the acceptance file per seed")
    seeded.add_argument("seeds", type=int, nargs="*", default=list(SEEDS))
    timed = sub.add_parser("time", help="time the acceptance world's stages")
    timed.add_argument("out", type=Path)
    timed.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.mode == "run":
        stems = [config.stem for config in args.configs]
        if len(set(stems)) < len(stems):
            parser.error(f"two configs share a file stem: {stems}")
        return run(args.out, args.configs)
    if args.mode == "seeds":
        return seeds(args.seeds)
    if args.mode == "time":
        if args.repeat < 1:
            parser.error(f"--repeat must be at least 1, not {args.repeat}")
        bench(args.out, world_config(), args.repeat)
        return 0
    for root in (args.a, args.b):
        if not root.is_dir():
            parser.error(f"not a directory: {root}")
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
