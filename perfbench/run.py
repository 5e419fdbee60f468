"""gridsentry benchmark: run one workload, check its outputs, print metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gen|se|detect [--seed 1234]
                             [--seconds 40] [--trace 0|1]

A run repeats the workload in fresh processes (perfbench/rep.py), each doing
its own set-up and every timed CLI stage. The number of repetitions is
--seconds // the workload's rep_budget_s (at least three), fixed before the
run starts. It reports medians over repetitions: set-up time, peak memory,
and the timed stages rescaled to the reference core speed (`wall_ref_s`).
With --trace 1 it alternates untraced and traced repetitions and reports
the per-layer metrics of the traced ones, plus the tracing overhead.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` (CLI stage invocations, a stage failing when it raises, exits
non-zero or fails its output check) and `metrics`. The full record, with
provenance, stage breakdown and failure accounting, goes to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3              # untraced repetitions per --trace 0 run
MIN_TRACE_REPS = 2        # one untraced and one traced
RUN_DEADLINE_S = 170.0    # a run must end within 180 s
E2E_METRICS = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
STAGE_METRICS = {"gen_data": "gen_data_s", "train": "train_s",
                 "evaluate": "evaluate_s", "holdout": "holdout_s"}
HERE = Path(__file__).resolve().parent


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root: Path) -> str:
    """sha256 over src/ file paths and contents: a commit id without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
        "config": {"seed": seed, **workload.config},
    }


def run_rep(root: Path, work: Path, workload, seed: int, traced: bool,
            index: int, timeout: float) -> dict:
    """One repetition in a fresh process; returns its record.

    Every repetition of a run writes to the same directory, so the generated
    config, whose output_dir lands in the hashed config.json, is identical.
    """
    rep_dir = work / "rep"
    record_path = work / f"rep{index:02d}.json"
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "GRIDSENTRY_OUTPUT_ROOT")}
    env.update({k: str(BLAS_THREADS) for k in BLAS_ENV})
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload.name,
           "--seed", str(seed), "--trace", str(int(traced)),
           "--dir", str(rep_dir), "--record", str(record_path)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(start)], cwd=root,
                              env=env, timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    elapsed = time.monotonic() - start
    shutil.rmtree(rep_dir, ignore_errors=True)
    if code != 0 or not record_path.is_file():
        # counted as one failed stage, so it shows in `failed`
        crash = {"kind": "rep", "variant": None, "seconds": elapsed,
                 "exit": code, "ok": False}
        return {"traced": traced, "ok": False, "error": f"exit {code}",
                "elapsed_s": elapsed, "stages": [crash]}
    record = json.loads(record_path.read_text())
    record_path.unlink()
    record["elapsed_s"] = elapsed
    record["ok"] = (all(s["exit"] == 0 and s["ok"] for s in record["stages"])
                    and not record.get("call_pattern_errors"))
    for stage in record["stages"]:
        if stage["kind"] != "setup":
            name = STAGE_METRICS[stage["kind"]]
            record[name] = (record.get(name, 0.0)
                            + stage["seconds"] * record["speed"])
    return record


def consistency_errors(reps: list[dict]) -> list[str]:
    """Same seed, same outputs: dataset hashes (criterion 11) and scores."""
    errors = []
    seen: dict = {}
    for rep in reps:
        for stage in rep["stages"]:
            for key in ("files_sha256", "macro_f1", "medians"):
                if key in stage:
                    seen.setdefault((stage["kind"], stage["variant"], key),
                                    set()).add(json.dumps(stage[key]))
    for (kind, variant, key), values in seen.items():
        if len(values) > 1:
            errors.append(f"{kind} {variant or ''} {key} differs across "
                          f"repetitions of one seed")
    return errors


def failure_accounting(reps: list[dict]) -> dict:
    """failed_frac of the program's own operations, with its base."""
    counts = {"series": 0, "series_failed": 0, "gap_hours": 0,
              "template_fallback_hours": 0, "se_frames": 0,
              "se_unconverged": 0, "se_rank_deficient": 0, "stages": 0,
              "stages_failed": 0}
    for rep in reps:
        for key, value in rep.get("ledger", {}).items():
            counts[key] += value
        counts["stages"] += len(rep["stages"])
        counts["stages_failed"] += sum(s["exit"] != 0 for s in rep["stages"])
    failed = (counts["series_failed"] + counts["se_unconverged"]
              + counts["stages_failed"])
    attempted = counts["series"] + counts["se_frames"] + counts["stages"]
    return {"failed": failed, "attempted": attempted,
            "failed_frac": failed / attempted if attempted else None,
            **counts}


def summarize(reps: list[dict], key: str) -> float:
    return statistics.median(rep[key] for rep in reps)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one gridsentry benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "gridsentry" / "cli.py").is_file():
        print("perfbench: src/gridsentry not found; run from the root of a "
              "gridsentry checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    work = HERE / ".work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)

    info = provenance(root, workload, args.seed)
    load_before = os.getloadavg()
    start = time.monotonic()
    planned = max(MIN_TRACE_REPS if args.trace else MIN_REPS,
                  int(args.seconds // workload.rep_budget_s))
    reps: list[dict] = []
    try:
        while len(reps) < planned:
            elapsed = time.monotonic() - start
            longest = max((r["elapsed_s"] for r in reps), default=0.0)
            if reps and elapsed + longest > RUN_DEADLINE_S:
                break
            traced = bool(args.trace) and len(reps) % 2 == 1
            rep = run_rep(root, work, workload, args.seed, traced, len(reps),
                          timeout=RUN_DEADLINE_S - elapsed)
            print(f"perfbench: {workload.name} rep {len(reps)} "
                  f"traced={int(traced)} ok={rep['ok']} "
                  f"wall_s={rep.get('wall_s', float('nan')):.3f} "
                  f"wall_ref_s={rep.get('wall_ref_s', float('nan')):.3f} "
                  f"setup_s={rep.get('setup_s', float('nan')):.3f}",
                  file=sys.stderr)
            reps.append(rep)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in reps if r["ok"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    errors = consistency_errors(reps)
    for rep in reps:
        errors += rep.get("call_pattern_errors", [])
        if rep.get("error"):
            errors.append(rep["error"])
    if len(reps) < planned:
        errors.append(f"deadline reached after {len(reps)} of {planned} "
                      f"repetitions")
    attempted = sum(len(r["stages"]) for r in reps)
    # a repetition whose stages all passed can still fail its call pattern
    failed = sum(max(sum(not (s["exit"] == 0 and s["ok"])
                         for s in r["stages"]), int(not r["ok"]))
                 for r in reps)

    record = {
        "workload": workload.name,
        "why": next(w["why"] for w in bench["workloads"]
                    if w["name"] == workload.name),
        "trace": args.trace,
        "seconds": args.seconds,
        "repetitions_planned": planned,
        "provenance": info,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "errors": errors,
        "failures": failure_accounting(reps),
        "repetitions": reps,
    }
    metrics = {}
    if plain:
        record["end_to_end"] = {
            key: summarize(plain, key)
            for key in (*E2E_METRICS, "wall_s", "cpu_s", "speed",
                        *STAGE_METRICS.values()) if key in plain[0]}
        if not args.trace:
            metrics = {key: {"value": summarize(plain, key), "unit": unit}
                       for key, unit in E2E_METRICS.items()}
    if args.trace and plain and traced:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        # a rank-deficient frame fails its stage, so count it over every
        # traced repetition, not only the good ones the medians use
        layers["estimation.rank_deficient"] = sum(
            r.get("ledger", {}).get("se_rank_deficient", 0)
            for r in reps if r["traced"])
        layers["trace.overhead_frac"] = (summarize(traced, "wall_ref_s")
                                         / summarize(plain, "wall_ref_s")
                                         - 1.0)
        record["per_layer"] = layers
        record["self_shares"] = {
            name: statistics.median(r["self_shares"].get(name, 0.0)
                                    for r in traced)
            for name in traced[0]["self_shares"]}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in layers.items()}

    correct = bool(metrics) and not errors and len(good) == len(reps)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    out = results / (f"{workload.name}-seed{args.seed}-trace{args.trace}-"
                     f"{stamp}-{os.getpid()}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"perfbench: record written to {out.relative_to(root)}")
    if errors:
        print("perfbench: " + "; ".join(errors), file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
