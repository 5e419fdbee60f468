"""One repetition of a workload in a fresh process: set-up, then timed stages.

Started by run.py from the root of a checkout; writes one JSON record to
--record. Set-up is everything from process start (the parent passes its
CLOCK_MONOTONIC reading at spawn) to the first timed stage: imports, the
generated config and, for workloads that need one, the input dataset made
by the code under test with `gen-data`.

While set-up and the timed stages run, a SpeedProbe times a fixed kernel
eight times a second on the same thread, and the repetition reports both
times also rescaled to the reference core speed (README.md, "Noise on
this box").
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Ledger, Tracer
from workloads import WORKLOADS


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports, when numpy bundles a findable copy."""
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# The probe kernel's time in the fastest phases of the reference box (2 vCPU
# Xeon, Python 3.11.7, numpy 2.4.6). It only sets the scale of the rescaled
# times, so it must stay fixed for results to stay comparable.
REF_KERNEL_S = 0.0023
PROBE_INTERVAL_S = 0.125


class SpeedProbe:
    """Times a fixed kernel of interpreter work (arithmetic, dicts, sorting,
    JSON, string formatting) and small-matrix solves, once on entry and then
    every PROBE_INTERVAL_S (SIGALRM, so on the thread doing the work) until
    exit.

    The host runs other tenants' work on the same cores, which slows every
    instruction by up to 1.7x in phases of seconds to minutes; waiting plays
    no part (user + system CPU time is 98-99% of wall time). The kernel
    slows with the work around it, so `speed` -- the time-weighted mean of
    REF_KERNEL_S / kernel time -- rescales that work to the reference core.
    """

    def __init__(self):
        self.a = np.eye(8) * 10 + np.arange(64.0).reshape(8, 8) / 64
        self.b = np.ones(8)
        self.samples: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        x = 0
        for i in range(5000):
            x += i * i % 7
        for _ in range(100):
            np.linalg.solve(self.a, self.b)
        rows = [{"k": i, "v": str(i * 7919 % 1000), "f": i / 3.0}
                for i in range(300)]
        rows.sort(key=lambda r: r["v"])
        json.loads(json.dumps(rows))
        "".join(f"{r['k']}:{r['f']:.3f};" for r in rows)
        self.samples.append(time.perf_counter() - start)

    def __enter__(self):
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._handler)

    @property
    def busy_s(self) -> float:
        return sum(self.samples)

    @property
    def speed(self) -> float:
        return statistics.fmean(REF_KERNEL_S / t for t in self.samples)


def cpu_time() -> float:
    """User plus system CPU seconds this process has used so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_cli(cli_main, config: Path, argv: list[str]) -> int:
    """Run one CLI command in-process; any exception is a non-zero exit."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink):
            return int(cli_main(["--config", str(config), *argv]) or 0)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_stage(kind: str, variant: str | None, argv: list[str],
                workload) -> dict:
    """Output checks for one finished stage; `ok` is False on any miss."""
    from gridsentry.config import RunManifest
    from gridsentry.scenario import LABELS

    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if kind == "gen_data":
        manifest = RunManifest.read(out)
        stage = manifest["stages"]["gen-data"]
        files = json.dumps(manifest["files"], sort_keys=True).encode()
        return {"ok": (stage["series"] == workload.expected_series
                       and stage["conditions"] == sorted(LABELS)),
                "series": stage["series"],
                "conditions": len(stage["conditions"]),
                "files_sha256": hashlib.sha256(files).hexdigest()}
    data = Path(argv[argv.index("--data") + 1])
    if kind == "train":
        history = data / "models" / f"history_{variant}.json"
        ok = ((data / "models" / f"bundle_{variant}.npz").is_file()
              and history.is_file())
        final = (json.loads(history.read_text())["classifier"][-1]
                 if ok else None)
        return {"ok": ok and _finite(final), "classifier_final_loss": final}
    if kind == "evaluate":
        names = [f"report_{variant}.txt", f"report_{variant}.csv",
                 f"confusion_{variant}.csv"]
        ok = all((out / name).is_file() for name in names)
        score = (RunManifest.read(out)["stages"][f"evaluate-{variant}"]
                 ["macro_f1"] if ok else None)
        return {"ok": ok and _finite(score), "macro_f1": score}
    if kind == "holdout":
        ok = all((out / name).is_file()
                 for name in ("holdout.csv", "holdout.json"))
        medians = ([r["median"] for r in
                    json.loads((out / "holdout.json").read_text())]
                   if ok else [])
        return {"ok": ok and bool(medians) and all(map(_finite, medians)),
                "medians": medians}
    raise ValueError(kind)


def call_pattern(workload, tracer: Tracer, timed_kinds) -> list[str]:
    """Errors when a layer runs where it should not, or is idle where the
    workload was chosen to stress it."""
    everything = tracer.totals()
    timed = tracer.totals(timed_kinds)
    errors = []
    if timed.get(workload.stressed_span, [0])[0] == 0:
        errors.append(f"no {workload.stressed_span} call in the timed stages")
    if ("SE_DNN" not in workload.variants
            and everything.get("estimation", [0])[0]):
        errors.append("estimate_state ran on a workload without SE_DNN")
    if workload.setup_dataset and timed.get("powerflow", [0])[0]:
        errors.append("power flow ran in a timed stage")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--record", required=True, type=Path)
    parser.add_argument("--spawned", required=True, type=float,
                        help="parent's time.monotonic() at spawn")
    args = parser.parse_args()
    load_before = os.getloadavg()
    workload = WORKLOADS[args.workload]
    stages = []

    def run(kind, variant, argv, probe):
        if tracer is not None:
            tracer.stage = kind
        probed = probe.busy_s
        cpu_start = cpu_time()
        start = time.perf_counter()
        code = run_cli(cli_main, config, argv)
        # the probe's own time is taken out of both clocks
        seconds = time.perf_counter() - start - (probe.busy_s - probed)
        cpu_seconds = cpu_time() - cpu_start - (probe.busy_s - probed)
        check = {"ok": False}
        if code == 0:
            try:
                check = check_stage("gen_data" if kind == "setup" else kind,
                                    variant, argv, workload)
            except (OSError, KeyError, ValueError) as exc:
                check = {"ok": False, "error": repr(exc)}
        stages.append({"kind": kind, "variant": variant, "seconds": seconds,
                       "cpu_seconds": cpu_seconds, "exit": code, **check})

    setup_probe = SpeedProbe()
    with setup_probe:
        sys.path.insert(0, str(Path.cwd() / "src"))
        import yaml

        from gridsentry.cli import main as cli_main

        ledger = Ledger()
        ledger.install()
        tracer = None
        if args.trace:
            tracer = Tracer(ledger)
            tracer.install()

        args.dir.mkdir(parents=True)
        data = args.dir / "data"
        config = args.dir / "run.yaml"
        config.write_text(yaml.safe_dump(
            {"seed": args.seed, "output_dir": str(data), **workload.config}))
        if workload.setup_dataset:
            run("setup", None, ["gen-data", "--out", str(data)], setup_probe)
    setup_wall_s = time.monotonic() - args.spawned - setup_probe.busy_s

    probe = SpeedProbe()
    for kind, variant, argv in workload.stages(str(data)):
        with probe:
            run(kind, variant, argv, probe)

    timed = [s for s in stages if s["kind"] != "setup"]
    wall_s = sum(s["seconds"] for s in timed)
    record = {
        "traced": bool(args.trace),
        "setup_wall_s": setup_wall_s,
        "setup_speed": setup_probe.speed,
        "setup_s": setup_wall_s * setup_probe.speed,
        "wall_s": wall_s,
        "cpu_s": sum(s["cpu_seconds"] for s in timed),
        "speed": probe.speed,
        "wall_ref_s": wall_s * probe.speed,
        "probe_samples": len(probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "stages": stages,
        "ledger": dict(ledger.counts),
        "blas_threads": blas_threads(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
    }
    if tracer is not None:
        kinds = [s["kind"] for s in timed]
        record["layers"] = tracer.layer_metrics()
        # spans also hold the probe's interruptions, so share out the
        # elapsed time including them
        record["self_shares"] = tracer.self_shares(kinds,
                                                   wall_s + probe.busy_s)
        record["call_pattern_errors"] = call_pattern(workload, tracer, kinds)
    args.record.write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
