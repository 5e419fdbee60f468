"""Instrumentation the benchmark installs from outside the program.

`patch` replaces a function at every gridsentry module attribute that holds
it, because modules bind imported names at import time: wrapping only the
defining module would miss callers that did `from x import f`. Each patch
names the lookup sites the benchmark relies on and raises if one is gone, so
a refactor that moves a function fails the benchmark instead of silently
reporting zero calls.

`Ledger` only counts (it reads no clock), so it stays on in the untraced
runs; `Tracer` adds per-layer busy and self time for the traced runs and
takes the Ledger's counts for series quality and SE convergence.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "gridsentry"


class MissingSiteError(RuntimeError):
    """A function is no longer looked up where the benchmark expects it."""


def patch(module: str, attr: str, make_wrapper, required=()) -> list[str]:
    """Swap `module.attr` for `make_wrapper(original)` wherever it is bound."""
    target = getattr(importlib.import_module(module), attr)
    wrapper = make_wrapper(target)
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE
                               or mod_name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, key, wrapper)
                sites.append(f"{mod_name}.{key}")
    missing = sorted(set(required) - set(sites))
    if missing:
        raise MissingSiteError(f"{module}.{attr} is not bound at {missing}")
    return sites


def patch_method(module: str, cls_name: str, attr: str, make_wrapper) -> None:
    """Wrap a method on its class; every caller looks it up there."""
    cls = getattr(importlib.import_module(module), cls_name)
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(cls, attr, classmethod(make_wrapper(raw.__func__)))
    else:
        setattr(cls, attr, make_wrapper(raw))


def _file_bytes(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _series_file_bytes(path) -> int:
    path = os.fspath(path)
    return _file_bytes(path) + _file_bytes(os.path.splitext(path)[0]
                                           + ".meta.json")


class Ledger:
    """Count-only failure accounting: generated series and SE frames.

    An `estimate_state` call that raises counts as an unconverged frame;
    a rank-deficient one is also counted on its own, since it fails the
    stage and so never reaches a repetition's timings.
    """

    def __init__(self):
        self.counts = Counter()

    def install(self) -> None:
        patch("gridsentry.scenario.generate", "generate_scenario",
              self._count_series,
              required=["gridsentry.cli.generate_scenario"])
        patch("gridsentry.grid.estimation", "estimate_state",
              self._count_estimates,
              required=["gridsentry.detector.models.estimate_state"])

    def _count_series(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            series = fn(*args, **kwargs)
            meta = series.metadata
            self.counts["series"] += 1
            self.counts["gap_hours"] += len(meta["gap_hours"])
            self.counts["template_fallback_hours"] += len(
                meta["template_fallback_hours"])
            if meta["gap_hours"] or meta["template_fallback_hours"]:
                self.counts["series_failed"] += 1
            return series
        return wrapper

    def _count_estimates(self, fn):
        from gridsentry.grid.estimation import RankDeficientError

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts["se_frames"] += 1
            self.counts["se_unconverged"] += 1  # until it returns converged
            try:
                estimate = fn(*args, **kwargs)
            except RankDeficientError:
                self.counts["se_rank_deficient"] += 1
                raise
            if estimate.converged:
                self.counts["se_unconverged"] -= 1
            return estimate
        return wrapper


def _observe_powerflow(counts, args, kwargs, sol):
    counts["powerflow.iters"] += sol.iterations
    counts["powerflow.unconverged"] += not sol.converged


def _observe_estimate(counts, args, kwargs, est):
    counts["estimation.iters"] += est.iterations


def _observe_series_io(counts, args, kwargs, _):
    # save(self, path) and load(cls, path)
    counts["series_io.bytes"] += _series_file_bytes(args[1])


def _observe_hash(counts, args, kwargs, _):
    counts["manifest.bytes"] += _file_bytes(args[0])


def _observe_train(counts, args, kwargs, history):
    # train(model, x, y, config, ...): every epoch walks every mini-batch
    x = args[1] if len(args) > 1 else kwargs["x"]
    config = args[3] if len(args) > 3 else kwargs["config"]
    counts["neural.epochs"] += len(history)
    counts["neural.batches"] += len(history) * math.ceil(
        x.shape[0] / config.batch_size)


class Tracer:
    """Per-layer spans aggregated by (stage, span): calls, busy, self time.

    Self time is busy time minus the busy time of wrapped calls nested
    inside it, so the self times of all spans partition the traced time.
    """

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        self.stage = "setup"
        self._open: list[float] = []  # nested busy time of each open span
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()

    def wrap(self, name: str, observe=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self._open.append(0.0)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    busy = time.perf_counter() - start
                    nested = self._open.pop()
                    if self._open:
                        self._open[-1] += busy
                    span = self.spans[self.stage, name]
                    span[0] += 1
                    span[1] += busy
                    span[2] += busy - nested
                if observe is not None:
                    observe(self.counts, args, kwargs, result)
                return result
            return wrapper
        return make

    def install(self) -> None:
        w = self.wrap
        patch("gridsentry.grid.powerflow", "solve_power_flow",
              w("powerflow", _observe_powerflow),
              required=["gridsentry.scenario.generate.solve_power_flow",
                        "gridsentry.scenario.attacks.solve_power_flow"])
        patch("gridsentry.grid.estimation", "estimate_state",
              w("estimation", _observe_estimate),
              required=["gridsentry.detector.models.estimate_state"])
        for fn in ("synthesize_loads", "plan_generation"):
            patch("gridsentry.dispatch", fn, w("dispatch"),
                  required=[f"gridsentry.cli.{fn}"])
        patch("gridsentry.scenario.generate", "generate_scenario",
              w("scenario"), required=["gridsentry.cli.generate_scenario"])
        patch_method("gridsentry.scenario.generate", "ScenarioSeries", "save",
                     w("series_io.write", _observe_series_io))
        patch_method("gridsentry.scenario.generate", "ScenarioSeries", "load",
                     w("series_io.read", _observe_series_io))
        patch("gridsentry.config", "file_sha256",
              w("manifest.hash", _observe_hash),
              required=["gridsentry.config.file_sha256"])
        patch("gridsentry.detector.preprocess", "fit_preprocess",
              w("preprocess"),
              required=["gridsentry.detector.pipeline.fit_preprocess"])
        patch("gridsentry.detector.preprocess", "preprocess", w("preprocess"),
              required=["gridsentry.detector.pipeline.preprocess",
                        "gridsentry.detector.models.preprocess"])
        for fn in ("fit_autoencoder", "fit_predictor"):
            patch("gridsentry.detector.models", fn, w(f"models.{fn}"),
                  required=[f"gridsentry.detector.pipeline.{fn}"])
        patch("gridsentry.detector.models", "fit_classifier",
              w("models.fit_classifier"),
              required=["gridsentry.detector.pipeline.fit_classifier",
                        "gridsentry.evaluation.fit_classifier"])
        patch("gridsentry.detector.models", "predict_and_residual",
              w("models.residuals"),
              required=["gridsentry.detector.pipeline.predict_and_residual"])
        patch("gridsentry.detector.models", "classify", w("models.classify"),
              required=["gridsentry.detector.pipeline.classify"])
        patch("gridsentry.neural.train", "train", w("neural.train",
                                                    _observe_train),
              required=["gridsentry.detector.models.train"])
        patch_method("gridsentry.neural.layers", "LSTM", "forward",
                     w("neural.lstm_forward"))
        patch_method("gridsentry.neural.layers", "LSTM", "backward",
                     w("neural.lstm_backward"))
        patch_method("gridsentry.neural.optim", "Adam", "step",
                     w("neural.optim_step"))
        patch("gridsentry.evaluation", "holdout_experiment",
              w("evaluation.holdout"),
              required=["gridsentry.cli.holdout_experiment"])

    def totals(self, stages=None) -> dict:
        """span -> [calls, busy, self], summed over `stages` (default all)."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (stage, name), (calls, busy, self_s) in self.spans.items():
            if stages is None or stage in stages:
                acc = out[name]
                acc[0] += calls
                acc[1] += busy
                acc[2] += self_s
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics of BENCHMARK.json, all but the trace overhead
        and the rank-deficient count (run.py takes that from the Ledger of
        every traced repetition, failed ones included)."""
        t = self.totals()
        c = self.counts
        ledger = self.ledger.counts

        def calls(name):
            return t[name][0] if name in t else 0

        def busy(name):
            return t[name][1] if name in t else 0.0

        def mean(total, n):
            return total / n if n else 0.0

        return {
            "powerflow.calls": calls("powerflow"),
            "powerflow.busy_s": busy("powerflow"),
            "powerflow.iters_mean": mean(c["powerflow.iters"],
                                         calls("powerflow")),
            "powerflow.unconverged": c["powerflow.unconverged"],
            "estimation.calls": calls("estimation"),
            "estimation.busy_s": busy("estimation"),
            "estimation.iters_mean": mean(c["estimation.iters"],
                                          calls("estimation")),
            "estimation.converged_frac": mean(
                ledger["se_frames"] - ledger["se_unconverged"],
                ledger["se_frames"]),
            "dispatch.busy_s": busy("dispatch"),
            "scenario.calls": calls("scenario"),
            "scenario.self_s": t["scenario"][2] if "scenario" in t else 0.0,
            "scenario.gap_hours": ledger["gap_hours"],
            "scenario.template_fallback_hours":
                ledger["template_fallback_hours"],
            "series_io.write_s": busy("series_io.write"),
            "series_io.read_s": busy("series_io.read"),
            "series_io.bytes": c["series_io.bytes"],
            "manifest.hash_s": busy("manifest.hash"),
            "manifest.bytes": c["manifest.bytes"],
            "preprocess.busy_s": busy("preprocess"),
            "models.fit_autoencoder_s": busy("models.fit_autoencoder"),
            "models.fit_predictor_s": busy("models.fit_predictor"),
            "models.fit_classifier_s": busy("models.fit_classifier"),
            "models.fit_classifier_calls": calls("models.fit_classifier"),
            "models.residuals_s": busy("models.residuals"),
            "models.classify_s": busy("models.classify"),
            "neural.epochs": c["neural.epochs"],
            "neural.batches": c["neural.batches"],
            "neural.lstm_forward_s": busy("neural.lstm_forward"),
            "neural.lstm_backward_s": busy("neural.lstm_backward"),
            "neural.optim_step_s": busy("neural.optim_step"),
            "evaluation.holdout_self_s": (t["evaluation.holdout"][2]
                                          if "evaluation.holdout" in t
                                          else 0.0),
        }

    def self_shares(self, stages, wall: float) -> dict:
        """Share of `wall` spent in each layer's own code during `stages`.

        A layer is the span name up to its first dot; whatever no span
        covers is reported as `unattributed`.
        """
        shares = Counter()
        for name, (_, _, self_s) in self.totals(stages).items():
            shares[name.split(".")[0]] += self_s / wall
        shares["unattributed"] = 1.0 - sum(shares.values())
        return dict(shares)
