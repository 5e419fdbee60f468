"""The benchmark's instrumentation still finds every function it patches.

perfbench wraps functions at fixed lookup sites and raises MissingSiteError
when a refactor moves one; this runs its installers in a fresh process so
that happens in the quick test loop rather than first in the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import yaml

from gridsentry.detector import LAGS
from gridsentry.scenario import STATUS_FLAGS
from oracles import write_weakened_case

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_patch_sites_bound():
    code = "\n".join([
        "import sys",
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]",
        "import gridsentry.cli",
        "from tracer import Ledger, Tracer",
        "ledger = Ledger()",
        "ledger.install()",
        "Tracer(ledger).install()",
    ])
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_optim_step_span_once_per_batch():
    # neural.optim_step_s and neural.batches stay per-batch measures: one
    # Adam.step span for every mini-batch of a traced train()
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]",
        "import numpy as np",
        "import gridsentry.cli",
        "from tracer import Ledger, Tracer",
        "tracer = Tracer(Ledger())",
        "tracer.install()",
        "from gridsentry.detector import models",
        "from gridsentry.neural import TrainConfig",
        "models.STAGE_DEFAULTS['classifier'] = TrainConfig(",
        "    learning_rate=1e-3, epochs=3, batch_size=8)",
        "x = np.random.default_rng(0).standard_normal((20, 78))",
        "models.fit_classifier(x, np.arange(20) % 9, seed=0)",
        "print(json.dumps({'steps': tracer.spans['setup', 'neural.optim_step'][0],",
        "                  'batches': tracer.counts['neural.batches']}))",
    ])
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout.splitlines()[-1])
    assert counts == {"steps": 3 * 3, "batches": 3 * 3}  # ceil(20 / 8) = 3


def test_every_solve_is_a_powerflow_span():
    # powerflow.calls and powerflow.iters_mean count every solve of an
    # attack series: one per hour, plus the attacker's nominal solve in each
    # hour the attack applied; a fault on the same loads makes no attacker
    # solve, so it adds exactly one span per hour
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]",
        "import numpy as np",
        "import gridsentry.cli",
        "from tracer import Ledger, Tracer",
        "tracer = Tracer(Ledger())",
        "tracer.install()",
        "from gridsentry.dispatch import plan_generation, synthesize_loads",
        "from gridsentry.grid import load_case",
        "from gridsentry.scenario import generate_scenario, make_condition",
        "case = load_case()",
        "loads = synthesize_loads(30, np.random.default_rng(3))",
        "plan = plan_generation(loads)",
        "out = {}",
        "for kind in ('attack', 'fault'):",
        "    before = tracer.spans['setup', 'powerflow'][0]",
        "    spec = make_condition(case, kind, 2, 3, 6, 20)",
        "    s = generate_scenario(case, plan, loads, spec, 0.10, seed=3)",
        "    out[kind] = {'spans': tracer.spans['setup', 'powerflow'][0]",
        "                          - before, 'meta': s.metadata}",
        "out['iters'] = tracer.counts['powerflow.iters']",
        "out['unconverged'] = tracer.counts['powerflow.unconverged']",
        "print(json.dumps(out))",
    ])
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    attack, fault = out["attack"], out["fault"]
    meta = attack["meta"]
    assert meta["gap_hours"] == meta["template_fallback_hours"] == []
    attacked = (20 - 6) - len(meta["noop_hours"])
    assert attacked > 0
    assert attack["spans"] == 30 + attacked
    assert fault["meta"]["gap_hours"] == []
    assert fault["meta"]["noop_hours"] == meta["noop_hours"]
    assert fault["spans"] == 30  # the horizon of the loads it passes
    total = attack["spans"] + fault["spans"]
    assert out["iters"] >= total and out["unconverged"] == 0


def test_stacked_residuals_are_traced():
    # feature_rows over more series than one group holds still records the
    # models.residuals span (once per group) and the LSTM forward spans the
    # detect workload is chosen to stress
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]",
        "import numpy as np",
        "import gridsentry.cli",
        "from tracer import Ledger, Tracer",
        "tracer = Tracer(Ledger())",
        "tracer.install()",
        "from gridsentry.detector import ModelBundle, PreprocessStats",
        "from gridsentry.detector.models import build_predictor",
        "from gridsentry.detector.pipeline import (RESIDUAL_FRAMES,",
        "                                          feature_rows)",
        "from gridsentry.grid import N_SENSORS",
        "r = np.random.default_rng(0)",
        "ones = np.ones(N_SENSORS)",
        "bundle = ModelBundle(",
        "    variant='RNN_DNN', stats=PreprocessStats(ones, 0 * ones, ones),",
        "    dataset={'noise_sigma': 0.1},",
        "    predictor=build_predictor(N_SENSORS, r))",
        "n = RESIDUAL_FRAMES // 20 + 1",
        "series = (r.standard_normal((n, 20, N_SENSORS)),",
        "          np.zeros((n, 20), dtype=int), np.zeros(n, dtype=int))",
        "levels, _, _ = feature_rows(bundle, series)",
        "print(json.dumps({'series': n, 'frames': len(levels),",
        "    'residuals': tracer.spans['setup', 'models.residuals'][0],",
        "    'lstm': tracer.spans['setup', 'neural.lstm_forward'][0]}))",
    ])
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    assert out["frames"] == out["series"] * (20 - 1 - LAGS)
    assert out["residuals"] == 2  # a full group, then one series
    assert out["lstm"] == 2


def test_ledger_counts_gen_data_series(tmp_path):
    # the benchmark's series, gap and template-fallback counts come from
    # the Ledger's wrapper around generate_scenario: one call per series
    # written, with the metadata its row of status.npy holds
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(dict(
        seed=7, output_dir=str(tmp_path / "data"), horizon=120,
        window=[24, 104], noise_sigma=0.10, levels=[5], normal_series=3,
        series_per_condition_per_level=1)))
    weak = write_weakened_case(tmp_path / "weak.case")
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]",
        "from pathlib import Path",
        "import gridsentry.cli",
        "import gridsentry.grid.case",
        f"gridsentry.grid.case.DEFAULT_CASE = Path({str(weak)!r})",
        "from tracer import Ledger",
        "ledger = Ledger()",
        "ledger.install()",
        f"gridsentry.cli.main(['--config', {str(config)!r}, 'gen-data',",
        f"                     '--out', {str(tmp_path / 'data')!r}])",
        "print(json.dumps(dict(ledger.counts)))",
    ])
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    counts = json.loads(result.stdout.splitlines()[-1])
    status = np.load(tmp_path / "data" / "status.npy")
    gap = (status & STATUS_FLAGS["gap_hours"]) > 0
    fallback = (status & STATUS_FLAGS["template_fallback_hours"]) > 0
    assert counts["series"] == len(status) == 3 + 8
    assert gap.sum() > 0 and fallback.sum() > 0
    assert counts["gap_hours"] == gap.sum()
    assert counts["template_fallback_hours"] == fallback.sum()
    assert counts["series_failed"] == (gap | fallback).any(axis=1).sum()


def test_series_io_spans_the_one_writer_and_the_one_reader(tmp_path):
    # series_io.write and .read time ScenarioSeries.save and .load, and
    # series_io.bytes sizes the file at their args[1]: a traced gen-data
    # makes one write span and a traced train one read span, each sizing
    # the values file, which a writer or reader that moves the path off
    # args[1] would miss
    config = tmp_path / "run.yaml"
    config.write_text(yaml.safe_dump(dict(
        seed=7, output_dir=str(tmp_path / "data"), horizon=60,
        window=[24, 50], noise_sigma=0.01, levels=[5], normal_series=3,
        series_per_condition_per_level=2, variants=["RNN_DNN"])))
    data = str(tmp_path / "data")
    code = "\n".join([
        "import json, sys",
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(ROOT / 'src')!r}]",
        "import gridsentry.cli",
        "from tracer import Ledger, Tracer",
        "tracer = Tracer(Ledger())",
        "tracer.install()",
        "from gridsentry.detector import models",
        "from gridsentry.neural import TrainConfig",
        "for stage in ('predictor', 'classifier'):",
        "    models.STAGE_DEFAULTS[stage] = TrainConfig(",
        "        learning_rate=1e-3, epochs=1, batch_size=256)",
        "out = {}",
        f"for stage, argv in (('gen_data', ['gen-data', '--out', {data!r}]),",
        f"                    ('train', ['train', '--data', {data!r},",
        "                               '--variant', 'RNN_DNN'])):",
        "    tracer.stage = stage",
        f"    assert gridsentry.cli.main(['--config', {str(config)!r},",
        "                                *argv]) == 0",
        "    out[stage] = tracer.counts['series_io.bytes']",
        "totals = tracer.totals()",
        "out['write'] = tracer.spans['gen_data', 'series_io.write'][0]",
        "out['read'] = tracer.spans['train', 'series_io.read'][0]",
        "out['spans'] = totals['series_io.write'][0] + totals[",
        "    'series_io.read'][0]",
        "print(json.dumps(out))",
    ])
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout.splitlines()[-1])
    values = (tmp_path / "data" / "values.npy").stat().st_size
    assert values == 128 + (3 + 2 * 8) * 60 * 39 * 8  # header and rows
    assert out == {"write": 1, "read": 1, "spans": 2,
                   "gen_data": values, "train": 2 * values}
