"""The benchmark's workloads: one generated run config plus the CLI stages.

Every workload runs at the acceptance noise level (sigma = 0.10). Why each
workload exists is stated once, in BENCHMARK.json; how the sizes and the
repetition budgets were chosen is in README.md ("Workloads").
"""

from __future__ import annotations

from dataclasses import dataclass

SIGMA = 0.10
ALL_LEVELS = [1, 2, 3, 4, 5]


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict           # run-config keys besides seed and output_dir
    setup_dataset: bool    # set-up runs gen-data to build the input dataset
    # Longest one repetition (set-up and timed stages) took on the reference
    # box in its slow phases; a run holds --seconds // rep_budget_s of them,
    # so the count depends on the run length, never on the code's speed.
    rep_budget_s: float
    variants: tuple = ()
    holdout: bool = False
    stressed_span: str = ""  # span the workload was chosen to exercise

    @property
    def expected_series(self) -> int:
        cfg = self.config
        return (cfg["normal_series"] + 8 * len(cfg["levels"])
                * cfg["series_per_condition_per_level"])

    def stages(self, data: str) -> list[tuple[str, str | None, list[str]]]:
        """Timed CLI stages as (kind, variant, argv after --config)."""
        if not self.setup_dataset:
            return [("gen_data", None, ["gen-data", "--out", data])]
        out = []
        for variant in self.variants:
            bundle = f"{data}/models/bundle_{variant}.npz"
            out.append(("train", variant,
                        ["train", "--data", data, "--variant", variant]))
            out.append(("evaluate", variant,
                        ["evaluate", "--data", data, "--bundle", bundle,
                         "--out", f"{data}/evaluate_{variant}"]))
            if self.holdout:
                out.append(("holdout", variant,
                            ["holdout", "--data", data, "--bundle", bundle,
                             "--out", f"{data}/holdout_{variant}"]))
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gen",
        config=dict(noise_sigma=SIGMA, horizon=120, window=[24, 104],
                    levels=ALL_LEVELS, normal_series=5,
                    series_per_condition_per_level=1, workers=1),
        setup_dataset=False,
        rep_budget_s=8.0,
        stressed_span="powerflow",
    ),
    Workload(
        name="se",
        config=dict(noise_sigma=SIGMA, horizon=36, window=[7, 31],
                    levels=[3], normal_series=4,
                    series_per_condition_per_level=2,
                    variants=["SE_DNN"], workers=1),
        setup_dataset=True,
        rep_budget_s=8.0,
        variants=("SE_DNN",),
        stressed_span="estimation",
    ),
    Workload(
        name="detect",
        config=dict(noise_sigma=SIGMA, horizon=36, window=[7, 31],
                    levels=ALL_LEVELS, normal_series=4,
                    series_per_condition_per_level=2,
                    variants=["RNN_DNN", "AEN_RNN_DNN"],
                    holdout_l_values=[2], holdout_replications=3,
                    workers=1),
        setup_dataset=True,
        rep_budget_s=10.0,
        variants=("RNN_DNN", "AEN_RNN_DNN"),
        holdout=True,
        stressed_span="neural.lstm_forward",
    ),
)}
