"""Run configuration (YAML) and run manifests (JSON) for the CLI."""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import yaml

from . import __version__
from .detector.models import VARIANTS
from .detector.pipeline import STAGE_DEFAULTS
from .grid.case import DEFAULT_CASE
from .neural import TrainConfig
from .scenario.attacks import LEVEL_FRACTIONS

OUTPUT_ROOT_ENV = "GRIDSENTRY_OUTPUT_ROOT"


class ConfigError(ValueError):
    """Invalid or unresolvable run configuration."""


@dataclass
class RunConfig:
    case_file: str
    output_dir: str
    seed: int
    horizon: int = 120
    noise_sigma: float = 0.01
    num_households: tuple[int, int] = (90, 110)
    levels: tuple[int, ...] = (1, 2, 3, 4, 5)
    window: tuple[int, int] = (24, 104)
    normal_series: int = 15
    series_per_condition_per_level: int = 4
    variants: tuple[str, ...] = VARIANTS
    # stage -> TrainConfig keys that override that stage's STAGE_DEFAULTS row
    train_stages: dict = field(default_factory=lambda: {
        stage: {k: v for k, v in asdict(cfg).items() if k != "seed"}
        for stage, cfg in STAGE_DEFAULTS.items()})
    split_fraction: float = 0.8
    holdout_replications: int = 5
    holdout_l_values: tuple[int, ...] = (1, 2, 3, 4)
    workers: int = 1

    def stage_config(self, stage: str) -> TrainConfig:
        return replace(STAGE_DEFAULTS[stage],
                       **self.train_stages.get(stage, {}))

    def canonical(self) -> dict:
        return json.loads(json.dumps(asdict(self), sort_keys=True))


def resolve_output_dir(path: str) -> Path:
    root = os.environ.get(OUTPUT_ROOT_ENV)
    out = Path(path)
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def load_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a YAML run config before any compute."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = yaml.safe_load(path.read_text()) or {}
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")

    known = set(RunConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "seed" not in raw:
        raise ConfigError("seed must be explicit (no wall-clock defaults)")
    if "output_dir" not in raw:
        raise ConfigError("output_dir is required")

    raw.setdefault("case_file", str(DEFAULT_CASE))
    cfg = RunConfig(**{key: tuple(value) if isinstance(value, list) else value
                       for key, value in raw.items()})
    for name in ("num_households", "window"):
        value = getattr(cfg, name)
        if not isinstance(value, tuple) or len(value) != 2:
            raise ConfigError(f"{name} must be a pair")

    if not Path(cfg.case_file).exists():
        raise ConfigError(f"case file not found: {cfg.case_file}")
    if cfg.horizon < 24:
        raise ConfigError("horizon must cover at least one day")
    if not 0 <= cfg.window[0] < cfg.window[1] <= cfg.horizon:
        raise ConfigError("window must fit inside the horizon")
    if any(lvl not in LEVEL_FRACTIONS for lvl in cfg.levels):
        raise ConfigError(
            f"levels must be drawn from {sorted(LEVEL_FRACTIONS)}")
    if any(v not in VARIANTS for v in cfg.variants):
        raise ConfigError(f"variants must be drawn from {VARIANTS}")
    if not 0 < cfg.split_fraction < 1:
        raise ConfigError("split_fraction must be in (0, 1)")
    if cfg.normal_series < 1 or cfg.series_per_condition_per_level < 1:
        raise ConfigError("series counts must be positive")
    if cfg.workers < 1:
        raise ConfigError("workers must be >= 1")
    if not isinstance(cfg.train_stages, dict):
        raise ConfigError("train_stages must map stage names to settings")
    for stage in cfg.train_stages:
        if stage not in STAGE_DEFAULTS:
            raise ConfigError(f"unknown training stage {stage!r}")
        try:
            cfg.stage_config(stage)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"train_stages.{stage}: {exc}") from None
        if "seed" in cfg.train_stages[stage]:
            raise ConfigError(f"train_stages.{stage}: seed is derived from "
                              "the run seed and cannot be set")
    return cfg


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.canonical(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    """Ledger of every artifact a command emits, keyed by relative path."""

    def __init__(self, directory: Path, cfg_hash: str):
        self.directory = Path(directory)
        self.data = {
            "config_hash": cfg_hash,
            "package_version": __version__,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
            "stages": {},
            "files": {},
        }

    def add_file(self, path: Path) -> None:
        rel = str(Path(path).relative_to(self.directory))
        self.data["files"][rel] = file_sha256(Path(path))

    def set_stage(self, name: str, status: str, **extra) -> None:
        self.data["stages"][name] = {"status": status, **extra}

    def write(self) -> Path:
        out = self.directory / "manifest.json"
        out.write_text(json.dumps(self.data, indent=2, sort_keys=True) + "\n")
        return out

    @staticmethod
    def read(directory: Path) -> dict:
        return json.loads((Path(directory) / "manifest.json").read_text())
