"""Run configuration (YAML) and run manifests (JSON) for the CLI."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import yaml

from . import InputError, __version__
from .detector.models import LAGS, VARIANTS
from .scenario.attacks import LEVEL_FRACTIONS


@dataclass
class RunConfig:
    output_dir: str
    seed: int
    horizon: int = 120
    noise_sigma: float = 0.01
    levels: tuple[int, ...] = (1, 2, 3, 4, 5)
    window: tuple[int, int] = (24, 104)
    normal_series: int = 15
    series_per_condition_per_level: int = 4
    variants: tuple[str, ...] = VARIANTS
    holdout_replications: int = 5
    holdout_l_values: tuple[int, ...] = (1, 2, 3, 4)
    workers: int = 1

    def canonical(self) -> dict:
        return json.loads(json.dumps(asdict(self), sort_keys=True))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _read_as_string(value) -> str:
    """The hint for a number that YAML gave as a string: PyYAML reads an
    exponent float only with a dot, so 1e-3 is a string and 1.0e-3 a float."""
    if not isinstance(value, str):
        return ""
    return (f"; {value!r} was read as a string: write exponent floats with "
            "a dot, as in 1.0e-3")


def load_config(path: str | Path) -> RunConfig:
    """Parse and fully validate a YAML run config before any compute."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text()) or {}
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc.reason} at byte "
                         f"{exc.start}") from None
    except yaml.YAMLError as exc:
        # the parser's own text runs over several lines
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise InputError(
            f"{path}: malformed YAML{where}: {problem}") from None
    if not isinstance(raw, dict):
        raise InputError("config must be a mapping")

    known = set(RunConfig.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    if "seed" not in raw:
        raise InputError("seed must be explicit (no wall-clock defaults)")
    if "output_dir" not in raw:
        raise InputError("output_dir is required")

    cfg = RunConfig(**{key: tuple(value) if isinstance(value, list) else value
                       for key, value in raw.items()})
    for name in ("seed", "horizon", "normal_series",
                 "series_per_condition_per_level", "workers"):
        if not _is_int(getattr(cfg, name)):
            raise InputError(f"{name} must be an integer")
    if (not isinstance(cfg.window, tuple) or len(cfg.window) != 2
            or not all(map(_is_int, cfg.window))):
        raise InputError("window must be a pair of integers")
    for name in ("levels", "variants", "holdout_l_values"):
        if not isinstance(getattr(cfg, name), tuple):
            raise InputError(f"{name} must be a list")
    if not isinstance(cfg.output_dir, str):
        raise InputError("output_dir must be a path string")
    if cfg.horizon < 24:
        raise InputError("horizon must cover at least one day")
    if not 0 <= cfg.window[0] < cfg.window[1] <= cfg.horizon:
        raise InputError("window must fit inside the horizon")
    if cfg.window[1] <= LAGS + 1:
        raise InputError(f"window must end after hour LAGS + 1 = {LAGS + 1}, "
                         "the first frame the classifier sees; no attack or "
                         "fault frame would reach it")
    value = cfg.noise_sigma
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise InputError(
            f"noise_sigma must be a finite number{_read_as_string(value)}")
    if cfg.noise_sigma < 0:
        raise InputError("noise_sigma must be >= 0")
    if any(not _is_int(lvl) or lvl not in LEVEL_FRACTIONS
           for lvl in cfg.levels):
        raise InputError(
            f"levels must be integers drawn from {sorted(LEVEL_FRACTIONS)}")
    if any(v not in VARIANTS for v in cfg.variants):
        raise InputError(f"variants must be drawn from {VARIANTS}")
    if cfg.noise_sigma == 0 and "SE_DNN" in cfg.variants:
        raise InputError("noise_sigma must be > 0 when variants lists "
                         "SE_DNN: its WLS fit weighs each sensor by its "
                         "noise variance")
    # holdout trains on l levels and tests on the rest, so one must remain
    max_l = len(LEVEL_FRACTIONS) - 1
    if any(not _is_int(l) or not 1 <= l <= max_l
           for l in cfg.holdout_l_values):
        raise InputError(f"holdout_l_values must be integers in 1..{max_l}")
    # a repeated entry would generate, train or hold out the same thing
    # twice, writing its outputs over each other
    for name in ("levels", "variants", "holdout_l_values"):
        values = getattr(cfg, name)
        if len(set(values)) != len(values):
            raise InputError(f"{name} must not repeat an entry")
    # with no level nothing is generated; with no l, holdout writes an
    # empty table after computing every series' features
    for name in ("levels", "holdout_l_values"):
        if not getattr(cfg, name):
            raise InputError(f"{name} must name at least one entry")
    if not _is_int(cfg.holdout_replications) or cfg.holdout_replications < 1:
        raise InputError("holdout_replications must be an integer >= 1")
    if cfg.normal_series < 1 or cfg.series_per_condition_per_level < 1:
        raise InputError("series counts must be positive")
    # cli._series_jobs seeds each series with seed*1000003 + kind*100000
    # + target*10000 + level*100 + idx, which numpy takes only if >= 0;
    # past these counts two series would share a seed, and so their loads
    # and noise draws
    if cfg.seed < 0:
        raise InputError("seed must be >= 0")
    if cfg.series_per_condition_per_level > 100:
        raise InputError("series_per_condition_per_level must be <= 100, "
                         "so that no two series share a seed")
    if cfg.normal_series > 120100:
        raise InputError("normal_series must be <= 120100, so that no two "
                         "series share a seed")
    if cfg.workers < 1:
        raise InputError("workers must be >= 1")
    return cfg


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.canonical(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def read_json_object(path: Path) -> dict:
    """The JSON object in the file at path; InputError names the file when
    it holds none (a missing file raises FileNotFoundError)."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # a UnicodeDecodeError too
        raise InputError(f"{path}: not a JSON object: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: not a JSON object")
    return data


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        # the loop holds the last chunk as it reads the next, so twice the
        # chunk size adds to the stage's memory peak on a multi-MB file
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    """Ledger of every artifact written to one directory, keyed by relative
    path, and of the stages that wrote them.

    Opening a directory loads its `manifest.json`, so each stage adds to the
    files and stages already recorded there; a manifest from another config,
    and a directory path that names a file, are refused before the stage
    computes or writes anything.
    """

    def __init__(self, directory: Path, cfg_hash: str):
        self.directory = Path(directory)
        self.path = self.directory / "manifest.json"
        for path in (self.directory, *self.directory.parents):
            if path.exists() and not path.is_dir():
                raise InputError(f"output directory {self.directory}: "
                                 f"{path} is a file")
        if self.path.exists():
            self.data = self.read(self.directory)
            if self.data.get("config_hash") != cfg_hash:
                raise InputError(f"{self.directory} holds the outputs of "
                                 "another config; use a fresh directory")
        else:
            self.data = {
                "config_hash": cfg_hash,
                "package_version": __version__,
                "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
                "stages": {},
                "files": {},
            }

    def record(self, stage: str, paths, **extra) -> None:
        """Hash `paths`, set `stages[stage]` to extra, with a status of "ok"
        unless extra gives one, and write the manifest."""
        for path in paths:
            rel = str(Path(path).relative_to(self.directory))
            self.data["files"][rel] = file_sha256(Path(path))
        self.data["stages"][stage] = {"status": "ok", **extra}
        self.path.write_text(
            json.dumps(self.data, indent=2, sort_keys=True) + "\n")

    @staticmethod
    def read(directory: Path) -> dict:
        return read_json_object(Path(directory) / "manifest.json")
