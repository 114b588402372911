"""Run configuration: defaults, `key = value` config files, CLI overrides.

Precedence is flag > file > default. Keys are globally unique; section
headers in files are organizational only. Unknown keys are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import ModelConfig, variant_config
from .nn import parse_config_value
from .synthworld import ScenarioConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig(ScenarioConfig):
    """Every setting of a run: the scenario's keys (ScenarioConfig's fields,
    ``seed`` among them), then those below."""

    # splits
    n_train: int = 200
    n_val: int = 50
    n_test: int = 100
    # model
    d_u: int = 16
    h_agent: int = 64
    h_aa: int = 64
    horizon: int = 5
    imagine_steps: int = 1
    lambdas: tuple = (0.6, 0.4)
    # training
    lr: float = 0.0001
    batch_size: int = 5
    epochs: int = 100
    patience: int = 10
    time_scale: float = 1.0
    # tracking
    top_init: int = 10
    top_iou: int = 10
    dedup_iou: float = 0.7
    # evaluation
    fps: float = 20.0
    use_fused: bool = True
    per_video_region_ap: bool = False
    grid_w: int = 64
    grid_h: int = 36

    def validate(self) -> None:
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, epochs and patience must be >= 1")
        if self.lr <= 0 or self.fps <= 0 or self.time_scale <= 0:
            raise ConfigError("lr, fps and time_scale must be positive")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("split sizes must be >= 1")
        try:
            super().validate()
            self.model_config("L-RAI").validate()
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(**{f.name: getattr(self, f.name) for f in fields(ScenarioConfig)})

    def model_config(self, variant: str) -> ModelConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(ModelConfig) if f.name in _FIELD_TYPES}
        base = ModelConfig(d_agent=self.feature_dim, d_region=self.feature_dim, **shared)
        return variant_config(base, variant)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(key: str, raw: str):
    try:
        return parse_config_value(_FIELD_TYPES[key], raw)
    except ValueError as err:
        raise ConfigError(f"{err} for key {key!r}") from None


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; `[section]` headers are ignored for lookup
    but keys must still be unique across the file."""
    entries: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line or (line.startswith("[") and line.endswith("]")):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value.strip()
    return entries


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    cfg = RunConfig()
    merged: dict = {}
    if path is not None:
        merged.update(parse_config_file(path))
    if overrides:
        merged.update(overrides)
    for key, raw in merged.items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown configuration key: {key!r}")
        setattr(cfg, key, _coerce(key, raw))
    cfg.validate()
    return cfg


def derive_seed(master: int, tag: int) -> int:
    """A stable sub-seed for an independent random stream."""
    return int(np.random.SeedSequence([master, tag]).generate_state(1)[0])
