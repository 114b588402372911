"""Run configuration: defaults, `key = value` config files, CLI overrides.

Precedence is flag > file > default. Keys are globally unique; section
headers in files are organizational only. Unknown keys are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, make_dataclass

import numpy as np

from .model import ModelConfig, variant_config
from .nn import parse_config_value
from .synthworld import ScenarioConfig


class ConfigError(ValueError):
    pass


# The ModelConfig keys a run sets, with ModelConfig's types and defaults; the
# variant sets the others, and the scenario's feature_dim the input sizes.
_ModelKeys = make_dataclass("_ModelKeys", [
    (f.name, f.type, field(default=f.default)) for f in fields(ModelConfig)
    if f.name in ("d_u", "h_agent", "h_aa", "horizon", "imagine_steps", "lambdas")])


@dataclass
class RunConfig(ScenarioConfig, _ModelKeys):
    """Every setting of a run: the scenario's keys (ScenarioConfig's fields,
    ``seed`` among them), the model's (_ModelKeys' fields), then those
    below."""

    # splits
    n_train: int = 200
    n_val: int = 50
    n_test: int = 100
    # training
    lr: float = 0.0001
    # videos per forward pass: per training step, and in validation and eval
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
    grid_w: int = 64
    grid_h: int = 36

    def validate(self) -> None:
        if self.batch_size < 1 or self.epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, epochs and patience must be >= 1")
        if not all(0 < value < np.inf for value in (self.lr, self.fps, self.time_scale)):
            raise ConfigError("lr, fps and time_scale must be positive and finite")
        if min(self.n_train, self.n_val, self.n_test) < 1:
            raise ConfigError("split sizes must be >= 1")
        if min(self.top_init, self.top_iou, self.grid_w, self.grid_h) < 1:
            raise ConfigError("top_init, top_iou, grid_w and grid_h must be >= 1")
        if not 0.0 <= self.dedup_iou <= 1.0:
            raise ConfigError(f"dedup_iou must lie in [0, 1], got {self.dedup_iou}")
        try:
            super().validate()
            self.model_config("L-RAI").validate()
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def scenario_config(self) -> ScenarioConfig:
        return ScenarioConfig(**{f.name: getattr(self, f.name) for f in fields(ScenarioConfig)})

    def model_config(self, variant: str) -> ModelConfig:
        shared = {f.name: getattr(self, f.name) for f in fields(_ModelKeys)}
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
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not a text file of 'key = value' lines") from None
    for lineno, line in enumerate(lines, start=1):
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
