"""Training configuration: a flat key=value text format with # comments.

Unknown keys are errors, values round-trip exactly (floats via repr), and
the ``MHCVSE_SEED`` environment variable overrides the configured seed when
a config is loaded for a run. A retired key (``gcn_form``) still loads when
it names the one behaviour left, so older configs and checkpoint sidecars
keep working; any other value is an error that names the key.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

from .data import read_text
from .evaluation import RETRIEVAL_LEVELS
from .fusion import FUSE_TYPES
from .losses import CONTRASTIVE_MODES

__all__ = ["TrainConfig", "parse_config_text", "format_config_text",
           "load_config", "save_config", "SEED_ENV_VAR"]

SEED_ENV_VAR = "MHCVSE_SEED"


@dataclass
class TrainConfig:
    embed_dim: int = 128
    feature_dim: int = 64
    heads: int = 8
    fuse_type: str = "weight_sum"
    margin: float = 0.2
    contrastive_mode: str = "hardest"
    base_weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)
    invert_dynamic_weight: bool = False
    concepts: int = 32
    eta0: float = 0.006
    eta_min_ratio: float = 0.01
    period_epochs: int = 10
    batch_size: int = 32
    epochs: int = 30
    patience: int = 5
    seed: int = 42
    retrieval_level: str = "fused"

    def validate(self) -> "TrainConfig":
        if self.embed_dim < 2 or self.embed_dim % 2 != 0:
            raise ValueError(f"embed_dim must be an even int >= 2, got {self.embed_dim}")
        if self.feature_dim < 1:
            raise ValueError(f"feature_dim must be >= 1, got {self.feature_dim}")
        if self.heads < 1 or self.embed_dim % self.heads != 0:
            raise ValueError(f"embed_dim {self.embed_dim} must divide evenly into "
                             f"{self.heads} heads")
        if self.fuse_type not in FUSE_TYPES:
            raise ValueError(f"unknown fuse_type '{self.fuse_type}'")
        if not 0.0 < self.margin < math.inf:
            raise ValueError(f"margin must be positive and finite, got {self.margin}")
        if self.contrastive_mode not in CONTRASTIVE_MODES:
            raise ValueError(f"unknown contrastive_mode '{self.contrastive_mode}'")
        if len(self.base_weights) != 4:
            raise ValueError("base_weights needs exactly 4 values")
        if not all(0.0 <= w < math.inf for w in self.base_weights):
            raise ValueError(f"base_weights must be finite and >= 0, got {self.base_weights}")
        if self.concepts < 1:
            raise ValueError(f"concepts must be >= 1, got {self.concepts}")
        if not 0.0 <= self.eta0 < math.inf:
            raise ValueError(f"eta0 must be finite and >= 0, got {self.eta0}")
        if not 0.0 <= self.eta_min_ratio <= 1.0:
            raise ValueError(f"eta_min_ratio must lie in [0, 1], got {self.eta_min_ratio}")
        if self.period_epochs < 1:
            raise ValueError(f"period_epochs must be >= 1, got {self.period_epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if self.retrieval_level not in RETRIEVAL_LEVELS:
            raise ValueError(f"unknown retrieval_level '{self.retrieval_level}'")
        return self

    @property
    def eta_min(self) -> float:
        return self.eta0 * self.eta_min_ratio


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(float(v)) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw not in ("true", "false"):
                raise ValueError
            return raw == "true"
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(float(part) for part in raw.split(","))
        return raw
    except ValueError:
        raise ValueError(f"config key '{name}': cannot parse '{raw}'") from None


# dataclass annotations are strings here; anything unrecognized is the
# base_weights tuple
_FIELD_KINDS = {
    f.name: {"int": int, "float": float, "str": str, "bool": bool}.get(f.type, tuple)
    for f in fields(TrainConfig)
}


# keys a config no longer has, each with the one value that still loads:
# the behaviour every remaining code path has
_RETIRED_KEYS = {"gcn_form": "paper"}


def format_config_text(cfg: TrainConfig) -> str:
    lines = [f"{f.name} = {_format_value(getattr(cfg, f.name))}"
             for f in fields(TrainConfig)]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> TrainConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected key = value, got '{line}'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in values:
            raise ValueError(f"line {lineno}: duplicate key '{key}'")
        if key in _RETIRED_KEYS:
            if raw != _RETIRED_KEYS[key]:
                raise ValueError(f"line {lineno}: key '{key}' was removed and only "
                                 f"'{_RETIRED_KEYS[key]}' still loads, got '{raw}'")
            values[key] = None
            continue
        if key not in _FIELD_KINDS:
            raise ValueError(f"line {lineno}: unknown key '{key}'")
        values[key] = _parse_value(key, raw, _FIELD_KINDS[key])
    return TrainConfig(**{k: v for k, v in values.items()
                          if k not in _RETIRED_KEYS}).validate()


def load_config(path=None) -> TrainConfig:
    """Config from an optional file, then the env seed."""
    if path is None:
        cfg = TrainConfig()
    else:
        text = read_text(path, "config")
        try:
            cfg = parse_config_text(text)
        except ValueError as err:
            raise ValueError(f"config {path}: {err}") from None
    if SEED_ENV_VAR in os.environ:
        raw = os.environ[SEED_ENV_VAR]
        try:
            cfg = replace(cfg, seed=int(raw))
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, got '{raw}'") from None
    return cfg.validate()


def save_config(cfg: TrainConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_config_text(cfg))
