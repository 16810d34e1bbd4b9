"""Flat key=value run configuration shared by the CLI and checkpoints.

One ``key = value`` entry per line, ``#`` starts a comment. Keys mirror the
fields of ModelConfig and TrainConfig; unknown keys are rejected so typos
fail loudly. The same keys double as CLI override flags.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .encoders import ModelConfig
from .fusion import FusionVariant
from .training import TrainConfig


class UsageError(ValueError):
    """Invalid user input: bad flag, malformed config, unknown key."""


MODEL_KEYS = tuple(f.name for f in dataclasses.fields(ModelConfig))
TRAIN_KEYS = tuple(f.name for f in dataclasses.fields(TrainConfig))
ALL_KEYS = MODEL_KEYS + TRAIN_KEYS

_overlap = set(MODEL_KEYS) & set(TRAIN_KEYS)
assert not _overlap, f"config key collision: {_overlap}"


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat config text into raw string pairs."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise UsageError(f"config line {lineno}: empty key or value in {raw!r}")
        if key in out:
            raise UsageError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _coerce(key: str, value: str, typ):
    try:
        if typ is int:
            return int(value)
        if typ is float:
            return float(value)
        if typ is FusionVariant or key == "fusion_variant":
            return FusionVariant.parse(value)
        return value
    except ValueError as exc:
        raise UsageError(f"config key {key!r}: cannot parse {value!r} ({exc})") from exc


def build_configs(overrides: dict[str, str] | None = None
                  ) -> tuple[ModelConfig, TrainConfig]:
    """Defaults plus string overrides -> validated (ModelConfig, TrainConfig)."""
    overrides = dict(overrides or {})
    model_types = {f.name: f.type for f in dataclasses.fields(ModelConfig)}
    train_types = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
    type_of = {"int": int, "float": float, "str": str}

    model_kwargs: dict = {}
    train_kwargs: dict = {}
    for key, value in overrides.items():
        if key in MODEL_KEYS:
            typ = type_of.get(model_types[key], FusionVariant if key == "fusion_variant" else str)
            model_kwargs[key] = _coerce(key, value, typ)
        elif key in TRAIN_KEYS:
            train_kwargs[key] = _coerce(key, value, type_of.get(train_types[key], str))
        else:
            raise UsageError(f"unknown config key {key!r}; known keys: "
                             f"{', '.join(sorted(ALL_KEYS))}")
    return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)


def load_config_file(path) -> dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {p} is not valid UTF-8 (byte {exc.start})") from None
    return parse_config_text(text)


def serialize_model_config(cfg: ModelConfig) -> str:
    lines = []
    for f in dataclasses.fields(ModelConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, FusionVariant):
            value = value.value
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def model_config_from_text(text: str) -> ModelConfig:
    pairs = parse_config_text(text)
    unknown = set(pairs) - set(MODEL_KEYS)
    if unknown:
        raise UsageError(f"unknown model config keys: {sorted(unknown)}")
    cfg, _ = build_configs(pairs)
    return cfg
