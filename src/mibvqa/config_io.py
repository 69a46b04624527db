"""Key-value config files for the CLI.

Format: one `key = value` per line; blank lines and `#` comments (full-line
or trailing) are ignored. Unknown keys are rejected so typos fail loudly.
A CLI flag's argparse dest is the name of the field it sets, and flags
override config keys.
"""

from __future__ import annotations

from dataclasses import fields

from .data import DatasetConfig, field_types
from .model import ModelConfig
from .training import TrainConfig


class ConfigError(ValueError):
    """A config file failed to parse or validate."""


def parse_config_text(text: str) -> dict:
    """Raw key -> string-value mapping; values are coerced by the builders."""
    out: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        out[key] = value
    return out


def read_config_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return parse_config_text(f.read())
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None


def _coerce_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected integer, got {value!r}") from None


def _coerce_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected number, got {value!r}") from None


def _coerce_bool(key: str, value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected boolean, got {value!r}")


def _coerce_mix(key: str, value: str) -> dict:
    # syntax: count:0.4,presence:0.6
    mix = {}
    for part in value.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ConfigError(f"key {key!r}: expected 'category:fraction' "
                              f"entries, got {part!r}")
        cat, frac = part.split(":", 1)
        cat = cat.strip()
        if cat in mix:
            raise ConfigError(f"key {key!r}: duplicate category {cat!r}")
        mix[cat] = _coerce_float(key, frac.strip())
    if not mix:
        raise ConfigError(f"key {key!r}: empty category mix")
    return mix


_COERCERS = {
    int: _coerce_int,
    float: _coerce_float,
    bool: _coerce_bool,
    str: lambda key, value: value,
    dict: _coerce_mix,
}


def _keys_of(config_class) -> dict:
    """key -> coercer for every field of a config dataclass, by field type."""
    types = field_types(config_class)
    return {f.name: _COERCERS[types[f.name]] for f in fields(config_class)}


DATASET_KEYS = _keys_of(DatasetConfig)
TRAIN_KEYS = _keys_of(TrainConfig)
MODEL_KEYS = _keys_of(ModelConfig)


def _merge(kv: dict, flags: dict, known: dict, context: str) -> dict:
    """Typed values of the file keys, then of every flag whose dest names a
    known field and was given (not None); flags win."""
    values = {}
    for key, value in kv.items():
        if key not in known:
            raise ConfigError(f"unknown {context} key {key!r} "
                              f"(known: {', '.join(sorted(known))})")
        values[key] = known[key](key, value)
    values.update((k, v) for k, v in flags.items()
                  if k in known and v is not None)
    return values


def _build(config_class, values: dict):
    """config_class from the entries of values that name its fields; its
    ValueError becomes a ConfigError."""
    names = {f.name for f in fields(config_class)}
    try:
        return config_class(**{k: v for k, v in values.items() if k in names})
    except ValueError as e:
        raise ConfigError(str(e)) from None


def build_dataset_config(kv: dict, flags: dict) -> DatasetConfig:
    """DatasetConfig from raw config keys plus the CLI flags (already typed)."""
    values = _merge(kv, flags, DATASET_KEYS, "dataset config")
    return _build(DatasetConfig, values)


def build_train_setup(kv: dict, flags: dict) -> tuple:
    """(TrainConfig, ModelConfig) from one config file plus the CLI flags
    (already typed); train keys and model keys share the file."""
    values = _merge(kv, flags, {**TRAIN_KEYS, **MODEL_KEYS}, "train config")
    return _build(TrainConfig, values), _build(ModelConfig, values)
