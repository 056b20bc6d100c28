"""Sectioned `key = value` run configuration.

Precedence, lowest to highest: built-in defaults, architecture preset,
config file, command-line flags.  Unknown sections or keys are rejected
with the offending line number so typos never pass silently.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError
from .model import PRESETS, ArchConfig
from .train import TrainConfig

DEFAULT_LAYER = 5
DEFAULT_BINS = 256
DEFAULT_HOLDOUT = 0.2


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def parse_blocks(text: str) -> tuple:
    """'2x8,2x16,3x32' -> ((2, 8), (2, 16), (3, 32))."""
    blocks = []
    for part in text.split(","):
        bits = part.strip().split("x")
        if len(bits) != 2:
            raise ValueError(f"block spec {part.strip()!r} is not COUNTxDEPTH")
        blocks.append((int(bits[0]), int(bits[1])))
    return tuple(blocks)


_SCHEMA = {
    "arch": {
        "preset": str,
        "blocks": parse_blocks,
        "kernel_size": int,
        "fc_width": int,
        "input_side": int,
    },
    "train": {
        "batch_size": int,
        "lr": float,
        "epochs": int,
        "seed": int,
        "augment": parse_bool,
        "folds": int,
        "holdout": float,
    },
    "pfm": {
        "side": int,
    },
    "interpret": {
        "layer": int,
        "bins": int,
    },
    "output": {
        "dir": str,
    },
}


def parse_config_text(text: str) -> dict:
    """Parse into {section: {key: typed value}}; errors carry line numbers."""
    values: dict = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        try:
            coerced = _SCHEMA[section][key](value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {section}.{key}: {exc}") from exc
        values.setdefault(section, {})[key] = coerced
    return values


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc}") from exc
    return parse_config_text(text)


@dataclass(frozen=True)
class RunSettings:
    """Fully resolved knobs for one CLI invocation."""

    arch: ArchConfig
    train: TrainConfig
    holdout: float
    use_folds: bool
    pfm_side: int
    layer: int
    bins: int
    out_dir: str | None


def resolve_settings(file_values: dict | None = None, overrides: dict | None = None) -> RunSettings:
    """Merge the precedence chain into a RunSettings.

    ``overrides`` shares the file shape ({section: {key: value}}); None
    values inside it mean "flag not given" and fall through.
    """
    file_values = file_values or {}
    overrides = overrides or {}

    def given(section: str, key: str) -> bool:
        if overrides.get(section, {}).get(key) is not None:
            return True
        return key in file_values.get(section, {})

    def get(section: str, key: str, default):
        value = overrides.get(section, {}).get(key)
        if value is not None:
            return value
        if key in file_values.get(section, {}):
            return file_values[section][key]
        return default

    preset = get("arch", "preset", "desk")
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    base = PRESETS[preset]
    arch_changes = {
        key: get("arch", key, getattr(base, key))
        for key in ("blocks", "kernel_size", "fc_width", "input_side")
    }
    arch = dataclasses.replace(base, **arch_changes)

    train = TrainConfig(
        batch_size=get("train", "batch_size", 64),
        lr=get("train", "lr", 0.01),
        epochs=get("train", "epochs", 30),
        seed=get("train", "seed", 0),
        augment=get("train", "augment", True),
        folds=get("train", "folds", 10),
    )
    holdout = get("train", "holdout", DEFAULT_HOLDOUT)
    if not 0.0 < holdout < 1.0:
        raise ConfigError(f"holdout must lie in (0, 1), got {holdout}")
    pfm_side = get("pfm", "side", arch.input_side)
    if pfm_side < 8:
        raise ConfigError(f"pfm side must be >= 8, got {pfm_side}")
    layer = get("interpret", "layer", DEFAULT_LAYER)
    if layer < 1:
        raise ConfigError(f"interpret layer must be >= 1, got {layer}")
    bins = get("interpret", "bins", DEFAULT_BINS)
    if bins < 2:
        raise ConfigError(f"bins must be >= 2, got {bins}")
    return RunSettings(
        arch=arch,
        train=train,
        holdout=holdout,
        use_folds=given("train", "folds"),
        pfm_side=pfm_side,
        layer=layer,
        bins=bins,
        out_dir=get("output", "dir", None),
    )
