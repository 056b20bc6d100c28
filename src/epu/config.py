"""Sectioned `key = value` run configuration.

Precedence, lowest to highest: built-in defaults, architecture preset,
config file, command-line flags.  Unknown sections or keys are rejected
with the offending line number so typos never pass silently.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .errors import ConfigError
from .model import PRESETS, ArchConfig, parse_blocks
from .pfm import MIN_SIDE
from .train import TrainConfig

DEFAULT_PRESET = "desk"
DEFAULT_LAYER = 5
DEFAULT_HOLDOUT = 0.2


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# every setting, by section; its command-line flag is named after its key,
# except `--out` for output.dir
SCHEMA = {
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
            if section not in SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key {section}.{key}")
        try:
            coerced = SCHEMA[section][key](value)
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
    out_dir: str | None


def resolve_settings(file_values: dict | None = None, overrides: dict | None = None) -> RunSettings:
    """Merge the precedence chain into a RunSettings.

    ``overrides`` shares the file shape ({section: {key: value}}); None
    values inside it mean "flag not given" and fall through. Settings given
    nowhere take the defaults of `ArchConfig` (via the preset) and
    `TrainConfig`.
    """
    merged = {section: dict((file_values or {}).get(section, {})) for section in SCHEMA}
    for section, values in (overrides or {}).items():
        merged[section].update((k, v) for k, v in values.items() if v is not None)

    arch_values = merged["arch"]
    preset = arch_values.pop("preset", DEFAULT_PRESET)
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
    arch = dataclasses.replace(PRESETS[preset], **arch_values)

    train_values = merged["train"]
    use_folds = "folds" in train_values
    holdout = train_values.pop("holdout", DEFAULT_HOLDOUT)
    train = dataclasses.replace(TrainConfig(), **train_values)
    if not 0.0 < holdout <= 0.5:
        raise ConfigError(
            f"holdout must lie in (0, 0.5], got {holdout}; it is rounded to 1/k for k >= 2 folds"
        )

    pfm_side = merged["pfm"].get("side", arch.input_side)
    if pfm_side < MIN_SIDE:
        raise ConfigError(f"pfm side must be >= {MIN_SIDE}, got {pfm_side}")
    layer = merged["interpret"].get("layer", DEFAULT_LAYER)
    if layer < 1:
        raise ConfigError(f"interpret layer must be >= 1, got {layer}")
    return RunSettings(
        arch=arch,
        train=train,
        holdout=holdout,
        use_folds=use_folds,
        pfm_side=pfm_side,
        layer=layer,
        out_dir=merged["output"].get("dir"),
    )
