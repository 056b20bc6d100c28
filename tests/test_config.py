"""Run-configuration parsing and precedence tests."""

import re

import pytest

from conftest import TESTS_DIR
from epu.cli import _overrides_from_args, build_parser
from epu.config import (
    SCHEMA,
    parse_blocks,
    parse_bool,
    parse_config_text,
    resolve_settings,
)
from epu.errors import ConfigError
from epu.model import PRESETS
from epu.train import TrainConfig

SAMPLE = """\
# comment line

[arch]
preset = desk
input_side = 32

[train]
epochs = 4
lr = 0.05
augment = false

[interpret]
layer = 3
"""


def test_parse_sample():
    values = parse_config_text(SAMPLE)
    assert values["arch"]["preset"] == "desk"
    assert values["arch"]["input_side"] == 32
    assert values["train"]["epochs"] == 4
    assert values["train"]["lr"] == 0.05
    assert values["train"]["augment"] is False
    assert values["interpret"]["layer"] == 3


def test_unknown_key_carries_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[train]\nepochs = 3\nbogus = 1\n")
    assert "line 3" in str(exc.value)
    assert "train.bogus" in str(exc.value)


def test_unknown_section_carries_line_number():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("\n[nothere]\n")
    assert "line 2" in str(exc.value)


def test_key_outside_section():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("epochs = 3\n")
    assert "line 1" in str(exc.value)


def test_malformed_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[train]\nnot a pair\n")
    assert "line 2" in str(exc.value)


def test_bad_value_names_key_and_line():
    with pytest.raises(ConfigError) as exc:
        parse_config_text("[train]\nepochs = soon\n")
    msg = str(exc.value)
    assert "line 2" in msg and "train.epochs" in msg


def test_parse_blocks():
    assert parse_blocks("2x8,2x16,3x32") == ((2, 8), (2, 16), (3, 32))
    assert parse_blocks(" 1x4 ") == ((1, 4),)
    with pytest.raises(ValueError):
        parse_blocks("2x")
    with pytest.raises(ValueError):
        parse_blocks("2x8x9")


def test_parse_bool():
    assert parse_bool("true") and parse_bool("1") and parse_bool("Yes")
    assert not parse_bool("false") and not parse_bool("0") and not parse_bool("off")
    with pytest.raises(ValueError):
        parse_bool("maybe")


def test_resolve_defaults():
    s = resolve_settings()
    assert s.train == TrainConfig()
    assert s.arch == PRESETS["desk"]
    assert s.arch.blocks == ((2, 8), (2, 16), (3, 32))
    assert s.arch.input_side == 64
    assert s.train.batch_size == 64
    assert s.train.lr == 0.01
    assert s.train.epochs == 30
    assert s.train.augment is True
    assert s.holdout == 0.2
    assert s.use_folds is False
    assert s.pfm_side == 64
    assert s.layer == 5
    assert s.out_dir is None


def test_resolve_preset_base_i():
    s = resolve_settings({"arch": {"preset": "base_i"}})
    assert s.arch.blocks == ((2, 64), (2, 128), (3, 256))
    assert s.arch.input_side == 128
    assert s.pfm_side == 128


def test_file_overrides_preset_field():
    s = resolve_settings({"arch": {"input_side": 32}})
    assert s.arch.input_side == 32
    # pfm side follows the architecture unless set explicitly
    assert s.pfm_side == 32
    s = resolve_settings({"arch": {"input_side": 32}, "pfm": {"side": 16}})
    assert s.pfm_side == 16


def test_flags_beat_file():
    file_values = {"train": {"lr": 0.5, "epochs": 7}}
    s = resolve_settings(file_values, {"train": {"lr": 0.1}})
    assert s.train.lr == 0.1
    assert s.train.epochs == 7


def test_none_override_falls_through():
    s = resolve_settings({"train": {"epochs": 7}}, {"train": {"epochs": None}})
    assert s.train.epochs == 7


def test_folds_flag_sets_cv_mode():
    assert resolve_settings({"train": {"folds": 5}}).use_folds
    assert resolve_settings(None, {"train": {"folds": 5}}).use_folds
    assert not resolve_settings().use_folds


def test_unknown_preset():
    with pytest.raises(ConfigError):
        resolve_settings({"arch": {"preset": "huge"}})


def test_bad_ranges():
    with pytest.raises(ConfigError):
        resolve_settings({"train": {"holdout": 1.5}})
    # a holdout is one of max(2, round(1/h)) folds, so it never exceeds half
    with pytest.raises(ConfigError):
        resolve_settings({"train": {"holdout": 0.75}})
    assert resolve_settings({"train": {"holdout": 0.5}}).holdout == 0.5
    with pytest.raises(ConfigError):
        resolve_settings({"pfm": {"side": 4}})
    with pytest.raises(ConfigError):
        resolve_settings({"interpret": {"layer": 0}})


def test_output_dir_resolution():
    s = resolve_settings({"output": {"dir": "from_file"}})
    assert s.out_dir == "from_file"
    s = resolve_settings({"output": {"dir": "from_file"}}, {"output": {"dir": "from_flag"}})
    assert s.out_dir == "from_flag"


def test_each_flag_lands_in_its_setting():
    parser = build_parser()
    train = ["train", "--data", "d"]
    cases = [
        (train + ["--batch-size", "7"], lambda s: s.train.batch_size, 7),
        (train + ["--lr", "0.5"], lambda s: s.train.lr, 0.5),
        (train + ["--epochs", "3"], lambda s: s.train.epochs, 3),
        (train + ["--seed", "9"], lambda s: s.train.seed, 9),
        (train + ["--augment", "false"], lambda s: s.train.augment, False),
        (train + ["--folds", "4"], lambda s: (s.train.folds, s.use_folds), (4, True)),
        (train + ["--holdout", "0.25"], lambda s: s.holdout, 0.25),
        (train + ["--preset", "base_i"], lambda s: s.arch, PRESETS["base_i"]),
        (train + ["--blocks", "1x4,2x8"], lambda s: s.arch.blocks, ((1, 4), (2, 8))),
        (train + ["--kernel-size", "5"], lambda s: s.arch.kernel_size, 5),
        (train + ["--fc-width", "6"], lambda s: s.arch.fc_width, 6),
        (train + ["--input-side", "32"], lambda s: (s.arch.input_side, s.pfm_side), (32, 32)),
        (train + ["--out", "o"], lambda s: s.out_dir, "o"),
        (["pfm", "--image", "i", "--side", "16"], lambda s: s.pfm_side, 16),
        (["explain", "--model", "m", "--image", "i", "--layer", "2"], lambda s: s.layer, 2),
    ]
    for argv, field, want in cases:
        assert field(resolve_settings(None, _overrides_from_args(parser.parse_args(argv)))) == want, argv


def test_every_setting_is_set_or_documented_outside_the_tests():
    # the settings counterpart of test_public_names.py: a setting that no
    # user-facing file sets or names is a knob that only tests turn
    root = TESTS_DIR.parent
    paths = [root / "README.md", root / ".github" / "workflows" / "tests.yml"]
    paths += sorted((root / "perfbench").glob("*.py"))
    text = "\n".join(p.read_text(encoding="utf-8") for p in paths)
    unseen = []
    for section, keys in SCHEMA.items():
        for key in keys:
            flag = "--out" if section == "output" else "--" + key.replace("_", "-")
            if not re.search(rf"{re.escape(flag)}(?![\w-])|^\s*{key}\s*=", text, re.M):
                unseen.append(f"{section}.{key}")
    assert unseen == []
