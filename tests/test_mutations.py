"""Seeded mutation loop: every malformed input ends in its exit code with one line.

Each case breaks one input of a command that succeeds unbroken: a
checkpoint header field, a PPM header field, a config value or a dataset
layout. Header edits are re-signed, so that they reach the field checks
behind the checksum, except the unsigned ones, which the checksum must catch. Every case must end in exit 2, 3 or 4 with exactly one stderr line,
never a traceback. The cases that were first found by hand come first;
then every value of the mutation pools once, each through a command that a
seeded generator picks, in an order it shuffles. All of them run through `epu.cli.main` in
one child process whose address space is capped, so an input that asks for
an impossible allocation fails at once instead of exhausting the machine.
"""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import SRC_DIR, resign, run_cli
from epu.data import SynthConfig, synth_generate

# the base run's settings, given as flags or as a config file
BASE_SETTINGS = {
    "arch": {"blocks": "1x2,1x3", "input_side": "16", "fc_width": "4"},
    "train": {"epochs": "1", "batch_size": "6", "augment": "false"},
}
TRAIN_FLAGS = [
    f"--{key.replace('_', '-')}={value}" for section in BASE_SETTINGS.values() for key, value in section.items()
]

LOOP_SCRIPT = """
import contextlib, io, json, resource, sys
cap = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from epu import cli
results = []
for case in json.load(open(sys.argv[1])):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(case["argv"])
        except BaseException as exc:
            rc = f"raised {type(exc).__name__}: {exc}"
    results.append({"name": case["name"], "rc": rc, "stderr": err.getvalue()})
json.dump(results, open(sys.argv[2], "w"))
"""

# values no checkpoint header field of the base model accepts, by field;
# `blocks` values that parse describe a model of another size
HEADER_VALUES = {
    "format": ["1", "3", "0", "", "1.0", "one"],
    "class_names": ["crescent", "crescent,disk,moon", ""],
    "blocks": ["", "x", "0x2,1x3", "1x2;1x3", "1x2,1x3000000", "2x8,2x16,3x3000000", "1x2,1x3,1x4"],
    "kernel_size": ["4", "1", "5", "-3", "nan", ""],
    "fc_width": ["0", "-1", "3", "5", "1000000000000", "x"],
    "input_side": ["7", "0", "8", "100000", "x", "16.0"],
    "param_count": ["0", "-5", "704", "706", "x", ""],
}
# header edits that a re-signed file would load with: left unsigned, the
# checksum must refuse them
UNSIGNED_HEADER_VALUES = {
    "class_names": ["disk,crescent"],
    "epoch": ["99"],
    "seed": ["7"],
    "preset": ["base_i"],
}
# values that no PPM header field accepts for a 32x32 image
PPM_VALUES = {
    "magic": [b"P3", b"P5", b"P7", b"p6", b"P9"],
    "width": [b"0", b"-1", b"33", b"3000000", b"abc"],
    "height": [b"0", b"-1", b"33", b"3000000", b"abc"],
    "maxval": [b"0", b"1", b"254", b"256", b"65535", b"abc"],
}
# values that each setting rejects, for a run on the base dataset
CONFIG_VALUES = {
    ("arch", "blocks"): ["0x8", "abc", "1x", "", "1x100000"],
    ("arch", "kernel_size"): ["4", "1", "x", "-3"],
    ("arch", "fc_width"): ["0", "-2", "x"],
    ("arch", "input_side"): ["4", "8", "0", "x", "100000"],
    ("arch", "preset"): ["huge", ""],
    ("train", "lr"): ["nan", "inf", "-1", "x", "1e30"],
    ("train", "epochs"): ["0", "-1", "x", "1.5"],
    ("train", "batch_size"): ["0", "-1", "x"],
    ("train", "holdout"): ["nan", "0", "0.9", "-0.1", "x"],
    ("train", "folds"): ["1", "0", "-2", "x", "1000"],
    ("train", "augment"): ["maybe", "2"],
    ("train", "seed"): ["x", "1.5", "-1"],
    ("pfm", "side"): ["4", "8", "x"],
    ("interpret", "layer"): ["0", "x"],
}
CONFIG_LINES = ["[nosuch]", "[train]\nnosuch = 1", "lr = 0.1", "[train]\nlr 0.1"]
LAYOUTS = [
    "missing_root", "file_as_root", "one_class", "three_classes", "empty_class",
    "not_ppm", "dir_named_ppm", "one_image_per_class", "comma_class",
]


def _mutate_header(blob, field, value, signed=True):
    head, sep, payload = blob.partition(b"\n\n")
    lines = head.split(b"\n")
    n = next(i for i, ln in enumerate(lines) if ln.startswith(field.encode() + b" = "))
    assert lines[n] != field.encode() + b" = " + value.encode()
    lines[n] = field.encode() + b" = " + value.encode()
    edited = b"\n".join(lines) + sep + payload
    return resign(edited) if signed else edited


def _mutate_ppm(blob, field, value):
    # the base image's header is exactly `P6\n32 32\n255\n`
    magic, dims, maxval, payload = blob.split(b"\n", 3)
    width, height = dims.split(b" ")
    parts = {"magic": magic, "width": width, "height": height, "maxval": maxval, field: value}
    return b"%s\n%s %s\n%s\n" % (parts["magic"], parts["width"], parts["height"], parts["maxval"]) + payload


def _layout(root, ds_root, case):
    """A dataset at `root` broken as `case` says, from the base dataset's
    images; a name not in `LAYOUTS` gives two classes of three images."""
    ppm = (ds_root / "disk" / "00000.ppm").read_bytes()
    if case == "missing_root":
        return
    if case == "file_as_root":
        root.write_bytes(ppm)
        return
    classes = {"one_class": ["disk"], "three_classes": ["crescent", "disk", "extra"],
               "comma_class": ["cres,cent", "disk"]}.get(case, ["crescent", "disk"])
    count = 1 if case == "one_image_per_class" else 3
    for cls in classes:
        (root / cls).mkdir(parents=True)
        if not (case == "empty_class" and cls == "disk"):
            for n in range(count):
                (root / cls / f"{n}.ppm").write_bytes(ppm)
    if case == "not_ppm":
        (root / "disk" / "9.ppm").write_bytes(b"hello, not a pixmap")
    if case == "dir_named_ppm":
        # the class's only entry; beside images such a directory is skipped
        for entry in (root / "disk").iterdir():
            entry.unlink()
        (root / "disk" / "0.ppm").mkdir()


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A dataset, a checkpoint trained on it and one of its images."""
    root = tmp_path_factory.mktemp("base")
    ds = root / "ds"
    synth_generate(SynthConfig(count=6, side=32, seed=1), str(ds))
    proc = run_cli(["train", "--data", str(ds), "--out", str(root / "run"), *TRAIN_FLAGS], root)
    assert proc.returncode == 0, proc.stderr
    return ds, root / "run" / "checkpoint.epu"


def _cases(tmp_path, ds, model):
    """(name, argv) of the unbroken commands, then of every broken one."""
    image = ds / "disk" / "00000.ppm"
    n = itertools.count()

    def path(suffix):
        return tmp_path / f"{next(n)}{suffix}"

    def explain(model=model, image=image):
        return ["explain", "--model", str(model), "--image", str(image), "--out", str(path(".out")),
                "--layer", "1"]

    def global_explain(model=model, data=ds):
        return ["global-explain", "--model", str(model), "--data", str(data), "--out", str(path(".out"))]

    def train(data=ds, extra=()):
        return ["train", "--data", str(data), "--out", str(path(".out")), *TRAIN_FLAGS, *extra]

    def pfm(image=image):
        return ["pfm", "--image", str(image), "--out", str(path(".out"))]

    def written(suffix, blob):
        p = path(suffix)
        p.write_bytes(blob)
        return p

    def config(section=None, key=None, value=None):
        """A train run whose settings all come from a config file, with one value replaced."""
        settings = {name: dict(values) for name, values in BASE_SETTINGS.items()}
        if section is not None:
            settings.setdefault(section, {})[key] = value
        text = "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in values.items()) for name, values in settings.items()
        )
        conf = written(".conf", text.encode())
        return ["train", "--data", str(ds), "--out", str(path(".out")), "--config", str(conf)]

    controls = [
        ("control explain", explain()),
        ("control global-explain", global_explain()),
        ("control train", train()),
        ("control train config", config()),
        ("control pfm", pfm()),
        ("control synth", ["synth", "--out", str(path(".out")), "--count", "2"]),
    ]

    ckpt, ppm = model.read_bytes(), image.read_bytes()
    # the cases first probed by hand
    cases = [
        ("probed header huge model", explain(written(".epu", _mutate_header(ckpt, "blocks", "2x8,2x16,3x3000000")))),
        ("probed header not utf-8", explain(written(".epu", ckpt.replace(b"format = 2", b"format = \xff2", 1)))),
        ("probed train input_side", train(extra=["--input-side", "100000"])),
        ("probed train blocks", train(extra=["--blocks", "1x100000"])),
        ("probed train lr 1e30", train(extra=["--lr", "1e30", "--epochs", "3", "--batch-size", "2"])),
        ("probed train lr nan", train(extra=["--lr", "nan"])),
        ("probed train lr inf", train(extra=["--lr", "inf"])),
        ("probed config not utf-8", train(extra=["--config", str(written(".conf", b"[train]\nlr = \xff\n"))])),
        ("probed config is a directory", train(extra=["--config", str(tmp_path)])),
        ("probed ppm huge", explain(image=written(".ppm", b"P6\n3000000 3000000\n255\n" + bytes(30)))),
        ("probed ppm 0x0", explain(image=written(".ppm", b"P6\n0 0\n255\n"))),
        ("probed train holdout nan", train(extra=["--holdout", "nan"])),
        ("probed train seed -1", train(extra=["--seed", "-1"])),
        ("probed synth seed -1", ["synth", "--out", str(path(".out")), "--count", "2", "--seed", "-1"]),
    ]
    for case in ("one_class", "one_image_per_class", "dir_named_ppm"):
        root = path(".data")
        _layout(root, ds, case)
        cases.append((f"probed layout {case}", train(root)))

    # every value of every pool once, each through a command the seed picks
    rng = random.Random(19)
    mutated = []
    for field, values in sorted(HEADER_VALUES.items()):
        for value in values:
            edited = written(".epu", _mutate_header(ckpt, field, value))
            argv = rng.choice((explain, global_explain))(model=edited)
            mutated.append((f"header {argv[0]} {field} = {value!r}", argv))
    for field, values in sorted(UNSIGNED_HEADER_VALUES.items()):
        for value in values:
            edited = written(".epu", _mutate_header(ckpt, field, value, signed=False))
            argv = rng.choice((explain, global_explain))(model=edited)
            mutated.append((f"unsigned header {argv[0]} {field} = {value!r}", argv))
    for field, values in sorted(PPM_VALUES.items()):
        for value in values:
            bad = written(".ppm", _mutate_ppm(ppm, field, value))
            command = rng.choice(("explain", "pfm", "train"))
            if command == "explain":
                argv = explain(image=bad)
            elif command == "pfm":
                argv = pfm(bad)
            else:
                root = path(".data")
                _layout(root, ds, "two_classes")
                os.replace(bad, root / "disk" / "0.ppm")
                argv = train(root)
            mutated.append((f"ppm {command} {field} = {value!r}", argv))
    for (section, key), values in sorted(CONFIG_VALUES.items()):
        mutated += [(f"config {section}.{key} = {value!r}", config(section, key, value)) for value in values]
    for line in CONFIG_LINES:
        mutated.append((f"config line {line!r}", train(extra=["--config", str(written(".conf", line.encode()))])))
    for case in LAYOUTS:
        # a split needs two images per class; scoring does not
        command = "train" if case == "one_image_per_class" else rng.choice(("train", "global-explain"))
        root = path(".data")
        _layout(root, ds, case)
        argv = train(root) if command == "train" else global_explain(data=root)
        mutated.append((f"layout {command} {case}", argv))
    rng.shuffle(mutated)
    return controls, cases + mutated


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
def test_mutated_inputs_exit_with_one_line(tmp_path, base):
    controls, cases = _cases(tmp_path, *base)
    spec = tmp_path / "cases.json"
    spec.write_text(json.dumps([{"name": name, "argv": argv} for name, argv in controls + cases]))
    env = dict(os.environ, EPU_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", LOOP_SCRIPT, str(spec), str(tmp_path / "results.json")],
        capture_output=True, text=True, env=env, cwd=str(tmp_path), timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert [r["name"] for r in results] == [name for name, _ in controls + cases]
    # every command runs to completion on the unbroken inputs
    for r in results[: len(controls)]:
        assert r["rc"] == 0, r
    bad = [r for r in results[len(controls):] if r["rc"] not in (2, 3, 4) or len(r["stderr"].splitlines()) != 1]
    assert bad == []
    # a broken checkpoint is a parse failure, whichever header field broke
    headers = [r for r in results[len(controls):] if "header" in r["name"].split()[:2]]
    pools = list(HEADER_VALUES.values()) + list(UNSIGNED_HEADER_VALUES.values())
    assert len(headers) == 2 + sum(map(len, pools))
    assert [r for r in headers if r["rc"] != 3] == []
