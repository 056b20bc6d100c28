"""End-to-end command-line tests via subprocess."""

import errno
import json
import math
import os
import platform
import re
import subprocess
import sys
import types
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from conftest import SRC_DIR, format1, resign, run_cli
from epu.data import SynthConfig, encode_ppm, synth_generate
from epu.pfm import RgbImage

TINY_FLAGS = [
    "--blocks", "1x2,1x3",
    "--input-side", "16",
    "--fc-width", "4",
]


@pytest.fixture(scope="session")
def ds_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    synth_generate(SynthConfig(count=6, side=32, seed=1), str(root))
    return root


@pytest.fixture(scope="session")
def trained(tmp_path_factory, ds_root):
    """One CLI training run shared by the explain tests."""
    out = tmp_path_factory.mktemp("run")
    proc = run_cli(
        ["train", "--data", str(ds_root), "--out", str(out), *TINY_FLAGS,
         "--epochs", "2", "--batch-size", "6", "--lr", "0.05", "--seed", "0"],
        cwd=out,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def _tree_bytes(root):
    blobs = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            full = os.path.join(dirpath, f)
            with open(full, "rb") as fh:
                blobs[os.path.relpath(full, root)] = fh.read()
    return blobs


# ---------------------------------------------------------------------------
# synth


def test_synth_deterministic_and_prints_manifest(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    pa = run_cli(["synth", "--out", str(a), "--count", "3", "--side", "16", "--seed", "7"], tmp_path)
    pb = run_cli(["synth", "--out", str(b), "--count", "3", "--side", "16", "--seed", "7"], tmp_path)
    assert pa.returncode == 0 and pb.returncode == 0
    assert pa.stdout.strip().endswith("manifest.tsv")
    assert _tree_bytes(str(a)) == _tree_bytes(str(b))


def test_synth_missing_out_is_usage_error(tmp_path):
    proc = run_cli(["synth", "--count", "3"], tmp_path)
    assert proc.returncode == 2
    assert "usage" in proc.stderr.lower()


def test_synth_zero_count_names_field(tmp_path):
    proc = run_cli(["synth", "--out", str(tmp_path / "x"), "--count", "0"], tmp_path)
    assert proc.returncode == 2
    assert "count" in proc.stderr


# ---------------------------------------------------------------------------
# pfm


def test_pfm_emits_four_planes(tmp_path, ds_root):
    image = ds_root / "crescent" / "00000.ppm"
    out = tmp_path / "pfm"
    proc = run_cli(["pfm", "--image", str(image), "--out", str(out), "--side", "16"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for slug in ("lightdark", "coarsefine", "blueyellow", "greenred"):
        path = out / f"00000.pfm-{slug}.pgm"
        assert path.exists()
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n16 16\n255\n")
        assert len(blob) == len(b"P5\n16 16\n255\n") + 256


def test_pfm_gray_input_gives_midgray_chroma(tmp_path):
    rng = np.random.default_rng(0)
    gray = rng.integers(0, 256, size=(24, 24), dtype=np.uint8)
    pixels = np.repeat(gray[:, :, None], 3, axis=2)
    src = tmp_path / "gray.ppm"
    src.write_bytes(encode_ppm(RgbImage(pixels=pixels)))
    out = tmp_path / "o"
    proc = run_cli(["pfm", "--image", str(src), "--out", str(out), "--side", "24"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for slug in ("blueyellow", "greenred"):
        blob = (out / f"gray.pfm-{slug}.pgm").read_bytes()
        payload = blob[len(b"P5\n24 24\n255\n"):]
        values = set(payload)
        assert values == {128}, f"{slug}: {sorted(values)}"


def test_pfm_takes_no_arch_flags_and_reads_side_from_config(tmp_path, ds_root):
    # pfm once accepted all five arch flags, and --blocks, --kernel-size and
    # --fc-width did nothing; its own --side sets the side
    image = str(ds_root / "disk/00000.ppm")
    for flag in (["--preset", "desk"], ["--blocks", "9x9"], ["--kernel-size", "5"], ["--fc-width", "3"],
                 ["--input-side", "16"]):
        proc = run_cli(["pfm", "--image", image, "--out", str(tmp_path / "p"), *flag], tmp_path)
        assert proc.returncode == 2, flag
        assert f"unrecognized arguments: {' '.join(flag)}" in proc.stderr
    assert not (tmp_path / "p").exists()
    # a config file's [arch] input_side is still the default side
    conf = tmp_path / "c.conf"
    conf.write_text("[arch]\ninput_side = 16\n")
    proc = run_cli(["pfm", "--image", image, "--out", str(tmp_path / "q"), "--config", str(conf)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    blob = (tmp_path / "q" / "00000.pfm-lightdark.pgm").read_bytes()
    assert blob.startswith(b"P5\n16 16\n255\n")


def test_pfm_decode_error_exit3(tmp_path):
    bad = tmp_path / "bad.ppm"
    for blob in (b"not a pixmap at all", b"hello"):
        bad.write_bytes(blob)
        proc = run_cli(["pfm", "--image", str(bad)], tmp_path)
        assert proc.returncode == 3
        # one line that names the file
        assert str(bad) in _one_error_line(proc)


def test_pfm_missing_image_exit3(tmp_path, capsys):
    from epu import cli

    missing = tmp_path / "absent.ppm"
    assert cli.main(["pfm", "--image", str(missing), "--out", str(tmp_path / "q")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(missing) in lines[0]
    assert not (tmp_path / "q").exists()


# ---------------------------------------------------------------------------
# train


def test_train_holdout_artifacts(trained):
    assert (trained / "checkpoint.epu").exists()
    metrics = (trained / "metrics.txt").read_text().splitlines()
    assert metrics[0].startswith("epoch 0 loss=")
    assert metrics[-1].startswith("val auc=")
    rows = [json.loads(line) for line in (trained / "metrics.jsonl").read_text().splitlines()]
    assert rows[-1]["split"] == "val"
    assert 0.0 <= rows[-1]["auc"] <= 1.0
    assert len(rows) == 3


def test_train_deterministic_metrics(tmp_path, ds_root):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        proc = run_cli(
            ["train", "--data", str(ds_root), "--out", str(out), *TINY_FLAGS,
             "--epochs", "1", "--batch-size", "6", "--seed", "3"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    assert (outs[0] / "metrics.txt").read_bytes() == (outs[1] / "metrics.txt").read_bytes()
    assert (outs[0] / "checkpoint.epu").read_bytes() == (outs[1] / "checkpoint.epu").read_bytes()


def test_train_folds_reporting(tmp_path, ds_root):
    out = tmp_path / "cv"
    proc = run_cli(
        ["train", "--data", str(ds_root), "--out", str(out), *TINY_FLAGS,
         "--epochs", "1", "--batch-size", "6", "--folds", "2", "--augment", "false"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    fold_lines = [ln for ln in lines if ln.startswith("fold ")]
    assert len(fold_lines) == 2
    assert all("auc=" in ln for ln in fold_lines)
    assert any(ln.startswith("auc mean=") and "std=" in ln for ln in lines)
    # cross-validation reports only; no checkpoint is written
    assert not (out / "checkpoint.epu").exists()


def test_train_folds_without_out_writes_nothing(tmp_path, ds_root, capsys, monkeypatch):
    # cross-validation only reports, so it needs no output directory; the
    # holdout run still does
    from epu import cli

    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    argv = ["train", "--data", str(ds_root), *TINY_FLAGS, "--epochs", "1", "--batch-size", "6", "--augment", "false"]
    assert cli.main([*argv, "--folds", "2"]) == 0
    captured = capsys.readouterr()
    assert [ln for ln in captured.out.splitlines() if ln.startswith("fold ")] != []
    assert captured.err == ""
    assert list(work.iterdir()) == []
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: no output directory; pass --out or set [output] dir"]


def test_train_divergence_exit4(tmp_path, ds_root):
    # a huge finite rate makes the loss non-finite within the first epoch; the
    # step's finite check stops training with one line and no numpy warning,
    # the same line for a holdout run and for cross-validation; neither run
    # leaves the fresh output directory behind
    for split in ([], ["--folds", "2"]):
        proc = run_cli(
            ["train", "--data", str(ds_root), "--out", str(tmp_path / "dv"), *TINY_FLAGS,
             "--epochs", "3", "--batch-size", "2", "--lr", "1e30", *split],
            tmp_path,
        )
        assert proc.returncode == 4, split
        assert proc.stderr.splitlines() == ["error: non-finite loss nan at epoch 0"], split
        assert not (tmp_path / "dv").exists(), split


@pytest.mark.parametrize("case", ["flag_nan", "flag_inf", "config_nan"])
def test_train_non_finite_lr_exit2(tmp_path, ds_root, capsys, case):
    from epu import cli

    argv = ["train", "--data", str(ds_root), "--out", str(tmp_path / "o"), *TINY_FLAGS, "--epochs", "1"]
    if case == "config_nan":
        cfg = tmp_path / "run.conf"
        cfg.write_text("[train]\nlr = nan\n")
        argv += ["--config", str(cfg)]
    else:
        argv += ["--lr", case.split("_")[1]]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: lr must be finite and >= 0, got {case.split('_')[1]}"]
    assert not (tmp_path / "o").exists()


def test_train_config_file_unknown_key_line(tmp_path, ds_root):
    cfg = tmp_path / "run.conf"
    cfg.write_text("[train]\nepochs = 1\nwat = 9\n")
    proc = run_cli(
        ["train", "--data", str(ds_root), "--out", str(tmp_path / "o"), "--config", str(cfg)],
        tmp_path,
    )
    assert proc.returncode == 2
    assert "line 3" in proc.stderr


def test_train_config_file_not_utf8_exit2(tmp_path, ds_root):
    cfg = tmp_path / "run.conf"
    cfg.write_bytes(b"[train]\nlr = \xff\n")
    proc = run_cli(
        ["train", "--data", str(ds_root), "--out", str(tmp_path / "o"), "--config", str(cfg)],
        tmp_path,
    )
    assert proc.returncode == 2, proc.stderr
    assert str(cfg) in proc.stderr and "Traceback" not in proc.stderr


def test_train_config_file_drives_run(tmp_path, ds_root):
    cfg = tmp_path / "run.conf"
    cfg.write_text(
        "[arch]\nblocks = 1x2\ninput_side = 16\nfc_width = 4\n"
        "[train]\nepochs = 1\nbatch_size = 6\n"
        f"[output]\ndir = {tmp_path / 'from_cfg'}\n"
    )
    proc = run_cli(["train", "--data", str(ds_root), "--config", str(cfg)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "from_cfg" / "checkpoint.epu").exists()


# ---------------------------------------------------------------------------
# explain


def _explain(tmp_path, trained, ds_root, image_rel):
    out = tmp_path / "exp"
    proc = run_cli(
        ["explain", "--model", str(trained / "checkpoint.epu"),
         "--image", str(ds_root / image_rel), "--out", str(out), "--layer", "2"],
        tmp_path,
    )
    return proc, out


def test_explain_artifacts(tmp_path, trained, ds_root):
    proc, out = _explain(tmp_path, trained, ds_root, "disk/00001.ppm")
    assert proc.returncode == 0, proc.stderr
    first = proc.stdout.splitlines()[0]
    assert re.match(r"^predicted=(crescent|disk) probability=[0-9.e-]+ beta=-?[0-9.e-]+$", first)
    assert (out / "00001.chart.svg").exists()
    for slug in ("lightdark", "coarsefine", "blueyellow", "greenred"):
        assert (out / f"00001.prm-{slug}.ppm").exists()
    assert (out / "00001.rss.jsonl").exists()


def test_explain_one_channel_layer(tmp_path, ds_root, capsys):
    # a one-channel conv layer ranks its one map: ceil(1 / 2) = 1 keeps it
    from epu import cli

    run, out = tmp_path / "run", tmp_path / "exp"
    argv = ["train", "--data", str(ds_root), "--out", str(run), "--blocks", "1x1,1x2", "--input-side", "16",
            "--fc-width", "4", "--epochs", "1", "--batch-size", "6"]
    assert cli.main(argv) == 0
    argv = ["explain", "--model", str(run / "checkpoint.epu"), "--image", str(ds_root / "disk/00001.ppm"),
            "--out", str(out), "--layer", "1"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    names = ["chart.svg", "rss.jsonl"] + [f"prm-{s}.ppm" for s in ("lightdark", "coarsefine", "blueyellow", "greenred")]
    assert sorted(p.name for p in out.iterdir()) == sorted(f"00001.{n}" for n in names)


def test_explain_sidecar_resums_to_probability(tmp_path, trained, ds_root):
    proc, out = _explain(tmp_path, trained, ds_root, "crescent/00002.ppm")
    assert proc.returncode == 0, proc.stderr
    first = proc.stdout.splitlines()[0]
    prob = float(re.search(r"probability=([0-9.e-]+)", first).group(1))
    beta = float(re.search(r"beta=(-?[0-9.e-]+)", first).group(1))
    rows = [json.loads(line) for line in (out / "00002.rss.jsonl").read_text().splitlines()]
    assert len(rows) == 4
    total = beta + sum(r["value"] for r in rows)
    assert abs(1.0 / (1.0 + math.exp(-total)) - prob) < 1e-6


def test_explain_chart_values_match_sidecar(tmp_path, trained, ds_root):
    proc, out = _explain(tmp_path, trained, ds_root, "disk/00003.ppm")
    assert proc.returncode == 0, proc.stderr
    rows = {r["pfm"]: r["value"] for r in map(json.loads, (out / "00003.rss.jsonl").read_text().splitlines())}
    svg = ET.fromstring((out / "00003.chart.svg").read_text())
    bars = {el.get("data-label"): float(el.get("data-value")) for el in svg.iter() if el.get("data-value")}
    assert bars.keys() == rows.keys()
    for label, value in rows.items():
        assert math.isclose(bars[label], value, rel_tol=0, abs_tol=1e-12)


def test_explain_failure_after_predict_writes_nothing(tmp_path, trained, ds_root, capsys, monkeypatch):
    # every artifact is built before the first is written
    from epu import cli

    def build_prm(*args, **kwargs):
        raise MemoryError("no room for the relevance map")

    monkeypatch.setattr(cli, "build_prm", build_prm)
    out = tmp_path / "e"
    argv = ["explain", "--model", str(trained / "checkpoint.epu"), "--image", str(ds_root / "disk/00000.ppm"),
            "--out", str(out), "--layer", "2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert not out.exists()


def test_explain_layer_out_of_range(tmp_path, trained, ds_root):
    # the fixture has two conv layers, so 3 is the first one past the end
    for layer in ("9", "3"):
        proc = run_cli(
            ["explain", "--model", str(trained / "checkpoint.epu"),
             "--image", str(ds_root / "disk/00000.ppm"), "--out", str(tmp_path / "o"),
             "--layer", layer],
            tmp_path,
        )
        assert proc.returncode == 2


def test_explain_garbage_checkpoint_exit3(tmp_path, ds_root):
    bad = tmp_path / "bad.epu"
    bad.write_bytes(b"EPU9\nnope")
    proc = run_cli(
        ["explain", "--model", str(bad), "--image", str(ds_root / "disk/00000.ppm")],
        tmp_path,
    )
    assert proc.returncode == 3


def test_explain_header_size_mismatch_exit3(tmp_path, trained, ds_root):
    blob = (trained / "checkpoint.epu").read_bytes()
    for width in (b"3", b"5"):
        edited = tmp_path / f"fc{width.decode()}.epu"
        edited.write_bytes(resign(blob.replace(b"fc_width = 4\n", b"fc_width = " + width + b"\n", 1)))
        proc = run_cli(
            ["explain", "--model", str(edited), "--image", str(ds_root / "disk/00000.ppm"),
             "--out", str(tmp_path / "e")],
            tmp_path,
        )
        assert proc.returncode == 3, proc.stderr
        assert "param_count" in proc.stderr


def test_explain_header_not_utf8_exit3(tmp_path, trained, ds_root):
    edited = tmp_path / "bad.epu"
    blob = (trained / "checkpoint.epu").read_bytes()
    edited.write_bytes(blob.replace(b"format = 2\n", b"format = \xff2\n", 1))
    proc = run_cli(
        ["explain", "--model", str(edited), "--image", str(ds_root / "disk/00000.ppm"),
         "--out", str(tmp_path / "e")],
        tmp_path,
    )
    assert proc.returncode == 3, proc.stderr
    assert "UTF-8" in proc.stderr and "Traceback" not in proc.stderr


def test_explain_header_out_of_range_exit3(tmp_path, trained, ds_root):
    blob = (trained / "checkpoint.epu").read_bytes()
    edits = (
        (b"kernel_size = 3\n", b"kernel_size = 4\n"),
        (b"fc_width = 4\n", b"fc_width = 0\n"),
        (b"class_names = crescent,disk\n", b"class_names = crescent\n"),
        (b"class_names = crescent,disk\n", b"class_names = crescent,disk,moon\n"),
    )
    for n, (old, new) in enumerate(edits):
        assert old in blob
        edited = tmp_path / f"edit{n}.epu"
        edited.write_bytes(resign(blob.replace(old, new, 1)))
        proc = run_cli(
            ["explain", "--model", str(edited), "--image", str(ds_root / "disk/00000.ppm"),
             "--out", str(tmp_path / "e")],
            tmp_path,
        )
        assert proc.returncode == 3, proc.stderr
        assert "bad header field" in proc.stderr


def test_explain_unsigned_header_edit_exit3(tmp_path, trained, ds_root, capsys):
    # the checksum covers the header: swapped class names once loaded and
    # named the other class at the same probability
    from epu import cli

    blob = (trained / "checkpoint.epu").read_bytes()
    edits = (
        (b"class_names = crescent,disk\n", b"class_names = disk,crescent\n"),
        (b"epoch = 2\n", b"epoch = 99\n"),
        (b"seed = 0\n", b"seed = 7\n"),
        (b"preset = desk\n", b"preset = base_i\n"),
    )
    for n, (old, new) in enumerate(edits):
        assert old in blob
        edited = tmp_path / f"edit{n}.epu"
        edited.write_bytes(blob.replace(old, new, 1))
        out = tmp_path / f"e{n}"
        argv = ["explain", "--model", str(edited), "--image", str(ds_root / "disk/00000.ppm"), "--out", str(out)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "error: checksum mismatch\n"
        assert not out.exists()


def test_explain_format1_checkpoint_exit3(tmp_path, trained, ds_root, capsys):
    from epu import cli

    edited = tmp_path / "old.epu"
    edited.write_bytes(format1((trained / "checkpoint.epu").read_bytes()))
    argv = ["explain", "--model", str(edited), "--image", str(ds_root / "disk/00000.ppm"), "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "error: unsupported checkpoint format '1'; this version reads 2\n"


def test_side_8_refused_exit2(tmp_path, ds_root, capsys):
    # at side 8 the light-dark map is all zeros for every image
    from epu import cli

    train_conf, pfm_conf = tmp_path / "train.conf", tmp_path / "pfm.conf"
    train_conf.write_text("[arch]\ninput_side = 8\n")
    pfm_conf.write_text("[pfm]\nside = 8\n")
    train = ["train", "--data", str(ds_root), "--out", str(tmp_path / "out")]
    pfm = ["pfm", "--image", str(ds_root / "disk/00000.ppm"), "--out", str(tmp_path / "out")]
    cases = (
        (train + ["--input-side", "8"], "input_side must be >= 9, got 8"),
        (train + ["--config", str(train_conf)], "input_side must be >= 9, got 8"),
        (pfm + ["--side", "8"], "pfm side must be >= 9, got 8"),
        (pfm + ["--config", str(pfm_conf)], "pfm side must be >= 9, got 8"),
    )
    for argv, message in cases:
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


BAD_PPMS = {
    "magic_p3": b"P3\n2 2\n255\n" + b"0 " * 12,
    "maxval_1": b"P6\n2 2\n1\n" + bytes(12),
    "maxval_65535": b"P6\n2 2\n65535\n" + bytes(24),
    "truncated": b"P6\n4 4\n255\n" + bytes(47),
    "zero_dims": b"P6\n0 0\n255\n",
    "text": b"hello",
    "missing": None,
}


@pytest.mark.parametrize("case", sorted(BAD_PPMS))
def test_explain_bad_image_exit3(tmp_path, trained, case):
    image = tmp_path / "in.ppm"
    if BAD_PPMS[case] is not None:
        image.write_bytes(BAD_PPMS[case])
    proc = run_cli(
        ["explain", "--model", str(trained / "checkpoint.epu"), "--image", str(image),
         "--out", str(tmp_path / "e")],
        tmp_path,
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1, proc.stderr
    assert str(image) in proc.stderr
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("side", [8, 1])
def test_explain_black_and_one_pixel_images(tmp_path, trained, side):
    # constant inputs give constant feature maps: the zero-entropy branch of ranking
    image = tmp_path / "flat.ppm"
    image.write_bytes(encode_ppm(RgbImage(np.zeros((side, side, 3), dtype=np.uint8))))
    out = tmp_path / "e"
    proc = run_cli(
        ["explain", "--model", str(trained / "checkpoint.epu"), "--image", str(image),
         "--out", str(out), "--layer", "1"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    names = ["chart.svg", "rss.jsonl"] + [f"prm-{s}.ppm" for s in ("lightdark", "coarsefine", "blueyellow", "greenred")]
    assert sorted(p.name for p in out.iterdir()) == sorted(f"flat.{n}" for n in names)


def test_train_comma_class_dir_exit2(tmp_path, ds_root):
    data = tmp_path / "data"
    (data / "a,b").mkdir(parents=True)
    (data / "c").mkdir()
    for cls, src in (("a,b", "disk/00000.ppm"), ("c", "crescent/00000.ppm")):
        (data / cls / "0.ppm").write_bytes((ds_root / src).read_bytes())
    proc = run_cli(["train", "--data", str(data), "--out", str(tmp_path / "run"), *TINY_FLAGS], tmp_path)
    assert proc.returncode == 2
    assert "a,b" in proc.stderr


def _one_error_line(proc):
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    return lines[0]


def _layout(tmp_path, ds_root, case):
    """A dataset root broken as `case` describes; returns (root, bad file or None)."""
    root = tmp_path / "data"
    ppm = (ds_root / "disk/00000.ppm").read_bytes()
    if case == "missing_root":
        return root, None
    if case == "file_as_root":
        root.write_bytes(ppm)
        return root, None
    # the trained checkpoint's classes, so global-explain gets as far as the images
    classes = ("crescent", "disk", "extra")[: {"one_class": 1, "three_classes": 3}.get(case, 2)]
    for cls in classes:
        (root / cls).mkdir(parents=True)
        if not (case == "empty_class" and cls == "disk"):
            (root / cls / "0.ppm").write_bytes(ppm)
    if case == "not_ppm":
        bad = root / "disk" / "1.ppm"
        bad.write_bytes(b"hello, not a pixmap")
        return root, bad
    return root, None


LAYOUT_CASES = ["missing_root", "file_as_root", "one_class", "three_classes", "empty_class", "not_ppm"]


@pytest.mark.parametrize("case", LAYOUT_CASES)
@pytest.mark.parametrize("command", ["train", "global-explain"])
def test_dataset_layout_exit_codes(tmp_path, ds_root, trained, command, case):
    root, bad = _layout(tmp_path, ds_root, case)
    out = tmp_path / "out"
    if command == "train":
        args = ["train", "--data", str(root), "--out", str(out), *TINY_FLAGS, "--epochs", "1"]
    else:
        args = ["global-explain", "--model", str(trained / "checkpoint.epu"), "--data", str(root), "--out", str(out)]
    proc = run_cli(args, tmp_path)
    assert proc.returncode == (3 if bad else 2), proc.stderr
    line = _one_error_line(proc)
    if bad:
        assert str(bad) in line
    assert "epoch" not in proc.stdout
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "global-explain"])
def test_dataset_file_that_cannot_be_read_exit2(tmp_path, ds_root, trained, command, capsys, monkeypatch):
    # a file listed by the scan but gone when read is a dataset problem (exit
    # 2), where an `--image` that cannot be read is an I/O error (exit 3)
    from epu import cli

    root = tmp_path / "data"
    for cls in ("crescent", "disk"):
        (root / cls).mkdir(parents=True)
        (root / cls / "0.ppm").write_bytes((ds_root / cls / "00000.ppm").read_bytes())
    gone = root / "disk" / "0.ppm"

    def load_dataset(path):
        manifest = real_load_dataset(path)
        gone.unlink()
        return manifest

    real_load_dataset = cli.load_dataset
    monkeypatch.setattr(cli, "load_dataset", load_dataset)
    out = tmp_path / "out"
    if command == "train":
        args = ["train", "--data", str(root), "--out", str(out), *TINY_FLAGS, "--epochs", "1"]
    else:
        args = ["global-explain", "--model", str(trained / "checkpoint.epu"), "--data", str(root), "--out", str(out)]
    assert cli.main(args) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot read {gone}: "), lines
    assert not out.exists()


def _one_image_per_class(tmp_path, ds_root):
    root = tmp_path / "tiny"
    for cls in ("crescent", "disk"):
        (root / cls).mkdir(parents=True)
        (root / cls / "0.ppm").write_bytes((ds_root / cls / "00000.ppm").read_bytes())
    return root


@pytest.mark.parametrize("split", [["--holdout", "0.5"], ["--folds", "2"]])
def test_train_validation_split_missing_class_fails_before_training(tmp_path, ds_root, split):
    out = tmp_path / "out"
    proc = run_cli(
        ["train", "--data", str(_one_image_per_class(tmp_path, ds_root)), "--out", str(out),
         *TINY_FLAGS, "--epochs", "1", *split],
        tmp_path,
    )
    assert proc.returncode == 2, proc.stderr
    line = _one_error_line(proc)
    assert "validation split" in line and "'disk'" in line
    assert proc.stdout == ""
    assert not out.exists()


# ---------------------------------------------------------------------------
# global-explain


def test_global_explain_artifacts(tmp_path, trained, ds_root):
    out = tmp_path / "g"
    proc = run_cli(
        ["global-explain", "--model", str(trained / "checkpoint.epu"),
         "--data", str(ds_root), "--out", str(out)],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = (out / "global-stats.txt").read_text().splitlines()
    # one row per class per feature map
    assert len(lines) == 2 * 4
    table = {}
    for line in lines:
        m = re.match(r"^class=(\S+) pfm=(\S+) mean=(-?[0-9.e-]+) std=([0-9.e-]+)$", line)
        assert m, line
        table[(m.group(1), m.group(2))] = (float(m.group(3)), float(m.group(4)))
    svg = ET.fromstring((out / "global.chart.svg").read_text())
    chart = {
        (el.get("data-class"), el.get("data-label")): float(el.get("data-mean"))
        for el in svg.iter()
        if el.get("data-mean")
    }
    assert chart.keys() == table.keys()
    for key, mean in chart.items():
        assert math.isclose(mean, table[key][0], rel_tol=0, abs_tol=1e-12)


def test_global_explain_single_class_exit2(tmp_path, trained):
    root = tmp_path / "one"
    (root / "solo").mkdir(parents=True)
    synth_generate(SynthConfig(count=2, side=16, seed=0), str(tmp_path / "tmpds"))
    src = tmp_path / "tmpds" / "crescent" / "00000.ppm"
    (root / "solo" / "a.ppm").write_bytes(src.read_bytes())
    proc = run_cli(
        ["global-explain", "--model", str(trained / "checkpoint.epu"), "--data", str(root)],
        tmp_path,
    )
    assert proc.returncode == 2
    assert "2 classes" in proc.stderr


def test_global_explain_empty_data_exit2(tmp_path, trained):
    root = tmp_path / "empty"
    root.mkdir()
    proc = run_cli(
        ["global-explain", "--model", str(trained / "checkpoint.epu"), "--data", str(root)],
        tmp_path,
    )
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# misc


def test_no_command_exit2(tmp_path):
    proc = run_cli([], tmp_path)
    assert proc.returncode == 2


def test_threads_env_accepted(tmp_path, ds_root):
    out = tmp_path / "p"
    proc = run_cli(
        ["pfm", "--image", str(ds_root / "disk/00000.ppm"), "--out", str(out), "--side", "16"],
        tmp_path,
        env_extra={"EPU_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr


def test_main_builds_parser_once_and_runs_current_command(monkeypatch):
    from epu import cli

    builds, runs = [], []
    real_build = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real_build())
    monkeypatch.setattr(cli, "cmd_synth", lambda args: runs.append(("synth", args.count)) or 0)
    assert cli.main(["synth", "--out", "x", "--count", "3"]) == 0
    # a command replaced after the parser exists is still the one that runs
    monkeypatch.setattr(cli, "cmd_global_explain", lambda args: runs.append(("global", args.data)) or 0)
    assert cli.main(["global-explain", "--model", "m", "--data", "d"]) == 0
    assert cli.main(["synth", "--out", "y", "--count", "5"]) == 0
    assert builds == [1]
    assert runs == [("synth", 3), ("global", "d"), ("synth", 5)]


def test_allocator_setup_runs_once(monkeypatch):
    import ctypes

    from epu import cli

    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(cli, "_ALLOCATOR_SET", False)
    cli._keep_heap_mapped()
    cli._keep_heap_mapped()
    # M_ARENA_MAX, M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    assert calls == [(-8, 1), (-3, 32 << 20), (-1, 1 << 30)]


def test_allocator_setup_without_mallopt_does_nothing(monkeypatch):
    import ctypes

    from epu import cli

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    monkeypatch.setattr(cli, "_ALLOCATOR_SET", False)
    cli._keep_heap_mapped()
    assert cli._ALLOCATOR_SET


FAULTS_SCRIPT = """
import contextlib, io, os, resource, sys
# one core, so training and evaluation fork no worker, and the heap's pages
# are not write-protected by a fork before the second run
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
from epu import cli
from epu.data import SynthConfig, synth_generate

data, out = sys.argv[1], sys.argv[2]
synth_generate(SynthConfig(count=40, side=64, seed=1), data)
argv = ["train", "--data", data, "--out", out, "--preset", "desk", "--epochs", "1",
        "--batch-size", "64", "--seed", "1", "--augment", "true", "--holdout", "0.2"]
faults = []
for _ in range(2):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[1])
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator setting is glibc's")
def test_repeated_train_reuses_heap_pages(tmp_path):
    """A second in-process `epu train` (desk, 80 images at 64 px, batch 64)
    finds its arrays' pages already mapped; without the allocator setting it
    takes about 20k minor faults."""
    env = dict(os.environ, EPU_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", FAULTS_SCRIPT, str(tmp_path / "data"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 1000


# ---------------------------------------------------------------------------
# failures that end in one line


def _scaled_checkpoint(src, dst, factor):
    """`src` with every payload float multiplied by `factor`, CRC recomputed."""
    blob = src.read_bytes()
    start = blob.index(b"\n\n") + 2
    payload = (np.frombuffer(blob[start:-4], dtype="<f4").astype(np.float64) * factor).astype("<f4")
    dst.write_bytes(resign(blob[:start] + payload.tobytes() + blob[-4:]))
    return dst


def test_explain_overflowing_checkpoint_exit2(tmp_path, trained, ds_root, capsys):
    # the forward used to print numpy RuntimeWarnings, then write all six
    # artifacts for probability=nan and exit 0
    from epu import cli

    model = _scaled_checkpoint(trained / "checkpoint.epu", tmp_path / "huge.epu", 1e30)
    out = tmp_path / "e"
    argv = ["explain", "--model", str(model), "--image", str(ds_root / "disk/00000.ppm"), "--out", str(out),
            "--layer", "2"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: the model's output is not finite")
    assert not out.exists()


def test_global_explain_overflowing_checkpoint_exit2(tmp_path, trained, ds_root, capsys):
    from epu import cli

    model = _scaled_checkpoint(trained / "checkpoint.epu", tmp_path / "huge.epu", 1e30)
    argv = ["global-explain", "--model", str(model), "--data", str(ds_root), "--out", str(tmp_path / "g")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: AUC needs finite scores"]


def test_explain_header_declares_huge_model_exit3(tmp_path, trained, ds_root):
    blob = (trained / "checkpoint.epu").read_bytes()
    edited = tmp_path / "huge.epu"
    edited.write_bytes(resign(blob.replace(b"blocks = 1x2,1x3\n", b"blocks = 1x2,1x3000000\n", 1)))
    proc = run_cli(
        ["explain", "--model", str(edited), "--image", str(ds_root / "disk/00000.ppm"),
         "--out", str(tmp_path / "e")],
        tmp_path,
    )
    assert proc.returncode == 3
    assert "header describes a model of" in _one_error_line(proc)


MEMORY_CAP_SCRIPT = """
import resource, sys
# a capped address space makes an impossible allocation fail at once
cap = 2 << 30
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from epu import cli
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_AS")
@pytest.mark.parametrize("case", ["input_side", "blocks"])
def test_settings_too_large_for_memory_exit2(tmp_path, ds_root, case):
    # each used to end in a numpy _ArrayMemoryError traceback, exit 1
    flag = {"input_side": ["--input-side", "100000"], "blocks": ["--blocks", "1x100000"]}[case]
    argv = ["train", "--data", str(ds_root), "--out", str(tmp_path / "t"), "--epochs", "1", *flag]
    env = dict(os.environ, EPU_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", MEMORY_CAP_SCRIPT, *argv],
        capture_output=True, text=True, env=env, cwd=str(tmp_path), timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert _one_error_line(proc).startswith("error: train needs more memory than there is: ")


def test_train_and_global_explain_print_each_line_once(tmp_path, ds_root):
    # stdout is a pipe, so block-buffered when evaluate forks its workers
    out = tmp_path / "t"
    proc = run_cli(
        ["train", "--data", str(ds_root), "--out", str(out), *TINY_FLAGS, "--epochs", "2",
         "--batch-size", "6", "--holdout", "0.5"],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["epoch", "epoch", "val", str(out / "checkpoint.epu")]
    assert proc.stderr == ""
    proc = run_cli(
        ["global-explain", "--model", str(out / "checkpoint.epu"), "--data", str(ds_root),
         "--out", str(tmp_path / "g")],
        tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and lines[0].startswith("auc=") and lines[1:] == [
        str(tmp_path / "g" / "global-stats.txt"), str(tmp_path / "g" / "global.chart.svg")]
    assert proc.stderr == ""


DEAD_WORKER_SCRIPT = """
import os, signal, sys
from epu import cli, train

caller = os.getpid()
real_predict = train.predict

def predict(*args, **kwargs):
    if os.getpid() != caller:
        os.kill(os.getpid(), signal.SIGKILL)
    return real_predict(*args, **kwargs)

train.predict = predict
train._usable_cores = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


TRAINING_WORKER_SCRIPT = """
import errno, os, signal, sys
from epu import cli, model, train

case, argv = sys.argv[1], sys.argv[2:]
caller = os.getpid()
real_forward, real_fork, forks = model.SubNetwork.forward, os.fork, []


def forward(self, *args, **kwargs):
    if os.getpid() != caller:
        if case == "diverged":
            raise train.TrainingDivergedError("non-finite score in a worker")
        if case == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
    return real_forward(self, *args, **kwargs)


def fork():
    # case "refusedN": the OS refuses every fork after the first N
    if case.startswith("refused") and len(forks) >= int(case[-1]):
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
    forks.append(None)
    return real_fork()


model.SubNetwork.forward = forward
os.fork = fork
# sub-networks 1, 2 and 3 each train in a child
train._usable_cores = lambda: 4
code = cli.main(argv)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
sys.exit(code)
"""


def _run_training_worker_case(tmp_path, ds_root, case):
    env = dict(os.environ, EPU_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    argv = ["train", "--data", str(ds_root), "--out", str(tmp_path / "o"), *TINY_FLAGS, "--epochs", "1"]
    # a hang fails through the timeout instead of stalling the suite
    return subprocess.run(
        [sys.executable, "-c", TRAINING_WORKER_SCRIPT, case, *argv],
        capture_output=True, text=True, env=env, cwd=str(tmp_path), timeout=120,
    )


def test_train_worker_divergence_exit4(tmp_path, ds_root):
    proc = _run_training_worker_case(tmp_path, ds_root, "diverged")
    assert proc.returncode == 4, proc.stderr
    assert _one_error_line(proc) == "error: non-finite score in a worker at epoch 0"
    assert proc.stdout == "no child left\n"
    assert not (tmp_path / "o").exists()


def test_train_dead_worker_exit3(tmp_path, ds_root):
    proc = _run_training_worker_case(tmp_path, ds_root, "killed")
    assert proc.returncode == 3, proc.stderr
    assert re.fullmatch(
        r"error: training worker \d+ ended without a reply \(killed by signal 9\)", _one_error_line(proc)
    )
    assert proc.stdout == "no child left\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("allowed", [0, 1])
def test_train_refused_fork_exit3(tmp_path, ds_root, allowed):
    # the OS refuses every worker, or all but the first, which is killed
    proc = _run_training_worker_case(tmp_path, ds_root, f"refused{allowed}")
    assert proc.returncode == 3, proc.stderr
    assert _one_error_line(proc) == (
        f"error: [Errno {errno.EAGAIN}] cannot fork a training worker: {os.strerror(errno.EAGAIN)}"
    )
    assert proc.stdout == "no child left\n"
    assert not (tmp_path / "o").exists()


def test_global_explain_dead_worker_exit3(tmp_path, trained, ds_root):
    env = dict(os.environ, EPU_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    # a hang fails through the timeout instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-c", DEAD_WORKER_SCRIPT, "global-explain", "--model",
         str(trained / "checkpoint.epu"), "--data", str(ds_root), "--out", str(tmp_path / "g")],
        capture_output=True, text=True, env=env, cwd=str(tmp_path), timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert re.fullmatch(
        r"error: evaluation worker \d+ ended without a reply \(killed by signal 9\)", _one_error_line(proc)
    )
    assert proc.stdout == ""
