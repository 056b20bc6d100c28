"""The benchmark's three workloads, driven through `epu.cli.main`.

Each workload builds its inputs from the seed in `setup`, issues one CLI
operation per `argv(i)`, and checks that operation's outputs in `check`.
Checks never run inside the timed region.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import shutil
import time
from pathlib import Path

import numpy as np

import epu.cli
import epu.train
from epu import tensor as T
from epu.data import load_dataset, load_images
from epu.train import load_checkpoint, make_samples

# per-class image counts and epochs; "smoke" finishes in seconds
SIZES = {
    "full": {
        "train_per_class": 40,
        "train_epochs": 1,
        "score_per_class": 20,
        "explain_per_class": 600,
        "fixture_per_class": 16,
        "fixture_epochs": 1,
    },
    "smoke": {
        "train_per_class": 6,
        "train_epochs": 1,
        "score_per_class": 4,
        "explain_per_class": 8,
        "fixture_per_class": 4,
        "fixture_epochs": 1,
    },
}
SIDE = 64
HOLDOUT = 0.2
PROB_TOL = 1e-5
FLOAT = r"(-?[0-9.eE+-]+|nan|inf|-inf)"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


PPM_HEADER = re.compile(rb"P6\s+(\d+)\s+(\d+)\s+(\d+)\s")


def call_cli(argv):
    """One `epu.cli.main` call with its output captured.

    Returns (exit code, or the text of an exception, seconds, stdout, stderr).
    `epu.cli.main` is looked up on every call, so a traced run sees its wrapper.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = epu.cli.main([str(a) for a in argv])
        except (Exception, SystemExit) as exc:
            rc = f"{type(exc).__name__}: {exc}"
    return rc, time.perf_counter() - start, out.getvalue(), err.getvalue()


def ppm_problem(path: Path, side: int):
    """None if `path` is a binary P6 PPM of side x side pixels with maxval 255."""
    blob = path.read_bytes()
    match = PPM_HEADER.match(blob)
    if match is None:
        return f"{path.name}: not a P6 header"
    if match.groups() != (str(side).encode(), str(side).encode(), b"255"):
        return f"{path.name}: header {match.groups()}"
    if len(blob) - match.end() != side * side * 3:
        return f"{path.name}: payload holds {len(blob) - match.end()} bytes"
    return None


def svg_problem(path: Path):
    text = path.read_text(encoding="utf-8")
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return f"{path.name}: not an SVG document"
    return None


def clear(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


class Workload:
    def __init__(self, work, seed: int, size: str):
        self.work = Path(work)
        self.seed = seed
        self.size = SIZES[size]
        self.data = self.work / "data"
        self.out = self.work / "out"
        self.hashes: list[str] = []
        self.tracer = None

    def run_cli(self, argv) -> None:
        """Call the CLI during setup; raise unless it exits 0."""
        rc, _, _, err = call_cli(argv)
        if rc != 0:
            raise RuntimeError(f"epu {argv[0]} exited {rc}: {err.strip()}")

    def synth(self, per_class: int) -> None:
        clear(self.data)
        self.run_cli(["synth", "--out", self.data, "--count", per_class, "--side", SIDE, "--seed", self.seed])

    def train_fixture(self) -> None:
        """Checkpoint for score and explain: the desk preset, briefly trained on a
        subset of the workload's own images."""
        subset = self.work / "fixture_data"
        clear(subset)
        for class_dir in sorted(p for p in self.data.iterdir() if p.is_dir()):
            (subset / class_dir.name).mkdir(parents=True)
            for image in sorted(class_dir.iterdir())[: self.size["fixture_per_class"]]:
                shutil.copyfile(image, subset / class_dir.name / image.name)
        clear(self.work / "fixture")
        self.run_cli([
            "train", "--data", subset, "--out", self.work / "fixture", "--preset", "desk",
            "--epochs", self.size["fixture_epochs"], "--batch-size", 64, "--seed", self.seed,
            "--holdout", 0.5,
        ])
        self.hashes.append(sha256(self.checkpoint))

    @property
    def checkpoint(self) -> Path:
        return self.work / "fixture" / "checkpoint.epu"

    def prepare(self) -> None:
        """Runs in the measuring process before the first timed operation."""

    def has_op(self, i: int) -> bool:
        return True

    def begin(self, i: int) -> None:
        if self.tracer is not None:
            self.tracer.request = str(i)

    def trace_hooks(self) -> dict:
        return {}

    def finish(self) -> list:
        """Checks made once after the timed loop; returns problems found."""
        return []


class TrainWorkload(Workload):
    """`epu train`: desk preset, batch 64, augmentation on, holdout 0.2."""

    def setup(self) -> None:
        self.synth(self.size["train_per_class"])

    def argv(self, i):
        return [
            "train", "--data", self.data, "--out", self.out, "--preset", "desk",
            "--epochs", self.size["train_epochs"], "--batch-size", 64, "--seed", self.seed,
            "--augment", "true", "--holdout", HOLDOUT,
        ]

    def items(self, i) -> int:
        # the CLI holds out the first of round(1/holdout) stratified folds,
        # which takes ceil(n / folds) images
        n = 2 * self.size["train_per_class"]
        return self.size["train_epochs"] * (n - math.ceil(n / round(1 / HOLDOUT)))

    def begin(self, i: int) -> None:
        self.op, self.epoch = i, 0
        if self.tracer is not None:
            self.tracer.request = f"{i}:0"

    def trace_hooks(self) -> dict:
        def next_epoch():
            self.epoch += 1
            self.tracer.request = f"{self.op}:{self.epoch}"

        return {"train.train_epoch": next_epoch}

    def check(self, i, stdout: str) -> list:
        epochs = self.size["train_epochs"]
        problems = []
        losses = [float(m) for m in re.findall(rf"^epoch \d+ loss={FLOAT} ", stdout, re.M)]
        if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
            problems.append(f"epoch losses {losses}")
        rows = [json.loads(line) for line in (self.out / "metrics.jsonl").read_text().splitlines()]
        if len(rows) != epochs + 1:
            problems.append(f"metrics.jsonl has {len(rows)} rows, want {epochs + 1}")
        if not all(math.isfinite(r.get("loss", math.nan)) for r in rows[:epochs]):
            problems.append("non-finite loss in metrics.jsonl")
        ckpt = self.out / "checkpoint.epu"
        load_checkpoint(str(ckpt))
        self.hashes.append(sha256(ckpt) + sha256(self.out / "metrics.jsonl"))
        clear(self.out)
        return problems


class ScoreWorkload(Workload):
    """`epu global-explain` over the labeled set with the fixture checkpoint."""

    def setup(self) -> None:
        self.synth(self.size["score_per_class"])
        self.train_fixture()

    def prepare(self) -> None:
        # keep each operation's per-image report for the probability checks
        self.reports, self.first = [], None

        def evaluate(*args, **kwargs):
            report = epu.train.evaluate(*args, **kwargs)
            self.reports.append(report)
            return report

        epu.cli.evaluate = evaluate

    def begin(self, i: int) -> None:
        super().begin(i)
        self.reports.clear()

    def argv(self, i):
        return ["global-explain", "--model", self.checkpoint, "--data", self.data, "--out", self.out]

    def items(self, i) -> int:
        return 2 * self.size["score_per_class"]

    def check(self, i, stdout: str) -> list:
        problems = []
        match = re.match(rf"auc={FLOAT} accuracy={FLOAT} a_int={FLOAT}\n", stdout)
        values = [float(v) for v in match.groups()] if match else []
        if len(values) != 3 or not all(0.0 <= v <= 1.0 for v in values):
            problems.append(f"summary line {stdout.splitlines()[:1]}")
        rows = (self.out / "global-stats.txt").read_text().splitlines()
        pattern = re.compile(rf"class=\S+ pfm=\S+ mean={FLOAT} std={FLOAT}$")
        parsed = [pattern.match(r) for r in rows]
        if len(rows) != 8 or not all(m and all(math.isfinite(float(v)) for v in m.groups()) for m in parsed):
            problems.append(f"global-stats.txt rows {rows}")
        svg = svg_problem(self.out / "global.chart.svg")
        if svg:
            problems.append(svg)
        if len(self.reports) != 1:
            return problems + [f"evaluate ran {len(self.reports)} times"]
        probabilities = [r.probability for r in self.reports[0].records]
        if self.first is None:
            self.first = probabilities
        elif probabilities != self.first:
            problems.append("per-image probabilities differ between operations")
        clear(self.out)
        return problems

    def finish(self) -> list:
        """Per-image probabilities of the first operation against one batched
        forward pass over the same feature-map stacks."""
        model = load_checkpoint(str(self.checkpoint))
        manifest = load_dataset(str(self.data))
        images, labels = load_images(manifest)
        samples = make_samples(images, labels, model.arch.input_side)
        with T.no_grad():
            prob, _ = model.forward_batch(np.stack([s.stack.maps for s in samples]), training=False)
        got = np.array(self.first)
        if got.shape != prob.data.shape:
            return [f"{got.size} records for {prob.data.size} images"]
        worst = float(np.max(np.abs(got - prob.data)))
        return [] if worst <= PROB_TOL else [f"probabilities differ from forward_batch by {worst}"]


class ExplainWorkload(Workload):
    """Closed loop, one client: `epu explain` on distinct images, one after another."""

    ARTIFACTS = ("chart.svg", "prm-lightdark.ppm", "prm-coarsefine.ppm", "prm-blueyellow.ppm",
                 "prm-greenred.ppm", "rss.jsonl")

    def setup(self) -> None:
        self.synth(self.size["explain_per_class"])
        self.train_fixture()

    def prepare(self) -> None:
        self.pool = sorted(str(p) for p in self.data.glob("*/*.ppm"))
        random.Random(self.seed).shuffle(self.pool)
        self.class_names = sorted(p.name for p in self.data.iterdir() if p.is_dir())

    def has_op(self, i: int) -> bool:
        return i < len(self.pool)

    def argv(self, i):
        return ["explain", "--model", self.checkpoint, "--image", self.pool[i], "--out", self.out]

    def items(self, i) -> int:
        return 1

    def check(self, i, stdout: str) -> list:
        problems = []
        match = re.match(rf"predicted=(\S+) probability={FLOAT} beta={FLOAT}\n", stdout)
        if match is None:
            return [f"summary line {stdout.splitlines()[:1]}"]
        label, prob, beta = match.group(1), float(match.group(2)), float(match.group(3))
        if label != self.class_names[int(prob >= 0.5)]:
            problems.append(f"predicted {label} at probability {prob}")
        stem = Path(self.pool[i]).stem
        paths = [self.out / f"{stem}.{name}" for name in self.ARTIFACTS]
        missing = [p.name for p in paths if not p.is_file()]
        if missing:
            return problems + [f"missing artifacts {missing}"]
        problems += [p for p in [svg_problem(paths[0])] + [ppm_problem(p, SIDE) for p in paths[1:5]] if p]
        rows = [json.loads(line) for line in paths[5].read_text().splitlines()]
        if len(rows) != 4:
            problems.append(f"sidecar has {len(rows)} rows")
        # the paper's additive identity: p = sigmoid(beta + sum of per-feature scores)
        logit = beta + sum(r["value"] for r in rows)
        if abs(1.0 / (1.0 + math.exp(-logit)) - prob) > PROB_TOL:
            problems.append(f"sigmoid(beta + sum of scores) != probability {prob}")
        for p in paths:
            p.unlink()
        return problems


WORKLOADS = {"train": TrainWorkload, "score": ScoreWorkload, "explain": ExplainWorkload}
