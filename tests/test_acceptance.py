"""Acceptance gate: one test per criterion, pinned tolerances.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  The end-to-end experiment (criterion 8) and the bitwise
reproducibility check (criterion 10) share one session-scoped training
run driven through `python -m epu.cli` on the checkout's `src`.
"""

import json
import math
import time

import numpy as np
import pytest

from epu import tensor as T
from epu.data import SynthConfig, synth_generate
from epu.interpret import build_prm, yen_index
from epu.metrics import (
    InterpLabel,
    ScoredSet,
    auc,
    ground_truth_interp,
    interpretability_accuracy,
    jaccard_signed,
)
from epu.model import ArchConfig, PRESETS, build_model, predict
from epu.pfm import PfmStack, dwt2_level, idwt2_level, srgb_to_lab, upsample, RgbImage
from epu.tensor import Tensor
from conftest import run_cli
from gradcheck import coord_check, dot, leaf

TINY = ArchConfig(blocks=((1, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=9)


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness, per layer and through the full graph


def _layer_cases(rng):
    """One coord-check case per layer type, freshly sampled."""
    cases = []

    x = leaf(rng.standard_normal((1, 2, 5, 5)))
    k = leaf(rng.standard_normal((3, 2, 3, 3)) * 0.5)
    cases.append((lambda lv: T.tsum(T.conv2d(lv[0], lv[1], padding=1)), [x, k]))

    # permutation spacing keeps every within-window gap far above the probe step
    perm = rng.permutation(2 * 3 * 6 * 6).reshape(2, 3, 6, 6) * 0.1
    x = leaf(perm)
    cases.append((lambda lv: T.tsum(T.maxpool2d(lv[0], window=2)), [x]))

    x = leaf(rng.standard_normal((4, 3, 5, 5)))
    g = leaf(rng.uniform(0.5, 1.5, size=3))
    b = leaf(rng.standard_normal(3) * 0.1)

    def bn_loss(lv):
        rm = np.zeros(3)
        rv = np.ones(3)
        out = T.batchnorm2d(lv[0], lv[1], lv[2], rm, rv, training=True)
        return dot(out, out)

    cases.append((bn_loss, [x, g, b]))

    # batchnorm feeding a conv block, which rebuilds its input from
    # batchnorm's saved arrays in backward; 10 samples run as parts of 8 and 2.
    # A shift far above the normalized spread and positive kernels keep every
    # ReLU well inside its positive side.
    x = leaf(rng.standard_normal((10, 2, 4, 4)))
    g = leaf(rng.uniform(0.5, 1.5, size=2))
    b = leaf(rng.uniform(4.0, 5.0, size=2))
    k = leaf(rng.uniform(0.1, 0.6, size=(2, 2, 3, 3)))
    w_block = rng.standard_normal((10, 2, 2, 2))

    def bn_block_loss(lv):
        out = T.batchnorm2d(lv[0], lv[1], lv[2], np.zeros(2), np.ones(2), training=True)
        return dot(T.conv_block(out, [lv[3]]), w_block)

    cases.append((bn_block_loss, [x, g, b, k]))

    x = leaf(rng.standard_normal((3, 7)))
    w = leaf(rng.standard_normal((7, 2)) * 0.5)
    b = leaf(rng.standard_normal(2) * 0.1)
    cases.append((lambda lv: T.tsum(T.dense(lv[0], lv[1], lv[2])), [x, w, b]))

    # composite elementwise chain, inputs nudged off the relu kink
    vals = rng.standard_normal((4, 5))
    vals = np.where(np.abs(vals) < 0.05, vals + 0.1, vals)
    x = leaf(vals)
    cases.append((lambda lv: dot(T.tanh(T.relu(lv[0])), T.sigmoid(lv[0])), [x]))
    return cases


def _pool_argmax(arr, window):
    b, c, h, w = arr.shape
    ho, wo = -(-h // window), -(-w // window)
    ph, pw = ho * window - h, wo * window - w
    if ph or pw:
        arr = np.pad(arr, ((0, 0), (0, 0), (0, ph), (0, pw)), constant_values=-np.inf)
    tiles = arr.reshape(b, c, ho, window, wo, window).transpose(0, 1, 2, 4, 3, 5)
    return np.ascontiguousarray(tiles).reshape(b, c, ho, wo, window * window).argmax(axis=-1)


class _DecisionRecorder:
    """Patches the array helpers that every ReLU and max-pool runs through, in
    `conv_block` as in `relu` and `maxpool2d`, so a forward pass logs its
    branch decisions: a ReLU's output sign pattern, a pool's argmax."""

    def __init__(self):
        self.sink = None

    def __enter__(self):
        self._relu, self._pool = T._relu_array, T._pool_max

        def relu_rec(a, out=None):
            res = self._relu(a, out=out)
            if self.sink is not None:
                self.sink.append(res > 0)
            return res

        def pool_rec(xd, record):
            if self.sink is not None:
                self.sink.append(_pool_argmax(xd, T.POOL_WINDOW))
            return self._pool(xd, record)

        T._relu_array, T._pool_max = relu_rec, pool_rec
        return self

    def __exit__(self, *exc):
        T._relu_array, T._pool_max = self._relu, self._pool
        return False

    def run(self, fn):
        self.sink = []
        value = fn()
        patterns, self.sink = self.sink, None
        return value, patterns


def _same_patterns(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def test_c01_recorder_logs_every_decision():
    # per sub-network of a desk forward: in each block, part by part, the
    # inner conv ReLUs, the pool and the pooled ReLU; then the dense ReLU on
    # the whole batch; in training and in predict
    arch = PRESETS["desk"]
    model = build_model(arch, seed=0)
    batch = 19  # parts of 8, 8 and 3 samples
    stacks = np.random.default_rng(0).uniform(-1, 1, size=(batch, 4, 64, 64)).astype(np.float32)
    parts = (8, 8, 3)
    want = []
    side = arch.input_side
    for count, depth in arch.blocks:
        for n in parts:
            want += [("relu", (n, depth, side, side))] * (count - 1)
            want += [("pool", (n, depth, side // 2, side // 2)), ("relu", (n, depth, side // 2, side // 2))]
        side //= 2
    want += [("relu", (batch, arch.fc_width))]
    assert len(want) == 10 * len(parts) + 1
    with _DecisionRecorder() as rec:
        for run in (lambda: model.forward_batch(stacks, training=True), lambda: predict(model, stacks, layer=6)):
            _, logged = rec.run(run)
            got = [("relu" if p.dtype == bool else "pool", p.shape) for p in logged]
            assert got == want * model.n_pfms


def test_c01_gradient_correctness():
    t0 = time.monotonic()
    for seed in range(10):
        rng = np.random.default_rng([11, seed])
        for make_loss, leaves in _layer_cases(rng):
            failures = coord_check(make_loss, leaves, rng, step=1e-3, rtol=1e-3, coords=6)
            assert not failures, f"seed {seed}: {failures[:3]}"

    # Full desk-preset graph in float64, per-coordinate central differences.
    # A probe is admissible only when every relu state and pool argmax is
    # identical at theta+h and theta-h: the segment then lies inside one
    # smooth region and the secant measures the true derivative. A secant
    # spanning a branch flip measures a slope blend instead, so those
    # coordinates are skipped rather than compared.
    step, rtol = 1e-3, 1e-3
    with _DecisionRecorder() as rec:
        for seed in range(10):
            rng = np.random.default_rng([12, seed])
            model = build_model(PRESETS["desk"], seed=seed)
            params = model.parameters()
            for t in params:
                t.data = t.data.astype(np.float64)
            stack = rng.uniform(-1.0, 1.0, size=(1, 4, 64, 64))
            label = np.array([seed % 2], dtype=np.float64)

            def loss_value():
                return float(loss_node().data)

            def loss_node():
                _p, scores = model.forward_batch(stack, training=True)
                return T.bce_with_logits(model.logits(scores), label)

            T.zero_grads(params)
            T.backward(loss_node())
            _, base = rec.run(loss_value)
            valid = 0
            for li in rng.choice(len(params), size=40, replace=False):
                if valid >= 12:
                    break
                t = params[int(li)]
                fi = int(rng.integers(t.data.size))
                ana = float(t.grad.flat[fi])
                orig = t.data.flat[fi]
                t.data.flat[fi] = orig + step
                lp, pp = rec.run(loss_value)
                t.data.flat[fi] = orig - step
                lm, pm = rec.run(loss_value)
                t.data.flat[fi] = orig
                if not (_same_patterns(pp, base) and _same_patterns(pm, base)):
                    continue
                valid += 1
                num = (lp - lm) / (2.0 * step)
                denom = max(abs(num), abs(ana))
                rel = abs(num - ana) if denom < 1e-7 else abs(num - ana) / denom
                assert rel < rtol, f"seed {seed} leaf {li} coord {fi}: {ana} vs {num}"
            assert valid >= 8, f"seed {seed}: only {valid} admissible probes"
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# criterion 2: additive identity between probability and score sum


def test_c02_additive_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng([21, seed])
        model = build_model(TINY, seed=seed)
        stack = PfmStack(maps=rng.uniform(-1, 1, size=(4, 9, 9)).astype(np.float32))
        prob, scores = predict(model, stack)
        logit = float(model.beta.data[0]) + float(scores[0].sum())
        rebuilt = 1.0 / (1.0 + math.exp(-logit))
        worst = max(worst, abs(rebuilt - prob[0]))
    assert worst <= 1e-6, f"worst deviation {worst}"


# ---------------------------------------------------------------------------
# criterion 3: wavelet analysis/synthesis


def test_c03_dwt_roundtrip():
    rng = np.random.default_rng(31)
    for _ in range(20):
        h = 2 * int(rng.integers(1, 17))
        w = 2 * int(rng.integers(1, 17))
        plane = rng.standard_normal((h, w))
        rebuilt = idwt2_level(*dwt2_level(plane))
        assert np.max(np.abs(rebuilt - plane)) <= 1e-6
    ll, lh, hl, hh = dwt2_level(np.full((8, 8), 3.0))
    assert np.allclose(ll, 6.0, atol=1e-12)
    for band in (lh, hl, hh):
        assert np.allclose(band, 0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# criterion 4: color conversion


LAB_REFERENCE = {
    (255, 0, 0): (53.240794, 80.092460, 67.203197),
    (0, 255, 0): (87.734722, -86.182716, 83.179321),
    (0, 0, 255): (32.297011, 79.187520, -107.860162),
    (255, 255, 0): (97.139267, -21.553748, 94.477975),
}


def _lab_of(r, g, b):
    img = RgbImage(pixels=np.array([[[r, g, b]]], dtype=np.uint8))
    lab = srgb_to_lab(img)
    return float(lab.L[0, 0]), float(lab.a[0, 0]), float(lab.b[0, 0])


def test_c04_color_correctness():
    L, a, b = _lab_of(255, 255, 255)
    assert abs(L - 100.0) < 0.01 and abs(a) < 0.01 and abs(b) < 0.01
    for g in range(0, 256, 5):
        _, a, b = _lab_of(g, g, g)
        assert abs(a) < 0.01 and abs(b) < 0.01
    for rgb, want in LAB_REFERENCE.items():
        got = _lab_of(*rgb)
        for gv, wv in zip(got, want):
            assert abs(gv - wv) < 0.1


# ---------------------------------------------------------------------------
# criterion 5: threshold selection equals exhaustive search


def _brute_yen_index(hist):
    p = hist.astype(np.float64) / hist.sum()
    best = -np.inf
    best_t = None
    for t in range(len(p) - 1):
        p1 = p[: t + 1].sum()
        p2 = 1.0 - p1
        if p1 <= 0.0 or p2 <= 0.0:
            continue
        s1 = float((p[: t + 1] ** 2).sum())
        s2 = float((p[t + 1 :] ** 2).sum())
        if s1 <= 0.0 or s2 <= 0.0:
            continue
        tc = -math.log(s1 / (p1 * p1)) - math.log(s2 / (p2 * p2))
        if tc > best:
            best = tc
            best_t = t
    return best_t


def test_c05_yen_threshold_exhaustive():
    rng = np.random.default_rng(51)
    for _ in range(20):
        hist = rng.integers(0, 40, size=256).astype(np.float64)
        hist[rng.integers(0, 256)] += 500  # ensure a dominant mode
        if np.count_nonzero(hist) < 2:
            hist[0] += 1
            hist[-1] += 1
        assert yen_index(hist) == _brute_yen_index(hist)


# ---------------------------------------------------------------------------
# criterion 6: ranking quality equals the pairwise oracle


def _brute_auc(scores, labels):
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_c06_auc_oracle():
    worked = auc(ScoredSet(scores=np.array([0.9, 0.8, 0.7, 0.1]), labels=np.array([1, 0, 1, 0])))
    assert worked == 0.75
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(4, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, size=n), 2)  # ties on purpose
        got = auc(ScoredSet(scores=scores, labels=labels))
        assert abs(got - _brute_auc(scores, labels)) <= 1e-9


# ---------------------------------------------------------------------------
# criterion 7: interpretability metric


def test_c07_interpretability_metric():
    rng = np.random.default_rng(71)
    labels = rng.integers(0, 2, size=25)
    rows = np.stack(
        [np.asarray(ground_truth_interp(int(y), 4).signs, dtype=np.float64) * 0.5 for y in labels]
    )
    assert interpretability_accuracy(rows, labels) == 1.0

    n = 4
    target = np.ones(n, dtype=np.int64)
    for m in range(0, n + 1):
        predicted = target.copy()
        predicted[m:] = -1  # n - m mismatching positions
        a_tokens = {(i, int(s)) for i, s in enumerate(predicted)}
        b_tokens = {(i, int(s)) for i, s in enumerate(target)}
        enumerated = len(a_tokens & b_tokens) / len(a_tokens | b_tokens)
        got = jaccard_signed(InterpLabel(predicted), InterpLabel(target))
        assert got == enumerated
        assert math.isclose(got, m / (2 * n - m) if m else 0.0, rel_tol=0, abs_tol=1e-15)


# ---------------------------------------------------------------------------
# criterion 8 and 10: the scaled experiment, run through the CLI


@pytest.fixture(scope="session")
def experiment(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    env = {"EPU_THREADS": "1"}
    t0 = time.monotonic()
    synth = run_cli(
        ["synth", "--out", str(base / "ds"), "--count", "200", "--side", "64", "--seed", "7"],
        base,
        env,
    )
    assert synth.returncode == 0, synth.stderr
    train = run_cli(
        ["train", "--data", str(base / "ds"), "--out", str(base / "run_a"),
         "--epochs", "12", "--seed", "0"],
        base,
        env,
    )
    elapsed = time.monotonic() - t0
    assert train.returncode == 0, train.stderr
    return {"base": base, "elapsed": elapsed}


def test_c08_end_to_end_experiment(experiment):
    rows = [
        json.loads(line)
        for line in (experiment["base"] / "run_a" / "metrics.jsonl").read_text().splitlines()
    ]
    val = rows[-1]
    assert val["split"] == "val"
    assert val["auc"] >= 0.95, f"held-out AUC {val['auc']}"
    assert val["a_int"] >= 0.80, f"held-out a_int {val['a_int']}"
    assert experiment["elapsed"] <= 600.0, f"runtime {experiment['elapsed']:.0f}s"


def test_c10_bitwise_reproducibility(experiment):
    base = experiment["base"]
    train = run_cli(
        ["train", "--data", str(base / "ds"), "--out", str(base / "run_b"),
         "--epochs", "12", "--seed", "0"],
        base,
        {"EPU_THREADS": "1"},
    )
    assert train.returncode == 0, train.stderr
    for name in ("checkpoint.epu", "metrics.txt", "metrics.jsonl"):
        a = (base / "run_a" / name).read_bytes()
        b = (base / "run_b" / name).read_bytes()
        assert a == b, f"{name} differs between identical runs"


# ---------------------------------------------------------------------------
# criterion 9: relevance-map pipeline equals per-stage oracles


def _oracle_entropy(plane, bins=256):
    lo, hi = float(plane.min()), float(plane.max())
    if hi - lo <= 0.0:
        return 0.0
    norm = (plane - lo) / (hi - lo)
    hist, _ = np.histogram(norm, bins=bins, range=(0.0, 1.0))
    p = hist[hist > 0] / norm.size
    return float(-(p * np.log2(p)).sum())


def test_c09_prm_pipeline():
    rng = np.random.default_rng(91)
    for case in range(20):
        n = int(rng.integers(2, 9))
        h = int(rng.integers(6, 14))
        w = int(rng.integers(6, 14))
        maps = rng.standard_normal((n, h, w)).astype(np.float32)
        out_h, out_w = 2 * h + 3, 2 * w + 1

        prm = build_prm(maps, out_h=out_h, out_w=out_w)

        ents = np.array([_oracle_entropy(m) for m in maps])
        order = np.argsort(-ents, kind="stable")
        kept = np.sort(order[: math.ceil(n / 2)])
        mean = maps[kept].astype(np.float64).mean(axis=0)
        lo, hi = float(mean.min()), float(mean.max())
        norm = np.zeros_like(mean) if hi - lo <= 0 else (mean - lo) / (hi - lo)
        plane = upsample(norm, out_h, out_w)
        assert prm.plane.shape == (out_h, out_w)
        assert np.allclose(prm.plane, plane, atol=1e-6), f"case {case}: plane mismatch"

        hist, _ = np.histogram(plane, bins=256, range=(0.0, 1.0))
        t = _brute_yen_index(hist.astype(np.float64))
        want = (t + 1) / 256.0
        assert prm.threshold == want, f"case {case}: threshold {prm.threshold} vs {want}"
        assert np.array_equal(prm.mask, plane >= want)

        # masks shrink monotonically as the cut rises
        lower = prm.plane >= max(want - 0.1, 0.0)
        higher = prm.plane >= min(want + 0.1, 1.0)
        assert np.all(lower[prm.mask]) and np.all(prm.mask[higher])

    flat = np.zeros((3, 6, 6), dtype=np.float32)
    prm = build_prm(flat, out_h=12, out_w=12)
    assert prm.threshold is None and not prm.mask.any()
