"""Loss, epoch loop, augmentation, k-fold, and checkpoint tests."""

import math
import os
import re
import threading
import time
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest

from conftest import format1, resign
from epu import tensor as T
from epu import train as train_module
from epu.errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    DimensionError,
    TrainingDivergedError,
)
from epu.data import SynthConfig, load_dataset, load_images, synth_generate
from epu.model import ArchConfig, PRESETS, build_model, state_size
from epu.pfm import PfmStack, RgbImage
from epu.tensor import Tensor
from epu.train import (
    Sample,
    TrainConfig,
    apply_orientation,
    cross_validate,
    draw_orientations,
    evaluate,
    fit,
    kfold_split,
    load_checkpoint,
    make_samples,
    save_checkpoint,
    summarize_folds,
    train_epoch,
)

TINY = ArchConfig(blocks=((1, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=9)


def _separable_images(rng, per_class=8, side=9):
    """(images, labels): class 0 images are noisy blue, class 1 noisy yellow."""
    images, labels = [], []
    for label, color in ((0, (60, 60, 200)), (1, (200, 200, 60))):
        for _ in range(per_class):
            pixels = np.clip(rng.normal(color, 20, size=(side, side, 3)), 0, 255)
            images.append(RgbImage(pixels.astype(np.uint8)))
            labels.append(label)
    return images, np.array(labels)


def _old_path_stacks(images, labels, side):
    """Stacks and labels as training built them before it extracted maps per
    batch: `make_samples`, then `np.stack` of the batch's stacks."""
    samples = make_samples(images, labels, side)
    return np.stack([s.stack.maps for s in samples]), np.array([s.label for s in samples], dtype=np.float32)


# ---------------------------------------------------------------------------
# loss


def _bce(z, y, dtype=np.float32):
    return T.bce_with_logits(Tensor(np.asarray(z, dtype=dtype)), np.asarray(y, dtype=dtype))


def _clipped_composite(z, y):
    """Per-sample loss as the removed loss built it: probabilities clipped to
    [1e-7, 1 - 1e-7], then -(y log p + (1 - y) log(1 - p)), in float64."""
    p = np.clip(1.0 / (1.0 + np.exp(-z)), 1e-7, 1.0 - 1e-7)
    return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))


def test_bce_halfway():
    for y in (0.0, 1.0):
        assert math.isclose(float(_bce([0.0], [y]).data), math.log(2.0), rel_tol=1e-6)


def test_bce_label_symmetry():
    z = np.array([-3.5, -0.25, 0.0, 1.0, 7.0], dtype=np.float32)
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0], dtype=np.float32)
    assert float(_bce(z, y).data) == float(_bce(-z, 1.0 - y).data)


def test_bce_finite_at_extreme_logits():
    for dtype in (np.float32, np.float64):
        z = Tensor(np.array([1e4, -1e4, 1e4, -1e4], dtype=dtype), requires_grad=True)
        loss = T.bce_with_logits(z, np.array([1.0, 0.0, 0.0, 1.0], dtype=dtype))
        T.backward(loss)
        assert loss.data.dtype == dtype and z.grad.dtype == dtype
        # two confident right answers cost 0, two confident wrong ones 1e4 each
        assert float(loss.data) == 5000.0
        assert np.array_equal(z.grad, np.array([0.0, 0.0, 0.25, -0.25], dtype=dtype))


def test_bce_matches_clipped_composite():
    # the clip binds only where |z| exceeds about 16; below it both losses agree
    z = np.linspace(-15.9, 15.9, 53)
    for dtype in (np.float32, np.float64):
        zd = z.astype(dtype)
        for y in (0.0, 1.0):
            want = _clipped_composite(zd.astype(np.float64), y)
            got = [float(_bce(zd[i : i + 1], [y], dtype).data) for i in range(len(zd))]
            np.testing.assert_allclose(got, want, rtol=1e-6)
            batch = float(_bce(zd, np.full(len(zd), y), dtype).data)
            assert math.isclose(batch, want.mean(), rel_tol=1e-6)


def test_bce_gradient():
    z = Tensor(np.array([-2.0, -0.5, 0.0, 0.5, 3.0]), requires_grad=True)
    y = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    T.backward(T.bce_with_logits(z, y))
    want = (1.0 / (1.0 + np.exp(-z.data)) - y) / 5
    np.testing.assert_allclose(z.grad, want, rtol=1e-12, atol=0)


def test_bce_rejects_mismatched_shapes():
    z = Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    with pytest.raises(DimensionError):
        T.bce_with_logits(z, np.zeros((4, 1), dtype=np.float32))
    with pytest.raises(DimensionError):
        T.bce_with_logits(z, np.zeros(3, dtype=np.float32))
    with pytest.raises(DimensionError):
        T.bce_with_logits(T.reshape(z, (4, 1)), np.zeros((4, 1), dtype=np.float32))


# ---------------------------------------------------------------------------
# train_epoch


def test_train_epoch_empty_rejected():
    model = build_model(TINY, seed=0)
    with pytest.raises(ContractError):
        train_epoch(model, [], [], TrainConfig(epochs=1))


def test_train_epoch_zero_lr_keeps_parameters():
    rng = np.random.default_rng(0)
    model = build_model(TINY, seed=1)
    before = [p.data.copy() for p in model.parameters()]
    images, labels = _separable_images(rng, per_class=4)
    stats = train_epoch(model, images, labels, TrainConfig(batch_size=4, lr=0.0, epochs=1), rng)
    assert math.isfinite(stats.loss)
    for prev, param in zip(before, model.parameters()):
        assert np.array_equal(prev, param.data)


def test_train_epoch_deterministic():
    losses = []
    for _ in range(2):
        model = build_model(TINY, seed=3)
        images, labels = _separable_images(np.random.default_rng(7), per_class=4)
        stats = train_epoch(
            model, images, labels, TrainConfig(batch_size=4, lr=0.01, epochs=1), np.random.default_rng(5)
        )
        losses.append(stats.loss)
    assert losses[0] == losses[1]


def test_train_epoch_loss_decreases_on_separable_data():
    model = build_model(TINY, seed=0)
    images, labels = _separable_images(np.random.default_rng(2), per_class=8)
    config = TrainConfig(batch_size=16, lr=0.01, epochs=1)
    losses = []
    for epoch in range(5):
        rng = np.random.default_rng([0, epoch])
        losses.append(train_epoch(model, images, labels, config, rng).loss)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_epoch_updates_bias_and_every_subnet():
    # every feature map varies at the smallest side, the light-dark one too
    model = build_model(TINY, seed=4)
    beta_before = model.beta.data.copy()
    subnet_before = [sn.parameters()[0].data.copy() for sn in model.subnets]
    images, labels = _separable_images(np.random.default_rng(1), per_class=4)
    train_epoch(model, images, labels, TrainConfig(batch_size=8, lr=0.05, epochs=1), np.random.default_rng(0))
    assert not np.array_equal(beta_before, model.beta.data)
    for prev, sn in zip(subnet_before, model.subnets):
        assert not np.array_equal(prev, sn.parameters()[0].data)


def test_train_epoch_rejects_bad_labels():
    model = build_model(TINY, seed=0)
    images = [RgbImage(np.zeros((9, 9, 3), np.uint8))] * 3
    for bad in (2, -1):
        with pytest.raises(ContractError, match=f"labels must be 0 or 1, got {bad}"):
            train_epoch(model, images, np.array([0, bad, 1]), TrainConfig(epochs=1))
    with pytest.raises(ContractError, match="one label per image"):
        train_epoch(model, images, np.array([0, 1]), TrainConfig(epochs=1))


def test_train_epoch_matches_whole_graph_step():
    # the split step, in one process per usable core, updates exactly as one
    # sweep over the whole graph, with batches of one part and of three
    # micro-batches
    for batch_size, per_class in ((4, 5), (2 * T.MICRO_BATCH + 3, 20)):
        images, labels = _separable_images(np.random.default_rng(6), per_class=per_class)
        config = TrainConfig(batch_size=batch_size, lr=0.05, epochs=1)
        model = build_model(TINY, seed=2)
        train_epoch(model, images, labels, config, np.random.default_rng(8))

        ref = build_model(TINY, seed=2)
        params = ref.parameters()
        stacks, targets = _old_path_stacks(images, labels, TINY.input_side)
        order = np.random.default_rng(8).permutation(len(images))
        for start in range(0, len(images), config.batch_size):
            idx = order[start : start + config.batch_size]
            _, scores = ref.forward_batch(stacks[idx], training=True)
            loss = T.bce_with_logits(ref.logits(scores), targets[idx])
            T.zero_grads(params)
            T.backward(loss)
            T.sgd_step(params, config.lr)

        assert len(images) > 2 * config.batch_size
        for i, (got, want) in enumerate(zip(model.state_arrays(), ref.state_arrays())):
            assert np.array_equal(got, want), (batch_size, i)


def test_train_step_rejects_non_finite_buffers():
    # the loss stays finite: training-mode batchnorm does not read its buffers
    model = build_model(TINY, seed=0)
    model.subnets[1].blocks[0].running_var[0] = np.inf
    images, labels = _separable_images(np.random.default_rng(0), per_class=2)
    with pytest.raises(TrainingDivergedError, match="non-finite weights or batchnorm buffers"):
        train_epoch(model, images, labels, TrainConfig(batch_size=4, lr=0.01, epochs=1))


def test_train_step_frees_each_graph_as_its_sweep_passes(monkeypatch):
    real = T.backward
    alive = []

    def backward(root, grad=None):
        closures, stack = [], [root._op]
        while stack:
            op = stack.pop()
            closures.append(weakref.ref(op.grad_fn))
            stack.extend(v for v in op.inputs if isinstance(v, T._Op))
        real(root, grad)
        # this frame and the step still hold the root, but none of its closures
        alive.append(sum(r() is not None for r in closures))

    monkeypatch.setattr(T, "backward", backward)
    # every sweep in this process
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 1)
    model = build_model(TINY, seed=0)
    images, labels = _separable_images(np.random.default_rng(0), per_class=2)
    train_epoch(model, images, labels, TrainConfig(batch_size=4, epochs=1))
    # one step: the head's sweep, then one per score
    assert alive == [0] * (1 + model.n_pfms)


def _copy_rows(stacks):
    """A `_train_step` fill that copies rows of the (B, 4, S, S) `stacks`."""

    def fill(out, lo, hi):
        out[...] = stacks[lo:hi]

    return fill


def test_train_step_peak_memory(monkeypatch):
    # one desk step at batch 64 in one process, where the traced peak repeats
    # exactly: 22.02 MB with the max-pool winner index at 2 bits per pooled
    # element, 24.67 MB at one byte, 26.24 MB when the dense head also keeps
    # the last batchnorm output, 37.52 MB when blocks fed by batchnorm keep its
    # output as well, 42.16 MB when every vertex's arrays stay until the step
    # returns (numpy 2.4.6)
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 1)
    model = build_model(PRESETS["desk"], seed=0)
    stacks = np.random.default_rng(0).uniform(-1, 1, size=(64, 4, 64, 64)).astype(np.float32)
    labels = (np.arange(64) % 2).astype(np.float32)
    tracemalloc.start()
    try:
        train_module._train_step(model, _copy_rows(stacks), labels, 0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 22.3e6, peak


def test_train_epoch_worker_error_reaches_caller(monkeypatch):
    # with four processes, sub-network 2 runs in a forked worker; its error
    # reaches the caller with its type, and no worker is left behind
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 4)
    model = build_model(TINY, seed=0)

    def forward(x, training, layer=None):
        raise DimensionError(f"subnet rejected its input in {os.getpid()}")

    model.subnets[2].forward = forward
    images, labels = _separable_images(np.random.default_rng(0), per_class=2)
    with pytest.raises(DimensionError, match=r"subnet rejected its input in \d+") as info:
        train_epoch(model, images, labels, TrainConfig(batch_size=4, epochs=1))
    assert int(str(info.value).split()[-1]) != os.getpid()
    _assert_no_child_left()


def test_sample_rejects_negative_label():
    with pytest.raises(ContractError):
        Sample(stack=PfmStack(maps=np.zeros((4, 9, 9), np.float32)), label=-1)


def test_loss_matches_bce_of_score_sum():
    # the logit the loss sees equals beta + sum of scores
    from epu.model import predict

    model = build_model(TINY, seed=9)
    stacks, labels = _old_path_stacks(*_separable_images(np.random.default_rng(3), per_class=3), TINY.input_side)
    _, scores = model.forward_batch(stacks, training=False)
    direct = float(T.bce_with_logits(model.logits(scores), labels).data)
    rebuilt = []
    for maps in stacks:
        _, scores = predict(model, maps[None])
        rebuilt.append(model.beta.data[0] + scores[0].sum())
    recomputed = float(T.bce_with_logits(np.array(rebuilt), labels).data)
    assert math.isclose(direct, recomputed, rel_tol=1e-5)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(folds=1)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr=-0.1)
    for lr in (math.nan, math.inf):
        with pytest.raises(ConfigError):
            TrainConfig(lr=lr)


# ---------------------------------------------------------------------------
# augmentation


def _gray(values):
    arr = np.asarray(values, dtype=np.uint8)
    return RgbImage(pixels=np.repeat(arr[:, :, None], 3, axis=2))


def test_hflip_is_involution():
    img = _gray([[1, 2], [3, 4]])
    twice = apply_orientation(apply_orientation(img, 1), 1)
    assert np.array_equal(twice.pixels, img.pixels)


def test_rot90_four_times_identity():
    img = _gray([[1, 2], [3, 4]])
    out = img
    for _ in range(4):
        out = apply_orientation(out, 3)
    assert np.array_equal(out.pixels, img.pixels)


def test_hflip_permutation():
    out = apply_orientation(_gray([[1, 2], [3, 4]]), 1)
    assert out.pixels[:, :, 0].tolist() == [[2, 1], [4, 3]]


def test_vflip_permutation():
    out = apply_orientation(_gray([[1, 2], [3, 4]]), 2)
    assert out.pixels[:, :, 0].tolist() == [[3, 4], [1, 2]]


def test_orientation_bad_op():
    with pytest.raises(ConfigError):
        apply_orientation(_gray([[1]]), 6)


def test_augment_covers_all_orientations():
    img = _gray([[1, 2], [3, 4]])
    variants = [apply_orientation(img, op).pixels.tobytes() for op in range(6)]
    assert len(set(variants)) == 6
    ops = draw_orientations(600, np.random.default_rng(0))
    counts = np.bincount(ops, minlength=6)
    assert len(counts) == 6 and counts.min() > 0 and counts.max() < 200
    # one scalar draw per op: the stream that augmented checkpoints were trained on
    rng = np.random.default_rng(0)
    assert ops.tolist() == [int(rng.integers(6)) for _ in range(600)]


def test_augment_deterministic():
    a = draw_orientations(8, np.random.default_rng(4))
    b = draw_orientations(8, np.random.default_rng(4))
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# k-fold


def test_kfold_singleton_folds():
    labels = [0] * 5 + [1] * 5
    splits = kfold_split(labels, folds=10, seed=0)
    assert len(splits) == 10
    for train, val in splits:
        assert len(val) == 1
        assert len(train) == 9


def test_kfold_partition_property():
    labels = [0] * 13 + [1] * 9
    splits = kfold_split(labels, folds=4, seed=1)
    seen = np.concatenate([val for _, val in splits])
    assert sorted(seen.tolist()) == list(range(22))
    for train, val in splits:
        assert set(train.tolist()).isdisjoint(val.tolist())
        assert len(train) + len(val) == 22


def test_kfold_stratified_sixty_forty():
    labels = np.array([0] * 60 + [1] * 40)
    splits = kfold_split(labels, folds=5, seed=2)
    for _, val in splits:
        c0 = int(np.sum(labels[val] == 0))
        c1 = int(np.sum(labels[val] == 1))
        assert abs(c0 - 12) <= 1
        assert abs(c1 - 8) <= 1


def test_kfold_sizes_within_one():
    labels = [0] * 5 + [1] * 5
    sizes = [len(val) for _, val in kfold_split(labels, folds=2, seed=0)]
    assert max(sizes) - min(sizes) <= 1
    labels = [0] * 4 + [1] * 3
    sizes = [len(val) for _, val in kfold_split(labels, folds=3, seed=0)]
    assert max(sizes) - min(sizes) <= 1


def test_kfold_too_many_folds():
    with pytest.raises(ConfigError):
        kfold_split([0, 1, 0], folds=4, seed=0)
    with pytest.raises(ConfigError):
        kfold_split([0, 1, 0], folds=1, seed=0)


def test_kfold_seed_determinism():
    labels = [0] * 8 + [1] * 8
    a = kfold_split(labels, folds=4, seed=5)
    b = kfold_split(labels, folds=4, seed=5)
    for (ta, va), (tb, vb) in zip(a, b):
        assert np.array_equal(ta, tb) and np.array_equal(va, vb)
    c = kfold_split(labels, folds=4, seed=6)
    assert any(not np.array_equal(va, vc) for (_, va), (_, vc) in zip(a, c))


# ---------------------------------------------------------------------------
# checkpoints


def _trained_tiny(seed=0):
    model = build_model(TINY, seed=seed, class_names=("crescent", "disk"))
    images, labels = _separable_images(np.random.default_rng(seed), per_class=4)
    train_epoch(model, images, labels, TrainConfig(batch_size=8, lr=0.05, epochs=1), np.random.default_rng(0))
    return model


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path, epoch=1, seed=0)
    loaded = load_checkpoint(path)
    src = model.state_arrays()
    dst = loaded.state_arrays()
    assert [a.shape for a in src] == [a.shape for a in dst]
    for i, (want, got) in enumerate(zip(src, dst)):
        assert np.array_equal(want, got), i
    assert loaded.class_names == ("crescent", "disk")
    assert loaded.arch == model.arch


def test_checkpoint_load_draws_no_weights(tmp_path, monkeypatch):
    model = _trained_tiny()
    path = tmp_path / "m.epu"
    save_checkpoint(model, str(path), epoch=1, seed=0)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew random weights")

    monkeypatch.setattr(T, "kaiming_uniform", no_draws)
    loaded = load_checkpoint(str(path))
    for i, (want, got) in enumerate(zip(model.state_arrays(), loaded.state_arrays())):
        assert np.array_equal(want.view(np.int32), got.view(np.int32)), i
    again = tmp_path / "again.epu"
    save_checkpoint(loaded, str(again), epoch=1, seed=0)
    assert again.read_bytes() == path.read_bytes()


def test_checkpoint_corrupt_payload_byte(tmp_path):
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = bytearray(open(path, "rb").read())
    blob[-10] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[: len(blob) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "m.epu")
    open(path, "wb").write(b"NOPE\n" + b"x" * 100)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    for version, edited in (("1", format1(blob)), ("3", resign(blob.replace(b"format = 2", b"format = 3", 1)))):
        target = str(tmp_path / f"format{version}.epu")
        open(target, "wb").write(edited)
        with pytest.raises(CheckpointError, match=f"unsupported checkpoint format '{version}'; this version reads 2"):
            load_checkpoint(target)


def test_checkpoint_header_size_mismatch(tmp_path):
    # a narrower fc layer used to load with misaligned weights, a wider one raised ValueError
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    for width in (b"3", b"5"):
        edited = str(tmp_path / f"fc{width.decode()}.epu")
        open(edited, "wb").write(resign(blob.replace(b"fc_width = 4\n", b"fc_width = " + width + b"\n", 1)))
        with pytest.raises(CheckpointError, match=r"header describes a model of \d+ floats, param_count says \d+"):
            load_checkpoint(edited)


def test_checkpoint_header_sizes_model_before_allocating(tmp_path, monkeypatch):
    # a header that declares a huge model once made build_model ask numpy for
    # terabytes, whatever param_count and the payload said
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    huge = blob.replace(b"blocks = 1x2,1x3\n", b"blocks = 1x2,1x3000000\n", 1)
    size = state_size(ArchConfig(blocks=((1, 2), (1, 3000000)), kernel_size=3, fc_width=4, input_side=9))
    edits = {
        "huge": (huge, r"header describes a model of \d+ floats, param_count says \d+"),
        "huge_count": (
            re.sub(rb"param_count = \d+\n", b"param_count = %d\n" % size, huge, count=1),
            rf"payload holds \d+ floats, header says {size}",
        ),
    }
    monkeypatch.setattr(train_module, "build_model", lambda *a, **k: pytest.fail("model built"))
    for name, (edited, message) in edits.items():
        target = str(tmp_path / f"{name}.epu")
        open(target, "wb").write(resign(edited))
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(target)


def test_checkpoint_header_out_of_range(tmp_path):
    # values the model builder rejects mark a corrupt checkpoint, not a bad config
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    edits = (
        (b"kernel_size = 3\n", b"kernel_size = 4\n"),
        (b"fc_width = 4\n", b"fc_width = 0\n"),
        (b"input_side = 9\n", b"input_side = 8\n"),
        (b"class_names = crescent,disk\n", b"class_names = crescent\n"),
        (b"class_names = crescent,disk\n", b"class_names = crescent,disk,moon\n"),
    )
    for n, (old, new) in enumerate(edits):
        assert old in blob
        edited = str(tmp_path / f"edit{n}.epu")
        open(edited, "wb").write(resign(blob.replace(old, new, 1)))
        with pytest.raises(CheckpointError, match="bad header field"):
            load_checkpoint(edited)


def test_checkpoint_byte_mutation_fuzz(tmp_path):
    # the checksum covers the header, so every edit of the magic, the header
    # or its blank line raises CheckpointError: first each byte changed alone
    # in three ways, then 1500 seeded edits of 1-3 distinct bytes
    path = str(tmp_path / "m.epu")
    save_checkpoint(_trained_tiny(), path)
    blob = open(path, "rb").read()
    header_end = blob.index(b"\n\n") + 2
    rng = np.random.default_rng(2024)
    mutant = str(tmp_path / "mutant.epu")
    edits = [[(pos, delta)] for pos in range(header_end) for delta in (1, 0x20, 0x80)]
    for _ in range(1500):
        positions = rng.choice(header_end, size=rng.integers(1, 4), replace=False)
        edits.append([(pos, rng.integers(1, 256)) for pos in positions])
    for edit in edits:
        data = bytearray(blob)
        for pos, delta in edit:
            data[pos] = (data[pos] + delta) % 256
        with open(mutant, "wb") as fh:
            fh.write(data)
        with pytest.raises(CheckpointError):
            load_checkpoint(mutant)


def test_checkpoint_save_replaces_whole(tmp_path):
    path = tmp_path / "m.epu"
    save_checkpoint(build_model(PRESETS["desk"], seed=0, class_names=("a", "b")), str(path))
    first_inode = path.stat().st_ino
    model = _trained_tiny()
    save_checkpoint(model, str(path))
    save_checkpoint(model, str(tmp_path / "fresh.epu"))
    # a new file renamed over the old one, not the old one rewritten in place
    assert path.stat().st_ino != first_inode
    assert path.read_bytes() == (tmp_path / "fresh.epu").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.epu", "m.epu"]
    assert load_checkpoint(str(path)).arch == TINY


def test_checkpoint_header_contents(tmp_path):
    model = build_model(PRESETS["desk"], seed=0, class_names=("a", "b"))
    path = str(tmp_path / "desk.epu")
    save_checkpoint(model, path, epoch=7, seed=42)
    with open(path, "rb") as fh:
        blob = fh.read()
    lines = blob[len(b"EPU1\n") : blob.index(b"\n\n")].decode("utf-8").splitlines()
    header = dict(line.split(" = ", 1) for line in lines)
    assert blob.startswith(b"EPU1\n")
    assert header == {
        "format": "2",
        "blocks": "2x8,2x16,3x32",
        "kernel_size": "3",
        "fc_width": "32",
        "input_side": "64",
        "preset": "desk",
        "epoch": "7",
        "seed": "42",
        "param_count": str(state_size(PRESETS["desk"])),
        "class_names": "a,b",
    }
    # the trailer is the crc32 of everything before it
    assert blob[-4:] == zlib.crc32(blob[:-4]).to_bytes(4, "little")


def test_checkpoint_header_is_readable_text(tmp_path):
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    head = blob[: blob.index(b"\n\n")].decode("utf-8")
    assert head.startswith("EPU1")
    assert "format = 2" in head


# ---------------------------------------------------------------------------
# fit / evaluate / cross-validate


def _tiny_dataset(tmp_path, count=4):
    root = tmp_path / "ds"
    synth_generate(SynthConfig(count=count, side=16, seed=0), str(root))
    manifest = load_dataset(str(root))
    return load_images(manifest)


def test_fit_runs_and_reports_history(tmp_path):
    images, labels = _tiny_dataset(tmp_path)
    config = TrainConfig(batch_size=4, lr=0.01, epochs=2, seed=0)
    result = fit(images, labels, TINY, config, class_names=("crescent", "disk"))
    assert len(result.history) == 2
    assert all(math.isfinite(h.loss) for h in result.history)
    assert result.model.class_names == ("crescent", "disk")


def test_fit_without_augmentation_deterministic(tmp_path):
    images, labels = _tiny_dataset(tmp_path)
    config = TrainConfig(batch_size=4, lr=0.01, epochs=1, seed=3, augment=False)
    a = fit(images, labels, TINY, config)
    b = fit(images, labels, TINY, config)
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa.data, pb.data)


def test_fit_divergence_reports_epoch(tmp_path):
    images, labels = _tiny_dataset(tmp_path)
    config = TrainConfig(batch_size=2, lr=1e30, epochs=3, seed=0)
    with pytest.raises(TrainingDivergedError, match=r"^non-finite loss nan at epoch 0$"):
        fit(images, labels, TINY, config)


@pytest.mark.parametrize("augment", [True, False])
def test_fit_holds_one_batch_of_feature_maps_at_each_step(tmp_path, monkeypatch, augment):
    # each image's stack is dropped once written into its batch's array, and
    # each batch's array once its step returns, so a step sees no maps but
    # its own batch's; every map is extracted in this process
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 1)
    images, labels = _tiny_dataset(tmp_path)
    stacks_made, batches, seen = [], [], []
    real_build, real_step = train_module.build_pfm_stack, train_module._train_step

    def build(img, side):
        out = real_build(img, side)
        stacks_made.append(weakref.ref(out.maps))
        return out

    def step(model, fill, targets, lr):
        alive = (sum(r() is not None for r in stacks_made), sum(r() is not None for r in batches))
        seen.append((len(targets), *alive))

        def keep(out, lo, hi):
            batches.append(weakref.ref(out.base))
            fill(out, lo, hi)

        return real_step(model, keep, targets, lr)

    monkeypatch.setattr(train_module, "build_pfm_stack", build)
    monkeypatch.setattr(train_module, "_train_step", step)
    fit(images, labels, TINY, TrainConfig(batch_size=3, lr=0.01, epochs=2, seed=0, augment=augment))
    assert len(images) == 8 and len(stacks_made) == 2 * 8
    assert seen == [(3, 0, 0), (3, 0, 0), (2, 0, 0)] * 2


def _old_path_fit(images, labels, arch, config):
    """(model, history) of `fit` as it ran when each epoch's stacks were all
    extracted up front by `make_samples` and each batch was copied out of
    them by `np.stack`."""
    model = build_model(arch, seed=config.seed)
    history = []
    for epoch in range(config.epochs):
        epoch_images = images
        if config.augment:
            arng = np.random.default_rng([config.seed, epoch, 1])
            epoch_images = [apply_orientation(img, int(arng.integers(6))) for img in images]
        samples = make_samples(epoch_images, labels, arch.input_side)
        order = np.random.default_rng([config.seed, epoch, 2]).permutation(len(samples))
        loss_sum, correct = 0.0, 0
        for start in range(0, len(samples), config.batch_size):
            batch = [samples[int(j)] for j in order[start : start + config.batch_size]]
            stacks = np.stack([s.stack.maps for s in batch])
            targets = np.array([s.label for s in batch], dtype=np.float32)
            value, prob = train_module._train_step(model, _copy_rows(stacks), targets, config.lr)
            loss_sum += value * len(batch)
            correct += int(np.sum((prob >= 0.5).astype(np.int64) == targets.astype(np.int64)))
        history.append((loss_sum / len(samples), correct / len(samples)))
    return model, history


def _state_bytes(model):
    return [a.tobytes() for a in model.state_arrays()]


@pytest.mark.parametrize("batch_size", [64, 19])
@pytest.mark.parametrize("augment", [True, False])
def test_fit_matches_the_old_extract_everything_path_bitwise(tmp_path, batch_size, augment):
    images, labels = _tiny_dataset(tmp_path, count=40)
    config = TrainConfig(batch_size=batch_size, lr=0.05, epochs=2, seed=5, augment=augment)
    result = fit(images, labels, TINY, config)
    model, history = _old_path_fit(images, labels, TINY, config)
    assert len(images) > batch_size
    assert [(h.loss, h.accuracy) for h in result.history] == history
    assert _state_bytes(result.model) == _state_bytes(model)


def test_cross_validate_fold_matches_the_old_path_bitwise(tmp_path):
    from epu.model import predict

    images, labels = _tiny_dataset(tmp_path, count=12)
    labels = np.asarray(labels)
    config = TrainConfig(batch_size=5, lr=0.05, epochs=2, seed=3, folds=3)
    report = cross_validate(images, labels, TINY, config)[0]
    tr, va = kfold_split(labels, config.folds, config.seed)[0]
    model, _ = _old_path_fit([images[i] for i in tr], labels[tr], TINY, config)
    val_images = [images[i] for i in va]
    probs, rss = [], []
    for start in range(0, len(va), train_module.EVAL_CHUNK):
        chunk = slice(start, start + train_module.EVAL_CHUNK)
        prob, scores = predict(model, _old_path_stacks(val_images[chunk], labels[va][chunk], TINY.input_side)[0])
        probs += [np.float64(p).tobytes() for p in prob]
        rss += [row.tobytes() for row in scores]
    assert [np.float64(r.probability).tobytes() for r in report.records] == probs
    assert [r.rss.tobytes() for r in report.records] == rss


@pytest.mark.parametrize("batch_size", [19, 3])
def test_fit_does_not_depend_on_the_process_count(tmp_path, monkeypatch, batch_size):
    # 40 images: batch 19 leaves a ragged batch of 2, and batch 3 is smaller
    # than four processes, so some processes extract no maps
    images, labels = _tiny_dataset(tmp_path, count=20)
    config = TrainConfig(batch_size=batch_size, lr=0.05, epochs=2, seed=4)
    real_fork_map, forked, runs = train_module._fork_map, [], {}

    def fork_map(worker, fn, args, meet=None):
        forked.append(len(args) - 1)
        return real_fork_map(worker, fn, args, meet)

    monkeypatch.setattr(train_module, "_fork_map", fork_map)
    for cores in (1, 2, 3, 4):
        monkeypatch.setattr(train_module, "_usable_cores", lambda: cores)
        forked.clear()
        result = fit(images, labels, TINY, config)
        assert forked == [cores - 1] * (2 * math.ceil(len(images) / batch_size)), cores
        runs[cores] = (_state_bytes(result.model), [(h.loss, h.accuracy) for h in result.history])
    _assert_no_child_left()
    for cores in (2, 3, 4):
        assert runs[cores] == runs[1], cores


def test_fit_with_another_thread_alive_trains_in_this_process(tmp_path, monkeypatch):
    images, labels = _tiny_dataset(tmp_path, count=6)
    config = TrainConfig(batch_size=5, lr=0.05, epochs=2, seed=1)
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 4)
    forked = fit(images, labels, TINY, config)

    def fork():
        raise AssertionError("forked while another thread ran")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        alone = fit(images, labels, TINY, config)
    finally:
        release.set()
        other.join()
    assert _state_bytes(alone.model) == _state_bytes(forked.model)
    assert [(h.loss, h.accuracy) for h in alone.history] == [(h.loss, h.accuracy) for h in forked.history]


def test_shared_mapping_is_reused_only_where_it_is_safe(monkeypatch):
    monkeypatch.setattr(train_module, "_SPARE_MAPPING", [])
    first = train_module._shared_mapping(64)
    train_module._SPARE_MAPPING[:] = [(os.getpid(), first)]
    assert train_module._shared_mapping(32) is first
    # a step holds it while it runs, so a concurrent step maps its own
    assert train_module._shared_mapping(32) is not first
    train_module._SPARE_MAPPING[:] = [(os.getpid(), first)]
    assert train_module._shared_mapping(128) is not first
    # one made before a fork belongs to the process that made it
    train_module._SPARE_MAPPING[:] = [(os.getppid(), first)]
    assert train_module._shared_mapping(32) is not first


def test_fit_empty_rejected():
    with pytest.raises(ContractError):
        fit([], np.array([]), TINY, TrainConfig(epochs=1))


def test_evaluate_separable(tmp_path):
    images, labels = _tiny_dataset(tmp_path, count=8)
    model = build_model(TINY, seed=0)
    config = TrainConfig(batch_size=16, lr=0.05, epochs=1)
    for epoch in range(8):
        train_epoch(model, images, labels, config, np.random.default_rng([1, epoch]))
    report = evaluate(model, images, labels)
    assert len(report.records) == 16
    assert 0.9 <= report.auc <= 1.0
    assert 0.0 <= report.accuracy <= 1.0
    assert 0.0 <= report.interp_accuracy <= 1.0
    for rec in report.records:
        assert 0.0 < rec.probability < 1.0
        assert rec.rss.shape == (4,)


def test_evaluate_empty_rejected():
    model = build_model(TINY, seed=0)
    with pytest.raises(ContractError):
        evaluate(model, [], np.array([], dtype=np.int64))


def test_evaluate_rejects_labels_other_than_0_and_1_before_scoring(monkeypatch):
    # a label of 2 used to pass, and was refused only after every chunk was scored
    def predict(*args, **kwargs):
        raise AssertionError("predict called")

    monkeypatch.setattr(train_module, "predict", predict)
    images = [RgbImage(np.full((8, 8, 3), v, np.uint8)) for v in range(3)]
    for bad in (2, -1):
        with pytest.raises(ContractError) as info:
            evaluate(build_model(TINY, seed=0), images, np.array([0, bad, 1]))
        assert str(info.value) == f"labels must be 0 or 1, got {bad}"


def test_cross_validate_shapes(tmp_path):
    images, labels = _tiny_dataset(tmp_path, count=4)
    config = TrainConfig(batch_size=4, lr=0.01, epochs=1, seed=0, folds=2, augment=False)
    reports = cross_validate(images, labels, TINY, config)
    assert len(reports) == 2
    summary = summarize_folds(reports)
    for key in ("auc", "accuracy", "interp_accuracy"):
        mean, std = summary[key]
        assert math.isfinite(mean) and math.isfinite(std)


# ---------------------------------------------------------------------------
# evaluation worker processes


def _record_bytes(report):
    return [
        (r.label, r.predicted, np.float64(r.probability).tobytes(), r.rss.tobytes())
        for r in report.records
    ]


@pytest.mark.parametrize("count", [1, 3, 4, 5, 9, 40])
def test_evaluate_records_do_not_depend_on_worker_count(monkeypatch, count):
    rng = np.random.default_rng(count)
    model = _trained_tiny()
    images = [RgbImage(rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)) for _ in range(count)]
    labels = np.arange(count) % 2
    forked = []

    def fork_map(worker, fn, args):
        forked.append(len(args) - 1)
        return real_fork_map(worker, fn, args)

    real_fork_map = train_module._fork_map
    monkeypatch.setattr(train_module, "_fork_map", fork_map)
    if count == 1:  # AUC needs both classes; the records are what is compared
        monkeypatch.setattr(train_module, "auc", lambda scores, labels: math.nan)
    reports = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(train_module, "_usable_cores", lambda: workers)
        reports[workers] = evaluate(model, images, labels)
    chunks = math.ceil(count / train_module.EVAL_CHUNK)
    assert forked == [min(w, chunks) - 1 for w in (1, 2, 3)]
    for workers in (2, 3):
        assert _record_bytes(reports[workers]) == _record_bytes(reports[1])
        for key in ("auc", "accuracy", "interp_accuracy"):
            a, b = getattr(reports[workers], key), getattr(reports[1], key)
            assert (a == b) or (math.isnan(a) and math.isnan(b))


PINNED_EVAL_SCRIPT = """
import hashlib, os, sys
import numpy as np
os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])
from epu import train
from epu.model import ArchConfig, build_model
from epu.pfm import RgbImage

assert train._workers(10) == 1
model = build_model(ArchConfig(blocks=((1, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=9), seed=5)
rng = np.random.default_rng(9)
images = [RgbImage(rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)) for _ in range(9)]
report = train.evaluate(model, images, np.arange(9) % 2)
print(hashlib.sha256(b"".join(np.float64(r.probability).tobytes() + r.rss.tobytes()
                              for r in report.records)).hexdigest())
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_evaluate_pinned_to_one_core_matches_forked_workers(monkeypatch):
    import hashlib
    import subprocess
    import sys

    from conftest import SRC_DIR

    env = dict(os.environ, EPU_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PINNED_EVAL_SCRIPT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 3)
    model = build_model(ArchConfig(blocks=((1, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=9), seed=5)
    rng = np.random.default_rng(9)
    images = [RgbImage(rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)) for _ in range(9)]
    report = evaluate(model, images, np.arange(9) % 2)
    digest = hashlib.sha256(
        b"".join(np.float64(r.probability).tobytes() + r.rss.tobytes() for r in report.records)
    ).hexdigest()
    assert proc.stdout.split() == [digest]


def test_workers_fall_back_to_one(monkeypatch):
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 8)
    assert train_module._workers(3) == 3
    assert train_module._workers(20) == 8
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert train_module._workers(20) == 1
    finally:
        release.set()
        other.join()
    monkeypatch.delattr(os, "fork")
    assert train_module._workers(20) == 1


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fail_in_child(arg):
    if arg == 2:
        raise DimensionError(f"bad share {arg}")
    return arg * 10


class _Unrebuildable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _unrebuildable_in_child(arg):
    if arg:
        raise _Unrebuildable("x", "y")
    return arg


def test_fork_map_returns_in_order_and_raises_a_childs_error():
    assert train_module._fork_map("worker", lambda a: a * 10, [0, 1, 2, 3]) == [0, 10, 20, 30]
    _assert_no_child_left()
    with pytest.raises(DimensionError, match="bad share 2"):
        train_module._fork_map("worker", _fail_in_child, [0, 1, 2, 3])
    _assert_no_child_left()
    # an exception that pickle cannot rebuild arrives as its type name and message
    with pytest.raises(RuntimeError, match="_Unrebuildable: x/y"):
        train_module._fork_map("worker", _unrebuildable_in_child, [0, 1])
    _assert_no_child_left()


def _alarm_then_wait(arg):
    if arg:  # SIGALRM ends this child while it waits for its reply
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0.05)
    yield arg
    return arg


def test_fork_map_child_gone_before_its_reply_raises_child_process_error():
    import signal

    def meet(values):
        time.sleep(0.5)
        return values

    how = rf"\(killed by signal {int(signal.SIGALRM)}\)"
    with pytest.raises(ChildProcessError, match=rf"^worker \d+ ended without a reply {how}$"):
        train_module._fork_map("worker", _alarm_then_wait, [0, 1], meet)
    _assert_no_child_left()


def test_evaluate_child_error_reaches_caller(monkeypatch):
    caller = os.getpid()
    real_predict = train_module.predict

    def predict(*args, **kwargs):
        if os.getpid() != caller:
            raise DimensionError("failed in a worker")
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(train_module, "predict", predict)
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 3)
    images, labels = [RgbImage(np.full((8, 8, 3), v, np.uint8)) for v in range(12)], np.arange(12) % 2
    with pytest.raises(DimensionError, match="failed in a worker"):
        evaluate(build_model(TINY, seed=0), images, labels)
    _assert_no_child_left()


def test_evaluate_caller_error_kills_and_reaps_children(monkeypatch):
    caller = os.getpid()
    real_predict = train_module.predict

    def predict(*args, **kwargs):
        if os.getpid() == caller:
            raise DimensionError("failed in the caller")
        return real_predict(*args, **kwargs)

    monkeypatch.setattr(train_module, "predict", predict)
    monkeypatch.setattr(train_module, "_usable_cores", lambda: 3)
    images, labels = [RgbImage(np.full((8, 8, 3), v, np.uint8)) for v in range(12)], np.arange(12) % 2
    with pytest.raises(DimensionError, match="failed in the caller"):
        evaluate(build_model(TINY, seed=0), images, labels)
    _assert_no_child_left()


DEAD_CHILD_SCRIPT = """
import os, signal, sys
from epu import train

def share(arg):
    if arg == 1:
        os._exit(7)
    if arg == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return arg

for args in ([0, 1], [0, 2], [0, 3, 1]):
    try:
        train._fork_map("evaluation worker", share, args)
    except ChildProcessError as exc:
        print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def test_fork_map_dead_child_raises_child_process_error():
    import subprocess
    import sys

    from conftest import SRC_DIR

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p)
    # a hang fails through the timeout instead of stalling the suite
    proc = subprocess.run(
        [sys.executable, "-c", DEAD_CHILD_SCRIPT], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 4, proc.stdout
    assert re.fullmatch(r"evaluation worker \d+ ended without a reply \(exit status 7\)", lines[0])
    assert re.fullmatch(r"evaluation worker \d+ ended without a reply \(killed by signal 9\)", lines[1])
    assert re.fullmatch(r"evaluation worker \d+ ended without a reply \(exit status 7\)", lines[2])
    assert lines[3] == "no child left"
