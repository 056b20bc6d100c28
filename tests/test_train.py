"""Loss, epoch loop, augmentation, k-fold, and checkpoint tests."""

import math
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

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
    _pool_map,
    apply_orientation,
    augment_orientation,
    cross_validate,
    evaluate,
    fit,
    kfold_split,
    load_checkpoint,
    make_samples,
    save_checkpoint,
    summarize_folds,
    train_epoch,
)

TINY = ArchConfig(blocks=((1, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=8)


def _separable_samples(rng, per_class=8, side=8):
    """Class 0 stacks sit near -0.3, class 1 near +0.3."""
    out = []
    for label in (0, 1):
        center = -0.3 if label == 0 else 0.3
        for _ in range(per_class):
            maps = np.clip(rng.normal(center, 0.1, size=(4, side, side)), -1, 1)
            out.append(Sample(stack=PfmStack(maps=maps.astype(np.float32)), label=label))
    return out


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
        train_epoch(model, [], TrainConfig(epochs=1))


def test_train_epoch_zero_lr_keeps_parameters():
    rng = np.random.default_rng(0)
    model = build_model(TINY, seed=1)
    before = [p.data.copy() for p in model.parameters()]
    samples = _separable_samples(rng, per_class=4)
    stats = train_epoch(model, samples, TrainConfig(batch_size=4, lr=0.0, epochs=1), rng)
    assert math.isfinite(stats.loss)
    for prev, param in zip(before, model.parameters()):
        assert np.array_equal(prev, param.data)


def test_train_epoch_deterministic():
    losses = []
    for _ in range(2):
        model = build_model(TINY, seed=3)
        samples = _separable_samples(np.random.default_rng(7), per_class=4)
        stats = train_epoch(
            model, samples, TrainConfig(batch_size=4, lr=0.01, epochs=1), np.random.default_rng(5)
        )
        losses.append(stats.loss)
    assert losses[0] == losses[1]


def test_train_epoch_loss_decreases_on_separable_data():
    model = build_model(TINY, seed=0)
    samples = _separable_samples(np.random.default_rng(2), per_class=8)
    config = TrainConfig(batch_size=16, lr=0.01, epochs=1)
    losses = []
    for epoch in range(5):
        rng = np.random.default_rng([0, epoch])
        losses.append(train_epoch(model, samples, config, rng).loss)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_epoch_updates_bias_and_every_subnet():
    model = build_model(TINY, seed=4)
    beta_before = model.beta.data.copy()
    subnet_before = [sn.parameters()[0].data.copy() for sn in model.subnets]
    samples = _separable_samples(np.random.default_rng(1), per_class=4)
    train_epoch(model, samples, TrainConfig(batch_size=8, lr=0.05, epochs=1), np.random.default_rng(0))
    assert not np.array_equal(beta_before, model.beta.data)
    for prev, sn in zip(subnet_before, model.subnets):
        assert not np.array_equal(prev, sn.parameters()[0].data)


def test_train_epoch_rejects_bad_labels():
    model = build_model(TINY, seed=0)
    sample = Sample(stack=PfmStack(maps=np.zeros((4, 8, 8), np.float32)), label=2)
    with pytest.raises(ContractError):
        train_epoch(model, [sample], TrainConfig(epochs=1))


def test_train_epoch_matches_whole_graph_step():
    # the split, threaded step updates exactly as one sweep over the whole
    # graph, with batches of one part and of three micro-batches
    for batch_size, per_class in ((4, 5), (2 * T.MICRO_BATCH + 3, 20)):
        samples = _separable_samples(np.random.default_rng(6), per_class=per_class)
        config = TrainConfig(batch_size=batch_size, lr=0.05, epochs=1)
        model = build_model(TINY, seed=2)
        train_epoch(model, samples, config, np.random.default_rng(8))

        ref = build_model(TINY, seed=2)
        params = ref.parameters()
        order = np.random.default_rng(8).permutation(len(samples))
        for start in range(0, len(samples), config.batch_size):
            batch = [samples[int(j)] for j in order[start : start + config.batch_size]]
            _, scores = ref.forward_batch(np.stack([s.stack.maps for s in batch]), training=True)
            loss = T.bce_with_logits(ref.logits(scores), np.array([s.label for s in batch], dtype=np.float32))
            T.zero_grads(params)
            T.backward(loss)
            T.sgd_step(params, config.lr)

        assert len(samples) > 2 * config.batch_size
        for (name, got), (_, want) in zip(model.state_entries(), ref.state_entries()):
            assert np.array_equal(got, want), (batch_size, name)


def test_train_step_rejects_non_finite_buffers():
    # the loss stays finite: training-mode batchnorm does not read its buffers
    model = build_model(TINY, seed=0)
    model.subnets[1].bn[0].running_var[0] = np.inf
    samples = _separable_samples(np.random.default_rng(0), per_class=2)
    with pytest.raises(TrainingDivergedError, match="non-finite weights or batchnorm buffers"):
        train_epoch(model, samples, TrainConfig(batch_size=4, lr=0.01, epochs=1))


def test_train_epoch_worker_error_reaches_caller():
    # the sub-network forward that rejects the side runs on a pool worker
    model = build_model(TINY, seed=0)
    samples = _separable_samples(np.random.default_rng(0), per_class=2, side=16)
    with pytest.raises(DimensionError, match="subnet expects"):
        train_epoch(model, samples, TrainConfig(batch_size=4, epochs=1))


def test_pool_workers_run_in_the_callers_grad_mode():
    x = Tensor(np.ones(3), requires_grad=True)
    with ThreadPoolExecutor(max_workers=2) as pool:
        with T.no_grad():
            quiet = _pool_map(pool, lambda k: T.mul(x, float(k)), [1, 2])
        recorded = _pool_map(pool, lambda k: T.mul(x, float(k)), [1, 2])
    assert all(t._op is None for t in quiet)
    assert all(t._op is not None for t in recorded)


def test_sample_rejects_negative_label():
    with pytest.raises(ContractError):
        Sample(stack=PfmStack(maps=np.zeros((4, 8, 8), np.float32)), label=-1)


def test_loss_matches_bce_of_score_sum():
    # the logit the loss sees equals beta + sum of scores
    from epu.model import predict

    model = build_model(TINY, seed=9)
    samples = _separable_samples(np.random.default_rng(3), per_class=3)
    stacks = np.stack([s.stack.maps for s in samples])
    labels = np.array([s.label for s in samples], dtype=np.float32)
    _, scores = model.forward_batch(stacks, training=False)
    direct = float(T.bce_with_logits(model.logits(scores), labels).data)
    rebuilt = []
    for s in samples:
        _, scores = predict(model, s.stack)
        rebuilt.append(model.beta.tensor.data[0] + scores[0].sum())
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
    rng = np.random.default_rng(0)
    counts = dict.fromkeys(range(6), 0)
    for _ in range(600):
        got = augment_orientation(img, rng).pixels.tobytes()
        counts[variants.index(got)] += 1
    assert all(c > 0 for c in counts.values())
    assert max(counts.values()) < 200


def test_augment_deterministic():
    img = _gray([[5, 6], [7, 8]])
    a = [augment_orientation(img, np.random.default_rng(4)).pixels.tobytes() for _ in range(1)]
    b = [augment_orientation(img, np.random.default_rng(4)).pixels.tobytes() for _ in range(1)]
    assert a == b


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


def test_kfold_accepts_samples():
    samples = [
        Sample(stack=PfmStack(maps=np.zeros((4, 8, 8), np.float32)), label=i % 2)
        for i in range(6)
    ]
    splits = kfold_split(samples, folds=3, seed=0)
    assert len(splits) == 3


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
    samples = _separable_samples(np.random.default_rng(seed), per_class=4)
    train_epoch(model, samples, TrainConfig(batch_size=8, lr=0.05, epochs=1), np.random.default_rng(0))
    return model


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path, epoch=1, seed=0)
    loaded = load_checkpoint(path)
    src = dict(model.state_entries())
    dst = dict(loaded.state_entries())
    assert src.keys() == dst.keys()
    for name in src:
        assert np.array_equal(src[name], dst[name]), name
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
    for (name, want), (_, got) in zip(model.state_entries(), loaded.state_entries()):
        assert np.array_equal(want.view(np.int32), got.view(np.int32)), name
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
    blob = open(path, "rb").read().replace(b"format = 1", b"format = 2", 1)
    open(path, "wb").write(blob)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_header_size_mismatch(tmp_path):
    # a narrower fc layer used to load with misaligned weights, a wider one raised ValueError
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    for width in (b"3", b"5"):
        edited = str(tmp_path / f"fc{width.decode()}.epu")
        open(edited, "wb").write(blob.replace(b"fc_width = 4\n", b"fc_width = " + width + b"\n", 1))
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
    size = state_size(ArchConfig(blocks=((1, 2), (1, 3000000)), kernel_size=3, fc_width=4, input_side=8), 4)
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
        open(target, "wb").write(edited)
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
        (b"mode = binary\n", b"mode = other\n"),
        (b"mode = binary\n", b"mode = multiclass\n"),
        (b"n_pfms = 4\n", b"n_pfms = 0\n"),
    )
    for n, (old, new) in enumerate(edits):
        assert old in blob
        edited = str(tmp_path / f"edit{n}.epu")
        open(edited, "wb").write(blob.replace(old, new, 1))
        with pytest.raises(CheckpointError, match="bad header field"):
            load_checkpoint(edited)


def test_checkpoint_byte_mutation_fuzz(tmp_path):
    # a corrupt checkpoint either loads or raises CheckpointError, never anything else;
    # mutations go to the header, because the payload CRC catches the rest
    path = str(tmp_path / "m.epu")
    save_checkpoint(_trained_tiny(), path)
    blob = open(path, "rb").read()
    header_end = blob.index(b"\n\n") + 2
    rng = np.random.default_rng(2024)
    mutant = str(tmp_path / "mutant.epu")
    for _ in range(1500):
        data = bytearray(blob)
        for pos in rng.integers(0, header_end, size=rng.integers(1, 4)):
            data[pos] = rng.integers(0, 256)
        with open(mutant, "wb") as fh:
            fh.write(data)
        try:
            load_checkpoint(mutant)
        except CheckpointError:
            pass


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
    assert header["mode"] == "binary"
    assert header["n_pfms"] == "4"
    assert header["blocks"] == "2x8,2x16,3x32"
    assert header["input_side"] == "64"
    assert header["epoch"] == "7"
    assert header["seed"] == "42"
    assert header["class_names"] == "a,b"


def test_checkpoint_header_is_readable_text(tmp_path):
    model = _trained_tiny()
    path = str(tmp_path / "m.epu")
    save_checkpoint(model, path)
    blob = open(path, "rb").read()
    head = blob[: blob.index(b"\n\n")].decode("utf-8")
    assert head.startswith("EPU1")
    assert "mode = binary" in head


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
    with pytest.raises(TrainingDivergedError) as exc:
        fit(images, labels, TINY, config)
    assert exc.value.epoch == 0


def test_fit_empty_rejected():
    with pytest.raises(ContractError):
        fit([], np.array([]), TINY, TrainConfig(epochs=1))


def test_evaluate_separable(tmp_path):
    images, labels = _tiny_dataset(tmp_path, count=8)
    model = build_model(TINY, seed=0)
    samples = make_samples(images, labels, side=TINY.input_side)
    config = TrainConfig(batch_size=16, lr=0.05, epochs=1)
    for epoch in range(8):
        train_epoch(model, samples, config, np.random.default_rng([1, epoch]))
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


def test_evaluate_paths_length_mismatch_rejected(tmp_path):
    # a short path list once dropped records silently while AUC covered every image
    images, labels = _tiny_dataset(tmp_path, count=2)
    model = build_model(TINY, seed=0)
    for paths in (["a.ppm"], ["a.ppm"] * (len(images) + 1)):
        with pytest.raises(ContractError, match="one path per image"):
            evaluate(model, images, labels, paths)
    report = evaluate(model, images, labels, [f"{i}.ppm" for i in range(len(images))])
    assert [r.source_path for r in report.records] == [f"{i}.ppm" for i in range(len(images))]


def test_cross_validate_paths_length_mismatch_rejected(tmp_path):
    images, labels = _tiny_dataset(tmp_path, count=2)
    config = TrainConfig(batch_size=4, lr=0.01, epochs=1, seed=0, folds=2, augment=False)
    with pytest.raises(ContractError, match="one path per image"):
        cross_validate(images, labels, TINY, config, paths=["a.ppm"])


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
        (r.source_path, r.label, r.predicted, np.float64(r.probability).tobytes(), r.rss.tobytes())
        for r in report.records
    ]


@pytest.mark.parametrize("count", [1, 3, 4, 5, 9, 40])
def test_evaluate_records_do_not_depend_on_worker_count(monkeypatch, count):
    rng = np.random.default_rng(count)
    model = _trained_tiny()
    images = [RgbImage(rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)) for _ in range(count)]
    labels = np.arange(count) % 2
    paths = [f"img{i}" for i in range(count)]
    forked = []

    def fork_map(fn, args):
        forked.append(len(args) - 1)
        return real_fork_map(fn, args)

    real_fork_map = train_module._fork_map
    monkeypatch.setattr(train_module, "_fork_map", fork_map)
    if count == 1:  # AUC needs both classes; the records are what is compared
        monkeypatch.setattr(train_module, "auc", lambda scored: math.nan)
    reports = {}
    for workers in (1, 2, 3):
        monkeypatch.setattr(train_module, "_usable_cores", lambda: workers)
        reports[workers] = evaluate(model, images, labels, paths)
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

assert train._eval_workers(10) == 1
model = build_model(ArchConfig(blocks=((1, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=8), seed=5)
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
    model = build_model(ArchConfig(blocks=((1, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=8), seed=5)
    rng = np.random.default_rng(9)
    images = [RgbImage(rng.integers(0, 256, size=(10, 12, 3), dtype=np.uint8)) for _ in range(9)]
    report = evaluate(model, images, np.arange(9) % 2)
    digest = hashlib.sha256(
        b"".join(np.float64(r.probability).tobytes() + r.rss.tobytes() for r in report.records)
    ).hexdigest()
    assert proc.stdout.split() == [digest]


def test_eval_workers_fall_back_to_one(monkeypatch):
    import threading

    monkeypatch.setattr(train_module, "_usable_cores", lambda: 8)
    assert train_module._eval_workers(3) == 3
    assert train_module._eval_workers(20) == 8
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert train_module._eval_workers(20) == 1
    finally:
        release.set()
        other.join()
    monkeypatch.delattr(os, "fork")
    assert train_module._eval_workers(20) == 1


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
    assert train_module._fork_map(lambda a: a * 10, [0, 1, 2, 3]) == [0, 10, 20, 30]
    _assert_no_child_left()
    with pytest.raises(DimensionError, match="bad share 2"):
        train_module._fork_map(_fail_in_child, [0, 1, 2, 3])
    _assert_no_child_left()
    # an exception that pickle cannot rebuild arrives as its type name and message
    with pytest.raises(RuntimeError, match="_Unrebuildable: x/y"):
        train_module._fork_map(_unrebuildable_in_child, [0, 1])
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
        train._fork_map(share, args)
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
