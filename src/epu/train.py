"""Joint training of all sub-networks against one shared binary cross-entropy.

Every batch takes one loss, swept backward in two stages cut at the
per-sub-network scores: first from the loss to the scores and the intercept,
then from each score through its own sub-network. Sub-network weights and the
intercept therefore move together, never independently. The sub-networks
share nothing but the loss gradient at their scores, so their forward passes
and their backward sweeps run on a thread pool of up to one worker per core;
each runs on one thread, and the results do not depend on the worker count.
Orientation augmentation is applied to raw images each epoch, before
feature-map extraction.  Checkpoints are a small self-describing binary format
with a payload checksum.
"""

from __future__ import annotations

import contextvars
import dataclasses
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    TrainingDivergedError,
)
from .metrics import ScoredSet, accuracy, auc, interpretability_accuracy
from .model import ArchConfig, EpuModel, build_model, predict
from .pfm import PfmStack, RgbImage, build_pfm_stack
from .tensor import Tensor

CHECKPOINT_MAGIC = b"EPU1\n"
CHECKPOINT_FORMAT = "1"
# images per `predict` call in `evaluate`: larger chunks held more memory
# without scoring faster
EVAL_CHUNK = 4


@dataclass
class Sample:
    """One training example: a feature-map stack plus its class index."""

    stack: PfmStack
    label: int
    source_path: str = ""

    def __post_init__(self):
        if self.label < 0:
            raise ContractError(f"label must be >= 0, got {self.label}")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    lr: float = 0.01
    epochs: int = 30
    seed: int = 0
    augment: bool = True
    folds: int = 10

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.lr < 0:
            raise ConfigError(f"lr must be >= 0, got {self.lr}")


@dataclass
class EpochStats:
    loss: float
    accuracy: float


# ---------------------------------------------------------------------------
# epoch loop


def _batch_arrays(batch):
    stacks = np.stack([s.stack.maps for s in batch])
    labels = np.array([s.label for s in batch], dtype=np.float32)
    return stacks, labels


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _pool_map(pool, fn, *iterables) -> list:
    """`pool.map` with each call in a copy of the caller's context, so
    context-local settings such as `np.errstate` reach the workers."""
    futures = [pool.submit(contextvars.copy_context().run, fn, *args) for args in zip(*iterables)]
    return [f.result() for f in futures]


def _train_step(model: EpuModel, pool, stacks, labels, params, lr: float):
    """Forward, backward and update on one batch; returns (loss, probabilities).

    The graph lives only in this frame, so it is freed before the next batch.
    The logit is taken from the scores' values wrapped in leaf tensors (the
    cuts), so the first sweep stops there and leaves d(loss)/d(score) on each
    cut. The probabilities are the logit's sigmoid, taken outside the graph.
    """
    scores = _pool_map(
        pool, lambda sn, x: sn.forward(x, training=True), model.subnets, model.subnet_inputs(stacks)
    )
    cuts = [Tensor(s.data, requires_grad=True) for s in scores]
    logits = model.logits(cuts)
    loss = T.bce_with_logits(logits, labels)
    value = float(loss.data)
    if not np.isfinite(value):
        raise TrainingDivergedError(f"non-finite loss {value}")
    T.zero_grads(params)
    T.backward(loss)
    _pool_map(pool, lambda s, c: T.backward(s, c.grad), scores, cuts)
    T.sgd_step(params, lr)
    return value, T.sigmoid(Tensor(logits.data)).data


def train_epoch(model: EpuModel, samples, config: TrainConfig, rng=None) -> EpochStats:
    """One pass over shuffled mini-batches; one loss and update per batch."""
    if len(samples) == 0:
        raise ContractError("cannot train on an empty sample set")
    for s in samples:
        if s.label not in (0, 1):
            raise ContractError(f"binary labels must be 0 or 1, got {s.label}")
    if rng is None:
        rng = np.random.default_rng([config.seed])
    order = rng.permutation(len(samples))
    params = model.parameters()
    loss_sum = 0.0
    correct = 0
    with ThreadPoolExecutor(max_workers=min(model.n_pfms, _usable_cores())) as pool:
        for start in range(0, len(samples), config.batch_size):
            batch = [samples[int(j)] for j in order[start : start + config.batch_size]]
            stacks, labels = _batch_arrays(batch)
            value, prob = _train_step(model, pool, stacks, labels, params, config.lr)
            loss_sum += value * len(batch)
            correct += int(np.sum((prob >= 0.5).astype(np.int64) == labels.astype(np.int64)))
    n = len(samples)
    return EpochStats(loss=loss_sum / n, accuracy=correct / n)


# ---------------------------------------------------------------------------
# augmentation


def apply_orientation(image: RgbImage, op: int) -> RgbImage:
    """op 0..5: identity, horizontal flip, vertical flip, rot 90/180/270."""
    px = image.pixels
    if op == 0:
        out = px
    elif op == 1:
        out = px[:, ::-1]
    elif op == 2:
        out = px[::-1, :]
    elif op in (3, 4, 5):
        out = np.rot90(px, op - 2, axes=(0, 1))
    else:
        raise ConfigError(f"orientation op must be 0..5, got {op}")
    return RgbImage(pixels=np.ascontiguousarray(out))


def augment_orientation(image: RgbImage, rng) -> RgbImage:
    """Uniformly pick one of the six axis-aligned orientations."""
    return apply_orientation(image, int(rng.integers(6)))


# ---------------------------------------------------------------------------
# k-fold splitting


def kfold_split(samples, folds: int, seed: int = 0):
    """Stratified folds: per-class shuffle, then continuous round-robin deal.

    The deal position carries over between classes so overall fold sizes
    differ by at most one while each class stays evenly spread.
    """
    labels = np.asarray([getattr(s, "label", s) for s in samples], dtype=np.int64)
    n = len(labels)
    if folds < 2:
        raise ConfigError(f"folds must be >= 2, got {folds}")
    if folds > n:
        raise ConfigError(f"folds ({folds}) exceed sample count ({n})")
    rng = np.random.default_rng([seed])
    fold_members = [[] for _ in range(folds)]
    pos = 0
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        for j in idx:
            fold_members[pos % folds].append(int(j))
            pos += 1
    splits = []
    everything = set(range(n))
    for f in range(folds):
        val = np.array(sorted(fold_members[f]), dtype=np.int64)
        train = np.array(sorted(everything - set(fold_members[f])), dtype=np.int64)
        splits.append((train, val))
    return splits


def check_val_splits(labels, splits, class_names=None) -> None:
    """Refuse splits whose validation part lacks a class, before any training.

    Evaluation reports AUC, which needs a sample of each class, so such a
    split would fail only after its model had been trained. Raises
    `ConfigError` naming the first missing class.
    """
    labels = np.asarray(labels, dtype=np.int64)
    classes = np.unique(labels)
    for fold, (_, val) in enumerate(splits):
        missing = np.setdiff1d(classes, labels[val])
        if missing.size:
            cls = int(missing[0])
            name = class_names[cls] if class_names else str(cls)
            where = "the validation split" if len(splits) == 1 else f"the validation split of fold {fold}"
            raise ConfigError(
                f"{where} has no sample of class {name!r}; AUC needs at least one sample of each class"
            )


# ---------------------------------------------------------------------------
# checkpoints


def _header_blob(model: EpuModel, epoch: int, seed: int, count: int) -> bytes:
    a = model.arch
    pairs = [
        ("format", CHECKPOINT_FORMAT),
        # every model is binary; both fields stay in the format, and loading checks the mode
        ("mode", "binary"),
        ("n_pfms", str(model.n_pfms)),
        ("n_classes", "2"),
        ("pfm_labels", ",".join(model.pfm_labels)),
        ("blocks", ",".join(f"{r}x{c}" for r, c in a.blocks)),
        ("kernel_size", str(a.kernel_size)),
        ("fc_width", str(a.fc_width)),
        ("input_side", str(a.input_side)),
        ("preset", a.preset),
        ("epoch", str(epoch)),
        ("seed", str(seed)),
        ("param_count", str(count)),
    ]
    if model.class_names:
        pairs.append(("class_names", ",".join(model.class_names)))
    return "".join(f"{k} = {v}\n" for k, v in pairs).encode("utf-8")


def save_checkpoint(model: EpuModel, path: str, epoch: int = 0, seed: int = 0) -> None:
    """Magic, `key = value` header, blank line, <f4 payload, crc32 trailer."""
    entries = model.state_entries()
    payload = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for _, a in entries)
    count = sum(a.size for _, a in entries)
    blob = CHECKPOINT_MAGIC + _header_blob(model, epoch, seed, count) + b"\n"
    blob += payload + zlib.crc32(payload).to_bytes(4, "little")
    # a crash mid-write leaves the temporary file, never a truncated checkpoint
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_header(blob: bytes):
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"bad magic {blob[:5]!r}")
    sep = blob.find(b"\n\n", len(CHECKPOINT_MAGIC) - 1)
    if sep < 0:
        raise CheckpointError("missing header terminator")
    header = {}
    try:
        text = blob[len(CHECKPOINT_MAGIC) : sep + 1].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointError(f"header is not UTF-8: {exc}") from exc
    for line in text.splitlines():
        if " = " not in line:
            raise CheckpointError(f"malformed header line {line!r}")
        key, value = line.split(" = ", 1)
        header[key] = value
    if header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"unsupported format version {header.get('format')!r}")
    return header, sep + 2


def load_checkpoint(path: str) -> EpuModel:
    """Rebuild the model from the header, then restore parameters bitwise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, body_start = _parse_header(blob)
    # a view: slicing the bytes would copy the whole payload twice, and those
    # fresh copies are page-faulted in again on every load
    body = memoryview(blob)[body_start:]
    if len(body) < 4:
        raise CheckpointError("truncated payload")
    payload, crc = body[:-4], body[-4:]
    if zlib.crc32(payload) != int.from_bytes(crc, "little"):
        raise CheckpointError("payload checksum mismatch")
    try:
        count = int(header["param_count"])
        blocks = tuple(
            (int(r), int(c))
            for r, c in (part.split("x") for part in header["blocks"].split(","))
        )
        arch = ArchConfig(
            blocks=blocks,
            kernel_size=int(header["kernel_size"]),
            fc_width=int(header["fc_width"]),
            input_side=int(header["input_side"]),
            preset=header.get("preset", ""),
        )
        if header["mode"] != "binary":
            raise CheckpointError(f"bad header field: mode {header['mode']!r}, only binary models exist")
        n_pfms = int(header["n_pfms"])
        pfm_labels = tuple(header["pfm_labels"].split(","))
        class_names = (
            tuple(header["class_names"].split(",")) if "class_names" in header else None
        )
    except (KeyError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"bad header field: {exc}") from exc
    if len(payload) != 4 * count:
        raise CheckpointError(f"payload holds {len(payload) // 4} floats, header says {count}")
    try:
        model = build_model(arch, n_pfms=n_pfms, seed=None, pfm_labels=pfm_labels, class_names=class_names)
    except ConfigError as exc:
        raise CheckpointError(f"bad header field: {exc}") from exc
    entries = model.state_entries()
    size = sum(arr.size for _, arr in entries)
    if size != count:
        raise CheckpointError(f"header describes a model of {size} floats, param_count says {count}")
    flat = np.frombuffer(payload, dtype="<f4")
    offset = 0
    for _, arr in entries:
        arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return model


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class FitResult:
    model: EpuModel
    history: list


def make_samples(images, labels, side: int, paths=None) -> list:
    """Extract feature-map stacks for a list of RGB images."""
    paths = paths if paths is not None else [""] * len(images)
    return [
        Sample(stack=build_pfm_stack(img, side), label=int(y), source_path=p)
        for img, y, p in zip(images, labels, paths)
    ]


def fit(
    images,
    labels,
    arch: ArchConfig,
    config: TrainConfig,
    class_names=None,
    paths=None,
    log=None,
) -> FitResult:
    """Train a fresh binary model; rebuilds feature maps per augmented epoch."""
    if len(images) == 0:
        raise ContractError("cannot fit on an empty image set")
    model = build_model(arch, n_pfms=4, seed=config.seed, class_names=class_names)
    side = arch.input_side
    history = []
    plain = None if config.augment else make_samples(images, labels, side, paths)
    for epoch in range(config.epochs):
        if config.augment:
            arng = np.random.default_rng([config.seed, epoch, 1])
            epoch_images = [augment_orientation(img, arng) for img in images]
            samples = make_samples(epoch_images, labels, side, paths)
        else:
            samples = plain
        srng = np.random.default_rng([config.seed, epoch, 2])
        try:
            stats = train_epoch(model, samples, config, srng)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"{exc} at epoch {epoch}", epoch=epoch) from exc
        history.append(stats)
        if log is not None:
            log(epoch, stats)
    return FitResult(model=model, history=history)


@dataclass
class EvalRecord:
    source_path: str
    label: int
    probability: float
    predicted: int
    rss: np.ndarray


@dataclass
class EvalReport:
    records: list
    auc: float
    accuracy: float
    interp_accuracy: float


def evaluate(model: EpuModel, images, labels, paths=None) -> EvalReport:
    """Score held-out images; reports AUC, accuracy, and sign agreement.

    Images are turned into feature-map stacks and scored `EVAL_CHUNK` at a
    time, so the whole set's stacks are never held at once. A forward pass
    scores each sample independently of its chunk-mates, so the records do
    not depend on the chunk size or on the order of the images.
    """
    if len(images) == 0:
        raise ContractError("cannot evaluate an empty image set")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (len(images),):
        raise ContractError(f"need one label per image, got {labels.shape} for {len(images)} images")
    if np.any(labels < 0):
        raise ContractError(f"labels must be >= 0, got {labels.min()}")
    paths = paths if paths is not None else [""] * len(images)
    side = model.arch.input_side
    prob_parts, rss_parts = [], []
    for start in range(0, len(images), EVAL_CHUNK):
        stacks = np.stack([build_pfm_stack(img, side).maps for img in images[start : start + EVAL_CHUNK]])
        prob, scores = predict(model, stacks)
        prob_parts.append(prob)
        rss_parts.append(scores)
    probs = np.concatenate(prob_parts)
    rss_rows = np.concatenate(rss_parts)
    preds = (probs >= 0.5).astype(np.int64)
    records = [
        EvalRecord(source_path=path, label=int(y), probability=float(p), predicted=int(c), rss=rss)
        for path, y, p, c, rss in zip(paths, labels, probs, preds, rss_rows)
    ]
    return EvalReport(
        records=records,
        auc=auc(ScoredSet(scores=probs, labels=labels)),
        accuracy=accuracy(preds, labels),
        interp_accuracy=interpretability_accuracy(rss_rows, labels),
    )


def cross_validate(
    images,
    labels,
    arch: ArchConfig,
    config: TrainConfig,
    class_names=None,
    paths=None,
    log=None,
):
    """k-fold protocol: fresh seed-derived init per fold, report per fold."""
    labels = np.asarray(labels, dtype=np.int64)
    splits = kfold_split(labels, config.folds, config.seed)
    check_val_splits(labels, splits, class_names)
    paths = paths if paths is not None else [""] * len(images)
    reports = []
    for fold, (tr, va) in enumerate(splits):
        fold_config = dataclasses.replace(config, seed=config.seed + fold)
        result = fit(
            [images[i] for i in tr],
            labels[tr],
            arch,
            fold_config,
            class_names=class_names,
            paths=[paths[i] for i in tr],
        )
        report = evaluate(result.model, [images[i] for i in va], labels[va], [paths[i] for i in va])
        reports.append(report)
        if log is not None:
            log(fold, report)
    return reports


def summarize_folds(reports):
    """Mean and population std of each fold metric, Table-style."""
    out = {}
    for key in ("auc", "accuracy", "interp_accuracy"):
        vals = np.array([getattr(r, key) for r in reports], dtype=np.float64)
        out[key] = (float(vals.mean()), float(vals.std()))
    return out
