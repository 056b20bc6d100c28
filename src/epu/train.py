"""Joint training of all sub-networks against one shared binary cross-entropy.

Every batch takes one loss, swept backward in two stages cut at the
per-sub-network scores: first from the loss to the scores and the intercept,
then from each score through its own sub-network. Sub-network weights and the
intercept therefore move together, never independently. The sub-networks
share nothing but the loss gradient at their scores, so each batch is split
over up to one process per core, at most one per sub-network: each process
extracts a contiguous share of the batch's feature maps into one shared
buffer, then runs its sub-networks forward and back, while the calling
process computes the loss. `evaluate` splits its chunks into contiguous runs
and scores one run in the calling process and each other run in a child;
each chunk runs all sub-networks at once, as one stack (`model.predict`).
Both fork their children for the call (`_fork_map`), and neither's results
depend on the process count: each sub-network, and each evaluated sample,
runs as it would in one process alone.

Feature maps are extracted batch by batch: a training batch's maps, and an
evaluation chunk's, are written into one array when the batch is formed and
dropped after its step, so memory does not grow with the dataset. Each epoch
draws one orientation op per raw image, in image order, and a batch applies
its images' ops just before extraction; without augmentation the same path
runs with no ops and extracts every image again each epoch. Checkpoints are a
small self-describing binary format whose checksum covers the header and the
payload.
"""

from __future__ import annotations

import dataclasses
import math
import mmap
import os
import pickle
import sys
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import (
    CheckpointError,
    ConfigError,
    ContractError,
    TrainingDivergedError,
)
from .metrics import accuracy, auc, interpretability_accuracy
from .model import ArchConfig, EpuModel, build_model, parse_blocks, predict, state_size
from .pfm import PFM_LABELS, PfmStack, RgbImage, build_pfm_stack
from .tensor import Tensor

CHECKPOINT_MAGIC = b"EPU1\n"
CHECKPOINT_FORMAT = "2"
# Images per `predict` call in `evaluate`. The stacked inference pass runs one
# image, its four sample-maps, at a time in any chunk, so the chunk sets the
# calls per image and how the chunks split over processes. On the benchmark's
# `score` workload (desk fixture, 40 images, two processes), 150 alternating
# in-process rounds scored chunks of 1, 2, 4 and 8 images at 0.95, 0.98, 1.00
# and 0.88 times the speed of the per-sub-network pass with chunks of 4
# (median of paired ratios); `score` peak RSS read 39.9, 39.9, 39.9 and
# 40.4 MB (two runs each), against 39.8-39.9 MB for that pass.
EVAL_CHUNK = 4


@dataclass
class Sample:
    """One training example: a feature-map stack plus its class index."""

    stack: PfmStack
    label: int

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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")


@dataclass
class EpochStats:
    loss: float
    accuracy: float


# ---------------------------------------------------------------------------
# epoch loop


def _feature_maps(images, side: int, ops=None, out=None) -> np.ndarray:
    """(B, 4, side, side) float32 maps of `images`, each turned first by its
    orientation op in `ops` when given, written into `out` when given. Each
    image's `build_pfm_stack` is written into its row and dropped, so no
    per-image copy outlives the call.
    """
    if out is None:
        out = np.empty((len(images), len(PFM_LABELS), side, side), dtype=np.float32)
    for i, img in enumerate(images):
        if ops is not None:
            img = apply_orientation(img, ops[i])
        out[i] = build_pfm_stack(img, side).maps
    return out


def _binary_labels(labels, count: int) -> np.ndarray:
    """`labels` as int64: one per image, each 0 or 1, else `ContractError`."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (count,):
        raise ContractError(f"need one label per image, got {labels.shape} for {count} images")
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise ContractError(f"labels must be 0 or 1, got {bad[0]}")
    return labels


# The last training batch's map buffer, with the pid of the process that made
# it. The next batch in that process reuses it while it is large enough, since
# a fresh mapping is page-faulted in again on every batch. A step holds it out
# of this list while it runs, so two threads never share one, and a process
# forked later makes its own.
_SPARE_MAPPING: list = []


def _shared_mapping(nbytes: int) -> mmap.mmap:
    """An anonymous shared mapping of at least `nbytes`: children forked
    after it is made write into the same memory as this process. A refused
    mapping raises `MemoryError`, as a refused array does."""
    try:
        pid, mapping = _SPARE_MAPPING.pop()
    except IndexError:
        pid = None
    if pid != os.getpid() or len(mapping) < nbytes:
        try:
            mapping = mmap.mmap(-1, nbytes)
        except OSError as exc:
            raise MemoryError(f"cannot map the batch's feature maps: {exc}") from exc
    return mapping


def _train_step(model: EpuModel, fill, labels, lr: float):
    """Forward, backward and update on one batch; returns (loss, probabilities).

    `fill(out, lo, hi)` writes the maps of batch items lo..hi-1 into `out`.
    The batch is split over `_workers(n_pfms)` processes (`_fork_map`): the
    k-th writes the k-th contiguous share of the maps into one buffer, mapped
    before the fork so that all of them share it, then, once every share is
    written, runs sub-network i for each i = k mod the process count. This
    process computes the logit from the scores' values wrapped in leaf
    tensors (the cuts), the loss, and its sweep back to the cuts and the
    intercept, and steps the intercept; each process then sweeps its
    sub-networks from the gradients at their cuts and steps them, and the
    children's state arrays are copied into the model. Each sub-network's
    arithmetic is the same in any process, so the results do not depend on
    the process count. The probabilities are the logit's sigmoid, taken
    outside the graph.

    The step runs with numpy's floating-point warnings off. A non-finite loss,
    or any non-finite parameter or batchnorm buffer after the update, raises
    `TrainingDivergedError` instead.
    """
    n, batch, side = model.n_pfms, len(labels), model.arch.input_side
    procs, shape = _workers(n), (batch, n, side, side)
    mapping = _shared_mapping(4 * math.prod(shape))
    stacks = np.frombuffer(mapping, np.float32, math.prod(shape)).reshape(shape)
    inputs = model.subnet_inputs(stacks)

    def share(k):
        lo, hi = k * batch // procs, (k + 1) * batch // procs
        fill(stacks[lo:hi], lo, hi)
        yield None  # every share of the maps is written
        mine = range(k, n, procs)
        scores = [model.subnets[i].forward(inputs[i]) for i in mine]
        grads = yield [s.data for s in scores]
        params = [p for i in mine for p in model.subnets[i].parameters()]
        T.zero_grads(params)
        for s, g in zip(scores, grads):
            T.backward(s, g)
        T.sgd_step(params, lr)
        return [model.subnets[i].state_arrays() for i in mine]

    value = prob = None

    def meet(values):
        nonlocal value, prob
        if values[0] is None:  # the maps are written: go on
            return values
        cuts = [Tensor(values[i % procs][i // procs], requires_grad=True) for i in range(n)]
        logits = model.logits(cuts)
        loss = T.bce_with_logits(logits, labels)
        value = float(loss.data)
        if not np.isfinite(value):
            raise TrainingDivergedError(f"non-finite loss {value}")
        T.zero_grads([model.beta])
        T.backward(loss)
        T.sgd_step([model.beta], lr)
        prob = T.sigmoid(Tensor(logits.data)).data
        return [[cuts[i].grad for i in range(k, n, procs)] for k in range(procs)]

    with np.errstate(all="ignore"):
        results = _fork_map("training worker", share, range(procs), meet)
    for k in range(1, procs):
        for i, arrays in zip(range(k, n, procs), results[k]):
            for dst, src in zip(model.subnets[i].state_arrays(), arrays):
                dst[...] = src
    _SPARE_MAPPING[:] = [(os.getpid(), mapping)]
    if not all(np.isfinite(a).all() for a in model.state_arrays()):
        raise TrainingDivergedError("non-finite weights or batchnorm buffers")
    return value, prob


def train_epoch(model: EpuModel, images, labels, config: TrainConfig, rng=None, ops=None) -> EpochStats:
    """One pass over shuffled mini-batches; one loss and update per batch.

    `rng` draws the order. A batch's feature maps are extracted when the batch
    is formed, from its images turned by their orientation ops (`ops`, an
    array of one op per image, or None for none), and dropped after its step:
    the epoch holds one batch of maps at a time.
    """
    if len(images) == 0:
        raise ContractError("cannot train on an empty image set")
    labels = _binary_labels(labels, len(images))
    if rng is None:
        rng = np.random.default_rng([config.seed])
    order = rng.permutation(len(images))
    side = model.arch.input_side
    loss_sum = 0.0
    correct = 0
    for start in range(0, len(images), config.batch_size):
        idx = order[start : start + config.batch_size]
        targets = labels[idx].astype(np.float32)
        batch = [images[j] for j in idx]
        batch_ops = None if ops is None else ops[idx]

        def fill(out, lo, hi):
            _feature_maps(batch[lo:hi], side, None if batch_ops is None else batch_ops[lo:hi], out)

        value, prob = _train_step(model, fill, targets, config.lr)
        loss_sum += value * len(idx)
        correct += int(np.sum((prob >= 0.5).astype(np.int64) == targets.astype(np.int64)))
    n = len(images)
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


def draw_orientations(count: int, rng) -> np.ndarray:
    """`count` orientation ops, each uniform over the six, one draw apiece in order."""
    return np.array([rng.integers(6) for _ in range(count)], dtype=np.int64)


# ---------------------------------------------------------------------------
# k-fold splitting


def kfold_split(labels, folds: int, seed: int = 0):
    """Stratified folds of `labels`: per-class shuffle, then continuous
    round-robin deal.

    The deal position carries over between classes so overall fold sizes
    differ by at most one while each class stays evenly spread.
    """
    labels = np.asarray(labels, dtype=np.int64)
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
    """Magic, `key = value` header, blank line, <f4 payload, then the crc32 of
    all of those bytes."""
    payload = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes() for a in model.state_arrays())
    blob = CHECKPOINT_MAGIC + _header_blob(model, epoch, seed, len(payload) // 4) + b"\n" + payload
    blob += zlib.crc32(blob).to_bytes(4, "little")
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
        version = header.get("format")
        raise CheckpointError(f"unsupported checkpoint format {version!r}; this version reads {CHECKPOINT_FORMAT}")
    return header, sep + 2


def load_checkpoint(path: str) -> EpuModel:
    """Check the magic, the format version and the checksum over everything
    before the trailer; then rebuild the model from the header and restore
    parameters bitwise."""
    with open(path, "rb") as fh:
        blob = fh.read()
    header, body_start = _parse_header(blob)
    if len(blob) < body_start + 4:
        raise CheckpointError("truncated payload")
    # views: slicing the bytes would copy the whole payload twice, and those
    # fresh copies are page-faulted in again on every load
    signed = memoryview(blob)[:-4]
    if zlib.crc32(signed) != int.from_bytes(blob[-4:], "little"):
        raise CheckpointError("checksum mismatch")
    payload = signed[body_start:]
    try:
        count = int(header["param_count"])
        arch = ArchConfig(
            blocks=parse_blocks(header["blocks"]),
            kernel_size=int(header["kernel_size"]),
            fc_width=int(header["fc_width"]),
            input_side=int(header["input_side"]),
            preset=header.get("preset", ""),
        )
        class_names = (
            tuple(header["class_names"].split(",")) if "class_names" in header else None
        )
    except (KeyError, ValueError, ConfigError) as exc:
        raise CheckpointError(f"bad header field: {exc}") from exc
    # sized before anything is allocated: a header may describe any model
    size = state_size(arch)
    if size != count:
        raise CheckpointError(f"header describes a model of {size} floats, param_count says {count}")
    if len(payload) != 4 * count:
        raise CheckpointError(f"payload holds {len(payload) // 4} floats, header says {count}")
    try:
        model = build_model(arch, seed=None, class_names=class_names)
    except ConfigError as exc:
        raise CheckpointError(f"bad header field: {exc}") from exc
    flat = np.frombuffer(payload, dtype="<f4")
    offset = 0
    for arr in model.state_arrays():
        arr[...] = flat[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return model


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class FitResult:
    model: EpuModel
    history: list


def make_samples(images, labels, side: int) -> list:
    """Extract feature-map stacks for a list of RGB images, one `Sample` each.

    Holds every stack at once; `fit` and `evaluate` instead extract a batch
    at a time."""
    return [Sample(stack=build_pfm_stack(img, side), label=int(y)) for img, y in zip(images, labels)]


def fit(
    images,
    labels,
    arch: ArchConfig,
    config: TrainConfig,
    class_names=None,
    log=None,
) -> FitResult:
    """Train a fresh binary model, one `train_epoch` per epoch.

    With augmentation, epoch e draws one orientation op per image, in image
    order, from `default_rng([seed, e, 1])`; every epoch draws its batch order
    from `default_rng([seed, e, 2])`. Feature maps are extracted per batch,
    so every epoch extracts each image once, augmented or not.
    """
    if len(images) == 0:
        raise ContractError("cannot fit on an empty image set")
    model = build_model(arch, seed=config.seed, class_names=class_names)
    history = []
    for epoch in range(config.epochs):
        ops = None
        if config.augment:
            ops = draw_orientations(len(images), np.random.default_rng([config.seed, epoch, 1]))
        srng = np.random.default_rng([config.seed, epoch, 2])
        try:
            stats = train_epoch(model, images, labels, config, srng, ops)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(f"{exc} at epoch {epoch}") from exc
        history.append(stats)
        if log is not None:
            log(epoch, stats)
    return FitResult(model=model, history=history)


@dataclass
class EvalRecord:
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


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _workers(items: int) -> int:
    """Processes to split `items` work items over: one per usable core, at
    most one per item.

    One where `os.fork` is missing, or where another Python thread runs: a
    forked child holds only the forking thread, so a lock that another thread
    held at the fork would stay locked in the child. Python 3.12 warns of this
    with a `DeprecationWarning`, which the test suite turns into an error.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return min(_usable_cores(), items)


def _send(fd: int, message) -> None:
    view = memoryview(pickle.dumps(message))
    while view:
        view = view[os.write(fd, view) :]


def _drive(gen, exchange):
    """The return value of generator `gen`, each of whose yielded values is
    answered with `exchange(value)`."""
    try:
        reply = exchange(next(gen))
        while True:
            reply = exchange(gen.send(reply))
    except StopIteration as stop:
        return stop.value


def _run_child(fn, arg, meet, up: int, down) -> None:
    """Body of a forked child: send each message of `fn(arg)`'s conversation
    (see `_fork_map`), then its result or exception, up the pipe `up`, and
    read the replies from the pipe `down`; then leave through `os._exit`,
    which runs no atexit handler and flushes no buffer inherited from the
    parent."""

    def exchange(message):
        _send(up, (True, message))
        return pickle.load(down)

    status = 1
    try:
        try:
            value = fn(arg)
            if meet is not None:
                value = _drive(value, exchange)
            reply = (True, value)
        except BaseException as exc:  # raised again in the caller
            reply = (False, exc)
            try:
                pickle.loads(pickle.dumps(reply))
            except Exception:  # an exception the caller could not rebuild
                reply = (False, RuntimeError(f"{type(exc).__name__}: {exc}"))
        _send(up, reply)
        status = 0
    finally:
        os._exit(status)


def _reply(worker: str, child: list):
    """The next (ok, value) message of `child` (see `_fork_map`): its value,
    or its exception raised here. A child that ends first is reaped and
    raises `ChildProcessError`."""
    try:
        ok, value = pickle.load(child[1])
    except Exception:  # empty or cut short: the child died before it replied
        pid, child[0] = child[0], None
        status = os.waitpid(pid, 0)[1]
        if os.WIFSIGNALED(status):
            how = f"killed by signal {os.WTERMSIG(status)}"
        else:
            how = f"exit status {os.waitstatus_to_exitcode(status)}"
        raise ChildProcessError(f"{worker} {pid} ended without a reply ({how})")
    if not ok:
        raise value
    return value


def _fork_map(worker: str, fn, args, meet=None) -> list:
    """`[fn(a) for a in args]`: `fn(args[0])` in this process, each later item
    in a child forked for it.

    With `meet`, each `fn(a)` is a generator, and all of them run in step: at
    each round of yields, `meet` takes the yielded values in `args` order and
    returns one reply per process, which its yield returns. The results are
    then the generators' return values.

    Children see the caller's memory as it was at the fork, and only their
    messages come back, pickled through pipes. A child's exception is raised
    here with its type and message; a child that ends without a reply raises
    `ChildProcessError`, and a refused fork `OSError`, each naming a `worker`.
    Every child is reaped before this returns or raises; one still running
    when this process fails is killed first.
    """
    # a child must not write out the caller's buffered output a second time
    sys.stdout.flush()
    sys.stderr.flush()
    children = []  # [pid, reader of its pipe up, write end of its pipe down]
    done = False
    try:
        for arg in args[1:]:
            up, down = os.pipe(), os.pipe()
            try:
                pid = os.fork()
            except OSError as exc:
                for fd in (*up, *down):
                    os.close(fd)
                raise OSError(exc.errno, f"cannot fork a {worker}: {exc.strerror}") from exc
            if pid == 0:
                for fd in (up[0], down[1], *(fd for c in children for fd in (c[1].fileno(), c[2]))):
                    os.close(fd)
                _run_child(fn, arg, meet, up[1], open(down[0], "rb"))
            os.close(up[1])
            os.close(down[0])
            children.append([pid, open(up[0], "rb"), down[1]])

        def exchange(value):
            replies = meet([value] + [_reply(worker, c) for c in children])
            for c, reply in zip(children, replies[1:]):
                try:
                    _send(c[2], reply)
                except BrokenPipeError:  # the child ended: say how
                    _reply(worker, c)
                    raise
            return replies[0]

        results = [fn(args[0]) if meet is None else _drive(fn(args[0]), exchange)]
        results += [_reply(worker, c) for c in children]
        done = True
    finally:
        for pid, reader, down in children:
            reader.close()
            os.close(down)
            if pid is not None:
                if not done:
                    import signal  # only here: importing it costs every command about 1 ms

                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def evaluate(model: EpuModel, images, labels) -> EvalReport:
    """Score held-out images; reports AUC, accuracy, and sign agreement.

    `records` holds one `EvalRecord` per image, in image order.

    Images are turned into feature-map stacks and scored `EVAL_CHUNK` at a
    time, so the whole set's stacks are never held at once. Each chunk is one
    `predict` call, which runs the four sub-networks as one stack, each layer
    once over all of them, without a graph; training instead runs each
    sub-network on its own. A forward pass scores each sample independently
    of its chunk-mates, so the records do not depend on the chunk size or on
    the order of the images.

    The chunks are split into contiguous runs, one per process (see
    `_workers`): this process scores the first run and a forked child each
    other one (`_fork_map`), and the results are joined in order. The records
    are therefore those of one process. A child's exception is raised here; a
    child that dies without replying raises `ChildProcessError`.
    """
    if len(images) == 0:
        raise ContractError("cannot evaluate an empty image set")
    labels = _binary_labels(labels, len(images))
    side = model.arch.input_side

    def score_run(starts):
        prob_parts, rss_parts = [], []
        for start in starts:
            prob, scores = predict(model, _feature_maps(images[start : start + EVAL_CHUNK], side))
            prob_parts.append(prob)
            rss_parts.append(scores)
        return np.concatenate(prob_parts), np.concatenate(rss_parts)

    starts = range(0, len(images), EVAL_CHUNK)
    n, workers = len(starts), _workers(len(starts))
    runs = [starts[i * n // workers : (i + 1) * n // workers] for i in range(workers)]
    parts = _fork_map("evaluation worker", score_run, runs)
    probs = np.concatenate([prob for prob, _ in parts])
    rss_rows = np.concatenate([scores for _, scores in parts])
    preds = (probs >= 0.5).astype(np.int64)
    records = [
        EvalRecord(label=int(y), probability=float(p), predicted=int(c), rss=rss)
        for y, p, c, rss in zip(labels, probs, preds, rss_rows)
    ]
    return EvalReport(
        records=records,
        auc=auc(probs, labels),
        accuracy=accuracy(preds, labels),
        interp_accuracy=interpretability_accuracy(rss_rows, labels),
    )


def cross_validate(
    images,
    labels,
    arch: ArchConfig,
    config: TrainConfig,
    class_names=None,
    log=None,
):
    """k-fold protocol: fresh seed-derived init per fold, report per fold."""
    labels = np.asarray(labels, dtype=np.int64)
    splits = kfold_split(labels, config.folds, config.seed)
    check_val_splits(labels, splits, class_names)
    reports = []
    for fold, (tr, va) in enumerate(splits):
        fold_config = dataclasses.replace(config, seed=config.seed + fold)
        result = fit(
            [images[i] for i in tr],
            labels[tr],
            arch,
            fold_config,
            class_names=class_names,
        )
        report = evaluate(result.model, [images[i] for i in va], labels[va])
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
