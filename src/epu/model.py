"""Additive ensemble of per-feature-map CNN sub-networks.

Each perceptual feature map feeds its own small CNN whose tanh head emits a
relative similarity score in [-1, 1]. The binary prediction is
sigmoid(beta + sum of scores), so every sub-network's contribution is directly
readable. Training and inference run the sub-networks differently. Training
runs `SubNetwork.forward` on each sub-network, in the worker process that
trains it, and records its graph. Inference (`predict`, and through it
`evaluate`, `explain` and `global-explain`) runs `EpuModel.forward_batch` in
evaluation mode: one pass without a graph that runs each layer once over all
four sub-networks stacked, with bitwise the results of running each alone.
None keeps any state on the model: the activations that relevance maps read
are returned by the call that asks for them.

A model is its tensors. Each array of a sub-network is allocated once for
all four, with a leading sub-network axis (`EpuModel.stacks`), and each
sub-network's tensors are views of its slice. Each sub-network keeps one
record per conv block (its kernels, batchnorm gamma and beta, and the two
running-statistics arrays) and its dense head's weights and biases.
`EpuModel.parameters()` lists every requires-grad leaf in checkpoint order;
`state_arrays()` is the checkpoint payload: those leaves' arrays, then the
running statistics.

A conv block runs conv, ReLU, ..., conv, max-pool, ReLU, then batchnorm: the
block's last ReLU comes after the pool, which `SubNetwork.forward` shows is
exact. In training, a sub-network runs each block as one `T.conv_block` op
and one `T.batchnorm2d` op on the whole batch, then the dense head. Both ops
work through the batch in parts of `T.MICRO_BATCH` samples, so their
temporaries are sized for one part; batchnorm's statistics are still those
of the whole batch. In training, the graph keeps of a block only its input, the pool's
winner index at 2 bits per pooled element and its pooled output, which is also
batchnorm's input. A block fed by batchnorm keeps not its input but
batchnorm's rebuild of it, so each block boundary keeps one array, the
pre-batchnorm output, and the block rebuilds its input part by part in
backward. The dense head does the same with the last block's batchnorm output,
which it rebuilds for its weight gradient, so the head keeps no activation of
the blocks: only its own small ReLU and tanh outputs. Backward recomputes each
block's inner ReLU outputs from its input, running every conv's forward again
except the last one's. Training thus keeps no full-resolution activation: a
desk sub-network's graph is about a third of what it is with the inner ReLU
outputs kept, and each inner conv's forward runs twice per step. The backward
sweep frees each vertex's saved arrays as it passes it, so a sub-network's
graph shrinks from the head down while it is swept, and a swept graph cannot
be swept again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .pfm import MIN_SIDE, PFM_LABELS
from .tensor import Tensor


@dataclass(frozen=True)
class ArchConfig:
    """Sub-network topology: conv blocks, then a dense feature layer."""

    blocks: tuple = ((2, 8), (2, 16), (3, 32))
    kernel_size: int = 3
    fc_width: int = 32
    input_side: int = 64
    preset: str = ""

    def __post_init__(self):
        if not self.blocks:
            raise ConfigError("arch needs at least one conv block")
        for pair in self.blocks:
            if len(pair) != 2 or pair[0] < 1 or pair[1] < 1:
                raise ConfigError(f"bad block spec {pair}; want (conv_count, depth) positive")
        if self.kernel_size < 3 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and >= 3, got {self.kernel_size}")
        if self.fc_width < 1:
            raise ConfigError(f"fc_width must be >= 1, got {self.fc_width}")
        if self.input_side < MIN_SIDE:
            raise ConfigError(f"input_side must be >= {MIN_SIDE}, got {self.input_side}")

    @property
    def conv_layer_count(self) -> int:
        return sum(count for count, _ in self.blocks)


def parse_blocks(text: str) -> tuple:
    """'2x8,2x16,3x32' -> ((2, 8), (2, 16), (3, 32)), for `ArchConfig.blocks`."""
    blocks = []
    for part in text.split(","):
        bits = part.strip().split("x")
        if len(bits) != 2:
            raise ValueError(f"block spec {part.strip()!r} is not COUNTxDEPTH")
        blocks.append((int(bits[0]), int(bits[1])))
    return tuple(blocks)


PRESETS = {
    "desk": ArchConfig(
        blocks=((2, 8), (2, 16), (3, 32)), kernel_size=3, fc_width=32, input_side=64, preset="desk"
    ),
    "base_i": ArchConfig(
        blocks=((2, 64), (2, 128), (3, 256)),
        kernel_size=3,
        fc_width=128,
        input_side=128,
        preset="base_i",
    ),
}


def _layout(arch: ArchConfig) -> list[tuple[tuple, int, float]]:
    """(shape, fan_in, start) of each array of one sub-network, in the order
    `SubNetwork` takes them, which is its share of the checkpoint payload:
    each block's kernels, batchnorm gamma and beta, the dense head's weights
    and biases, then each block's running mean and variance. An array with a
    `fan_in` holds weights drawn Kaiming-uniform; any other starts filled
    with `start`."""
    k = arch.kernel_size
    params, buffers, cin, side = [], [], 1, arch.input_side
    for count, depth in arch.blocks:
        for _ in range(count):
            params.append(((depth, cin, k, k), cin * k * k, 0.0))
            cin = depth
        params += [((depth,), 0, 1.0), ((depth,), 0, 0.0)]
        buffers += [((depth,), 0, 0.0), ((depth,), 0, 1.0)]
        side = math.ceil(side / T.POOL_WINDOW)
    flat_dim, width = cin * side * side, arch.fc_width
    params += [((flat_dim, width), flat_dim, 0.0), ((width,), 0, 0.0), ((width, 1), width, 0.0), ((1,), 0, 0.0)]
    return params + buffers


@dataclass
class _Block:
    """One conv block: its kernels, batchnorm gamma and beta, and running statistics."""

    kernels: list[Tensor]
    gamma: Tensor
    beta: Tensor
    running_mean: np.ndarray
    running_var: np.ndarray


def _split(arch: ArchConfig, arrays) -> tuple[list, list]:
    """`_layout`-ordered arrays as (blocks, head): per conv block its
    (kernels, gamma, beta, running_mean, running_var), and the dense head's
    [fc_weight, fc_bias, head_weight, head_bias]."""
    params = iter(arrays[: len(arrays) - 2 * len(arch.blocks)])
    buffers = iter(arrays[len(arrays) - 2 * len(arch.blocks) :])
    blocks = [
        ([next(params) for _ in range(count)], next(params), next(params), next(buffers), next(buffers))
        for count, _ in arch.blocks
    ]
    return blocks, list(params)


class SubNetwork:
    """One per-PFM CNN: conv blocks with pooling and batchnorm, then dense.

    Its tensors wrap, without a copy, the arrays it is given in `_layout`
    order: its parameters as requires-grad leaves, then its running
    statistics as plain arrays.
    """

    def __init__(self, arch: ArchConfig, arrays):
        self.arch = arch
        blocks, head = _split(arch, arrays)

        def leaf(a):
            return Tensor(a, requires_grad=True)

        self.blocks = [_Block([leaf(k) for k in ks], leaf(g), leaf(b), rm, rv) for ks, g, b, rm, rv in blocks]
        self.fc_weight, self.fc_bias, self.head_weight, self.head_bias = map(leaf, head)

    def parameters(self) -> list[Tensor]:
        convs = [t for block in self.blocks for t in (*block.kernels, block.gamma, block.beta)]
        return convs + [self.fc_weight, self.fc_bias, self.head_weight, self.head_bias]

    def state_arrays(self) -> list[np.ndarray]:
        """Its arrays in `_layout` order: every parameter's, then each block's
        running mean and variance."""
        buffers = [a for b in self.blocks for a in (b.running_mean, b.running_var)]
        return [p.data for p in self.parameters()] + buffers

    def forward(self, x: Tensor) -> Tensor:
        """Map (B, 1, S, S) input to (B, 1) tanh scores in training mode,
        recording the graph.

        Each block is one `T.conv_block` op (conv, ReLU, ..., conv, max-pool,
        ReLU) and one training-mode `T.batchnorm2d` op over the whole batch;
        the dense head follows. The input is data: no gradient flows to it.

        Pooling before the block's last ReLU is exact: ReLU is monotone, so
        relu(max) = max(relu) bitwise, and a window whose maximum is positive
        (or NaN) sends its gradient to the same element with the same bits. A
        window whose maximum is <= 0 passes no gradient in either order; only
        the sign of its zero may sit on another element. The full-resolution
        pre-activation is freed once pooled, and the last ReLU runs on a
        quarter of the pixels.
        """
        if x.data.ndim != 4 or x.data.shape[2] != self.arch.input_side or x.data.shape[3] != self.arch.input_side:
            raise DimensionError(
                f"subnet expects (B, 1, {self.arch.input_side}, {self.arch.input_side}), got {x.data.shape}"
            )
        if x.requires_grad:
            raise ContractError("subnet input must not require grad")
        h = x
        for block in self.blocks:
            h = T.conv_block(h, block.kernels)
            h = T.batchnorm2d(h, block.gamma, block.beta, block.running_mean, block.running_var, True)
        h = T.relu(T.dense(T.flatten_batch(h), self.fc_weight, self.fc_bias))
        return T.tanh(T.dense(h, self.head_weight, self.head_bias))


def _dense_rows(h: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """(N, B, F) rows through each sub-network's (N, F, W) weights and (N, W)
    biases, each row its own vector-matrix product as in `T.matmul`."""
    return np.matmul(h[:, :, None], weight[:, None])[:, :, 0] + bias[:, None]


class EpuModel:
    """One sub-network per entry of `PFM_LABELS`, in that order, plus a
    learnable intercept. `class_names`, when given, names the two classes.

    `stacks` holds every sub-network's arrays, in `_layout` order, each with
    a leading sub-network axis. Sub-network i's tensors and buffers are views
    [i] of them, so the training graphs and the evaluation pass read the same
    memory. Parameters and buffers therefore change only in place:
    `T.sgd_step`, the copy-back of training workers' state arrays and
    `load_checkpoint` all write into the arrays, and rebinding a tensor's
    `.data` would cut it off from the stack.
    """

    def __init__(self, arch, stacks: list[np.ndarray], beta: Tensor, class_names=None):
        if class_names is not None and len(class_names) != 2:
            raise ConfigError(f"need two class names, got {len(class_names)}: {tuple(class_names)}")
        self.arch = arch
        self.stacks = stacks
        self.subnets = [SubNetwork(arch, [a[i] for a in stacks]) for i in range(len(stacks[0]))]
        self.beta = beta
        self.class_names = None if class_names is None else tuple(class_names)

    @property
    def n_pfms(self) -> int:
        return len(self.subnets)

    def parameters(self) -> list[Tensor]:
        """Every leaf tensor the optimizer steps, in checkpoint order: each
        sub-network's, then the intercept."""
        return [p for sn in self.subnets for p in sn.parameters()] + [self.beta]

    def state_arrays(self) -> list[np.ndarray]:
        """The checkpoint payload in order: every parameter's array, then each
        block's batchnorm running mean and variance."""
        buffers = [a for sn in self.subnets for b in sn.blocks for a in (b.running_mean, b.running_var)]
        return [p.data for p in self.parameters()] + buffers

    def forward_batch(self, stacks, training: bool, layer: int | None = None):
        """Run all sub-networks on a (B, N, S, S) array of stacked maps.

        Returns (probabilities (B,), per-subnet (B, 1) score tensors); the
        probabilities are the sigmoid of `logits`. In training, each
        sub-network's `SubNetwork.forward` records its graph. In evaluation,
        one pass without a graph runs each layer once over all sub-networks
        (`_infer`); with `layer`, a 1-based conv layer, a third item holds
        every sub-network's post-ReLU activations at that layer,
        (N, B, C, H, W).
        """
        if training:
            if layer is not None:
                raise ContractError("layer activations come from evaluation mode only")
            scores = [sn.forward(x) for sn, x in zip(self.subnets, self.subnet_inputs(stacks))]
            return T.sigmoid(self.logits(scores)), scores
        with T.no_grad():
            stacked, acts = self._infer(self._checked(stacks), layer)
            scores = [Tensor(s) for s in stacked]
            prob = T.sigmoid(self.logits(scores))
        return (prob, scores) if layer is None else (prob, scores, acts)

    def _infer(self, data: np.ndarray, layer: int | None):
        """Evaluation-mode scores (N, B, 1) of a checked (B, N, S, S) array and,
        with `layer`, the post-ReLU activations (N, B, C, H, W) of that conv
        layer, else None.

        Each layer runs once over all sub-networks, the sub-network axis
        leading every activation and every array of `stacks`. The batch runs
        one image at a time, its N sample-maps (at most `T.MICRO_BATCH`) as
        one part: on the `score` workload, parts of two images ran 4-5%
        slower, their conv buffers no longer fitting a core's 2 MiB L2 cache,
        and peaked 3 MB higher. Each block runs `T._block_part`, the ReLU and
        `T._bn_affine` with the running statistics, as training's ops do, so
        every output is bitwise that of running its sub-network alone in
        evaluation mode.
        """
        count = self.arch.conv_layer_count
        if layer is not None and not 1 <= layer <= count:
            raise ConfigError(f"layer {layer} outside the conv layers 1..{count}")
        blocks, (fc_w, fc_b, head_w, head_b) = _split(self.arch, self.stacks)
        batch, n = data.shape[:2]
        scores = acts = None
        for s in (slice(i, i + 1) for i in range(batch)):
            # (N, 1, 1, S, S): sub-network k reads map k of the image
            h = data[s].transpose(1, 0, 2, 3)[:, :, None]
            # the layer's conv, 0-based from the first conv of the block at hand
            tap = None if layer is None else layer - 1
            for kernels, gamma, beta, mean, var in blocks:
                h, _, act = T._block_part(h, kernels, False, tap)
                if act is not None:
                    if acts is None:
                        acts = np.empty((n, batch, *act.shape[2:]), act.dtype)
                    acts[:, s] = act
                T._relu_array(h, out=h)
                h = T._bn_affine(h, mean[:, None], T._bn_ivstd(var)[:, None], gamma[:, None], beta[:, None])
                if tap is not None:
                    tap -= len(kernels)
            h = T._relu_array(_dense_rows(h.reshape(*h.shape[:2], -1), fc_w, fc_b))
            out = np.tanh(_dense_rows(h, head_w, head_b))
            if scores is None:
                scores = np.empty((n, batch, 1), out.dtype)
            scores[:, s] = out
        return scores, acts

    def _checked(self, stacks) -> np.ndarray:
        """`stacks` as a float array shaped (B, N, S, S) with B >= 1, else `DimensionError`."""
        data = np.asarray(stacks)
        side = self.arch.input_side
        if data.ndim != 4 or data.shape[0] == 0 or data.shape[1:] != (self.n_pfms, side, side):
            raise DimensionError(
                f"expected stacks shaped (B, {self.n_pfms}, {side}, {side}) with B >= 1, got {data.shape}"
            )
        return data if data.dtype.type in T._FLOATS else data.astype(np.float32)

    def subnet_inputs(self, stacks) -> list[Tensor]:
        """Split a (B, N, S, S) array of stacked maps into N (B, 1, S, S) inputs.

        Each input is a view of its channel, not a copy: `T.conv_block` copies
        it into its padded buffer anyway.
        """
        data = self._checked(stacks)
        return [Tensor(data[:, i : i + 1]) for i in range(self.n_pfms)]

    def logits(self, scores) -> Tensor:
        """beta + the (B, 1) scores summed in sub-network index order: the (B,)
        logit that the training loss takes and `forward_batch` passes through
        the sigmoid."""
        total = scores[0]
        for s in scores[1:]:
            total = T.add(total, s)
        logits = T.add(total, self.beta)
        return T.reshape(logits, (logits.data.shape[0],))


def state_size(arch: ArchConfig) -> int:
    """Floats in the parameters and buffers of a model, by arithmetic alone:
    what `build_model(arch)` would allocate, as `state_arrays` lists it."""
    return len(PFM_LABELS) * sum(math.prod(shape) for shape, _, _ in _layout(arch)) + 1


def build_model(arch: ArchConfig, seed: int | None = 0, class_names=None) -> EpuModel:
    """Construct one independently initialized sub-network per feature map
    and a zero intercept.

    Each array of the `_layout` is allocated once for all sub-networks, with
    a leading sub-network axis (`EpuModel.stacks`). Sub-network i draws its
    weights from `default_rng([seed, i])`, in `_layout` order. With
    `seed=None` no weights are drawn and all are zero, for a caller that
    restores every parameter afterwards (as `load_checkpoint` does).
    """
    n, layout = len(PFM_LABELS), _layout(arch)
    # zeros first: pages of an array that stays zero are never touched
    stacks = [np.zeros((n, *shape), np.float32) for shape, _, _ in layout]
    for a, (_, _, start) in zip(stacks, layout):
        if start:
            a.fill(start)
    if seed is not None:
        for i in range(n):
            rng = np.random.default_rng([seed, i])
            for a, (shape, fan_in, _) in zip(stacks, layout):
                if fan_in:
                    a[i] = T.kaiming_uniform(shape, fan_in=fan_in, rng=rng)
    beta = Tensor(np.zeros(1, np.float32), requires_grad=True)
    return EpuModel(arch, stacks, beta, class_names)


def predict(model: EpuModel, stacks, layer: int | None = None):
    """Evaluation-mode `forward_batch`, as float64 arrays.

    `stacks` is a (B, N, S, S) array; one image's `PfmStack` is
    `stack.maps[None]`. Returns (probabilities (B,), scores (B, N)); with
    `layer`, a third item holds every sub-network's activations at that
    1-based conv layer, (N, B, C, H, W): item i is sub-network i's. Every
    layer treats samples independently in evaluation mode, so each sample's
    outputs are bitwise those of predicting it alone.

    Runs with numpy's floating-point warnings off: weights that overflow show
    as non-finite outputs, which callers check.
    """
    with np.errstate(all="ignore"):
        result = model.forward_batch(stacks, training=False, layer=layer)
    prob = result[0].data.astype(np.float64)
    scores = np.concatenate([s.data for s in result[1]], axis=1).astype(np.float64)
    return (prob, scores) if layer is None else (prob, scores, result[2])
