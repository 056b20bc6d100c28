"""Additive ensemble of per-feature-map CNN sub-networks.

Each perceptual feature map feeds its own small CNN whose tanh head emits a
relative similarity score in [-1, 1]. The binary prediction is
sigmoid(beta + sum of scores), so every sub-network's contribution is directly
readable. Every forward pass runs `SubNetwork.forward` on each sub-network:
training calls it in the worker process that trains that sub-network, and
`EpuModel.forward_batch` calls it in turn, which `predict` runs in evaluation
mode without a graph. None keeps
any state on the model: the activations that relevance maps read are
returned by the call that asks for them.

A model is its tensors. Each sub-network keeps one record per conv block (its
kernels, batchnorm gamma and beta, and the two running-statistics arrays) and
its dense head's weights and biases. `EpuModel.parameters()` lists every
requires-grad leaf in checkpoint order; `state_arrays()` is the checkpoint
payload: those leaves' arrays, then the running statistics.

A conv block runs conv, ReLU, ..., conv, max-pool, ReLU, then batchnorm: the
block's last ReLU comes after the pool, which `SubNetwork.forward` shows is
exact. A sub-network runs each block as one `T.conv_block` op and one
`T.batchnorm2d` op on the whole batch, then the dense head. Both ops work
through the batch in parts of `T.MICRO_BATCH` samples, so their temporaries
are sized for one part; batchnorm's statistics are still those of the whole
batch. In training, the graph keeps of a block only its input, the pool's
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


class _Block:
    """One conv block: its kernels, batchnorm gamma and beta, and running statistics."""

    def __init__(self, kernels: list[Tensor], channels: int):
        self.kernels = kernels
        self.gamma = Tensor(np.ones(channels, np.float32), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, np.float32), requires_grad=True)
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)


def _init_weights(shape, fan_in: int, rng: np.random.Generator | None) -> Tensor:
    """A leaf of Kaiming-uniform weights drawn from `rng`, or of zeros without one."""
    data = np.zeros(shape, np.float32) if rng is None else T.kaiming_uniform(shape, fan_in=fan_in, rng=rng)
    return Tensor(data, requires_grad=True)


class SubNetwork:
    """One per-PFM CNN: conv blocks with pooling and batchnorm, then dense.

    Weights are drawn from `rng`; with `rng=None` they are zeros, for a caller
    that overwrites every one of them.
    """

    def __init__(self, arch: ArchConfig, rng: np.random.Generator | None):
        self.arch = arch
        k = arch.kernel_size
        self.blocks: list[_Block] = []
        cin, side = 1, arch.input_side
        for count, depth in arch.blocks:
            kernels = []
            for _ in range(count):
                kernels.append(_init_weights((depth, cin, k, k), cin * k * k, rng))
                cin = depth
            self.blocks.append(_Block(kernels, depth))
            side = math.ceil(side / T.POOL_WINDOW)
        flat_dim = cin * side * side
        self.fc_weight = _init_weights((flat_dim, arch.fc_width), flat_dim, rng)
        self.fc_bias = Tensor(np.zeros(arch.fc_width, np.float32), requires_grad=True)
        self.head_weight = _init_weights((arch.fc_width, 1), arch.fc_width, rng)
        self.head_bias = Tensor(np.zeros(1, np.float32), requires_grad=True)

    def parameters(self) -> list[Tensor]:
        convs = [t for block in self.blocks for t in (*block.kernels, block.gamma, block.beta)]
        return convs + [self.fc_weight, self.fc_bias, self.head_weight, self.head_bias]

    def forward(self, x: Tensor, training: bool, layer: int | None = None):
        """Map (B, 1, S, S) input to (B, 1) tanh scores.

        Each block is one `T.conv_block` op (conv, ReLU, ..., conv, max-pool,
        ReLU) and one `T.batchnorm2d` op over the whole batch; the dense head
        follows. The input is data: no gradient flows to it.

        Pooling before the block's last ReLU is exact: ReLU is monotone, so
        relu(max) = max(relu) bitwise, and a window whose maximum is positive
        (or NaN) sends its gradient to the same element with the same bits. A
        window whose maximum is <= 0 passes no gradient in either order; only
        the sign of its zero may sit on another element. The full-resolution
        pre-activation is freed once pooled, and the last ReLU runs on a
        quarter of the pixels.

        With `layer`, a 1-based conv layer index, returns (scores, that
        layer's post-ReLU activations (B, C, H, W)) instead, taken by the
        block op: bitwise `T.relu`'s output, also for a block's last conv,
        whose ReLU runs after the pool.
        """
        if x.data.ndim != 4 or x.data.shape[2] != self.arch.input_side or x.data.shape[3] != self.arch.input_side:
            raise DimensionError(
                f"subnet expects (B, 1, {self.arch.input_side}, {self.arch.input_side}), got {x.data.shape}"
            )
        if x.requires_grad:
            raise ContractError("subnet input must not require grad")
        if layer is not None and not 1 <= layer <= self.arch.conv_layer_count:
            raise ConfigError(f"layer {layer} outside the conv layers 1..{self.arch.conv_layer_count}")
        # `want` is the asked-for conv's 0-based index within the current block
        h, act, want = x, None, -1 if layer is None else layer - 1
        for block in self.blocks:
            tap = want if 0 <= want < len(block.kernels) else None
            want -= len(block.kernels)
            h = T.conv_block(h, block.kernels, tap)
            if tap is not None:
                h, act = h
            h = T.batchnorm2d(h, block.gamma, block.beta, block.running_mean, block.running_var, training)
        h = T.relu(T.dense(T.flatten_batch(h), self.fc_weight, self.fc_bias))
        out = T.tanh(T.dense(h, self.head_weight, self.head_bias))
        return out if layer is None else (out, act)


class EpuModel:
    """One sub-network per entry of `PFM_LABELS`, in that order, plus a
    learnable intercept. `class_names`, when given, names the two classes."""

    def __init__(self, arch, subnets, beta: Tensor, class_names=None):
        if class_names is not None and len(class_names) != 2:
            raise ConfigError(f"need two class names, got {len(class_names)}: {tuple(class_names)}")
        self.arch = arch
        self.subnets = list(subnets)
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

        Returns (probabilities (B,), per-subnet (B, 1) score tensors); with
        `layer`, a third item lists each sub-network's activations at that
        1-based conv layer. The probabilities are the sigmoid of `logits`.
        """
        results = [sn.forward(x, training, layer) for sn, x in zip(self.subnets, self.subnet_inputs(stacks))]
        if layer is None:
            return T.sigmoid(self.logits(results)), results
        scores, acts = (list(part) for part in zip(*results))
        return T.sigmoid(self.logits(scores)), scores, acts

    def subnet_inputs(self, stacks) -> list[Tensor]:
        """Split a (B, N, S, S) array of stacked maps into N (B, 1, S, S) inputs.

        Each input is a view of its channel, not a copy: `T.conv_block` copies
        it into its padded buffer anyway.
        """
        data = np.asarray(stacks)
        if data.ndim != 4 or data.shape[1] != self.n_pfms:
            raise DimensionError(
                f"expected stacks shaped (B, {self.n_pfms}, S, S), got {data.shape}"
            )
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
    k = arch.kernel_size
    per_subnet, cin, side = 0, 1, arch.input_side
    for count, depth in arch.blocks:
        per_subnet += depth * cin * k * k + (count - 1) * depth * depth * k * k
        # gamma, beta, running mean and running variance
        per_subnet += 4 * depth
        cin, side = depth, math.ceil(side / T.POOL_WINDOW)
    flat_dim = cin * side * side
    per_subnet += (flat_dim + 1) * arch.fc_width + arch.fc_width + 1
    return len(PFM_LABELS) * per_subnet + 1


def build_model(arch: ArchConfig, seed: int | None = 0, class_names=None) -> EpuModel:
    """Construct one independently initialized sub-network per feature map
    and a zero intercept.

    Sub-network i draws its weights from `default_rng([seed, i])`. With
    `seed=None` no weights are drawn and all are zero, for a caller that
    restores every parameter afterwards (as `load_checkpoint` does).
    """
    subnets = [
        SubNetwork(arch, None if seed is None else np.random.default_rng([seed, i]))
        for i in range(len(PFM_LABELS))
    ]
    beta = Tensor(np.zeros(1, np.float32), requires_grad=True)
    return EpuModel(arch, subnets, beta, class_names)


def predict(model: EpuModel, stacks, layer: int | None = None):
    """Evaluation-mode `forward_batch` without a graph, as float64 arrays.

    `stacks` is a (B, N, S, S) array; one image's `PfmStack` is
    `stack.maps[None]`. Returns (probabilities (B,), scores (B, N)); with
    `layer`, a third item lists each sub-network's activations at that
    1-based conv layer, (B, C, H, W) each. Every layer treats samples
    independently in evaluation mode, so each sample's outputs are bitwise
    those of predicting it alone.

    Runs with numpy's floating-point warnings off: weights that overflow show
    as non-finite outputs, which callers check.
    """
    with T.no_grad(), np.errstate(all="ignore"):
        result = model.forward_batch(stacks, training=False, layer=layer)
    prob = result[0].data.astype(np.float64)
    scores = np.concatenate([s.data for s in result[1]], axis=1).astype(np.float64)
    return (prob, scores) if layer is None else (prob, scores, result[2])
