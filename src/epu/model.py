"""Additive ensemble of per-feature-map CNN sub-networks.

Each perceptual feature map feeds its own small CNN whose tanh head emits a
relative similarity score in [-1, 1]. The binary prediction is
sigmoid(beta + sum of scores), so every sub-network's contribution is directly
readable. `EpuModel.forward_batch` is the one forward path; `predict` runs it
in evaluation mode without a graph. Neither keeps any state on the model: the
activations that relevance maps read are returned by the call that asks for
them.

A conv block runs conv, ReLU, ..., conv, max-pool, ReLU, then batchnorm: the
block's last ReLU comes after the pool. ReLU is monotone, so this equals
pooling the ReLU output bitwise, and every gradient that passes reaches the
same element with the same bits. A sub-network runs each block as one
`T.conv_block` op and one `T.batchnorm2d` op on the whole batch, then the
dense head. Both ops work through the batch in parts of `T.MICRO_BATCH`
samples, so their temporaries are sized for one part; batchnorm's statistics
are still those of the whole batch. In training, the graph keeps of a block
only its input, the pool's one-byte winner index and its pooled output;
backward recomputes the block's inner ReLU outputs from its input, running
every conv's forward again except the last one's. Training thus keeps no
full-resolution activation: a desk sub-network's graph is about a third of
what it is with the inner ReLU outputs kept, and each inner conv's forward
runs twice per step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .pfm import PFM_LABELS, PfmStack
from .tensor import Param, Tensor


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
        if self.input_side < 8:
            raise ConfigError(f"input_side must be >= 8, got {self.input_side}")

    @property
    def conv_layer_count(self) -> int:
        return sum(count for count, _ in self.blocks)


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


@dataclass
class RssVector:
    """Per-feature similarity scores, one per perceptual map."""

    values: np.ndarray
    pfm_labels: tuple

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or len(self.values) != len(self.pfm_labels):
            raise DimensionError("RssVector needs one value per label")


class _BnState:
    """Scale/shift params plus running stats for one batchnorm layer."""

    def __init__(self, prefix: str, channels: int):
        self.gamma = Param(f"{prefix}.gamma", Tensor(np.ones(channels, np.float32), requires_grad=True))
        self.beta = Param(f"{prefix}.beta", Tensor(np.zeros(channels, np.float32), requires_grad=True))
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)
        self.prefix = prefix


def _init_weights(shape, fan_in: int, rng: np.random.Generator | None) -> np.ndarray:
    """Kaiming-uniform weights drawn from `rng`, or zeros when there is no rng."""
    if rng is None:
        return np.zeros(shape, np.float32)
    return T.kaiming_uniform(shape, fan_in=fan_in, rng=rng)


class SubNetwork:
    """One per-PFM CNN: conv blocks with pooling and batchnorm, then dense.

    Weights are drawn from `rng`; with `rng=None` they are zeros, for a caller
    that overwrites every one of them.
    """

    def __init__(self, arch: ArchConfig, index: int, rng: np.random.Generator | None):
        self.arch = arch
        self.index = index
        k = arch.kernel_size
        self.pad = k // 2
        name = f"subnet{index}"

        self.conv_kernels: list[Param] = []
        self.bn: list[_BnState] = []
        cin, side = 1, arch.input_side
        for b, (count, depth) in enumerate(arch.blocks):
            for c in range(count):
                kernels = _init_weights((depth, cin, k, k), cin * k * k, rng)
                self.conv_kernels.append(
                    Param(f"{name}.block{b}.conv{c}.kernels", Tensor(kernels, requires_grad=True))
                )
                cin = depth
            side = math.ceil(side / 2)
            self.bn.append(_BnState(f"{name}.block{b}.bn", depth))
        self.flat_dim = cin * side * side

        fc_w = _init_weights((self.flat_dim, arch.fc_width), self.flat_dim, rng)
        self.fc_weight = Param(f"{name}.fc.weight", Tensor(fc_w, requires_grad=True))
        self.fc_bias = Param(f"{name}.fc.bias", Tensor(np.zeros(arch.fc_width, np.float32), requires_grad=True))
        head_w = _init_weights((arch.fc_width, 1), arch.fc_width, rng)
        self.head_weight = Param(f"{name}.head.weight", Tensor(head_w, requires_grad=True))
        self.head_bias = Param(f"{name}.head.bias", Tensor(np.zeros(1, np.float32), requires_grad=True))

    def parameters(self) -> list[Param]:
        out: list[Param] = []
        conv_iter = iter(self.conv_kernels)
        for (count, _), bn in zip(self.arch.blocks, self.bn):
            for _ in range(count):
                out.append(next(conv_iter))
            out.extend([bn.gamma, bn.beta])
        out.extend([self.fc_weight, self.fc_bias, self.head_weight, self.head_bias])
        return out

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for bn in self.bn:
            out.append((f"{bn.prefix}.running_mean", bn.running_mean))
            out.append((f"{bn.prefix}.running_var", bn.running_var))
        return out

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
        h, act = x, None
        first = 0
        for (count, _), bn in zip(self.arch.blocks, self.bn):
            kernels = self.conv_kernels[first : first + count]
            # the 0-based conv of this block whose activations were asked for
            tap = layer - 1 - first if layer is not None and first < layer <= first + count else None
            first += count
            h = T.conv_block(h, kernels, self.pad, 2, tap)
            if tap is not None:
                h, act = h
            h = T.batchnorm2d(h, bn.gamma, bn.beta, bn.running_mean, bn.running_var, training)
        h = T.relu(T.dense(T.flatten_batch(h), self.fc_weight, self.fc_bias))
        out = T.tanh(T.dense(h, self.head_weight, self.head_bias))
        return out if layer is None else (out, act)


class EpuModel:
    """N sub-networks plus a learnable intercept."""

    def __init__(self, arch, subnets, beta: Param, pfm_labels, class_names=None):
        self.arch = arch
        self.subnets = list(subnets)
        self.beta = beta
        self.pfm_labels = tuple(pfm_labels)
        self.class_names = tuple(class_names) if class_names else None

    @property
    def n_pfms(self) -> int:
        return len(self.subnets)

    def parameters(self) -> list[Param]:
        out: list[Param] = []
        for sn in self.subnets:
            out.extend(sn.parameters())
        out.append(self.beta)
        names = [p.name for p in out]
        if len(set(names)) != len(names):
            raise ContractError("duplicate parameter names in model")
        return out

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for sn in self.subnets:
            out.extend(sn.buffers())
        return out

    def state_entries(self) -> list[tuple[str, np.ndarray]]:
        """Checkpoint payload order: all params, then all running buffers."""
        return [(p.name, p.tensor.data) for p in self.parameters()] + self.buffers()

    def forward_batch(self, stacks, training: bool, layer: int | None = None):
        """Run all sub-networks on (B, N, S, S) stacks.

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
        """Split (B, N, S, S) stacks, or one PfmStack, into N (B, 1, S, S) inputs.

        Each input is a view of its channel, not a copy: conv2d copies it into
        its padded buffer anyway.
        """
        data = stacks.maps[None] if isinstance(stacks, PfmStack) else np.asarray(stacks)
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
        logits = T.add(total, self.beta.tensor)
        return T.reshape(logits, (logits.data.shape[0],))


def state_size(arch: ArchConfig, n_pfms: int) -> int:
    """Floats in the parameters and buffers of a model, by arithmetic alone:
    what `build_model(arch, n_pfms)` would allocate, as `state_entries` lists
    it."""
    k = arch.kernel_size
    per_subnet, cin, side = 0, 1, arch.input_side
    for count, depth in arch.blocks:
        per_subnet += depth * cin * k * k + (count - 1) * depth * depth * k * k
        # gamma, beta, running mean and running variance
        per_subnet += 4 * depth
        cin, side = depth, math.ceil(side / 2)
    flat_dim = cin * side * side
    per_subnet += (flat_dim + 1) * arch.fc_width + arch.fc_width + 1
    return n_pfms * per_subnet + 1


def build_model(
    arch: ArchConfig,
    n_pfms: int = 4,
    seed: int | None = 0,
    pfm_labels=None,
    class_names=None,
) -> EpuModel:
    """Construct N independently initialized sub-networks and a zero intercept.

    Sub-network i draws its weights from `default_rng([seed, i])`. With
    `seed=None` no weights are drawn and all are zero, for a caller that
    restores every parameter afterwards (as `load_checkpoint` does).
    """
    if n_pfms < 1:
        raise ConfigError(f"n_pfms must be >= 1, got {n_pfms}")
    if pfm_labels is None:
        pfm_labels = PFM_LABELS if n_pfms == 4 else tuple(f"pfm{i}" for i in range(n_pfms))
    if len(pfm_labels) != n_pfms:
        raise ConfigError(f"need {n_pfms} pfm labels, got {len(pfm_labels)}")

    subnets = [
        SubNetwork(arch, i, None if seed is None else np.random.default_rng([seed, i]))
        for i in range(n_pfms)
    ]
    beta = Param("beta", Tensor(np.zeros(1, np.float32), requires_grad=True))
    return EpuModel(arch, subnets, beta, pfm_labels, class_names)


def predict(model: EpuModel, stacks, layer: int | None = None):
    """Evaluation-mode `forward_batch` without a graph, as float64 arrays.

    `stacks` is (B, N, S, S) or one PfmStack. Returns (probabilities (B,),
    scores (B, N)); with `layer`, a third item lists each sub-network's
    activations at that 1-based conv layer, (B, C, H, W) each. Every layer
    treats samples independently in evaluation mode, so each sample's outputs
    are bitwise those of predicting it alone.

    Runs with numpy's floating-point warnings off: weights that overflow show
    as non-finite outputs, which callers check.
    """
    with T.no_grad(), np.errstate(all="ignore"):
        result = model.forward_batch(stacks, training=False, layer=layer)
    prob = result[0].data.astype(np.float64)
    scores = np.concatenate([s.data for s in result[1]], axis=1).astype(np.float64)
    return (prob, scores) if layer is None else (prob, scores, result[2])
