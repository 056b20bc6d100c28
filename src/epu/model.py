"""Additive ensemble of per-feature-map CNN sub-networks.

Each perceptual feature map feeds its own small CNN whose tanh head emits a
relative similarity score in [-1, 1]. The binary prediction is
sigmoid(beta + sum of scores), so every sub-network's contribution is directly
readable. `EpuModel.forward_batch` is the one forward path; `predict` runs it
in evaluation mode without a graph. Neither keeps any state on the model: the
activations that relevance maps read are returned by the call that asks for
them.

A sub-network runs its batch in micro-batches of `MICRO_BATCH` samples, so
each layer's temporaries, forward and backward, are sized for one part rather
than the whole batch. Every layer but batchnorm treats samples independently.
Training-mode batchnorm takes its statistics over the whole batch, all parts
together, so outputs and running buffers are bitwise those of the unsplit
batch; only weight gradients, summed part by part, differ in the low bits.
Batches of `MICRO_BATCH` or fewer samples run as one part.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, ContractError, DimensionError
from .pfm import PFM_LABELS, PfmStack
from .tensor import Param, Tensor

# Samples per part of a sub-network's forward pass. A conv buffer of 64
# samples, (64, 8, 64, 66) float32, is 8.6 MB, four times a core's 2 MiB L2
# cache; the same buffer for 8 samples is 1.1 MB and stays in it.
MICRO_BATCH = 8


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

        The batch is split into parts of `MICRO_BATCH` samples (the last may
        be shorter). Each part runs through a block's conv, ReLU and max-pool
        layers on its own; batchnorm then normalizes all parts together, and
        each part runs through the dense head. `T.concat` joins the scores.
        The input is data: no gradient flows to it.

        With `layer`, a 1-based conv layer index, returns (scores, that
        layer's post-ReLU activations (B, C, H, W)) instead.
        """
        if x.data.ndim != 4 or x.data.shape[2] != self.arch.input_side or x.data.shape[3] != self.arch.input_side:
            raise DimensionError(
                f"subnet expects (B, 1, {self.arch.input_side}, {self.arch.input_side}), got {x.data.shape}"
            )
        if x.requires_grad:
            raise ContractError("subnet input must not require grad")
        if layer is not None and not 1 <= layer <= self.arch.conv_layer_count:
            raise ConfigError(f"layer {layer} outside the conv layers 1..{self.arch.conv_layer_count}")
        parts = [Tensor(x.data[lo : lo + MICRO_BATCH]) for lo in range(0, x.data.shape[0], MICRO_BATCH)]
        acts = []
        kernels = enumerate(self.conv_kernels, 1)
        for (count, _), bn in zip(self.arch.blocks, self.bn):
            block = [next(kernels) for _ in range(count)]
            pooled = []
            for h in parts:
                for n, kernel in block:
                    h = T.relu(T.conv2d(h, kernel, stride=1, padding=self.pad))
                    if n == layer:
                        acts.append(h.data)
                pooled.append(T.maxpool2d(h, 2))
            parts = T.batchnorm2d(pooled, bn.gamma, bn.beta, bn.running_mean, bn.running_var, training)
        scores = []
        for h in parts:
            h = T.relu(T.dense(T.flatten_batch(h), self.fc_weight, self.fc_bias))
            scores.append(T.tanh(T.dense(h, self.head_weight, self.head_bias)))
        out = T.concat(scores)
        return out if layer is None else (out, np.concatenate(acts))


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
    """
    with T.no_grad():
        result = model.forward_batch(stacks, training=False, layer=layer)
    prob = result[0].data.astype(np.float64)
    scores = np.concatenate([s.data for s in result[1]], axis=1).astype(np.float64)
    return (prob, scores) if layer is None else (prob, scores, result[2])
