"""Dense float tensors with reverse-mode automatic differentiation.

Implements exactly the layer set the perceptual ensembles need: conv2d,
maxpool2d, batchnorm2d, dense, elementwise activations, reductions, and the
arithmetic glue for additive heads and cross-entropy losses. The operation
graph is recorded on the tensors themselves (parent links plus a backward
closure per node) and replayed in reverse topological order by `backward`.

Gradients land on leaves only: each backward call adds its contribution to
`.grad` of every requires-grad leaf (a tensor with no backward closure) in the
ancestry, so two calls double the grads unless they are zeroed in between.
Intermediate nodes pass their gradient on and keep no `.grad`. A sweep may
start from any node with an explicit seed gradient, so a graph can be cut at
a node and swept in stages.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

_FLOATS = (np.float32, np.float64)


class _State:
    grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording within the block (evaluation paths)."""
    prev = _State.grad_enabled
    _State.grad_enabled = False
    try:
        yield
    finally:
        _State.grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad=False, dtype=None, _parents=(), _grad_fn=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _FLOATS:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._grad_fn = _grad_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def relu(self):
        return relu(self)

    def tanh(self):
        return tanh(self)

    def sigmoid(self):
        return sigmoid(self)

    def log(self):
        return log(self)

    def clip(self, lo, hi):
        return clip(self, lo, hi)

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)

    def reshape(self, *shape):
        return reshape(self, shape)


@dataclass(eq=False)
class Param:
    """A named leaf tensor tracked by the optimizer."""

    name: str
    tensor: Tensor

    @property
    def data(self) -> Array:
        return self.tensor.data

    @property
    def grad(self):
        return self.tensor.grad


def _astensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if isinstance(x, Param):
        return x.tensor
    if isinstance(x, (int, float)):
        # scalar constants stay f32 so they never widen an f32 graph
        return Tensor(np.asarray(x, dtype=np.float32))
    return Tensor(x)


def _node(data: Array, parents, grad_fn) -> Tensor:
    if _State.grad_enabled and any(p.requires_grad for p in parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _grad_fn=grad_fn)
    return Tensor(data)


def _push(fresh: dict, t: Tensor, g: Array) -> None:
    """Add a per-call gradient contribution for tensor `t`."""
    if not t.requires_grad:
        return
    key = id(t)
    if key in fresh:
        fresh[key] = fresh[key] + g
    else:
        fresh[key] = g


def _unbroadcast(g: Array, shape) -> Array:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(root: Tensor, grad: Array | None = None) -> None:
    """Reverse-mode sweep from `root`, seeded with `grad`.

    Without `grad` the root must be a scalar loss and the seed is one. With
    it, `grad` must have the root's shape and stands for d(loss)/d(root) of a
    loss further down the graph. Accumulates into `.grad` of every
    requires-grad leaf reachable from `root`. Propagation uses per-call fresh
    gradients so repeated calls add rather than compound.
    """
    if grad is None:
        if root.data.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {root.data.shape}")
        grad = np.ones_like(root.data)
    else:
        grad = np.asarray(grad)
        if grad.shape != root.data.shape:
            raise ContractError(f"backward seed has shape {grad.shape}, root has shape {root.data.shape}")
    topo: list[Tensor] = []
    seen = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    fresh: dict[int, Array] = {id(root): grad}
    for node in reversed(topo):
        g = fresh.pop(id(node), None)
        if g is None:
            continue
        if node._grad_fn is not None:
            node._grad_fn(g, fresh)
        elif node.requires_grad:
            if node.grad is None:
                # an owned copy: `g` may be shared with other nodes or the seed
                node.grad = np.array(g, dtype=node.data.dtype)
            else:
                node.grad += g


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    out = a.data + b.data

    def grad_fn(up, fresh):
        _push(fresh, a, _unbroadcast(up, a.data.shape))
        _push(fresh, b, _unbroadcast(up, b.data.shape))

    return _node(out, (a, b), grad_fn)


def sub(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    out = a.data - b.data

    def grad_fn(up, fresh):
        _push(fresh, a, _unbroadcast(up, a.data.shape))
        _push(fresh, b, _unbroadcast(-up, b.data.shape))

    return _node(out, (a, b), grad_fn)


def neg(x) -> Tensor:
    x = _astensor(x)

    def grad_fn(up, fresh):
        _push(fresh, x, -up)

    return _node(-x.data, (x,), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    out = a.data * b.data

    def grad_fn(up, fresh):
        _push(fresh, a, _unbroadcast(up * b.data, a.data.shape))
        _push(fresh, b, _unbroadcast(up * a.data, b.data.shape))

    return _node(out, (a, b), grad_fn)


def matmul(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} vs {b.data.shape}")
    out = a.data @ b.data

    def grad_fn(up, fresh):
        _push(fresh, a, up @ b.data.T)
        _push(fresh, b, a.data.T @ up)

    return _node(out, (a, b), grad_fn)


def dense(x, weight, bias) -> Tensor:
    """Affine map rows @ weight + bias (bias broadcast over rows)."""
    return add(matmul(x, weight), bias)


def log(x) -> Tensor:
    x = _astensor(x)
    out = np.log(x.data)

    def grad_fn(up, fresh):
        _push(fresh, x, up / x.data)

    return _node(out, (x,), grad_fn)


def clip(x, lo: float, hi: float) -> Tensor:
    if lo >= hi:
        raise ContractError(f"clip bounds inverted: [{lo}, {hi}]")
    x = _astensor(x)
    out = np.clip(x.data, lo, hi)
    passthrough = (x.data >= lo) & (x.data <= hi)

    def grad_fn(up, fresh):
        _push(fresh, x, up * passthrough)

    return _node(out, (x,), grad_fn)


def relu(x) -> Tensor:
    x = _astensor(x)
    out = np.maximum(x.data, 0)
    mask = out > 0

    def grad_fn(up, fresh):
        _push(fresh, x, up * mask)

    return _node(out, (x,), grad_fn)


def tanh(x) -> Tensor:
    x = _astensor(x)
    out = np.tanh(x.data)

    def grad_fn(up, fresh):
        _push(fresh, x, up * (1.0 - out * out))

    return _node(out, (x,), grad_fn)


def sigmoid(x) -> Tensor:
    x = _astensor(x)
    out = np.empty_like(x.data)
    pos = x.data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x.data[pos]))
    ex = np.exp(x.data[~pos])
    out[~pos] = ex / (1.0 + ex)

    def grad_fn(up, fresh):
        _push(fresh, x, up * out * (1.0 - out))

    return _node(out, (x,), grad_fn)


def softmax(x, axis: int = -1) -> Tensor:
    x = _astensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(up, fresh):
        dot = (up * out).sum(axis=axis, keepdims=True)
        _push(fresh, x, out * (up - dot))

    return _node(out, (x,), grad_fn)


def tsum(x) -> Tensor:
    x = _astensor(x)
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)

    def grad_fn(up, fresh):
        _push(fresh, x, np.broadcast_to(up, x.data.shape))

    return _node(out, (x,), grad_fn)


def tmean(x) -> Tensor:
    x = _astensor(x)
    out = np.asarray(x.data.mean(), dtype=x.data.dtype)
    n = x.data.size

    def grad_fn(up, fresh):
        _push(fresh, x, np.broadcast_to(up / n, x.data.shape))

    return _node(out, (x,), grad_fn)


def reshape(x, shape) -> Tensor:
    x = _astensor(x)
    out = x.data.reshape(shape)

    def grad_fn(up, fresh):
        _push(fresh, x, up.reshape(x.data.shape))

    return _node(out, (x,), grad_fn)


def flatten_batch(x) -> Tensor:
    """Collapse all but the leading axis."""
    x = _astensor(x)
    return reshape(x, (x.data.shape[0], -1))


# ---------------------------------------------------------------------------
# structured layers


# Contraction sizes cin*kh*kw up to this run as one GEMM over the stacked
# shifted windows; larger ones as one GEMM per kernel offset. numpy's
# per-offset matmul is slow when K = cin is a handful of channels, while the
# stacked transient grows with cin*kh*kw. At 64 px and batch 64 the measured
# crossover lies between 36 and 54.
_STACKED_MAX_PATCH = 36


def _pad_flat(a: Array, ph: int, pw: int):
    """Zero-pad H by `ph` and W by `pw` on both sides (negative amounts crop),
    then row-flatten with one spare zero row.

    Returns (flat, hp, wp) where flat has shape (B, C, (hp + 1) * wp). The
    spare row keeps every shifted window of `_xcorr` inside the buffer.
    """
    batch, ch, h, w = a.shape
    hp, wp = h + 2 * ph, w + 2 * pw
    flat = np.zeros((batch, ch, hp + 1, wp), dtype=a.dtype)
    cut_h, cut_w = max(-ph, 0), max(-pw, 0)
    src = a[:, :, cut_h : h - cut_h, cut_w : w - cut_w]
    top, left = max(ph, 0), max(pw, 0)
    flat[:, :, top : top + src.shape[2], left : left + src.shape[3]] = src
    return flat.reshape(batch, ch, (hp + 1) * wp), hp, wp


def _xcorr(flat: Array, hp: int, wp: int, kernels: Array) -> Array:
    """Stride-1 cross-correlation of a `_pad_flat` buffer with OIHW kernels.

    Kernel offset (i, j) reads the contiguous window flat[..., o : o + ho*wp]
    with o = i*wp + j, so each offset is one GEMM over row-flattened pixels.
    Returns (B, O, ho, wp); the last kw - 1 columns of every row wrap into
    the next row and are dropped by the caller.
    """
    batch, cin = flat.shape[:2]
    cout, _, kh, kw = kernels.shape
    ho = hp - kh + 1
    span = ho * wp
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    if cin * kh * kw <= _STACKED_MAX_PATCH:
        stacked = np.empty((batch, cin, kh * kw, span), dtype=flat.dtype)
        for n, o in enumerate(offsets):
            stacked[:, :, n] = flat[:, :, o : o + span]
        out = np.matmul(kernels.reshape(cout, -1), stacked.reshape(batch, -1, span))
    else:
        # one contiguous (O, C) matrix per offset, so numpy's matmul hands it to BLAS
        per_offset = np.ascontiguousarray(kernels.transpose(2, 3, 0, 1)).reshape(-1, cout, cin)
        out = np.matmul(per_offset[0], flat[:, :, :span])
        tmp = np.empty_like(out)
        for n, o in enumerate(offsets[1:], 1):
            out += np.matmul(per_offset[n], flat[:, :, o : o + span], out=tmp)
    return out.reshape(batch, cout, ho, wp)


def conv2d(x, kernels, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over NCHW input, no bias.

    kernels has shape (out_channels, in_channels, k, k); zero padding.
    Stride > 1 subsamples the stride-1 result; its gradient flows back
    through the stride-1 gradient, zero between the samples.
    """
    x, kt = _astensor(x), _astensor(kernels)
    if x.data.ndim != 4:
        raise DimensionError(f"conv2d expects NCHW input, got shape {x.data.shape}")
    if kt.data.ndim != 4:
        raise DimensionError(f"conv2d expects OIKK kernels, got shape {kt.data.shape}")
    if stride < 1:
        raise ContractError(f"conv2d stride must be >= 1, got {stride}")
    if padding < 0:
        raise ContractError(f"conv2d padding must be >= 0, got {padding}")
    batch, cin, h, w = x.data.shape
    cout, kin, kh, kw = kt.data.shape
    if kin != cin:
        raise DimensionError(f"conv2d channel mismatch: input {cin}, kernels {kin}")
    hp, wp = h + 2 * padding, w + 2 * padding
    if kh > hp or kw > wp:
        raise DimensionError(f"kernel {kh}x{kw} exceeds padded input {hp}x{wp}")

    flat, _, _ = _pad_flat(x.data, padding, padding)
    ho, wo = hp - kh + 1, wp - kw + 1
    out = np.ascontiguousarray(_xcorr(flat, hp, wp, kt.data)[:, :, ::stride, :wo:stride])

    def grad_fn(up, fresh):
        span = ho * wp
        # grad-x pads the stride-1 gradient by kernel - 1 - padding on each side
        qh, qw = kh - 1 - padding, kw - 1 - padding
        shared = x.requires_grad and qh == qw == padding
        if shared:
            # "same" padding: grad-x's padded gradient has the padded row width,
            # so grad-w reads its rows from that buffer, where the columns that
            # wrap into the next row are zero padding. Grad-w alone keeps the
            # smaller buffer below.
            gflat = np.zeros((batch, cout, hp + 1, wp), dtype=up.dtype)
            gflat[:, :, qh : qh + ho : stride, qw : qw + wo : stride] = up
            gflat = gflat.reshape(batch, cout, (hp + 1) * wp)
            start = qh * wp + qw
            rows = gflat[:, :, start : start + span]
        else:
            # stride-1 gradient, widened with zero columns to the padded row width
            g1 = np.zeros((batch, cout, ho, wp), dtype=up.dtype)
            g1[:, :, ::stride, :wo:stride] = up
            rows = g1.reshape(batch, cout, span)
        if kt.requires_grad:
            gk = np.empty(kt.data.shape, dtype=np.result_type(up, flat))
            for i in range(kh):
                for j in range(kw):
                    window = flat[:, :, i * wp + j : i * wp + j + span]
                    gk[:, :, i, j] = np.matmul(rows, window.transpose(0, 2, 1)).sum(axis=0)
            _push(fresh, kt, gk)
        if x.requires_grad:
            flipped = kt.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            if not shared:
                gflat, _, _ = _pad_flat(g1[..., :wo], qh, qw)
            _push(fresh, x, _xcorr(gflat, ho + 2 * qh, wo + 2 * qw, flipped)[..., :w])

    return _node(out, (x, kt), grad_fn)


def maxpool2d(x, window: int) -> Tensor:
    """Square max pooling; ragged edges padded with -inf (output ceil(H/w)).

    The output is the elementwise maximum of the window² strided views
    xp[:, :, i::w, j::w], taken in row-major order of (i, j). A NaN in a
    window makes its output NaN. Ties keep the first maximum's value, and the
    gradient goes to the first maximum in row-major order, or to the first
    NaN; the backward pass finds it again from the saved input and output.
    """
    x = _astensor(x)
    if x.data.ndim != 4:
        raise DimensionError(f"maxpool2d expects NCHW input, got shape {x.data.shape}")
    if window < 1:
        raise ContractError(f"maxpool2d window must be >= 1, got {window}")
    batch, ch, h, w = x.data.shape
    ho, wo = -(-h // window), -(-w // window)
    ph, pw = ho * window - h, wo * window - w
    if ph or pw:
        xp = np.pad(x.data, ((0, 0), (0, 0), (0, ph), (0, pw)), constant_values=-np.inf)
    else:
        xp = x.data
    offsets = [(i, j) for i in range(window) for j in range(window)]
    out = xp[:, :, ::window, ::window].copy()
    for i, j in offsets[1:]:
        # the running maximum goes second: numpy returns the second operand of
        # an equal pair, so a tie (-0.0 against +0.0) keeps the earlier value
        np.maximum(xp[:, :, i::window, j::window], out, out=out)

    def grad_fn(up, fresh):
        # Multiplying up's bit pattern by the 0/1 mask writes up's exact bits
        # where the gradient goes and +0.0 elsewhere (a masked float copy is
        # several times slower on strided views). The views tile g, so every
        # element is written once and g needs no zero fill.
        bits = np.dtype(f"u{up.dtype.itemsize}")
        g = np.empty(xp.shape, dtype=up.dtype)
        free = np.ones(out.shape, dtype=bool)
        hit, nan = np.empty_like(free), np.empty_like(free)
        for i, j in offsets:
            v = xp[:, :, i::window, j::window]
            np.equal(v, out, out=hit)
            hit |= np.isnan(v, out=nan)
            hit &= free
            free ^= hit
            np.multiply(up.view(bits), hit, out=g.view(bits)[:, :, i::window, j::window])
        _push(fresh, x, np.ascontiguousarray(g[:, :, :h, :w]) if ph or pw else g)

    return _node(out, (x,), grad_fn)


def batchnorm2d(
    x,
    gamma,
    beta,
    running_mean: Array,
    running_var: Array,
    training: bool,
    momentum: float = 0.9,
    eps: float = 1e-5,
) -> Tensor:
    """Channel-wise batch normalization for NCHW input.

    Training mode uses biased batch statistics and updates the running
    buffers in place: new = momentum*old + (1-momentum)*batch. Evaluation
    mode normalizes with the running buffers.
    """
    x, gt, bt = _astensor(x), _astensor(gamma), _astensor(beta)
    if x.data.ndim != 4:
        raise DimensionError(f"batchnorm2d expects NCHW input, got shape {x.data.shape}")
    ch = x.data.shape[1]
    if gt.data.shape != (ch,) or bt.data.shape != (ch,):
        raise DimensionError(
            f"batchnorm2d scale/shift must have shape ({ch},), got {gt.data.shape} and {bt.data.shape}"
        )
    if running_mean.shape != (ch,) or running_var.shape != (ch,):
        raise DimensionError(f"batchnorm2d running buffers must have shape ({ch},)")
    axes = (0, 2, 3)
    bc = (1, ch, 1, 1)

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        xc = x.data - mean.reshape(bc)
        ivstd = 1.0 / np.sqrt(var + eps)
        xhat = xc * ivstd.reshape(bc)
        running_mean[:] = momentum * running_mean + (1.0 - momentum) * mean
        running_var[:] = momentum * running_var + (1.0 - momentum) * var
        m = x.data.shape[0] * x.data.shape[2] * x.data.shape[3]

        def grad_fn(up, fresh):
            if gt.requires_grad:
                _push(fresh, gt, (up * xhat).sum(axis=axes))
            if bt.requires_grad:
                _push(fresh, bt, up.sum(axis=axes))
            if x.requires_grad:
                dxhat = up * gt.data.reshape(bc)
                dvar = (dxhat * xc).sum(axis=axes) * -0.5 * ivstd**3
                dmean = -(dxhat.sum(axis=axes)) * ivstd + dvar * (-2.0 / m) * xc.sum(axis=axes)
                dx = (
                    dxhat * ivstd.reshape(bc)
                    + (2.0 / m) * dvar.reshape(bc) * xc
                    + dmean.reshape(bc) / m
                )
                _push(fresh, x, dx)

    else:
        ivstd = 1.0 / np.sqrt(running_var + eps)
        xhat = (x.data - running_mean.reshape(bc)) * ivstd.reshape(bc)

        def grad_fn(up, fresh):
            if gt.requires_grad:
                _push(fresh, gt, (up * xhat).sum(axis=axes))
            if bt.requires_grad:
                _push(fresh, bt, up.sum(axis=axes))
            if x.requires_grad:
                _push(fresh, x, up * (gt.data * ivstd).reshape(bc))

    out = gt.data.reshape(bc) * xhat + bt.data.reshape(bc)
    return _node(out, (x, gt, bt), grad_fn)


# ---------------------------------------------------------------------------
# initialization and optimization


def kaiming_uniform(shape, fan_in: int, rng: np.random.Generator, dtype=np.float32) -> Array:
    """Uniform init on [-sqrt(6/fan_in), sqrt(6/fan_in)]."""
    if fan_in < 1:
        raise ContractError(f"fan_in must be >= 1, got {fan_in}")
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def sgd_step(params, lr: float) -> None:
    """In-place w -= lr * grad for every param with a gradient, then zero."""
    for p in params:
        t = p.tensor if isinstance(p, Param) else p
        if t.grad is not None:
            t.data -= (lr * t.grad).astype(t.data.dtype, copy=False)
            t.grad = None


def zero_grads(params) -> None:
    for p in params:
        t = p.tensor if isinstance(p, Param) else p
        t.grad = None
