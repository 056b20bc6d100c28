"""Dense float tensors with reverse-mode automatic differentiation.

Implements exactly the layer set the perceptual ensembles need: conv2d,
maxpool2d, batchnorm2d, dense, relu, tanh, sigmoid, add, mul, tsum, reshape,
concat, and `bce_with_logits`, the training loss as one op. Every op is a
module-level function (`add`, `relu`, `tsum`, `backward`, ...); a `Tensor` has
no operator overloads.

The operation graph is kept apart from tensor data. A computed tensor points
at a private op record, its vertex: the backward closure plus the vertices of
the op's inputs. A requires-grad leaf is its own vertex. Closures capture
arrays and vertices, never tensors, and each op saves only the arrays its
gradient reads. An output that no gradient reads, such as a conv's
pre-activation once ReLU has consumed it, is therefore freed as soon as its
tensor is dropped, and a graph holds no reference cycle: reference counting
frees it when its root goes. `backward` replays the vertices in reverse
topological order.

Gradients land on leaves only: each backward call adds its contribution to
`.grad` of every requires-grad leaf in the ancestry, so two calls double the
grads unless they are zeroed in between. Computed tensors pass their gradient
on and keep no `.grad`. A sweep may start from any tensor with an explicit
seed gradient, so a graph can be cut at a tensor and swept in stages.
"""
from __future__ import annotations

import contextvars
import functools
import itertools
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

_FLOATS = (np.float32, np.float64)


# Per context, not per process: `no_grad` on one thread leaves another
# thread's graph alone, and a call run in a copy of the caller's context (as
# the training pool runs its workers) sees the caller's mode.
_grad_enabled = contextvars.ContextVar("epu_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph recording within the block (evaluation paths)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class _Op:
    """Graph vertex of a computed tensor: its backward closure and input vertices.

    `grad_fn(up, fresh)` turns the upstream gradient into `_push` calls on
    the input vertices it captured.
    """

    __slots__ = ("grad_fn", "inputs")

    def __init__(self, grad_fn, inputs):
        self.grad_fn = grad_fn
        self.inputs = inputs


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_op")

    def __init__(self, data, requires_grad=False, dtype=None, _op=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.type not in _FLOATS:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._op = _op

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


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


def _vertex(t: Tensor):
    """The graph vertex of `t`: its op record, `t` itself for a requires-grad
    leaf, or None when no gradient flows to it."""
    if t._op is not None:
        return t._op
    return t if t.requires_grad else None


def _node(data: Array, vertices, grad_fn) -> Tensor:
    """Wrap an op's output; `grad_fn` pushes onto `vertices` (None entries skipped)."""
    inputs = tuple(v for v in vertices if v is not None)
    if _grad_enabled.get() and inputs:
        return Tensor(data, requires_grad=True, _op=_Op(grad_fn, inputs))
    return Tensor(data)


def _push(fresh: dict, v, g: Array) -> None:
    """Add a per-call gradient contribution for vertex `v` (None: no gradient)."""
    if v is None:
        return
    key = id(v)
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
    start = _vertex(root)
    if start is None:
        return
    topo: list = []
    seen = set()
    stack: list = [(start, False)]
    while stack:
        vertex, processed = stack.pop()
        if processed:
            topo.append(vertex)
            continue
        if id(vertex) in seen:
            continue
        seen.add(id(vertex))
        stack.append((vertex, True))
        if type(vertex) is _Op:
            for p in vertex.inputs:
                if id(p) not in seen:
                    stack.append((p, False))

    fresh: dict[int, Array] = {id(start): grad}
    for vertex in reversed(topo):
        g = fresh.pop(id(vertex), None)
        if g is None:
            continue
        if type(vertex) is _Op:
            vertex.grad_fn(g, fresh)
        elif vertex.grad is None:
            # an owned copy: `g` may be shared with other vertices or the seed
            vertex.grad = np.array(g, dtype=vertex.data.dtype)
        else:
            vertex.grad += g


# ---------------------------------------------------------------------------
# elementwise and linear ops


def add(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    out = a.data + b.data
    av, bv, ashape, bshape = _vertex(a), _vertex(b), a.data.shape, b.data.shape

    def grad_fn(up, fresh):
        _push(fresh, av, _unbroadcast(up, ashape))
        _push(fresh, bv, _unbroadcast(up, bshape))

    return _node(out, (av, bv), grad_fn)


def mul(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    out = a.data * b.data
    ad, bd, av, bv = a.data, b.data, _vertex(a), _vertex(b)

    def grad_fn(up, fresh):
        _push(fresh, av, _unbroadcast(up * bd, ad.shape))
        _push(fresh, bv, _unbroadcast(up * ad, bd.shape))

    return _node(out, (av, bv), grad_fn)


def matmul(a, b) -> Tensor:
    a, b = _astensor(a), _astensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} vs {b.data.shape}")
    # each row as its own vector-matrix product: a GEMM over several rows
    # rounds differently from one row alone, and a row's result must not
    # depend on the rows batched with it
    out = np.matmul(a.data[:, None, :], b.data)[:, 0]
    ad, bd, av, bv = a.data, b.data, _vertex(a), _vertex(b)

    def grad_fn(up, fresh):
        _push(fresh, av, up @ bd.T)
        _push(fresh, bv, ad.T @ up)

    return _node(out, (av, bv), grad_fn)


def dense(x, weight, bias) -> Tensor:
    """Affine map rows @ weight + bias (bias broadcast over rows)."""
    return add(matmul(x, weight), bias)


def relu(x) -> Tensor:
    """max(x, 0). Keeps only its output; the gradient passes where it is > 0."""
    x = _astensor(x)
    xv = _vertex(x)
    out = np.maximum(x.data, 0)

    def grad_fn(up, fresh):
        _push(fresh, xv, up * (out > 0))

    return _node(out, (xv,), grad_fn)


def tanh(x) -> Tensor:
    x = _astensor(x)
    xv = _vertex(x)
    out = np.tanh(x.data)

    def grad_fn(up, fresh):
        _push(fresh, xv, up * (1.0 - out * out))

    return _node(out, (xv,), grad_fn)


def _logistic(a: Array) -> Array:
    """1 / (1 + exp(-a)) in a's dtype, with exp taken only of non-positive values."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ex = np.exp(a[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    x = _astensor(x)
    xv = _vertex(x)
    out = _logistic(x.data)

    def grad_fn(up, fresh):
        _push(fresh, xv, up * out * (1.0 - out))

    return _node(out, (xv,), grad_fn)


def tsum(x) -> Tensor:
    x = _astensor(x)
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)
    xv, shape = _vertex(x), x.data.shape

    def grad_fn(up, fresh):
        _push(fresh, xv, np.broadcast_to(up, shape))

    return _node(out, (xv,), grad_fn)


def bce_with_logits(z, y) -> Tensor:
    """Mean binary cross-entropy of sigmoid(z) against targets `y`, from the logits.

    `z` and `y` have one shape (B,). The forward pass is
    mean(max(z, 0) - z*y + log1p(exp(-|z|))) in z's dtype, which no logit
    overflows. The gradient flows to `z` only: (sigmoid(z) - y) / B.
    """
    z = _astensor(z)
    zd = z.data
    yd = _astensor(y).data.astype(zd.dtype, copy=False)
    if zd.ndim != 1 or yd.shape != zd.shape:
        raise DimensionError(f"bce_with_logits needs (B,) logits and targets, got {zd.shape} and {yd.shape}")
    losses = np.maximum(zd, 0) - zd * yd + np.log1p(np.exp(-np.abs(zd)))
    out = np.asarray(losses.mean(), dtype=zd.dtype)
    zv, n = _vertex(z), zd.shape[0]

    def grad_fn(up, fresh):
        _push(fresh, zv, up * (_logistic(zd) - yd) / n)

    return _node(out, (zv,), grad_fn)


def reshape(x, shape) -> Tensor:
    x = _astensor(x)
    out = x.data.reshape(shape)
    xv, in_shape = _vertex(x), x.data.shape

    def grad_fn(up, fresh):
        _push(fresh, xv, up.reshape(in_shape))

    return _node(out, (xv,), grad_fn)


def flatten_batch(x) -> Tensor:
    """Collapse all but the leading axis."""
    x = _astensor(x)
    return reshape(x, (x.data.shape[0], -1))


def concat(parts) -> Tensor:
    """Join tensors along the leading axis; each part's gradient is a row-slice
    view of the upstream gradient."""
    parts = [_astensor(p) for p in parts]
    if not parts:
        raise ContractError("concat needs at least one part")
    out = np.concatenate([p.data for p in parts])
    vertices = [_vertex(p) for p in parts]
    ends = list(itertools.accumulate(p.data.shape[0] for p in parts))

    def grad_fn(up, fresh):
        for v, lo, hi in zip(vertices, [0] + ends, ends):
            _push(fresh, v, up[lo:hi])

    return _node(out, vertices, grad_fn)


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
    through the stride-1 gradient, zero between the samples. Backward keeps
    the input and the kernels, not the padded input copy: grad-w pads the
    input again.
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

    xd, kd, xv, kv = x.data, kt.data, _vertex(x), _vertex(kt)
    ho, wo = hp - kh + 1, wp - kw + 1
    flat, _, _ = _pad_flat(xd, padding, padding)
    out = np.ascontiguousarray(_xcorr(flat, hp, wp, kd)[:, :, ::stride, :wo:stride])

    def grad_fn(up, fresh):
        span = ho * wp
        # grad-x pads the stride-1 gradient by kernel - 1 - padding on each side
        qh, qw = kh - 1 - padding, kw - 1 - padding
        shared = xv is not None and qh == qw == padding
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
        if kv is not None:
            flat, _, _ = _pad_flat(xd, padding, padding)
            gk = np.empty(kd.shape, dtype=np.result_type(up, flat))
            for i in range(kh):
                for j in range(kw):
                    window = flat[:, :, i * wp + j : i * wp + j + span]
                    gk[:, :, i, j] = np.matmul(rows, window.transpose(0, 2, 1)).sum(axis=0)
            del flat, window  # freed before grad-x allocates its buffers
            _push(fresh, kv, gk)
        if xv is not None:
            flipped = kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            if not shared:
                gflat, _, _ = _pad_flat(g1[..., :wo], qh, qw)
            _push(fresh, xv, _xcorr(gflat, ho + 2 * qh, wo + 2 * qw, flipped)[..., :w])

    return _node(out, (xv, kv), grad_fn)


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
    xv = _vertex(x)
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
        _push(fresh, xv, np.ascontiguousarray(g[:, :, :h, :w]) if ph or pw else g)

    return _node(out, (xv,), grad_fn)


_BN_AXES = (0, 2, 3)


def _bn_normalize(xd: Array, mean: Array, ivstd: Array):
    """Centered input and normalized input of training-mode batchnorm.

    Forward and backward both call this, so backward's recomputed arrays are
    bitwise the ones forward used.
    """
    bc = (1, xd.shape[1], 1, 1)
    xc = xd - mean.reshape(bc)
    return xc, xc * ivstd.reshape(bc)


def batchnorm2d(
    x,
    gamma,
    beta,
    running_mean: Array,
    running_var: Array,
    training: bool,
    momentum: float = 0.9,
    eps: float = 1e-5,
) -> Tensor | list[Tensor]:
    """Channel-wise batch normalization for NCHW input.

    `x` is one tensor, or a list of parts that split one batch along its
    leading axis; the result is one tensor, or a list of parts to match. A
    single tensor is one part.

    Training mode normalizes with the biased statistics of the whole batch,
    taken over the parts joined back together, so they are bitwise those of
    one tensor holding the batch. It updates the running buffers in place:
    new = momentum*old + (1-momentum)*batch. The graph gets one statistics
    vertex, whose value is the rows (mean, var) and whose inputs are all the
    parts, and one normalize vertex per part. A part's backward pushes
    d(loss)/d(mean, var) to the statistics vertex and leaves d(loss)/d(xhat)
    of that part with it; the statistics vertex runs once every part has, and
    pushes each part its whole input gradient. Backward keeps the inputs, the
    batch mean and the inverse std, and recomputes the centered and normalized
    input from them. Evaluation mode normalizes each part with the running
    buffers and keeps the normalized input.
    """
    single = not isinstance(x, (list, tuple))
    parts = [_astensor(x)] if single else [_astensor(p) for p in x]
    gt, bt = _astensor(gamma), _astensor(beta)
    if not parts:
        raise ContractError("batchnorm2d needs at least one part")
    shape = parts[0].data.shape
    for p in parts:
        if p.data.ndim != 4:
            raise DimensionError(f"batchnorm2d expects NCHW input, got shape {p.data.shape}")
        if p.data.shape[1:] != shape[1:]:
            raise DimensionError(f"batchnorm2d parts differ in shape: {shape} and {p.data.shape}")
    ch = shape[1]
    if gt.data.shape != (ch,) or bt.data.shape != (ch,):
        raise DimensionError(
            f"batchnorm2d scale/shift must have shape ({ch},), got {gt.data.shape} and {bt.data.shape}"
        )
    if running_mean.shape != (ch,) or running_var.shape != (ch,):
        raise DimensionError(f"batchnorm2d running buffers must have shape ({ch},)")

    if training:
        stats, mean, ivstd, dxhat = _bn_statistics(parts, running_mean, running_var, momentum, eps)
        outs = [_bn_train_part(p.data, i, gt, bt, stats, mean, ivstd, dxhat) for i, p in enumerate(parts)]
    else:
        ivstd = 1.0 / np.sqrt(running_var + eps)
        outs = [_bn_eval_part(p, gt, bt, running_mean, ivstd) for p in parts]
    return outs[0] if single else outs


def _bn_statistics(parts, running_mean: Array, running_var: Array, momentum: float, eps: float):
    """Statistics vertex of training-mode batchnorm over all parts.

    Returns (stats tensor, mean, inverse std, dxhat). `dxhat[i]` is where
    part i's normalize vertex leaves d(loss)/d(xhat) in backward; this
    vertex's backward takes it from there and clears it.
    """
    xds = [p.data for p in parts]
    # one array holding the batch, as the statistics would see it unsplit
    whole = xds[0] if len(xds) == 1 else np.concatenate(xds)
    mean = whole.mean(axis=_BN_AXES)
    var = whole.var(axis=_BN_AXES)
    del whole
    ivstd = 1.0 / np.sqrt(var + eps)
    running_mean[:] = momentum * running_mean + (1.0 - momentum) * mean
    running_var[:] = momentum * running_var + (1.0 - momentum) * var
    bc = (1, mean.shape[0], 1, 1)
    m = sum(xd.shape[0] for xd in xds) * xds[0].shape[2] * xds[0].shape[3]
    vertices = [_vertex(p) for p in parts]
    dxhat: list = [None] * len(parts)

    def grad_fn(up, fresh):
        # reduce starts from the first part's sum, so one part rounds as the unsplit op
        xc_sum = functools.reduce(np.add, ((xd - mean.reshape(bc)).sum(axis=_BN_AXES) for xd in xds))
        dvar = up[1]
        dmean = up[0] + dvar * (-2.0 / m) * xc_sum
        for i, (xd, v) in enumerate(zip(xds, vertices)):
            direct, dxhat[i] = dxhat[i], None
            if v is None:
                continue
            # the direct term is added here rather than pushed by the part, so
            # the three terms are summed in the unsplit op's order
            dx = (2.0 / m) * dvar.reshape(bc) * (xd - mean.reshape(bc))
            if direct is not None:
                dx += direct * ivstd.reshape(bc)
            dx += dmean.reshape(bc) / m
            _push(fresh, v, dx)

    return _node(np.stack([mean, var]), vertices, grad_fn), mean, ivstd, dxhat


def _bn_train_part(xd: Array, i: int, gt: Tensor, bt: Tensor, stats: Tensor, mean, ivstd, dxhat) -> Tensor:
    """Normalize vertex of part `i` in training-mode batchnorm."""
    gd = gt.data
    bc = (1, gd.shape[0], 1, 1)
    sv, gv, bv = _vertex(stats), _vertex(gt), _vertex(bt)
    _, xhat = _bn_normalize(xd, mean, ivstd)

    def grad_fn(up, fresh):
        xc, xhat = _bn_normalize(xd, mean, ivstd)
        if gv is not None:
            _push(fresh, gv, (up * xhat).sum(axis=_BN_AXES))
        if bv is not None:
            _push(fresh, bv, up.sum(axis=_BN_AXES))
        if sv is not None:
            d = up * gd.reshape(bc)
            dxhat[i] = d
            dmean = -(d.sum(axis=_BN_AXES)) * ivstd
            dvar = (d * xc).sum(axis=_BN_AXES) * -0.5 * ivstd**3
            _push(fresh, sv, np.stack([dmean, dvar]))

    return _node(gd.reshape(bc) * xhat + bt.data.reshape(bc), (sv, gv, bv), grad_fn)


def _bn_eval_part(x: Tensor, gt: Tensor, bt: Tensor, running_mean: Array, ivstd: Array) -> Tensor:
    """Evaluation-mode batchnorm of one part, with the running statistics."""
    gd = gt.data
    bc = (1, gd.shape[0], 1, 1)
    xv, gv, bv = _vertex(x), _vertex(gt), _vertex(bt)
    xhat = (x.data - running_mean.reshape(bc)) * ivstd.reshape(bc)

    def grad_fn(up, fresh):
        if gv is not None:
            _push(fresh, gv, (up * xhat).sum(axis=_BN_AXES))
        if bv is not None:
            _push(fresh, bv, up.sum(axis=_BN_AXES))
        if xv is not None:
            _push(fresh, xv, up * (gd * ivstd).reshape(bc))

    return _node(gd.reshape(bc) * xhat + bt.data.reshape(bc), (xv, gv, bv), grad_fn)


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
