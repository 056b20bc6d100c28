"""Dense float tensors with reverse-mode automatic differentiation.

Implements exactly the layer set the perceptual ensembles need:
`conv_block` (a whole conv block, "same" convs at stride 1 with ReLU and a
2x2 max-pool, as one op that recomputes its inner activations in backward),
batchnorm2d, dense, relu, tanh, sigmoid, add, tsum, reshape, and
`bce_with_logits`, the training loss as one op. `conv2d` and `maxpool2d` are
the single-layer ops that `conv_block` is tested against bitwise, and the
rows of the benchmark's op table. Every op is a module-level function (`add`,
`relu`, `tsum`, `backward`, ...); a `Tensor` has no operator overloads.
`conv_block` and `batchnorm2d` take a whole batch and work through it in
parts of `MICRO_BATCH` samples, so their temporaries are sized for one part;
each records one vertex per call. Training runs these ops on each
sub-network in turn. Inference records no graph and calls none of them: it
runs their array helpers (`_block_part`, `_relu_array`, `_bn_affine`) once
over all sub-networks stacked, which they take as a leading axis
(`model.EpuModel.forward_batch`).

The operation graph is kept apart from tensor data. A computed tensor points
at a private op record, its vertex: the backward closure plus the vertices of
the op's inputs. A requires-grad leaf is its own vertex. Closures capture
arrays and vertices, never tensors, and each op saves only the arrays its
gradient reads. An output that no gradient reads, such as a conv's
pre-activation once ReLU has consumed it, is therefore freed as soon as its
tensor is dropped, and a graph holds no reference cycle: reference counting
frees it when its root goes. A vertex may also rebuild its output part by
part from the arrays it saves (batchnorm does). Three ops use that: a
`conv_block` keeps such a rebuild instead of its input, `reshape` passes it
on, each part reshaped, when the leading axis keeps its length, and `matmul`
keeps it instead of its left operand. So a block boundary keeps only the
pre-batchnorm array, and a dense layer fed by a flattened batchnorm output
keeps none. `backward` replays the vertices in reverse topological order; a
replayed vertex drops its closure, inputs and rebuild, freeing the arrays it
saved while the caller still holds the root.

Each graph is swept once: a sweep that reaches a swept vertex, from its own
root or another, raises `ContractError` before any `.grad` changes. Gradients
land on leaves only: each backward call adds its contribution to `.grad` of
every requires-grad leaf in the ancestry, so sweeps of separately built graphs
accumulate unless the grads are zeroed in between. Computed tensors pass their
gradient on and keep no `.grad`. A sweep may start from any tensor with an
explicit seed gradient, so a graph can be cut at a tensor and swept in stages.
"""
from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager

import numpy as np

from .errors import ContractError, DimensionError

Array = np.ndarray

_FLOATS = (np.float32, np.float64)


# Per context, not per process: `no_grad` on one thread leaves another
# thread's graph alone.
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
    the input vertices it captured. `rebuild`, when set, maps a `_parts`
    slice to that slice of the vertex's output, recomputed bitwise from the
    arrays the vertex saves, so a consumer may drop the output and rebuild it
    part by part in its own backward. `batchnorm2d` sets it; `reshape` sets
    its input's, reshaped; `conv_block` (for its input) and `matmul` (for its
    left operand) are the consumers that keep it instead of the array.
    """

    __slots__ = ("grad_fn", "inputs", "rebuild")

    def __init__(self, grad_fn, inputs, rebuild=None):
        self.grad_fn = grad_fn
        self.inputs = inputs
        self.rebuild = rebuild


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_op")

    def __init__(self, data, requires_grad=False, _op=None):
        arr = np.asarray(data)
        if arr.dtype.type not in _FLOATS:
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._op = _op

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _astensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
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


def _node(data: Array, vertices, grad_fn, rebuild=None) -> Tensor:
    """Wrap an op's output; `grad_fn` pushes onto `vertices` (None entries skipped)."""
    inputs = tuple(v for v in vertices if v is not None)
    if _grad_enabled.get() and inputs:
        return Tensor(data, requires_grad=True, _op=_Op(grad_fn, inputs, rebuild))
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
    requires-grad leaf reachable from `root`. Each vertex is swept once: once
    its closure has pushed its gradients it drops the closure, its inputs and
    its rebuild, freeing the arrays it saved, and a later sweep that reaches
    it raises `ContractError` before touching any `.grad`.
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
            if vertex.inputs is None:
                raise ContractError("backward reached a vertex that an earlier sweep already freed")
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
            # frees the arrays the closures saved
            vertex.grad_fn = vertex.inputs = vertex.rebuild = None
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


def matmul(a, b) -> Tensor:
    """Row-by-row product of 2-D `a` and `b`.

    The graph keeps `b` and, when `b` needs a gradient, `a`. An `a` whose
    vertex can rebuild it part by part (a `reshape` of a `batchnorm2d`
    output) is not kept: backward rebuilds it, bitwise, for the gradient of
    `b`.
    """
    a, b = _astensor(a), _astensor(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise DimensionError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise DimensionError(f"matmul inner dims differ: {a.data.shape} vs {b.data.shape}")
    # each row as its own vector-matrix product: a GEMM over several rows
    # rounds differently from one row alone, and a row's result must not
    # depend on the rows batched with it
    out = np.matmul(a.data[:, None, :], b.data)[:, 0]
    bd, av, bv, batch = b.data, _vertex(a), _vertex(b), a.data.shape[0]
    # the weight gradient reads the left operand; one that its producer can
    # rebuild (a reshaped batchnorm output) is rebuilt there instead of kept
    rebuild = av.rebuild if type(av) is _Op else None
    kept = None if rebuild else a.data

    def grad_fn(up, fresh):
        _push(fresh, av, up @ bd.T)
        if bv is not None:
            ad = kept if rebuild is None else _join_parts(rebuild, batch)
            _push(fresh, bv, ad.T @ up)

    return _node(out, (av, bv), grad_fn)


def dense(x, weight, bias) -> Tensor:
    """Affine map rows @ weight + bias (bias broadcast over rows)."""
    return add(matmul(x, weight), bias)


def _relu_array(a: Array, out: Array | None = None) -> Array:
    """max(a, 0), into `out` when given. Every ReLU of the package runs here."""
    return np.maximum(a, 0, out=out)


def relu(x) -> Tensor:
    """max(x, 0). Keeps only its output; the gradient passes where it is > 0."""
    x = _astensor(x)
    xv = _vertex(x)
    out = _relu_array(x.data)

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
    """`x`'s data reshaped to `shape`.

    When the leading axis keeps its length, each sample's elements stay in
    its row, so a vertex of `x` that can rebuild its output part by part (a
    `batchnorm2d` output) has that rebuild passed on, each part reshaped.
    """
    x = _astensor(x)
    out = x.data.reshape(shape)
    xv, in_shape = _vertex(x), x.data.shape
    rebuild = None
    if type(xv) is _Op and xv.rebuild is not None and out.shape[:1] == in_shape[:1]:
        inner, tail = xv.rebuild, out.shape[1:]

        def rebuild(s):
            return inner(s).reshape((-1, *tail))

    def grad_fn(up, fresh):
        _push(fresh, xv, up.reshape(in_shape))

    return _node(out, (xv,), grad_fn, rebuild)


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


def _pad_flat(a: Array, pad: int):
    """Zero-pad H and W by `pad` on both sides, then row-flatten with one
    spare zero row.

    Returns (flat, hp, wp) where flat has shape (..., C, (hp + 1) * wp) for
    input (..., C, H, W). The spare row keeps every shifted window of
    `_xcorr` inside the buffer.
    """
    *lead, h, w = a.shape
    hp, wp = h + 2 * pad, w + 2 * pad
    flat = np.zeros((*lead, hp + 1, wp), dtype=a.dtype)
    flat[..., pad : pad + h, pad : pad + w] = a
    return flat.reshape(*lead, (hp + 1) * wp), hp, wp


def _xcorr(flat: Array, hp: int, wp: int, kernels: Array) -> Array:
    """Stride-1 cross-correlation of a `_pad_flat` buffer with OIHW kernels.

    Kernel offset (i, j) reads the contiguous window flat[..., o : o + ho*wp]
    with o = i*wp + j, so each offset is one GEMM over row-flattened pixels.
    A (B, C, L) buffer takes (O, C, kh, kw) kernels and returns (B, O, ho,
    wp). A buffer and kernels with a leading sub-network axis, (N, B, C, L)
    and (N, O, C, kh, kw), correlate each sub-network's samples with its own
    kernels, that axis leading each matmul, and return (N, B, O, ho, wp):
    every sample runs the GEMMs it runs alone. The last kw - 1 columns of
    every row wrap into the next row and are dropped by the caller.
    """
    *lead, cin, _ = flat.shape
    *klead, cout, _, kh, kw = kernels.shape
    ho = hp - kh + 1
    span = ho * wp
    offsets = [i * wp + j for i in range(kh) for j in range(kw)]
    if cin * kh * kw <= _STACKED_MAX_PATCH:
        stacked = np.empty((*lead, cin, kh * kw, span), dtype=flat.dtype)
        for n, o in enumerate(offsets):
            stacked[..., n, :] = flat[..., o : o + span]
        out = np.matmul(kernels.reshape(*klead, 1, cout, -1), stacked.reshape(*lead, -1, span))
    else:
        # one contiguous (O, C) matrix per offset, so numpy's matmul hands it to BLAS
        nd = kernels.ndim
        per_offset = np.ascontiguousarray(kernels.transpose(nd - 2, nd - 1, *range(nd - 2)))
        per_offset = per_offset.reshape(kh * kw, *klead, 1, cout, cin)
        out = np.matmul(per_offset[0], flat[..., :span])
        tmp = np.empty_like(out)
        for n, o in enumerate(offsets[1:], 1):
            out += np.matmul(per_offset[n], flat[..., o : o + span], out=tmp)
    return out.reshape(*lead, cout, ho, wp)


def _check_conv(xshape, kshape) -> None:
    """Shape checks of one conv: NCHW input, OIKK kernels with odd K."""
    if len(xshape) != 4:
        raise DimensionError(f"conv2d expects NCHW input, got shape {xshape}")
    if len(kshape) != 4 or kshape[2] != kshape[3] or kshape[2] % 2 == 0:
        raise DimensionError(f"conv2d expects OIKK kernels with odd K, got shape {kshape}")
    cin, kin = xshape[1], kshape[1]
    if kin != cin:
        raise DimensionError(f"conv2d channel mismatch: input {cin}, kernels {kin}")


def _conv_forward(xd: Array, kd: Array) -> Array:
    """"Same" conv output of a checked input and kernels, or of a stacked
    (N, B, C, H, W) input and (N, O, C, k, k) kernels (see `_xcorr`): a view
    into the GEMM's buffer, whose rows carry k - 1 wrapped columns past the
    view."""
    flat, hp, wp = _pad_flat(xd, kd.shape[-1] // 2)
    return _xcorr(flat, hp, wp, kd)[..., : xd.shape[-1]]


def _conv_backward(xd: Array, kd: Array, up: Array, want_gk: bool, want_gx: bool):
    """(kernel gradient, input gradient) of one conv for upstream gradient `up`;
    each is None unless asked for.

    Reads only the input and the kernels: grad-w pads the input again. Both
    gradients read one buffer, `up` zero-padded like the input: grad-x
    correlates it with the flipped kernels, and grad-w reads its rows from
    it, where the columns that wrap into the next row are zero padding.
    """
    h, w = xd.shape[2:]
    pad = kd.shape[2] // 2
    gflat, hp, wp = _pad_flat(up, pad)
    gk = gx = None
    if want_gk:
        span, start = h * wp, pad * wp + pad
        rows = gflat[:, :, start : start + span]
        flat, _, _ = _pad_flat(xd, pad)
        gk = np.empty(kd.shape, dtype=np.result_type(up, flat))
        for i in range(kd.shape[2]):
            for j in range(kd.shape[3]):
                window = flat[:, :, i * wp + j : i * wp + j + span]
                gk[:, :, i, j] = np.matmul(rows, window.transpose(0, 2, 1)).sum(axis=0)
        del flat, window  # freed before grad-x allocates its buffers
    if want_gx:
        flipped = kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        gx = _xcorr(gflat, hp, wp, flipped)[..., :w]
    return gk, gx


def conv2d(x, kernels, padding: int) -> Tensor:
    """2-D "same" cross-correlation over NCHW input at stride 1, no bias.

    kernels has shape (out_channels, in_channels, k, k) with odd k, and the
    input is zero-padded by `padding`, which must be k // 2: the output has
    the input's height and width. Backward keeps the input and the kernels,
    not the padded input copy.
    """
    x, kt = _astensor(x), _astensor(kernels)
    _check_conv(x.data.shape, kt.data.shape)
    if padding != kt.data.shape[2] // 2:
        raise ContractError(f"conv2d padding must be k // 2 = {kt.data.shape[2] // 2}, got {padding}")
    xd, kd, xv, kv = x.data, kt.data, _vertex(x), _vertex(kt)
    out = np.ascontiguousarray(_conv_forward(xd, kd))

    def grad_fn(up, fresh):
        gk, gx = _conv_backward(xd, kd, up, kv is not None, xv is not None)
        _push(fresh, kv, gk)
        _push(fresh, xv, gx)

    return _node(out, (xv, kv), grad_fn)


# Side of the square max-pool window, the only one there is: every pool maps
# H x W to ceil(H / POOL_WINDOW) x ceil(W / POOL_WINDOW).
POOL_WINDOW = 2
# (row, column) offset in the window of each winner index, in row-major order
_POOL_OFFSETS = [divmod(n, POOL_WINDOW) for n in range(POOL_WINDOW * POOL_WINDOW)]


def _pack_index(full: Array) -> Array:
    """(..., 4q) uint8 winner offsets, each 0-3, as (..., q) bytes of four
    2-bit fields: column 4m + t goes to bits 2t and 2t + 1 of byte m."""
    # As little-endian uint32, column 4m + t is bits 8t up of word m; shifting
    # the word right by 6t brings it to bit 2t. A field is below 4, so no
    # shift brings any other set bit into byte 0, the byte that astype keeps.
    u = full.view("<u4")
    p = u >> 6
    p |= u
    t = u >> 12
    p |= t
    np.right_shift(u, 18, out=t)
    p |= t
    return p.astype(np.uint8)


def _unpack_index(packed: Array, wo: int) -> Array:
    """The (..., wo) uint8 winner offsets that `_pack_index` packed into `packed`."""
    # the inverse shifts: 6 puts field 1 at bit 8 and field 3 at bit 12, then
    # 12 puts field 2 at bit 16 and field 3 at bit 24; the mask keeps those
    u = packed.astype("<u4")
    t = u << 6
    u |= t
    np.left_shift(u, 12, out=t)
    u |= t
    u &= 0x03030303
    return u.view(np.uint8)[..., :wo]


def _pool_max(xd: Array, record: bool):
    """Max-pool output of `xd` and, when `record`, its winner index (else None).

    Every max-pool of the package runs here. It pools the last two axes of
    an array of any leading shape. See `maxpool2d` for the order of ties and
    NaNs that the output and the index follow. The index of a (B, C, ho, wo)
    output is (B, C, ho, ceil(wo / 4)) uint8, packed by `_pack_index`; a
    ragged row's last byte is zero-padded.
    """
    k = POOL_WINDOW
    *lead, h, w = xd.shape
    ho, wo = -(-h // k), -(-w // k)
    ph, pw = ho * k - h, wo * k - w
    if ph or pw:
        xp = np.pad(xd, ((0, 0),) * len(lead) + ((0, ph), (0, pw)), constant_values=-np.inf)
    else:
        xp = xd
    out = xp[..., ::k, ::k].copy()
    win = None
    if record:
        # the offsets go in a row padded to whole bytes of the packed index
        full = np.zeros((*lead, ho, -(-wo // 4) * 4), dtype=np.uint8)
        win = full[..., :wo]
        gt, cand = np.empty(out.shape, dtype=bool), np.empty(out.shape, dtype=np.uint8)
    for n, (i, j) in enumerate(_POOL_OFFSETS[1:], 1):
        v = xp[..., i::k, j::k]
        if record:
            # offsets come in increasing order, so a later strict winner has
            # the larger index; a max is several times faster than a masked copy
            np.greater(v, out, out=gt)
            np.maximum(win, np.multiply(gt, np.uint8(n), out=cand), out=win)
        # the running maximum goes second: numpy returns the second operand of
        # an equal pair, so a tie (-0.0 against +0.0) keeps the earlier value
        np.maximum(v, out, out=out)
    if record:
        nan = np.isnan(out)
        if nan.any():
            # a NaN never compares greater; its window goes to its first NaN
            for n, (i, j) in reversed(list(enumerate(_POOL_OFFSETS))):
                np.copyto(win, np.uint8(n), where=nan & np.isnan(xp[..., i::k, j::k]))
        win = _pack_index(full)
    return out, win


def _pool_scatter(up: Array, packed: Array, h: int, w: int) -> Array:
    """Gradient of a max-pool's (B, C, h, w) input: each window's upstream
    value at its winner, +0.0 elsewhere. `packed` is `_pool_max`'s index."""
    # Multiplying up's bit pattern by the 0/1 mask writes up's exact bits
    # where the gradient goes and +0.0 elsewhere (a masked float copy is
    # several times slower on strided views). The views tile g, so every
    # element is written once and g needs no zero fill.
    k = POOL_WINDOW
    win = _unpack_index(packed, up.shape[3])
    batch, ch, ho, wo = win.shape
    bits = np.dtype(f"u{up.dtype.itemsize}")
    g = np.empty((batch, ch, ho * k, wo * k), dtype=up.dtype)
    hit = np.empty(win.shape, dtype=bool)
    for n, (i, j) in enumerate(_POOL_OFFSETS):
        np.equal(win, n, out=hit)
        np.multiply(up.view(bits), hit, out=g.view(bits)[:, :, i::k, j::k])
    return g if g.shape[2:] == (h, w) else np.ascontiguousarray(g[:, :, :h, :w])


def maxpool2d(x, window: int) -> Tensor:
    """2x2 max pooling; ragged edges padded with -inf (output ceil(H/2)).

    `window` must be `POOL_WINDOW`. The output is the elementwise maximum of
    the four strided views xp[:, :, i::2, j::2], taken in row-major order of
    (i, j). A NaN in a window makes its output NaN. Ties keep the first
    maximum's value, and the gradient goes to the first maximum in row-major
    order, or to the first NaN. When a graph is recorded, the forward max
    loop also notes that winner's offset in the window, 2 bits per output
    element; backward reads only that index, so the graph keeps neither the
    input nor the output. Without a graph no index is computed.
    """
    x = _astensor(x)
    if x.data.ndim != 4:
        raise DimensionError(f"maxpool2d expects NCHW input, got shape {x.data.shape}")
    if window != POOL_WINDOW:
        raise ContractError(f"maxpool2d window must be {POOL_WINDOW}, got {window}")
    xv = _vertex(x)
    h, w = x.data.shape[2:]
    out, win = _pool_max(x.data, xv is not None and _grad_enabled.get())

    def grad_fn(up, fresh):
        _push(fresh, xv, _pool_scatter(up, win, h, w))

    return _node(out, (xv,), grad_fn)


# Samples per part of `conv_block` and `batchnorm2d`, which run a batch part
# by part so their temporaries are sized for one part. A conv buffer of 64
# samples, (64, 8, 64, 66) float32, is 8.6 MB, four times a core's 2 MiB L2
# cache; the same buffer for 8 samples is 1.1 MB and stays in it.
MICRO_BATCH = 8


def _parts(batch: int) -> list[slice]:
    """Leading-axis slices of `MICRO_BATCH` samples covering `batch`; the last may be shorter."""
    return [slice(lo, lo + MICRO_BATCH) for lo in range(0, batch, MICRO_BATCH)]


def _batch_array(buf: Array | None, batch: int, part: Array) -> Array:
    """`buf`, or when it is None a new array of `batch` samples shaped and typed as `part`'s."""
    return np.empty((batch, *part.shape[1:]), dtype=part.dtype) if buf is None else buf


def _join_parts(rebuild, batch: int) -> Array:
    """The whole output of `batch` samples, built part by part by `rebuild`."""
    out = None
    for s in _parts(batch):
        part = rebuild(s)
        out = _batch_array(out, batch, part)
        out[s] = part
    return out


def _block_part(h: Array, kds, record: bool, tap: int | None = None):
    """A conv block's forward on one part, up to its last ReLU: conv, ReLU,
    ..., conv, max-pool. The part is (B, C, H, W) with (O, C, k, k) kernels,
    or stacked sub-networks, (N, B, C, H, W) with (N, O, C, k, k) kernels
    (see `_xcorr`).

    Returns (pooled, winner index when `record` else None, activations):
    with `tap`, a 0-based conv index, the activations are that conv's
    post-ReLU output, else None. The last conv's ReLU runs after the pool, so
    its activations are a ReLU of the unpooled output, bitwise `relu`'s.
    """
    act, last = None, len(kds) - 1
    for n, kd in enumerate(kds):
        h = _conv_forward(h, kd)
        if n < last:
            _relu_array(h, out=h)
            if n == tap:
                act = h
        elif n == tap:
            act = np.maximum(h, 0)
    pooled, win = _pool_max(h, record)
    return pooled, win, act


def conv_block(x, kernels) -> Tensor:
    """One conv block on NCHW input: conv, ReLU, ..., conv, max-pool, ReLU.

    The convs run in the order of `kernels`, each as `conv2d` does: "same"
    padding at stride 1. The pool is `maxpool2d`'s 2x2 pool. The block's
    last ReLU comes after the pool: ReLU is monotone, so this equals pooling
    the ReLU output. The batch runs in parts of `MICRO_BATCH` samples, forward
    and backward, and the op records one vertex for the whole batch. For
    batches of up to `MICRO_BATCH` samples the output and every gradient are
    bitwise those of the same sequence of `conv2d`, `relu` and `maxpool2d`,
    whose helpers this op calls. Above that, the output and the input
    gradient still are, but each kernel gradient is summed part by part, so
    it may differ in the low bits.

    A recorded vertex keeps the input, the kernels, the pool's winner index
    at 2 bits per pooled element (one packed batch array, filled part by
    part) and the output, whose sign masks the last ReLU's gradient; it keeps
    no full-resolution activation. An input whose vertex can rebuild it (a
    `batchnorm2d` output) is not kept: backward rebuilds each part of it,
    bitwise, from batchnorm's saved input. Backward, part by part, recomputes
    the inner ReLU outputs from the input, then runs the convs' backward in
    reverse. It thus re-runs every conv's forward but the last one, whose
    backward reads only its input and the gradient that the winner index
    scatters.

    A sub-network's forward in training runs its blocks through this op, one
    sub-network at a time. Evaluation runs no graph and does not call it: it
    runs each part through `_block_part`, as this op does, over all
    sub-networks at once (see `model.EpuModel.forward_batch`).
    """
    x = _astensor(x)
    kts = [_astensor(k) for k in kernels]
    if not kts:
        raise ContractError("conv_block needs at least one kernel")
    last = len(kts) - 1
    xd, kds = x.data, [k.data for k in kts]
    if xd.ndim != 4 or xd.shape[0] == 0:
        raise DimensionError(f"conv_block expects NCHW input of at least one sample, got shape {xd.shape}")
    # a "same" conv keeps H and W, so each conv's input shape is known up front
    shape = xd.shape
    for kd in kds:
        _check_conv(shape, kd.shape)
        shape = (shape[0], kd.shape[0], *shape[2:])
    xv, kvs = _vertex(x), [_vertex(k) for k in kts]
    record = _grad_enabled.get() and any(v is not None for v in (xv, *kvs))
    # backward reads the input part by part; an input that its producer can
    # rebuild (batchnorm's output) is rebuilt there instead of kept
    rebuild = xv.rebuild if type(xv) is _Op else None
    kept = None if rebuild else xd
    batch, ch, cw = xd.shape[0], *xd.shape[2:]
    out = win = None
    for s in _parts(batch):
        pooled, part_win, _ = _block_part(xd[s], kds, record)
        out = _batch_array(out, batch, pooled)
        _relu_array(pooled, out=out[s])
        if record:
            win = _batch_array(win, batch, part_win)
            win[s] = part_win

    def grad_fn(up, fresh):
        gks = [None] * len(kds)
        gx_all = None
        for s in _parts(batch):
            g = _pool_scatter(up[s] * (out[s] > 0), win[s], ch, cw)
            # each conv's input: the block input, then the inner ReLU outputs,
            # recomputed as forward made them
            hs = [kept[s] if rebuild is None else rebuild(s)]
            for kd in kds[:-1]:
                c = _conv_forward(hs[-1], kd)
                hs.append(_relu_array(c, out=c))
            for n in range(last, -1, -1):
                hn = hs.pop()
                gk, gx = _conv_backward(hn, kds[n], g, kvs[n] is not None, n > 0 or xv is not None)
                if gks[n] is None:
                    gks[n] = gk
                else:
                    gks[n] += gk
                if n:
                    # hn is conv n-1's ReLU output
                    g = gx * (hn > 0)
            if xv is not None:
                gx_all = _batch_array(gx_all, batch, gx)
                gx_all[s] = gx
        for kv, gk in zip(kvs, gks):
            _push(fresh, kv, gk)
        _push(fresh, xv, gx_all)

    return _node(out, (xv, *kvs), grad_fn)


_BN_AXES = (0, 2, 3)
# share of its old value that a running buffer keeps at each training-mode update
_BN_MOMENTUM = 0.9
_BN_EPS = 1e-5


def _bn_normalize(xd: Array, mean: Array, ivstd: Array):
    """Centered input and normalized input of batchnorm: `mean` and `ivstd`
    broadcast over the last two axes of `xd`, so (C,) statistics normalize
    (B, C, H, W) input and (N, 1, C) statistics a stacked (N, B, C, H, W) one.

    Forward and backward both call this, so backward's recomputed arrays are
    bitwise the ones forward used.
    """
    xc = xd - mean[..., None, None]
    return xc, xc * ivstd[..., None, None]


def _bn_ivstd(var: Array) -> Array:
    return 1.0 / np.sqrt(var + _BN_EPS)


def _bn_affine(xd: Array, mean: Array, ivstd: Array, gamma: Array, beta: Array) -> Array:
    """Batchnorm's output gamma * xhat + beta, every argument broadcast as in
    `_bn_normalize`. `batchnorm2d` and the evaluation pass over stacked
    sub-networks both normalize here."""
    return gamma[..., None, None] * _bn_normalize(xd, mean, ivstd)[1] + beta[..., None, None]


def batchnorm2d(x, gamma, beta, running_mean: Array, running_var: Array, training: bool) -> Tensor:
    """Channel-wise batch normalization for NCHW input.

    Training mode normalizes with the biased mean and variance of the whole
    batch and updates the running buffers in place:
    new = _BN_MOMENTUM*old + (1-_BN_MOMENTUM)*batch. Evaluation mode
    normalizes with the running buffers as they are at the call.

    Both modes normalize in slices of `MICRO_BATCH` samples, so the op's
    temporaries are sized for one slice. The graph keeps the input, the mean
    and the inverse std; backward recomputes the centered and normalized
    input slice by slice. It makes two passes over the slices: the first sums
    the per-channel terms, the second writes the input gradient. A batch of
    one slice gets bitwise the gradients of the textbook formulas on the
    whole batch; a longer batch sums the terms slice by slice.
    """
    x, gt, bt = _astensor(x), _astensor(gamma), _astensor(beta)
    xd, gd, bd = x.data, gt.data, bt.data
    if xd.ndim != 4 or xd.shape[0] == 0:
        raise DimensionError(f"batchnorm2d expects NCHW input of at least one sample, got shape {xd.shape}")
    ch = xd.shape[1]
    if gd.shape != (ch,) or bd.shape != (ch,):
        raise DimensionError(f"batchnorm2d scale/shift must have shape ({ch},), got {gd.shape} and {bd.shape}")
    if running_mean.shape != (ch,) or running_var.shape != (ch,):
        raise DimensionError(f"batchnorm2d running buffers must have shape ({ch},)")

    if training:
        mean = xd.mean(axis=_BN_AXES)
        var = xd.var(axis=_BN_AXES)
        running_mean[:] = _BN_MOMENTUM * running_mean + (1.0 - _BN_MOMENTUM) * mean
        running_var[:] = _BN_MOMENTUM * running_var + (1.0 - _BN_MOMENTUM) * var
    else:
        # a copy: backward must see the statistics that forward used
        mean, var = running_mean.copy(), running_var
    ivstd = _bn_ivstd(var)
    batch, bc = xd.shape[0], (1, ch, 1, 1)

    def rebuild(s):
        return _bn_affine(xd[s], mean, ivstd, gd, bd)

    out = _join_parts(rebuild, batch)
    xv, gv, bv = _vertex(x), _vertex(gt), _vertex(bt)

    def grad_fn(up, fresh):
        # per channel: d/d(gamma), d/d(beta) and, in training, the sums over
        # d(loss)/d(xhat), d(loss)/d(xhat) * xc and xc
        sums = None
        for s in _parts(batch):
            xc, xhat = _bn_normalize(xd[s], mean, ivstd)
            u = up[s]
            terms = [(u * xhat).sum(axis=_BN_AXES), u.sum(axis=_BN_AXES)]
            if training:
                d = u * gd.reshape(bc)
                terms += [d.sum(axis=_BN_AXES), (d * xc).sum(axis=_BN_AXES), xc.sum(axis=_BN_AXES)]
            sums = terms if sums is None else [a + b for a, b in zip(sums, terms)]
        _push(fresh, gv, sums[0])
        _push(fresh, bv, sums[1])
        if xv is None:
            return
        if not training:
            _push(fresh, xv, up * (gd * ivstd).reshape(bc))
            return
        m = batch * xd.shape[2] * xd.shape[3]
        d_sum, dxc_sum, xc_sum = sums[2:]
        dvar = dxc_sum * -0.5 * ivstd**3
        dmean = -d_sum * ivstd + dvar * (-2.0 / m) * xc_sum
        dx = None
        for s in _parts(batch):
            xc, _ = _bn_normalize(xd[s], mean, ivstd)
            part = up[s] * gd.reshape(bc) * ivstd.reshape(bc) + (2.0 / m) * dvar.reshape(bc) * xc
            part += dmean.reshape(bc) / m
            dx = _batch_array(dx, batch, part)
            dx[s] = part
        _push(fresh, xv, dx)

    return _node(out, (xv, gv, bv), grad_fn, rebuild)


# ---------------------------------------------------------------------------
# initialization and optimization


def kaiming_uniform(shape, fan_in: int, rng: np.random.Generator) -> Array:
    """float32 uniform init on [-sqrt(6/fan_in), sqrt(6/fan_in)]."""
    if fan_in < 1:
        raise ContractError(f"fan_in must be >= 1, got {fan_in}")
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32)


def sgd_step(params, lr: float) -> None:
    """In-place w -= lr * grad for every leaf tensor with a gradient, then zero."""
    for t in params:
        if t.grad is not None:
            t.data -= (lr * t.grad).astype(t.data.dtype, copy=False)
            t.grad = None


def zero_grads(params) -> None:
    for t in params:
        t.grad = None
