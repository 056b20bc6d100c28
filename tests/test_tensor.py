import gc
import itertools
import threading
import weakref

import numpy as np
import pytest

from epu import tensor as T
from epu.errors import ContractError, DimensionError
from gradcheck import coord_check, dot, leaf


def test_conv2d_hand_example():
    # a 3x3 kernel of ones over a zero-padded 2x2 input sums all four pixels
    x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    k = T.Tensor(np.ones((1, 1, 3, 3)))
    out = T.conv2d(x, k, padding=1)
    assert out.data.shape == (1, 1, 2, 2)
    assert np.all(out.data == 10.0)


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((2, 3, 5, 5)))
    k = T.Tensor(np.zeros((4, 3, 3, 3)))
    out = T.conv2d(x, k, padding=1)
    assert np.all(out.data == 0.0)
    assert out.data.shape == (2, 4, 5, 5)


def test_conv2d_output_shape_formula():
    # "same": the output keeps the input's height and width
    x = T.Tensor(np.zeros((1, 2, 11, 9)))
    for ksize in (1, 3, 5):
        out = T.conv2d(x, T.Tensor(np.zeros((3, 2, ksize, ksize))), padding=ksize // 2)
        assert out.data.shape == (1, 3, 11, 9)


def test_conv2d_channel_mismatch():
    x = T.Tensor(np.zeros((1, 2, 4, 4)))
    k = T.Tensor(np.zeros((3, 5, 3, 3)))
    with pytest.raises(DimensionError):
        T.conv2d(x, k, padding=1)


def test_conv2d_rejects_other_padding_and_kernel_shapes():
    x = T.Tensor(np.zeros((1, 2, 6, 6)))
    for pad in (0, 2):
        with pytest.raises(ContractError) as info:
            T.conv2d(x, T.Tensor(np.zeros((3, 2, 3, 3))), padding=pad)
        assert str(info.value) == f"conv2d padding must be k // 2 = 1, got {pad}"
    for shape in ((3, 2, 2, 2), (3, 2, 3, 5)):
        with pytest.raises(DimensionError) as info:
            T.conv2d(x, T.Tensor(np.zeros(shape)), padding=1)
        assert len(str(info.value).splitlines()) == 1


def _conv2d_direct(x, k, up):
    """Forward, grad-w and grad-x of a "same" conv2d by direct float64 loops over output pixels."""
    ksize = k.shape[2]
    pad = ksize // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = x.shape[2:]
    out = np.zeros((x.shape[0], k.shape[0], ho, wo))
    gk = np.zeros(k.shape)
    gxp = np.zeros(xp.shape)
    for i in range(ho):
        for j in range(wo):
            rows, cols = slice(i, i + ksize), slice(j, j + ksize)
            patch = xp[:, :, rows, cols]
            for b in range(x.shape[0]):
                for o in range(k.shape[0]):
                    out[b, o, i, j] = (patch[b] * k[o]).sum()
                    gk[o] += up[b, o, i, j] * patch[b]
                    gxp[b, :, rows, cols] += up[b, o, i, j] * k[o]
    gx = gxp[:, :, pad : pad + x.shape[2], pad : pad + x.shape[3]]
    return out, gk, gx


def test_conv2d_matches_direct_loops():
    # forward, grad-w and grad-x against float64 loops, with a non-uniform upstream
    # gradient; input channels on both sides of the stacked/per-offset GEMM choice
    rng = np.random.default_rng(7)
    for cin, ksize, batch in itertools.product((1, 3, 8), (1, 3, 5), (1, 3)):
        x = rng.standard_normal((batch, cin, 7, 9))
        k = rng.standard_normal((2, cin, ksize, ksize))
        up = rng.standard_normal((batch, 2, 7, 9))
        ref_out, ref_gk, ref_gx = _conv2d_direct(x, k, up)
        for dtype, rtol in ((np.float64, 1e-10), (np.float32, 1e-4)):
            xt = T.Tensor(x.astype(dtype), requires_grad=True)
            kt = T.Tensor(k.astype(dtype), requires_grad=True)
            out = T.conv2d(xt, kt, padding=ksize // 2)
            T.backward(out, up.astype(dtype))
            case = (cin, ksize, batch, dtype.__name__)
            for got, ref in ((out.data, ref_out), (kt.grad, ref_gk), (xt.grad, ref_gx)):
                assert got.dtype == dtype, case
                assert got.shape == ref.shape, case
                assert np.allclose(got, ref, rtol=rtol, atol=rtol * np.abs(ref).max()), case


def test_conv2d_gradcheck_spec_shape():
    # random 1x2x5x5 input, 3x2x3x3 kernels, kernel grads vs central differences
    base = np.random.default_rng(3)
    x = base.standard_normal((1, 2, 5, 5))
    k = base.standard_normal((3, 2, 3, 3))

    def make_loss(ls):
        return T.tsum(T.conv2d(ls[0], ls[1], padding=1))

    fails = coord_check(make_loss, [leaf(x), leaf(k)], np.random.default_rng(4), coords=18)
    assert fails == []


@pytest.mark.parametrize("ksize", [1, 3])
def test_conv2d_gradcheck_kernel_sizes(ksize):
    base = np.random.default_rng(10 + ksize)
    x = base.standard_normal((2, 3, 6, 6))
    k = base.standard_normal((2, 3, ksize, ksize))
    w = base.standard_normal((2, 2, 6, 6))  # weight the outputs unevenly

    def make_loss(ls):
        return dot(T.conv2d(ls[0], ls[1], padding=ksize // 2), w)

    fails = coord_check(make_loss, [leaf(x), leaf(k)], np.random.default_rng(5), coords=12)
    assert fails == []


def test_maxpool_hand_examples():
    out = T.maxpool2d(T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]])), 2)
    assert out.data.reshape(()) == 4.0
    const = T.maxpool2d(T.Tensor(np.full((1, 2, 4, 4), 3.5)), 2)
    assert np.all(const.data == 3.5)
    assert const.data.shape == (1, 2, 2, 2)


def test_maxpool_ragged_edges():
    x = np.arange(25, dtype=np.float32).reshape(1, 1, 5, 5)
    out = T.maxpool2d(T.Tensor(x), 2)
    assert out.data.shape == (1, 1, 3, 3)
    ref = np.array([[6, 8, 9], [16, 18, 19], [21, 23, 24]], dtype=np.float32)
    assert np.array_equal(out.data[0, 0], ref)


def test_maxpool_gradient_routes_to_argmax():
    x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
    T.backward(T.tsum(T.maxpool2d(x, 2)))
    assert np.array_equal(x.grad[0, 0], np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_maxpool_tie_routes_to_first():
    x = T.Tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
    T.backward(T.tsum(T.maxpool2d(x, 2)))
    assert np.array_equal(x.grad[0, 0], np.array([[1.0, 0.0], [0.0, 0.0]]))


def _maxpool_direct(x, window, up):
    """Forward and gradient of max pooling by loops over each window's real pixels.

    The first maximum in row-major order, or the first NaN, gives the window
    its value and takes its upstream gradient.
    """
    batch, ch, h, w = x.shape
    ho, wo = -(-h // window), -(-w // window)
    out = np.empty((batch, ch, ho, wo), dtype=x.dtype)
    gx = np.zeros(x.shape, dtype=up.dtype)
    for b, c, i, j in itertools.product(range(batch), range(ch), range(ho), range(wo)):
        best = None
        for r in range(i * window, min((i + 1) * window, h)):
            for s in range(j * window, min((j + 1) * window, w)):
                v = x[b, c, r, s]
                if best is None or v > x[best] or (np.isnan(v) and not np.isnan(x[best])):
                    best = (b, c, r, s)
        out[b, c, i, j] = x[best]
        gx[best] = up[b, c, i, j]
    return out, gx


def _maxpool_argmax(x, window, up):
    """Max pooling as an argmax over each window copied into a last axis."""
    batch, ch, h, w = x.shape
    ho, wo = -(-h // window), -(-w // window)
    xp = np.pad(x, ((0, 0), (0, 0), (0, ho * window - h), (0, wo * window - w)), constant_values=-np.inf)
    tiles = xp.reshape(batch, ch, ho, window, wo, window).transpose(0, 1, 2, 4, 3, 5)
    flat = np.ascontiguousarray(tiles).reshape(batch, ch, ho, wo, window * window)
    idx = flat.argmax(axis=-1)[..., None]
    out = np.take_along_axis(flat, idx, axis=-1)[..., 0]
    g = np.zeros(flat.shape, dtype=up.dtype)
    np.put_along_axis(g, idx, up[..., None], axis=-1)
    g = g.reshape(batch, ch, ho, wo, window, window).transpose(0, 1, 2, 4, 3, 5)
    return out, g.reshape(xp.shape)[:, :, :h, :w]


def test_maxpool_matches_references():
    # forward and gradient bitwise against loops and the argmax formula: values
    # rounded to 0.5 give many ties (signed zeros among them), NaNs take over their
    # window, and ragged sides pool over -inf padding
    rng = np.random.default_rng(17)
    kinds = ("plain", "ties", "nans")
    # pooled widths 3, 4, 1, 2 and 5 put every wo % 4 through the packed index
    sides = ((6, 6), (5, 7), (4, 1), (3, 3), (6, 9))
    grid = itertools.product(sides, (1, 3), (np.float32, np.float64), kinds)
    window = T.POOL_WINDOW
    for (h, w), batch, dtype, kind in grid:
        x = rng.standard_normal((batch, 2, h, w))
        if kind != "plain":
            x = np.round(x * 2) / 2
        if kind == "nans":
            x[rng.random(x.shape) < 0.15] = np.nan
        x = x.astype(dtype)
        up = rng.standard_normal((batch, 2, -(-h // window), -(-w // window))).astype(dtype)
        xt = T.Tensor(x, requires_grad=True)
        out = T.maxpool2d(xt, window)
        T.backward(out, up)
        case = (h, w, batch, dtype.__name__, kind)
        assert out.data.dtype == dtype and xt.grad.dtype == dtype, case
        for ref_out, ref_grad in (_maxpool_direct(x, window, up), _maxpool_argmax(x, window, up)):
            assert out.data.tobytes() == ref_out.tobytes(), case
            assert xt.grad.tobytes() == ref_grad.tobytes(), case


def test_maxpool_rejects_other_windows():
    x = T.Tensor(np.zeros((1, 2, 6, 6)))
    for window in (0, 1, 3, 17):
        with pytest.raises(ContractError) as info:
            T.maxpool2d(x, window)
        assert str(info.value) == f"maxpool2d window must be 2, got {window}"


def test_relu_after_maxpool_matches_relu_before_bitwise():
    # relu is monotone, so pooling before it gives the same values and sends
    # the same gradient bits to the same elements: ties, signed zeros, NaNs and
    # ragged sides included. A window whose maximum is <= 0 passes no gradient
    # either way; its zero takes up's sign, at the first element with relu
    # first and at the first maximum with the pool first.
    rng = np.random.default_rng(29)
    kinds = ("plain", "ties", "nans")
    grid = itertools.product(((6, 6), (5, 7)), (np.float32, np.float64), kinds)
    window = T.POOL_WINDOW
    for (h, w), dtype, kind in grid:
        x = rng.standard_normal((3, 2, h, w))
        if kind != "plain":
            x = np.round(x * 2) / 2
            x[rng.random(x.shape) < 0.2] = -0.0
        if kind == "nans":
            x[rng.random(x.shape) < 0.15] = np.nan
        x = x.astype(dtype)
        up = rng.standard_normal((3, 2, -(-h // window), -(-w // window)))
        up[rng.random(up.shape) < 0.2] = -0.0
        up = up.astype(dtype)
        after = T.Tensor(x, requires_grad=True)
        out_after = T.relu(T.maxpool2d(after, window))
        T.backward(out_after, up)
        before = T.Tensor(x, requires_grad=True)
        out_before = T.maxpool2d(T.relu(before), window)
        T.backward(out_before, up)
        case = (h, w, dtype.__name__, kind)
        assert out_after.data.tobytes() == out_before.data.tobytes(), case
        blocked = (out_after.data <= 0).repeat(window, 2).repeat(window, 3)[:, :, :h, :w]
        bits = f"u{x.itemsize}"
        got, want = after.grad.view(bits), before.grad.view(bits)
        assert np.array_equal(got[~blocked], want[~blocked]), case
        assert not after.grad[blocked].any() and not before.grad[blocked].any(), case


def test_recorded_maxpool_keeps_only_its_winner_index():
    for shape in ((2, 3, 8, 8), (2, 3, 7, 9)):
        x = T.Tensor(np.random.default_rng(31).standard_normal(shape), requires_grad=True)
        out = T.maxpool2d(x, 2)
        held = [c.cell_contents for c in out._op.grad_fn.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        # the input leaf is held as its vertex only, not for its data
        assert [a for a in held if isinstance(a, T.Tensor)] == [x]
        # 2 bits per pooled element, a pooled row in ceil(wo / 4) bytes:
        # nothing of the input's or the output's size
        *lead, wo = out.data.shape
        assert [(a.dtype, a.shape) for a in arrays] == [(np.uint8, (*lead, -(-wo // 4)))]


def test_maxpool_gradcheck():
    base = np.random.default_rng(11)
    # unique spaced values keep windows far from ties at the probe step
    x = (base.permutation(2 * 2 * 6 * 6).astype(np.float64) * 0.1).reshape(2, 2, 6, 6)
    w = base.standard_normal((2, 2, 3, 3))

    def make_loss(ls):
        return dot(T.maxpool2d(ls[0], 2), w)

    fails = coord_check(make_loss, [leaf(x)], np.random.default_rng(12), coords=24)
    assert fails == []


def _block_unfused(x, kernels):
    """The sequence of public ops that `conv_block` fuses, for 3x3 kernels."""
    h = x
    for n, k in enumerate(kernels):
        h = T.conv2d(h, k, padding=1)
        if n == len(kernels) - 1:
            h = T.maxpool2d(h, T.POOL_WINDOW)
        h = T.relu(h)
    return h


def test_conv_block_matches_unfused_ops_bitwise():
    # output, input and kernel gradients and every tap, bitwise against the
    # conv2d / relu / maxpool2d sequence: blocks of 1 to 3 convs, ragged pool
    # windows, part sizes 1 and 3, tied windows (values on a 0.5 grid, so conv
    # outputs tie and hit signed zeros), and NaNs that spread through the convs
    rng = np.random.default_rng(37)
    kinds = ("plain", "ties", "nans")
    grid = itertools.product((1, 2, 3), ((8, 8), (7, 9)), (1, 3), (np.float32, np.float64), kinds)
    for count, (h, w), batch, dtype, kind in grid:
        chans = (2, 3, 4, 3)[: count + 1]
        x = rng.standard_normal((batch, chans[0], h, w))
        ks = [rng.standard_normal((co, ci, 3, 3)) * 0.5 for ci, co in zip(chans, chans[1:])]
        if kind != "plain":
            x = np.round(x * 2) / 2
            ks = [np.round(k * 2) / 2 for k in ks]
        if kind == "nans":
            x[rng.random(x.shape) < 0.02] = np.nan
        up = rng.standard_normal((batch, chans[-1], -(-h // 2), -(-w // 2)))
        up[rng.random(up.shape) < 0.2] = -0.0
        case = (count, h, w, batch, dtype.__name__, kind)
        results = []
        for op in (T.conv_block, _block_unfused):
            xt = T.Tensor(x.astype(dtype), requires_grad=True)
            kts = [T.Tensor(k.astype(dtype), requires_grad=True) for k in ks]
            out = op(xt, kts)
            T.backward(out, up.astype(dtype))
            results.append([out.data, xt.grad, *(k.grad for k in kts)])
        for got, want in zip(*results):
            assert _same_bits(got, want), case
        # taps: each conv's post-ReLU output, np.maximum of the unfused conv's
        h = T.Tensor(x.astype(dtype))
        for tap, k in enumerate(ks):
            conv = T.conv2d(h, T.Tensor(k.astype(dtype)), padding=1)
            out, act = T.conv_block(T.Tensor(x.astype(dtype)), [k.astype(dtype) for k in ks], tap)
            assert _same_bits(out.data, results[1][0]), case
            assert _same_bits(act, np.maximum(conv.data, 0)), (case, tap)
            h = T.relu(conv)


@pytest.mark.parametrize("count", [1, 2, 3])
def test_conv_block_gradcheck(count):
    base = np.random.default_rng(40 + count)
    chans = (2, 3, 2, 2)[: count + 1]
    x = base.standard_normal((2, chans[0], 7, 7))
    ks = [base.standard_normal((co, ci, 3, 3)) * 0.5 for ci, co in zip(chans, chans[1:])]
    w = base.standard_normal((2, chans[-1], 4, 4))  # weight the outputs unevenly

    def make_loss(ls):
        return dot(T.conv_block(ls[0], ls[1:]), w)

    # a small step keeps the probes off the ReLU kinks and pool ties
    leaves = [leaf(x), *(leaf(k) for k in ks)]
    fails = coord_check(make_loss, leaves, np.random.default_rng(50 + count), step=1e-6, coords=12)
    assert fails == []


def test_conv_block_ragged_batch_matches_unsplit_ops():
    # 19 samples run as parts of 8, 8 and 3: the output and every tap are
    # bitwise those of the unfused ops on the whole batch, the gradients equal
    # up to the order of the per-part kernel gradient sums
    assert T.MICRO_BATCH == 8
    rng = np.random.default_rng(38)
    x = rng.standard_normal((19, 2, 7, 9))
    ks = [rng.standard_normal((co, ci, 3, 3)) * 0.5 for ci, co in ((2, 3), (3, 4))]
    up = rng.standard_normal((19, 4, 4, 5))
    for dtype in (np.float32, np.float64):
        results = []
        for op in (T.conv_block, _block_unfused):
            xt = T.Tensor(x.astype(dtype), requires_grad=True)
            kts = [T.Tensor(k.astype(dtype), requires_grad=True) for k in ks]
            out = op(xt, kts)
            T.backward(out, up.astype(dtype))
            results.append([out.data, xt.grad, *(k.grad for k in kts)])
        (got_out, *got_grads), (want_out, *want_grads) = results
        assert _same_bits(got_out, want_out), dtype
        if dtype == np.float64:
            for got, want in zip(got_grads, want_grads):
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        h = T.Tensor(x.astype(dtype))
        for tap, k in enumerate(ks):
            conv = T.conv2d(h, T.Tensor(k.astype(dtype)), padding=1)
            _, act = T.conv_block(T.Tensor(x.astype(dtype)), [k.astype(dtype) for k in ks], tap)
            assert _same_bits(act, np.maximum(conv.data, 0)), (dtype, tap)
            h = T.relu(conv)


def test_conv_block_ragged_batch_gradcheck():
    base = np.random.default_rng(44)
    x = base.standard_normal((19, 2, 5, 5))
    ks = [base.standard_normal((co, ci, 3, 3)) * 0.5 for ci, co in ((2, 3), (3, 2))]
    w = base.standard_normal((19, 2, 3, 3))

    def make_loss(ls):
        return dot(T.conv_block(ls[0], ls[1:]), w)

    leaves = [leaf(x), *(leaf(k) for k in ks)]
    fails = coord_check(make_loss, leaves, np.random.default_rng(45), step=1e-6, coords=12)
    assert fails == []


def test_recorded_conv_block_keeps_input_kernels_index_and_output():
    rng = np.random.default_rng(43)
    x = T.Tensor(rng.standard_normal((2, 2, 8, 8)).astype(np.float32), requires_grad=True)
    shapes = ((3, 2, 3, 3), (4, 3, 3, 3))
    kts = [T.Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in shapes]
    out = T.conv_block(x, kts)
    held = []
    for cell in out._op.grad_fn.__closure__:
        v = cell.cell_contents
        held.extend(v if isinstance(v, list) else [v])
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    # the leaves are held as their vertices; of arrays, the input, the kernels,
    # the output and a winner index at 2 bits per pooled element, a pooled row
    # in ceil(wo / 4) bytes: no full-resolution activation
    assert sorted(id(t) for t in held if isinstance(t, T.Tensor)) == sorted(map(id, (x, *kts)))
    want = (x.data, *(k.data for k in kts), out.data)
    assert sorted(id(a) for a in arrays if a.dtype != np.uint8) == sorted(map(id, want))
    *lead, wo = out.data.shape
    assert [a.shape for a in arrays if a.dtype == np.uint8] == [(*lead, -(-wo // 4))]


def test_conv_block_bad_arguments():
    x = T.Tensor(np.zeros((1, 2, 6, 6)))
    k = T.Tensor(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ContractError):
        T.conv_block(x, [])
    with pytest.raises(ContractError):
        T.conv_block(x, [k], tap=1)
    with pytest.raises(DimensionError):
        T.conv_block(x, [k, k])  # the second conv's channels do not chain
    with pytest.raises(DimensionError):
        T.conv_block(x, [T.Tensor(np.zeros((3, 2, 2, 2)))])  # even kernel
    with pytest.raises(DimensionError):
        T.conv_block(T.Tensor(np.zeros((0, 2, 6, 6))), [k])


def test_batchnorm_trivial_cases():
    gamma = T.Tensor(np.ones(3))
    beta = T.Tensor(np.zeros(3))
    rm, rv = np.zeros(3, np.float64), np.ones(3, np.float64)
    const = T.Tensor(np.full((2, 3, 4, 4), 2.0))
    out = T.batchnorm2d(const, gamma, beta, rm, rv, training=True)
    assert np.allclose(out.data, 0.0, atol=1e-4)
    beta5 = T.Tensor(np.full(3, 5.0))
    out5 = T.batchnorm2d(const, gamma, beta5, rm, rv, training=True)
    assert np.allclose(out5.data, 5.0, atol=1e-4)


def test_batchnorm_normalizes_batch():
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.normal(3.0, 2.0, size=(8, 4, 6, 6)))
    gamma = T.Tensor(np.ones(4))
    beta = T.Tensor(np.zeros(4))
    rm, rv = np.zeros(4, np.float64), np.ones(4, np.float64)
    out = T.batchnorm2d(x, gamma, beta, rm, rv, training=True).data
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-4)
    assert np.allclose(out.var(axis=(0, 2, 3)), 1.0, atol=1e-4)


def test_batchnorm_running_stats_momentum():
    rng = np.random.default_rng(3)
    x = rng.normal(1.5, 0.5, size=(4, 2, 3, 3))
    rm, rv = np.zeros(2, np.float64), np.ones(2, np.float64)
    T.batchnorm2d(T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), rm, rv, training=True)
    bm = x.mean(axis=(0, 2, 3))
    bv = x.var(axis=(0, 2, 3))
    assert np.allclose(rm, 0.1 * bm, atol=1e-6)
    assert np.allclose(rv, 0.9 * 1.0 + 0.1 * bv, atol=1e-6)


def test_batchnorm_eval_uses_running_stats():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 2, 3, 3))
    rm = np.array([0.5, -0.5])
    rv = np.array([4.0, 0.25])
    out = T.batchnorm2d(
        T.Tensor(x), T.Tensor(np.ones(2)), T.Tensor(np.zeros(2)), rm.copy(), rv.copy(), training=False
    ).data
    ref = (x - rm.reshape(1, 2, 1, 1)) / np.sqrt(rv.reshape(1, 2, 1, 1) + 1e-5)
    assert np.allclose(out, ref, atol=1e-6)


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_gradcheck(training):
    base = np.random.default_rng(21 if training else 22)
    x = base.standard_normal((3, 2, 4, 4))
    g = base.standard_normal(2) + 1.5
    b = base.standard_normal(2)
    w = base.standard_normal((3, 2, 4, 4))
    rm = base.standard_normal(2)
    rv = base.standard_normal(2) ** 2 + 0.5

    def make_loss(ls):
        out = T.batchnorm2d(ls[0], ls[1], ls[2], rm.copy(), rv.copy(), training=training)
        return dot(out, w)

    fails = coord_check(
        make_loss, [leaf(x), leaf(g), leaf(b)], np.random.default_rng(23), coords=16
    )
    assert fails == []


def test_dense_trivial_and_gradcheck():
    eye = T.Tensor(np.eye(3))
    x = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    out = T.dense(T.Tensor(x), eye, T.Tensor(np.zeros(3)))
    assert np.allclose(out.data, x)
    zb = T.dense(T.Tensor(np.zeros((2, 3))), eye, T.Tensor(np.array([1.0, 2.0, 3.0])))
    assert np.allclose(zb.data, np.tile([1.0, 2.0, 3.0], (2, 1)))

    base = np.random.default_rng(30)
    xs = base.standard_normal((2, 3))
    ws = base.standard_normal((3, 2))
    bs = base.standard_normal(2)
    wsum = base.standard_normal((2, 2))

    def make_loss(ls):
        return dot(T.dense(ls[0], ls[1], ls[2]), wsum)

    fails = coord_check(make_loss, [leaf(xs), leaf(ws), leaf(bs)], np.random.default_rng(31))
    assert fails == []


def test_dense_dimension_error():
    with pytest.raises(DimensionError):
        T.dense(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros(2)))


def test_activation_symmetry_points():
    assert float(T.tanh(T.Tensor(0.0)).data) == 0.0
    assert float(T.sigmoid(T.Tensor(0.0)).data) == 0.5
    assert abs(float(T.sigmoid(T.Tensor(4.0)).data) - 0.98201) < 1e-5


def test_tanh_gradient_at_zero():
    x = T.Tensor(0.0, requires_grad=True)
    T.backward(T.tanh(x))
    assert x.grad == pytest.approx(1.0)


def test_sum_gradient_is_ones():
    x = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    T.backward(T.tsum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_requires_scalar():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(T.add(x, 1.0))


def test_backward_accumulates_across_separate_graphs():
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    first, second = dot(x, x), dot(x, x)
    T.backward(first)
    once = x.grad.copy()
    T.backward(second)
    assert np.array_equal(x.grad, 2.0 * once)


def _fan_out_graph(rng):
    """Leaves (x, k, w) and a (2, 3) root whose conv output feeds two branches."""
    x = T.Tensor(rng.standard_normal((2, 1, 5, 5)), requires_grad=True)
    k = T.Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
    w = T.Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    h = T.relu(T.conv2d(x, k, padding=1))
    h = T.add(T.maxpool2d(h, 2), T.tanh(T.maxpool2d(h, 2)))
    return (x, k, w), T.matmul(T.flatten_batch(T.maxpool2d(h, 2)), w)


def test_backward_seed_matches_weighted_sum():
    # seeding d(loss)/d(root) directly equals sweeping sum(root * g) from the top
    g = np.random.default_rng(1).standard_normal((2, 3))
    leaves, root = _fan_out_graph(np.random.default_rng(0))
    T.backward(root, g)
    seeded = [t.grad.copy() for t in leaves]
    leaves, root = _fan_out_graph(np.random.default_rng(0))
    T.backward(dot(root, g))
    for got, ref in zip(seeded, (t.grad for t in leaves)):
        assert np.array_equal(got, ref)


def _grad_bytes(leaves):
    return [None if t.grad is None else t.grad.tobytes() for t in leaves]


def test_backward_second_sweep_of_a_graph_raises():
    g = np.random.default_rng(1).standard_normal((2, 3))
    leaves, root = _fan_out_graph(np.random.default_rng(0))
    T.backward(root, g)
    before = _grad_bytes(leaves)
    with pytest.raises(ContractError, match="already freed"):
        T.backward(root, g)
    assert _grad_bytes(leaves) == before


@pytest.mark.parametrize("fresh_first", (True, False))
def test_backward_from_a_root_sharing_a_swept_subgraph_raises(fresh_first):
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.standard_normal((2, 1, 5, 5)), requires_grad=True)
    k = T.Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
    h = T.relu(T.conv2d(x, k, padding=1))
    T.backward(T.tsum(h))
    # the second root also reaches the fresh leaf `v`, on either side of the
    # swept `h` in the sweep order; no leaf may take a gradient
    v = T.Tensor(np.ones(3), requires_grad=True)
    parts = (T.tsum(v), T.tsum(T.tanh(h)))
    other = T.add(*(parts if fresh_first else parts[::-1]))
    before = _grad_bytes((x, k))
    with pytest.raises(ContractError, match="already freed"):
        T.backward(other)
    assert _grad_bytes((x, k)) == before and v.grad is None


def test_backward_leaf_grad_is_an_owned_copy_of_the_first_gradient():
    # the pooled position receives the seed's exact bits, -0.0 included
    x = T.Tensor(np.array([[[[1.0, 4.0], [2.0, 3.0]]]], dtype=np.float32), requires_grad=True)
    T.backward(T.maxpool2d(x, 2), np.full((1, 1, 1, 1), -0.0, dtype=np.float32))
    assert np.signbit(x.grad[0, 0, 0, 1])
    assert x.grad.dtype == np.float32
    # the gradient follows the leaf's dtype, not the seed's
    leaf = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    seed = np.array([1.0, -0.0, 2.5])
    T.backward(leaf, seed)
    assert leaf.grad.dtype == np.float32
    assert np.signbit(leaf.grad[1])
    # changing the seed afterwards leaves .grad alone
    seed[:] = 7.0
    assert np.array_equal(leaf.grad, [1.0, -0.0, 2.5])


def test_backward_seed_shape_mismatch():
    _, root = _fan_out_graph(np.random.default_rng(0))
    for shape in ((3, 2), (2,), (1,), ()):
        with pytest.raises(ContractError):
            T.backward(root, np.ones(shape))


def test_backward_keeps_grads_on_leaves_only():
    x = T.Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    w = T.Tensor(np.array([0.5, 0.5, 0.5]), requires_grad=True)
    hidden = T.relu(T.add(x, w))
    scaled = T.add(hidden, hidden)
    T.backward(T.tsum(scaled))
    assert hidden.grad is None and scaled.grad is None
    assert np.array_equal(x.grad, [2.0, 0.0, 2.0])
    assert np.array_equal(w.grad, [2.0, 0.0, 2.0])


def test_broadcast_add_unbroadcasts_grad():
    a = T.Tensor(np.ones((3, 4)), requires_grad=True)
    b = T.Tensor(np.ones(4), requires_grad=True)
    T.backward(T.tsum(T.add(a, b)))
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.all(b.grad == 3.0)


def test_scalar_constants_do_not_widen_dtype():
    x = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    y = T.add(T.add(1.0, x), 2)
    assert y.data.dtype == np.float32


@pytest.mark.parametrize("seed", range(10))
def test_elementwise_gradchecks_many_seeds(seed):
    base = np.random.default_rng(100 + seed)
    x = base.standard_normal((3, 4)) * 2.0
    x += 0.05 * np.where(x >= 0, 1.0, -1.0)  # keep relu probes off the kink
    w = base.standard_normal((3, 4))
    y = (base.uniform(size=12) < 0.5).astype(np.float64)

    def make_loss(ls):
        t = ls[0]
        pieces = [
            T.relu(t),
            T.tanh(t),
            T.sigmoid(t),
        ]
        acc = None
        for p in pieces:
            term = dot(p, w)
            acc = term if acc is None else T.add(acc, term)
        bce = T.bce_with_logits(T.reshape(t, (12,)), y)
        return T.add(T.add(acc, dot(t, t)), bce)

    fails = coord_check(make_loss, [leaf(x)], np.random.default_rng(seed), coords=12)
    assert fails == []


def test_composed_network_gradcheck():
    # conv -> pool -> dense -> binary cross-entropy on the logits
    base = np.random.default_rng(42)
    x = base.standard_normal((2, 1, 6, 6))
    k = base.standard_normal((2, 1, 3, 3)) * 0.5
    wf = base.standard_normal((2 * 3 * 3, 1)) * 0.3
    bf = base.standard_normal(1)
    y = np.array([1.0, 0.0])

    def make_loss(ls):
        h = T.relu(T.conv2d(ls[0], ls[1], padding=1))
        h = T.maxpool2d(h, 2)
        h = T.flatten_batch(h)
        return T.bce_with_logits(T.reshape(T.dense(h, ls[2], ls[3]), (2,)), y)

    fails = coord_check(
        make_loss,
        [leaf(x), leaf(k), leaf(wf), leaf(bf)],
        np.random.default_rng(43),
        coords=10,
    )
    assert fails == []


def test_sgd_step_formula():
    t = T.Tensor(np.array([1.0]), requires_grad=True)
    t.grad = np.array([2.0])
    T.sgd_step([t], lr=0.1)
    assert t.data[0] == pytest.approx(0.8)
    assert t.grad is None
    T.sgd_step([t], lr=0.0)
    assert t.data[0] == pytest.approx(0.8)


def test_sgd_two_steps_same_grad():
    t = T.Tensor(np.array([1.0]), requires_grad=True)
    for _ in range(2):
        t.grad = np.array([0.5])
        T.sgd_step([t], lr=0.2)
    assert t.data[0] == pytest.approx(1.0 - 2 * 0.2 * 0.5)


def test_no_grad_blocks_graph():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = T.tsum(T.add(x, x))
    assert y._op is None


def test_no_grad_on_one_thread_leaves_another_threads_graph():
    inside, done = threading.Event(), threading.Event()

    def evaluator():
        with T.no_grad():
            inside.set()
            done.wait(timeout=10)

    thread = threading.Thread(target=evaluator)
    thread.start()
    try:
        assert inside.wait(timeout=10)
        x = T.Tensor(np.ones(3), requires_grad=True)
        y = T.tsum(T.add(x, x))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert y._op is not None
    T.backward(y)
    assert np.array_equal(x.grad, np.full(3, 2.0))


def _bn_whole_batch(x, gamma, beta, rm, rv, training, up):
    """Batchnorm of the whole batch in one numpy pass: (output, running mean,
    running var, x grad, gamma grad, beta grad); training mode's gradients
    are `_bn_backward_saved`'s."""
    axes, bc = (0, 2, 3), (1, x.shape[1], 1, 1)
    if training:
        mean, var = x.mean(axis=axes), x.var(axis=axes)
        rm = 0.9 * rm + (1.0 - 0.9) * mean
        rv = 0.9 * rv + (1.0 - 0.9) * var
    else:
        mean, var = rm, rv
    ivstd = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mean.reshape(bc)) * ivstd.reshape(bc)
    out = gamma.reshape(bc) * xhat + beta.reshape(bc)
    if training:
        grads = _bn_backward_saved(x, gamma, up)
    else:
        grads = (up * (gamma * ivstd).reshape(bc), (up * xhat).sum(axis=axes), up.sum(axis=axes))
    return (out, rm, rv, *grads)


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_ragged_batch_matches_whole_batch(training):
    # 19 samples run as slices of 8, 8 and 3: the output and the running
    # buffers are bitwise those of one pass over the batch, the gradients
    # equal up to the order of the per-slice sums
    assert T.MICRO_BATCH == 8
    rng = np.random.default_rng(26)
    x = rng.standard_normal((19, 3, 5, 4)) * 2.0 + 0.5
    gamma, beta = rng.standard_normal(3) + 1.5, rng.standard_normal(3)
    rm0, rv0 = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
    up = rng.standard_normal(x.shape)
    for dtype in (np.float32, np.float64):
        xt, gt, bt = (T.Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta))
        rm, rv = rm0.astype(dtype), rv0.astype(dtype)
        out = T.batchnorm2d(xt, gt, bt, rm, rv, training)
        T.backward(out, up.astype(dtype))
        want = _bn_whole_batch(*(a.astype(dtype) for a in (x, gamma, beta, rm0, rv0)), training, up.astype(dtype))
        for got, ref in zip((out.data, rm, rv), want[:3]):
            assert _same_bits(got, ref), dtype
        if dtype == np.float64:
            for got, ref in zip((xt.grad, gt.grad, bt.grad), want[3:]):
                np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_batchnorm_ragged_batch_gradcheck():
    base = np.random.default_rng(24)
    x = base.standard_normal((19, 2, 3, 4))
    g = base.standard_normal(2) + 1.5
    b = base.standard_normal(2)
    w = base.standard_normal(x.shape)

    def make_loss(ls):
        out = T.batchnorm2d(ls[0], ls[1], ls[2], np.zeros(2), np.ones(2), training=True)
        return dot(T.tanh(out), w)

    fails = coord_check(make_loss, [leaf(x), leaf(g), leaf(b)], np.random.default_rng(25), coords=12)
    assert fails == []


def test_batchnorm_bad_shapes():
    ones, zeros = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    for shape in ((2, 2, 4), (0, 2, 4, 4), (2, 3, 4, 4)):
        with pytest.raises(DimensionError):
            T.batchnorm2d(T.Tensor(np.ones(shape)), ones, zeros, np.zeros(2), np.ones(2), training=True)


def test_kaiming_uniform_bound_and_determinism():
    a = T.kaiming_uniform((50, 50), fan_in=50, rng=np.random.default_rng(9))
    b = T.kaiming_uniform((50, 50), fan_in=50, rng=np.random.default_rng(9))
    bound = np.sqrt(6.0 / 50)
    assert np.array_equal(a, b)
    assert a.dtype == np.float32
    assert np.all(np.abs(a) <= bound)
    assert np.abs(a).max() > 0.8 * bound  # actually spans the range


# ---------------------------------------------------------------------------
# what the graph keeps


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_conv_preactivation_freed_once_relu_consumed_it():
    rng = np.random.default_rng(11)
    x_np = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
    k_np = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    grads = []
    for keep in (True, False):
        x = T.Tensor(x_np.copy(), requires_grad=True)
        k = T.Tensor(k_np.copy(), requires_grad=True)
        c = T.conv2d(x, k, padding=1)
        h = T.relu(c)
        if not keep:
            ref = weakref.ref(c.data)
            del c
            # no gc.collect(): reference counting alone frees the array
            assert ref() is None
        T.backward(T.tsum(h))
        grads.append((x.grad, k.grad))
    for got, want in zip(grads[1], grads[0]):
        assert _same_bits(got, want)


def test_backward_frees_saved_arrays_while_the_root_lives():
    rng = np.random.default_rng(13)
    x = T.Tensor(rng.standard_normal((3, 2, 8, 8)).astype(np.float32), requires_grad=True)
    shapes = ((3, 2, 3, 3), (4, 3, 3, 3))
    kts = [T.Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in shapes]
    gamma = T.Tensor(np.ones(4, dtype=np.float32), requires_grad=True)
    beta = T.Tensor(np.zeros(4, dtype=np.float32), requires_grad=True)
    h = T.conv_block(x, kts)
    root = T.tsum(T.batchnorm2d(h, gamma, beta, np.zeros(4), np.ones(4), training=True))
    ref = weakref.ref(h.data)
    del h
    # the block's and batchnorm's closures both hold the block's output until swept
    assert ref() is not None
    T.backward(root)
    # no gc.collect(): reference counting alone frees the array
    assert ref() is None
    assert root._op.grad_fn is None and root._op.inputs is None


def test_conv_block_fed_by_batchnorm_keeps_no_batchnorm_output():
    # the block rebuilds its input from batchnorm's saved arrays in backward,
    # so the recorded graph keeps batchnorm's input but not its output
    rng = np.random.default_rng(14)
    x = T.Tensor(rng.standard_normal((11, 2, 8, 8)).astype(np.float32), requires_grad=True)
    gamma = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    beta = T.Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    kts = [T.Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32), requires_grad=True)]
    refs, bn_ops = [], []

    def forward():
        y = T.batchnorm2d(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
        refs.append(weakref.ref(y.data))
        bn_ops.append(y._op)
        return T.tsum(T.conv_block(y, kts))

    root = forward()
    # no gc.collect(): reference counting alone frees the array
    assert refs[0]() is None
    assert bn_ops[0].rebuild is not None
    T.backward(root)
    assert bn_ops[0].rebuild is None  # the sweep frees what the rebuild saved
    assert all(t.grad is not None for t in (x, gamma, beta, *kts))


@pytest.mark.parametrize("training", [True, False])
def test_conv_block_rebuilt_input_gradients_match_the_cut_chain(training):
    # batchnorm -> conv_block, where the block rebuilds batchnorm's output in
    # backward, against the same chain cut at that output: a requires-grad
    # leaf copy, swept in two seeded stages. 11 samples run as parts of 8 and 3.
    assert T.MICRO_BATCH == 8
    rng = np.random.default_rng(16)
    x = rng.standard_normal((11, 2, 7, 9)) * 2.0 + 0.5
    gamma, beta = rng.standard_normal(2) + 1.5, rng.standard_normal(2)
    rm, rv = rng.standard_normal(2), rng.uniform(0.5, 2.0, 2)
    ks = [rng.standard_normal((co, ci, 3, 3)) * 0.5 for ci, co in ((2, 3), (3, 4))]
    up = rng.standard_normal((11, 4, 4, 5))
    for dtype in (np.float32, np.float64):
        results = []
        for cut in (False, True):
            leaves = [T.Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta, *ks)]
            y = T.batchnorm2d(*leaves[:3], rm.astype(dtype), rv.astype(dtype), training)
            if cut:
                c = T.Tensor(y.data.copy(), requires_grad=True)
                out = T.conv_block(c, leaves[3:])
                T.backward(out, up.astype(dtype))
                T.backward(y, c.grad)
            else:
                out = T.conv_block(y, leaves[3:])
                T.backward(out, up.astype(dtype))
            results.append([out.data, *(t.grad for t in leaves)])
        for got, want in zip(*results):
            assert _same_bits(got, want), dtype


def test_matmul_fed_by_reshaped_batchnorm_keeps_no_batchnorm_output():
    # reshape passes batchnorm's rebuild on and matmul keeps it instead of its
    # left operand, so the graph of batchnorm -> flatten -> matmul keeps
    # batchnorm's input but not its output
    rng = np.random.default_rng(15)
    x = T.Tensor(rng.standard_normal((11, 2, 3, 3)).astype(np.float32), requires_grad=True)
    gamma = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    beta = T.Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    w = T.Tensor(rng.standard_normal((18, 4)).astype(np.float32), requires_grad=True)
    refs, ops = [], []

    def forward():
        y = T.batchnorm2d(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
        flat = T.flatten_batch(y)
        refs.append(weakref.ref(y.data))
        ops.extend([y._op, flat._op])
        return T.tsum(T.matmul(flat, w))

    root = forward()
    # no gc.collect(): reference counting alone frees the array
    assert refs[0]() is None
    assert all(op.rebuild is not None for op in ops)
    T.backward(root)
    assert all(op.rebuild is None for op in ops)  # the sweep frees what the rebuilds saved
    assert all(t.grad is not None for t in (x, gamma, beta, w))
    # a reshape that moves samples across rows passes no rebuild on
    y = T.batchnorm2d(x, gamma, beta, np.zeros(2), np.ones(2), training=True)
    assert T.reshape(y, (22, 9))._op.rebuild is None
    assert T.reshape(y, (11, 2, 9))._op.rebuild is not None


@pytest.mark.parametrize("training", [True, False])
def test_matmul_rebuilt_operand_gradients_match_the_cut_chain(training):
    # batchnorm -> flatten -> matmul, where matmul rebuilds the flattened
    # batchnorm output for the weight gradient, against the same chain cut at
    # that output: a requires-grad leaf copy, swept in two seeded stages.
    # 11 samples run as parts of 8 and 3.
    assert T.MICRO_BATCH == 8
    rng = np.random.default_rng(17)
    x = rng.standard_normal((11, 3, 2, 3)) * 2.0 + 0.5
    gamma, beta = rng.standard_normal(3) + 1.5, rng.standard_normal(3)
    rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
    w = rng.standard_normal((18, 5))
    up = rng.standard_normal((11, 5))
    for dtype in (np.float32, np.float64):
        results = []
        for cut in (False, True):
            leaves = [T.Tensor(a.astype(dtype), requires_grad=True) for a in (x, gamma, beta, w)]
            flat = T.flatten_batch(T.batchnorm2d(*leaves[:3], rm.astype(dtype), rv.astype(dtype), training))
            if cut:
                c = T.Tensor(flat.data.copy(), requires_grad=True)
                out = T.matmul(c, leaves[3])
                T.backward(out, up.astype(dtype))
                T.backward(flat, c.grad)
            else:
                out = T.matmul(flat, leaves[3])
                T.backward(out, up.astype(dtype))
            results.append([out.data, *(t.grad for t in leaves)])
        for got, want in zip(*results):
            assert _same_bits(got, want), dtype


def test_graph_has_no_cycles_and_closures_hold_no_tensors():
    rng = np.random.default_rng(12)
    x = T.Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    k = T.Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
    g = T.Tensor(np.ones(2), requires_grad=True)
    b = T.Tensor(np.zeros(2), requires_grad=True)
    w = T.Tensor(rng.standard_normal((8, 3)), requires_grad=True)
    leaves = {id(t) for t in (x, k, g, b, w)}

    def build():
        h = T.relu(T.conv2d(x, k, padding=1))
        h = T.maxpool2d(h, 2)
        h = T.batchnorm2d(h, g, b, np.zeros(2), np.ones(2), training=True)
        h = T.matmul(T.flatten_batch(h), w)
        h = T.add(T.tanh(h), T.sigmoid(h))
        h = T.add(T.sigmoid(h), T.add(h, 1.0))
        return T.bce_with_logits(T.reshape(T.tanh(h), (6,)), np.ones(6))

    def op_closures(root):
        """Every op record's closure; checks what each closure holds."""
        ops, stack = [], [root._op]
        while stack:
            op = stack.pop()
            if any(op is seen for seen in ops):
                continue
            ops.append(op)
            for cell in op.grad_fn.__closure__ or ():
                held = cell.cell_contents
                assert held is not op
                # a closure may hold a requires-grad leaf (its vertex), never a computed tensor
                if isinstance(held, T.Tensor):
                    assert id(held) in leaves
            stack.extend(v for v in op.inputs if isinstance(v, T._Op))
        return [op.grad_fn for op in ops]

    gc.disable()  # only reference counting may free the graph
    try:
        loss = build()
        closures = op_closures(loss)
        assert len(closures) >= 15
        # an op record outlives its closure only in a cycle
        refs = [weakref.ref(fn) for fn in closures]
        del loss, closures
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


def _bn_backward_saved(x, gamma, up, eps=1e-5):
    """Training-mode batchnorm backward as formulated with saved xc and xhat."""
    axes = (0, 2, 3)
    bc = (1, x.shape[1], 1, 1)
    mean = x.mean(axis=axes)
    var = x.var(axis=axes)
    xc = x - mean.reshape(bc)
    ivstd = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivstd.reshape(bc)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    dgamma = (up * xhat).sum(axis=axes)
    dbeta = up.sum(axis=axes)
    dxhat = up * gamma.reshape(bc)
    dvar = (dxhat * xc).sum(axis=axes) * -0.5 * ivstd**3
    dmean = -(dxhat.sum(axis=axes)) * ivstd + dvar * (-2.0 / m) * xc.sum(axis=axes)
    dx = dxhat * ivstd.reshape(bc) + (2.0 / m) * dvar.reshape(bc) * xc + dmean.reshape(bc) / m
    return dx, dgamma, dbeta


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_train_backward_bitwise_saved_form(dtype):
    rng = np.random.default_rng(13)
    x = (rng.standard_normal((5, 3, 4, 6)) * 3.0 + 1.0).astype(dtype)
    x[:, 1] = 2.5  # a constant channel: zero variance
    gamma = rng.standard_normal(3).astype(dtype)
    up = rng.standard_normal(x.shape).astype(dtype)
    xt = T.Tensor(x, requires_grad=True)
    gt = T.Tensor(gamma, requires_grad=True)
    bt = T.Tensor(rng.standard_normal(3).astype(dtype), requires_grad=True)
    out = T.batchnorm2d(xt, gt, bt, np.zeros(3, dtype), np.ones(3, dtype), training=True)
    T.backward(out, up)
    for got, want in zip((xt.grad, gt.grad, bt.grad), _bn_backward_saved(x, gamma, up)):
        assert _same_bits(got, want)


def test_relu_backward_bitwise_masked_form():
    x = np.array([-1.5, -0.0, 0.0, np.nan, 2.0, 3.0, -np.inf, np.inf], dtype=np.float32)
    up = np.array([1.0, 2.0, -0.0, 4.0, -0.0, 5.0, 6.0, -7.0], dtype=np.float32)
    xt = T.Tensor(x, requires_grad=True)
    T.backward(T.relu(xt), up)
    mask = np.maximum(x, 0) > 0
    assert _same_bits(xt.grad, up * mask)
    assert np.signbit(xt.grad[4])  # -0.0 upstream at a positive input keeps its sign


def _conv_grad_w_saved(x, k, up):
    """Conv grad-w as the loop over a padded input copy saved at forward
    time, with the upstream gradient widened by zero columns to the padded
    row width in a buffer of its own."""
    batch, _, h, w = x.shape
    cout, _, kh, kw = k.shape
    flat, hp, wp = T._pad_flat(x, kh // 2)  # the saved copy
    span = h * wp
    g1 = np.zeros((batch, cout, h, wp), dtype=up.dtype)
    g1[..., :w] = up
    rows = g1.reshape(batch, cout, span)
    gk = np.empty(k.shape, dtype=np.result_type(up, flat))
    for i in range(kh):
        for j in range(kw):
            window = flat[:, :, i * wp + j : i * wp + j + span]
            gk[:, :, i, j] = np.matmul(rows, window.transpose(0, 2, 1)).sum(axis=0)
    return gk


def test_conv_grad_w_bitwise_saved_padded_copy():
    # grad-w reads its rows from the one padded gradient buffer that grad-x
    # also reads, with or without grad-x, and matches the separate widened buffer
    rng = np.random.default_rng(14)
    for cin, ksize, x_grad in itertools.product((1, 8), (1, 3, 5), (False, True)):
        x = rng.standard_normal((3, cin, 7, 9)).astype(np.float32)
        k = rng.standard_normal((4, cin, ksize, ksize)).astype(np.float32)
        xt = T.Tensor(x, requires_grad=x_grad)
        kt = T.Tensor(k, requires_grad=True)
        out = T.conv2d(xt, kt, padding=ksize // 2)
        up = rng.standard_normal(out.data.shape).astype(np.float32)
        T.backward(out, up)
        assert _same_bits(kt.grad, _conv_grad_w_saved(x, k, up)), (cin, ksize, x_grad)
