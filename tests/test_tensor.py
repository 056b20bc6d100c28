import gc
import itertools
import threading
import weakref

import numpy as np
import pytest

from epu import tensor as T
from epu.errors import ContractError, DimensionError
from gradcheck import coord_check, leaf


def test_conv2d_hand_example():
    x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    k = T.Tensor(np.ones((1, 1, 2, 2)))
    out = T.conv2d(x, k, stride=1, padding=0)
    assert out.data.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 10.0


def test_conv2d_zero_kernel():
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.standard_normal((2, 3, 5, 5)))
    k = T.Tensor(np.zeros((4, 3, 3, 3)))
    out = T.conv2d(x, k, stride=1, padding=1)
    assert np.all(out.data == 0.0)
    assert out.data.shape == (2, 4, 5, 5)


def test_conv2d_output_shape_formula():
    x = T.Tensor(np.zeros((1, 2, 11, 9)))
    k = T.Tensor(np.zeros((3, 2, 3, 3)))
    out = T.conv2d(x, k, stride=2, padding=1)
    assert out.data.shape == (1, 3, 6, 5)  # floor((H+2p-k)/s)+1


def test_conv2d_channel_mismatch():
    x = T.Tensor(np.zeros((1, 2, 4, 4)))
    k = T.Tensor(np.zeros((3, 5, 3, 3)))
    with pytest.raises(DimensionError):
        T.conv2d(x, k)


def _conv2d_direct(x, k, up, stride, pad):
    """Forward, grad-w and grad-x of conv2d by direct float64 loops over output pixels."""
    kh, kw = k.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (xp.shape[2] - kh) // stride + 1
    wo = (xp.shape[3] - kw) // stride + 1
    out = np.zeros((x.shape[0], k.shape[0], ho, wo))
    gk = np.zeros(k.shape)
    gxp = np.zeros(xp.shape)
    for i in range(ho):
        for j in range(wo):
            rows = slice(i * stride, i * stride + kh)
            cols = slice(j * stride, j * stride + kw)
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
    # gradient; input channels on both sides of the stacked/per-offset GEMM choice,
    # padding 3 > kernel 3 - 1 crops the upstream gradient for grad-x
    rng = np.random.default_rng(7)
    grid = itertools.product((1, 3, 8), (3, 5), (1, 2, 3), (0, 1, 2, 3), (1, 3))
    for cin, ksize, stride, pad, batch in grid:
        x = rng.standard_normal((batch, cin, 7, 9))
        k = rng.standard_normal((2, cin, ksize, ksize))
        ho = (7 + 2 * pad - ksize) // stride + 1
        wo = (9 + 2 * pad - ksize) // stride + 1
        up = rng.standard_normal((batch, 2, ho, wo))
        ref_out, ref_gk, ref_gx = _conv2d_direct(x, k, up, stride, pad)
        for dtype, rtol in ((np.float64, 1e-10), (np.float32, 1e-4)):
            xt = T.Tensor(x.astype(dtype), requires_grad=True)
            kt = T.Tensor(k.astype(dtype), requires_grad=True)
            out = T.conv2d(xt, kt, stride=stride, padding=pad)
            T.backward(T.tsum(T.mul(out, T.Tensor(up.astype(dtype)))))
            case = (cin, ksize, stride, pad, batch, dtype.__name__)
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
        return T.tsum(T.conv2d(ls[0], ls[1], stride=1, padding=0))

    fails = coord_check(make_loss, [leaf(x), leaf(k)], np.random.default_rng(4), coords=18)
    assert fails == []


@pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1), (2, 0)])
def test_conv2d_gradcheck_strides(stride, pad):
    base = np.random.default_rng(stride * 10 + pad)
    x = base.standard_normal((2, 3, 6, 6))
    k = base.standard_normal((2, 3, 3, 3))
    w = base.standard_normal((2, 2, 6, 6))  # weight the outputs unevenly

    def make_loss(ls):
        out = T.conv2d(ls[0], ls[1], stride=stride, padding=pad)
        return T.tsum(T.mul(out, T.Tensor(w[:, :, : out.data.shape[2], : out.data.shape[3]])))

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
    grid = itertools.product((1, 2, 3), ((6, 6), (5, 7)), (1, 3), (np.float32, np.float64), kinds)
    for window, (h, w), batch, dtype, kind in grid:
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
        case = (window, h, w, batch, dtype.__name__, kind)
        assert out.data.dtype == dtype and xt.grad.dtype == dtype, case
        for ref_out, ref_grad in (_maxpool_direct(x, window, up), _maxpool_argmax(x, window, up)):
            assert out.data.tobytes() == ref_out.tobytes(), case
            assert xt.grad.tobytes() == ref_grad.tobytes(), case


def test_maxpool_gradcheck():
    base = np.random.default_rng(11)
    # unique spaced values keep windows far from ties at the probe step
    x = (base.permutation(2 * 2 * 6 * 6).astype(np.float64) * 0.1).reshape(2, 2, 6, 6)
    w = base.standard_normal((2, 2, 3, 3))

    def make_loss(ls):
        return T.tsum(T.mul(T.maxpool2d(ls[0], 2), T.Tensor(w)))

    fails = coord_check(make_loss, [leaf(x)], np.random.default_rng(12), coords=24)
    assert fails == []


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
        return T.tsum(T.mul(out, T.Tensor(w)))

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
        return T.tsum(T.mul(T.dense(ls[0], ls[1], ls[2]), T.Tensor(wsum)))

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


def test_backward_accumulates_across_calls():
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = T.tsum(T.mul(x, x))
    T.backward(y)
    first = x.grad.copy()
    T.backward(y)
    assert np.allclose(x.grad, 2.0 * first)


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
    T.backward(T.tsum(T.mul(root, T.Tensor(g))))
    for got, ref in zip(seeded, (t.grad for t in leaves)):
        assert np.array_equal(got, ref)


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
    hidden = T.relu(T.mul(x, w))
    scaled = T.mul(hidden, 2.0)
    T.backward(T.tsum(scaled))
    assert hidden.grad is None and scaled.grad is None
    assert np.array_equal(x.grad, [1.0, 0.0, 1.0])
    assert np.array_equal(w.grad, [2.0, 0.0, 6.0])


def test_broadcast_add_unbroadcasts_grad():
    a = T.Tensor(np.ones((3, 4)), requires_grad=True)
    b = T.Tensor(np.ones(4), requires_grad=True)
    T.backward(T.tsum(T.add(a, b)))
    assert a.grad.shape == (3, 4)
    assert b.grad.shape == (4,)
    assert np.all(b.grad == 3.0)


def test_scalar_constants_do_not_widen_dtype():
    x = T.Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    y = T.mul(T.add(1.0, x), 2.0)
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
            term = T.mul(p, T.Tensor(w))
            acc = term if acc is None else T.add(acc, term)
        bce = T.bce_with_logits(T.reshape(t, (12,)), y)
        return T.add(T.add(T.tsum(acc), T.tsum(T.mul(t, t))), bce)

    fails = coord_check(make_loss, [leaf(x)], np.random.default_rng(seed), coords=12)
    assert fails == []


def test_composed_network_gradcheck():
    # conv -> pool -> dense -> binary cross-entropy on the logits
    base = np.random.default_rng(42)
    x = base.standard_normal((2, 1, 6, 6))
    k = base.standard_normal((2, 1, 3, 3)) * 0.5
    wf = base.standard_normal((2 * 2 * 2, 1)) * 0.3
    bf = base.standard_normal(1)
    y = np.array([1.0, 0.0])

    def make_loss(ls):
        h = T.relu(T.conv2d(ls[0], ls[1], stride=1, padding=0))
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
    p = T.Param("w", t)
    t.grad = np.array([2.0])
    T.sgd_step([p], lr=0.1)
    assert t.data[0] == pytest.approx(0.8)
    assert t.grad is None
    T.sgd_step([p], lr=0.0)
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
        y = T.tsum(T.mul(x, 2.0))
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
        y = T.tsum(T.mul(x, 2.0))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert y._op is not None
    T.backward(y)
    assert np.array_equal(x.grad, np.full(3, 2.0))


def test_concat_joins_rows_and_splits_the_gradient():
    a = T.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = T.Tensor(np.arange(3.0).reshape(1, 3))
    c = T.Tensor(np.ones((3, 3)), requires_grad=True)
    out = T.concat([a, b, c])
    assert np.array_equal(out.data, np.concatenate([a.data, b.data, c.data]))
    up = np.arange(18.0).reshape(6, 3)
    T.backward(out, up)
    assert np.array_equal(a.grad, up[:2]) and np.array_equal(c.grad, up[3:])
    assert b.grad is None


def _bn_parts_loss(w, sizes, rm, rv):
    """Loss over batchnorm of a batch given as parts of `sizes` samples, or
    as one tensor when `sizes` is None; leaves are the parts, gamma, beta."""

    def make_loss(ls):
        if sizes is None:
            out = T.batchnorm2d(ls[0], ls[1], ls[2], rm.copy(), rv.copy(), training=True)
        else:
            n = len(sizes)
            out = T.concat(T.batchnorm2d(ls[:n], ls[n], ls[n + 1], rm.copy(), rv.copy(), training=True))
        return T.tsum(T.mul(T.tanh(out), T.Tensor(w)))

    return make_loss


def test_batchnorm_parts_gradcheck():
    base = np.random.default_rng(24)
    sizes = (3, 3, 2)
    x = base.standard_normal((sum(sizes), 2, 3, 4))
    g = base.standard_normal(2) + 1.5
    b = base.standard_normal(2)
    w = base.standard_normal(x.shape)
    rm, rv = np.zeros(2), np.ones(2)
    ends = np.cumsum(sizes)
    parts = [leaf(x[e - n : e]) for n, e in zip(sizes, ends)]
    leaves = parts + [leaf(g), leaf(b)]
    fails = coord_check(_bn_parts_loss(w, sizes, rm, rv), leaves, np.random.default_rng(25), coords=12)
    assert fails == []
    # the same gradients as the unsplit batch, up to the order of the sums
    whole = [leaf(x), leaf(g), leaf(b)]
    T.backward(_bn_parts_loss(w, None, rm, rv)(whole))
    np.testing.assert_allclose(np.concatenate([p.grad for p in parts]), whole[0].grad, rtol=1e-12, atol=1e-12)
    for got, want in zip(leaves[-2:], whole[1:]):
        np.testing.assert_allclose(got.grad, want.grad, rtol=1e-12, atol=1e-12)


def test_batchnorm_parts_shape_mismatch():
    ones, zeros = T.Tensor(np.ones(2)), T.Tensor(np.zeros(2))
    with pytest.raises(DimensionError):
        T.batchnorm2d(
            [T.Tensor(np.ones((2, 2, 4, 4))), T.Tensor(np.ones((2, 2, 4, 5)))],
            ones, zeros, np.zeros(2), np.ones(2), training=True,
        )


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
        h = T.mul(T.sigmoid(h), T.add(h, 1.0))
        return T.bce_with_logits(T.reshape(T.mul(h, h), (6,)), np.ones(6))

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


def _conv_grad_w_saved(x, k, up, stride, pad, x_grad):
    """Conv grad-w as the loop over a padded input copy saved at forward time."""
    batch, _, h, w = x.shape
    cout, _, kh, kw = k.shape
    flat, hp, wp = T._pad_flat(x, pad, pad)  # the saved copy
    ho, wo = hp - kh + 1, wp - kw + 1
    span = ho * wp
    qh, qw = kh - 1 - pad, kw - 1 - pad
    if x_grad and qh == qw == pad:
        gflat = np.zeros((batch, cout, hp + 1, wp), dtype=up.dtype)
        gflat[:, :, qh : qh + ho : stride, qw : qw + wo : stride] = up
        gflat = gflat.reshape(batch, cout, (hp + 1) * wp)
        rows = gflat[:, :, qh * wp + qw : qh * wp + qw + span]
    else:
        g1 = np.zeros((batch, cout, ho, wp), dtype=up.dtype)
        g1[:, :, ::stride, :wo:stride] = up
        rows = g1.reshape(batch, cout, span)
    gk = np.empty(k.shape, dtype=np.result_type(up, flat))
    for i in range(kh):
        for j in range(kw):
            window = flat[:, :, i * wp + j : i * wp + j + span]
            gk[:, :, i, j] = np.matmul(rows, window.transpose(0, 2, 1)).sum(axis=0)
    return gk


def test_conv_grad_w_bitwise_saved_padded_copy():
    rng = np.random.default_rng(14)
    for cin, stride, pad, x_grad in itertools.product((1, 8), (1, 2), (0, 1, 2), (False, True)):
        x = rng.standard_normal((3, cin, 7, 9)).astype(np.float32)
        k = rng.standard_normal((4, cin, 3, 3)).astype(np.float32)
        xt = T.Tensor(x, requires_grad=x_grad)
        kt = T.Tensor(k, requires_grad=True)
        out = T.conv2d(xt, kt, stride=stride, padding=pad)
        up = rng.standard_normal(out.data.shape).astype(np.float32)
        T.backward(out, up)
        assert _same_bits(kt.grad, _conv_grad_w_saved(x, k, up, stride, pad, x_grad)), (cin, stride, pad, x_grad)
