"""Tensor op table: public `epu.tensor` ops timed at the shapes the workloads run.

Conv rows cover the desk preset's six layer shapes. At the training batch
they time forward, grad-w and grad-x; grad-w and grad-x come from
`tensor.backward` with `requires_grad` set only on the kernels or only on
the input. At batch 1, the inference batch of `score` and `explain`, they
time forward only. Pooling and batchnorm rows sit at the three block sides.
Each value is the median of several calls, in milliseconds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from epu import tensor as T

KERNEL = 3
TRAIN_BATCH = 64
# (in channels, out channels, side) of each distinct conv layer in the desk preset
CONV_SHAPES = ((1, 8, 64), (8, 8, 64), (8, 16, 32), (16, 16, 32), (16, 32, 16), (32, 32, 16))
# (channels, side) at each block's max-pool input; batchnorm runs at half that side
BLOCKS = ((8, 64), (16, 32), (32, 16))


def conv_computed(cin: int, cout: int, side: int, batch: int) -> dict:
    """FLOPs of one conv pass and bytes of its im2col matrix, both computed, not measured."""
    patch = cin * KERNEL * KERNEL
    return {
        "gflop_computed": 2.0 * batch * cout * side * side * patch / 1e9,
        "im2col_mb_computed": batch * side * side * patch * 4 / 1e6,
    }


def _forward_ms(fn, repeats):
    fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _backward_ms(build, repeats):
    """Time `tensor.backward` on a freshly built graph each call; building is untimed."""
    times = []
    for _ in range(repeats + 1):
        loss = build()
        start = time.perf_counter()
        T.backward(loss)
        times.append(time.perf_counter() - start)
    return statistics.median(times[1:]) * 1e3


def time_ops(seed: int, smoke: bool = False) -> dict:
    """Return {row name: milliseconds}. Smoke size runs a batch of 2, once each."""
    rng = np.random.default_rng([seed, 7])
    batch = 2 if smoke else TRAIN_BATCH
    repeats, repeats_b1 = (1, 1) if smoke else (5, 21)

    def normal(*shape):
        return rng.standard_normal(shape).astype(np.float32)

    rows = {}
    for cin, cout, side in CONV_SHAPES:
        tag = f"tensor.op.conv2d.c{cin}x{cout}s{side}"
        x, k = normal(batch, cin, side, side), normal(cout, cin, KERNEL, KERNEL)
        x1 = normal(1, cin, side, side)

        def conv(x_grad, k_grad, data=x):
            return T.conv2d(T.Tensor(data, requires_grad=x_grad), T.Tensor(k, requires_grad=k_grad), padding=1)

        rows[f"{tag}.b64.fwd_ms"] = _forward_ms(lambda: conv(False, True), repeats)
        rows[f"{tag}.b64.gw_ms"] = _backward_ms(lambda: T.tsum(conv(False, True)), repeats)
        rows[f"{tag}.b64.gx_ms"] = _backward_ms(lambda: T.tsum(conv(True, False)), repeats)
        with T.no_grad():
            rows[f"{tag}.b1.fwd_ms"] = _forward_ms(lambda: conv(False, False, x1), repeats_b1)

    for ch, side in BLOCKS:
        x = normal(batch, ch, side, side)
        tag = f"tensor.op.maxpool2d.c{ch}s{side}.b64"
        rows[f"{tag}.fwd_ms"] = _forward_ms(lambda: T.maxpool2d(T.Tensor(x, requires_grad=True), 2), repeats)
        rows[f"{tag}.bwd_ms"] = _backward_ms(
            lambda: T.tsum(T.maxpool2d(T.Tensor(x, requires_grad=True), 2)), repeats
        )
        half = side // 2
        xb = normal(batch, ch, half, half)
        for mode, training in (("train", True), ("eval", False)):

            def bn(training=training):
                return T.batchnorm2d(
                    T.Tensor(xb, requires_grad=True),
                    T.Tensor(np.ones(ch, np.float32), requires_grad=True),
                    T.Tensor(np.zeros(ch, np.float32), requires_grad=True),
                    np.zeros(ch, np.float32),
                    np.ones(ch, np.float32),
                    training,
                )

            tag = f"tensor.op.batchnorm2d_{mode}.c{ch}s{half}.b64"
            rows[f"{tag}.fwd_ms"] = _forward_ms(bn, repeats)
            rows[f"{tag}.bwd_ms"] = _backward_ms(lambda: T.tsum(bn()), repeats)
    return rows
