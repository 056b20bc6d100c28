"""Finite-difference gradient oracles shared by unit and acceptance tests."""
import numpy as np

from epu.tensor import Tensor, backward, matmul, reshape


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


def dot(a, b):
    """The scalar sum of a * b over all elements, as a graph of reshape and matmul."""
    return reshape(matmul(reshape(a, (1, -1)), reshape(b, (-1, 1))), ())


def coord_check(make_loss, leaves, rng, step=1e-3, rtol=1e-3, coords=16):
    """Per-coordinate central differences against analytic grads.

    make_loss rebuilds the graph from the given leaf tensors on every call.
    Returns a list of (tensor_index, flat_index, analytic, numeric) failures.
    """
    loss = make_loss(leaves)
    backward(loss)
    grads = [None if t.grad is None else t.grad.copy() for t in leaves]
    failures = []
    for ti, t in enumerate(leaves):
        if grads[ti] is None:
            continue
        size = t.data.size
        take = min(coords, size)
        idxs = rng.choice(size, size=take, replace=False)
        for fi in idxs:
            orig = t.data.flat[fi]
            t.data.flat[fi] = orig + step
            lp = float(make_loss(leaves).data)
            t.data.flat[fi] = orig - step
            lm = float(make_loss(leaves).data)
            t.data.flat[fi] = orig
            num = (lp - lm) / (2.0 * step)
            ana = float(grads[ti].flat[fi])
            denom = max(abs(num), abs(ana))
            if denom < 1e-7:
                ok = abs(num - ana) < 1e-7
            else:
                ok = abs(num - ana) / denom < rtol
            if not ok:
                failures.append((ti, int(fi), ana, num))
    for t, g in zip(leaves, grads):
        t.grad = None if g is None else g  # restore post-check state
    return failures


def directional_check(make_loss, leaves, rng, step=1e-3, rtol=1e-3, directions=8):
    """Directional derivatives along random unit vectors in parameter space.

    Compares g.v against (L(theta+h v) - L(theta-h v)) / 2h. Returns a list
    of (direction_index, analytic, numeric) failures.
    """
    loss = make_loss(leaves)
    backward(loss)
    grads = [t.grad.copy() for t in leaves]
    for t in leaves:
        t.grad = None
    failures = []
    for d in range(directions):
        vs = [rng.standard_normal(t.data.shape) for t in leaves]
        norm = np.sqrt(sum(float((v * v).sum()) for v in vs))
        vs = [v / norm for v in vs]
        ana = sum(float((g * v).sum()) for g, v in zip(grads, vs))
        for t, v in zip(leaves, vs):
            t.data += step * v
        lp = float(make_loss(leaves).data)
        for t, v in zip(leaves, vs):
            t.data -= 2.0 * step * v
        lm = float(make_loss(leaves).data)
        for t, v in zip(leaves, vs):
            t.data += step * v
        num = (lp - lm) / (2.0 * step)
        denom = max(abs(num), abs(ana))
        if denom < 1e-7:
            ok = abs(num - ana) < 1e-7
        else:
            ok = abs(num - ana) / denom < rtol
        if not ok:
            failures.append((d, ana, num))
    return failures
