import itertools
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from epu import model as M
from epu import tensor as T
from epu.errors import ConfigError, ContractError, DimensionError
from epu.pfm import PFM_LABELS, PfmStack, RgbImage, build_pfm_stack

TINY = M.ArchConfig(blocks=((1, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=9, preset="")


def tiny_model(seed=0, **kw):
    return M.build_model(TINY, seed=seed, **kw)


def rand_stack(rng, n=4, side=9):
    """One image's `n` stacked maps, shaped (1, n, side, side)."""
    return rng.uniform(-1, 1, size=(1, n, side, side)).astype(np.float32)


def zero_heads(m):
    for sn in m.subnets:
        sn.head_weight.data[:] = 0.0
        sn.head_bias.data[:] = 0.0


def test_presets_match_published_shapes():
    desk = M.PRESETS["desk"]
    assert desk.blocks == ((2, 8), (2, 16), (3, 32))
    assert (desk.kernel_size, desk.fc_width, desk.input_side) == (3, 32, 64)
    base = M.PRESETS["base_i"]
    assert base.blocks == ((2, 64), (2, 128), (3, 256))
    assert base.conv_layer_count == 7


def test_arch_validation():
    with pytest.raises(ConfigError):
        M.ArchConfig(blocks=())
    with pytest.raises(ConfigError):
        M.ArchConfig(blocks=((2, 8),), kernel_size=4)
    with pytest.raises(ConfigError):
        M.ArchConfig(blocks=((0, 8),))


def test_build_desk_model_structure():
    m = M.build_model(M.PRESETS["desk"], seed=1)
    assert len(m.subnets) == 4
    for sn in m.subnets:
        assert [len(block.kernels) for block in sn.blocks] == [2, 2, 3]
        assert sn.head_weight.data.shape == (32, 1)
    assert m.beta.data.shape == (1,)
    assert float(m.beta.data[0]) == 0.0


def test_desk_parameter_count_frozen():
    m = M.build_model(M.PRESETS["desk"], seed=0)
    n_params = sum(p.data.size for p in m.parameters())
    n_buffers = sum(b.running_mean.size + b.running_var.size for sn in m.subnets for b in sn.blocks)
    assert n_params == 371429  # 4 x 92857 subnet weights + scalar intercept
    assert n_buffers == 448


def test_same_seed_is_bitwise_identical():
    a = M.build_model(M.PRESETS["desk"], seed=7)
    b = M.build_model(M.PRESETS["desk"], seed=7)
    assert len(a.parameters()) == len(b.parameters())
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert pa.data.shape == pb.data.shape
        assert np.array_equal(pa.data, pb.data)
    c = M.build_model(M.PRESETS["desk"], seed=8)
    assert not np.array_equal(a.subnets[0].blocks[0].kernels[0].data,
                              c.subnets[0].blocks[0].kernels[0].data)


def test_build_model_weights_follow_seeded_draws():
    # sub-network i draws kaiming-uniform weights from default_rng([seed, i]):
    # every conv kernel in order, then the dense layer, then the head
    m = M.build_model(M.PRESETS["desk"], seed=5)
    for i, sn in enumerate(m.subnets):
        rng = np.random.default_rng([5, i])
        kernels = [k.data for block in sn.blocks for k in block.kernels]
        weights = kernels + [sn.fc_weight.data, sn.head_weight.data]
        for w in weights:
            fan_in = int(np.prod(w.shape[1:])) if w.ndim == 4 else w.shape[0]
            bound = np.sqrt(6.0 / fan_in)
            want = rng.uniform(-bound, bound, size=w.shape).astype(np.float32)
            assert np.array_equal(w.view(np.int32), want.view(np.int32))


def test_subnets_initialized_independently():
    m = tiny_model(seed=3)
    k0 = m.subnets[0].blocks[0].kernels[0].data
    k1 = m.subnets[1].blocks[0].kernels[0].data
    assert not np.array_equal(k0, k1)


def test_parameters_are_distinct_arrays_covering_the_state():
    # a tensor listed twice, or two sharing memory, would be stepped twice
    m = tiny_model()
    params = m.parameters()
    assert len({id(p) for p in params}) == len(params)
    assert all(p.requires_grad and p.grad is None for p in params)
    for i, a in enumerate(params):
        for b in params[i + 1 :]:
            assert not np.shares_memory(a.data, b.data)
    assert sum(a.size for a in m.state_arrays()) == M.state_size(TINY)


def test_rss_always_in_tanh_range():
    rng = np.random.default_rng(5)
    m = tiny_model(seed=2)
    for _ in range(5):
        stack = rand_stack(rng)
        _, scores = M.predict(m, stack)
        assert np.all(np.abs(scores) <= 1.0)


def test_zero_head_gives_zero_rss():
    m = tiny_model(seed=4)
    zero_heads(m)
    prob, scores = M.predict(m, rand_stack(np.random.default_rng(6)))
    assert np.all(scores == 0.0)
    assert prob[0] == pytest.approx(0.5)
    assert prob[0] >= 0.5  # ties classify as class 1


def test_cached_activation_count_and_shapes():
    m = M.build_model(M.PRESETS["desk"], seed=0)
    stacks = np.random.default_rng(0).uniform(-1, 1, size=(2, 4, 64, 64)).astype(np.float32)
    prob, scores = M.predict(m, stacks)
    shapes = [(8, 64, 64)] * 2 + [(16, 32, 32)] * 2 + [(32, 16, 16)] * 3
    for k, shape in enumerate(shapes, 1):
        got_prob, got_scores, acts = M.predict(m, stacks, layer=k)
        assert len(acts) == 4 and all(a.shape == (2, *shape) for a in acts)
        assert all(np.all(a >= 0.0) for a in acts)  # post-ReLU
        # asking for a layer changes nothing else
        assert np.array_equal(got_prob, prob) and np.array_equal(got_scores, scores)
    assert scores.shape == (2, 4) and np.all(np.abs(scores) <= 1.0)
    for bad in (0, 8):
        with pytest.raises(ConfigError):
            M.predict(m, stacks, layer=bad)


def _forward_relu_then_pool(sn, x, layer):
    """Evaluation-mode sub-network forward with every ReLU before its block's
    max-pool; returns (scores, post-ReLU activations of conv `layer`)."""
    acts, n = None, 0
    with T.no_grad():
        h = M.Tensor(x)
        for bn in sn.blocks:
            for kernel in bn.kernels:
                n += 1
                h = T.relu(T.conv2d(h, kernel, padding=sn.arch.kernel_size // 2))
                if n == layer:
                    acts = h.data
            h = T.batchnorm2d(T.maxpool2d(h, 2), bn.gamma, bn.beta, bn.running_mean, bn.running_var, False)
        h = T.relu(T.dense(T.flatten_batch(h), sn.fc_weight, sn.fc_bias))
        return T.tanh(T.dense(h, sn.head_weight, sn.head_bias)).data, acts


def test_predict_activations_match_relu_before_pool_reference():
    m = M.build_model(M.PRESETS["desk"], seed=4)
    rng = np.random.default_rng(5)
    for sn in m.subnets:
        for bn in sn.blocks:
            bn.running_mean[:] = rng.standard_normal(bn.running_mean.shape)
            bn.running_var[:] = rng.uniform(0.5, 2.0, bn.running_var.shape)
    stacks = rng.uniform(-1, 1, size=(T.MICRO_BATCH + 3, 4, 64, 64)).astype(np.float32)
    for k in range(1, M.PRESETS["desk"].conv_layer_count + 1):
        _, scores, acts = M.predict(m, stacks, layer=k)
        for i, sn in enumerate(m.subnets):
            want_scores, want_acts = _forward_relu_then_pool(sn, stacks[:, i : i + 1], k)
            assert scores[:, i : i + 1].tobytes() == want_scores.astype(np.float64).tobytes(), k
            assert acts[i].dtype == want_acts.dtype and acts[i].tobytes() == want_acts.tobytes(), k


def _random_statistics(m, rng):
    for sn in m.subnets:
        for bn in sn.blocks:
            bn.running_mean[:] = rng.standard_normal(bn.running_mean.shape)
            bn.running_var[:] = rng.uniform(0.5, 2.0, bn.running_var.shape)
            bn.gamma.data[:] = rng.uniform(0.5, 1.5, bn.gamma.data.shape)
            bn.beta.data[:] = rng.standard_normal(bn.beta.data.shape) * 0.1


def _assert_predict_matches_reference(m, stacks):
    """`predict`'s probabilities, scores and activations at every layer,
    bitwise against `_forward_relu_then_pool` run on each sub-network alone
    and the logit summed in sub-network order."""
    for k in range(1, m.arch.conv_layer_count + 1):
        prob, scores, acts = M.predict(m, stacks, layer=k)
        assert acts.shape[:2] == (m.n_pfms, len(stacks))
        refs = [_forward_relu_then_pool(sn, stacks[:, i : i + 1], k) for i, sn in enumerate(m.subnets)]
        for i, (want_scores, want_acts) in enumerate(refs):
            assert scores[:, i : i + 1].tobytes() == want_scores.astype(np.float64).tobytes(), (k, i)
            assert acts[i].dtype == want_acts.dtype and acts[i].tobytes() == want_acts.tobytes(), (k, i)
        total = refs[0][0]
        for want_scores, _ in refs[1:]:
            total = total + want_scores
        want_prob = T.sigmoid((total + m.beta.data).reshape(-1)).data
        assert prob.tobytes() == want_prob.astype(np.float64).tobytes(), k


@pytest.mark.parametrize("blocks", [((1, 2), (1, 3)), ((2, 4), (3, 8)), ((3, 3), (1, 4), (2, 5))])
def test_stacked_pass_matches_per_subnetwork_composition(blocks):
    # kernels 3 and 5; sides 9 and 21 pool raggedly, 13 at the second pool;
    # batches of 1, 3 and 9 images
    for k, side, batch in itertools.product((3, 5), (9, 13, 16, 21), (1, 3, 9)):
        arch = M.ArchConfig(blocks=blocks, kernel_size=k, fc_width=5, input_side=side)
        m = M.build_model(arch, seed=side * k + batch)
        rng = np.random.default_rng([side, k, batch])
        _random_statistics(m, rng)
        m.beta.data[:] = rng.standard_normal()
        _assert_predict_matches_reference(m, rng.uniform(-1, 1, size=(batch, 4, side, side)).astype(np.float32))


def _stacked_activations_match_conv2d_relu(m, x):
    """Every conv layer's activations of the first block in `predict`,
    bitwise `T.relu(T.conv2d(...))` of the previous layer's, per sub-network."""
    for i, sn in enumerate(m.subnets):
        h = T.Tensor(x[:, i : i + 1])
        for n, kernel in enumerate(sn.blocks[0].kernels, 1):
            h = T.relu(T.conv2d(h, kernel, padding=1))
            acts = M.predict(m, x, layer=n)[2]
            assert acts[i].dtype == h.data.dtype and acts[i].tobytes() == h.data.tobytes(), (i, n)


def test_stacked_pass_activations_match_conv2d_relu():
    # blocks of 1 to 3 convs; batches of one part and of two; f32 and f64
    # maps; ties (values on a 0.5 grid, so conv outputs tie and hit signed
    # zeros) and NaNs that spread through the convs
    rng = np.random.default_rng(37)
    for count, batch, dtype, kind in itertools.product((1, 2, 3), (1, 3), (np.float32, np.float64),
                                                       ("plain", "ties", "nans")):
        arch = M.ArchConfig(blocks=((count, 3), (1, 2)), kernel_size=3, fc_width=3, input_side=9)
        m = M.build_model(arch, seed=count)
        x = rng.standard_normal((batch, 4, 9, 9))
        if kind != "plain":
            x = np.round(x * 2) / 2
            for kernel in (k for sn in m.subnets for k in sn.blocks[0].kernels):
                kernel.data[:] = np.round(kernel.data * 4) / 2
        if kind == "nans":
            x[rng.random(x.shape) < 0.02] = np.nan
        _stacked_activations_match_conv2d_relu(m, x.astype(dtype))


def test_stacked_pass_ragged_batch_activations_match_conv2d_relu():
    # 19 images run one at a time, each as one part of its four sample-maps:
    # each layer's activations are bitwise those of conv2d on the whole batch
    arch = M.ArchConfig(blocks=((2, 3), (1, 2)), kernel_size=3, fc_width=3, input_side=13)
    m = M.build_model(arch, seed=38)
    x = np.random.default_rng(38).standard_normal((19, 4, 13, 13))
    for dtype in (np.float32, np.float64):
        _stacked_activations_match_conv2d_relu(m, x.astype(dtype))


def _assert_views_of_the_stacks(m):
    stacked = m.stacks
    for i, sn in enumerate(m.subnets):
        arrays = sn.state_arrays()
        assert len(arrays) == len(stacked)
        for a, stack in zip(arrays, stacked):
            assert a.shape == stack.shape[1:] and np.shares_memory(a, stack[i])


def test_subnetwork_arrays_are_views_of_the_stacks(tmp_path, monkeypatch):
    # after build_model, load_checkpoint, and fit with one process and with
    # two (whose worker's arrays are copied back into the model); predict
    # then runs each stack as the sub-networks hold it
    from epu import train as train_module

    arch = M.ArchConfig(blocks=((2, 2), (1, 3)), kernel_size=3, fc_width=4, input_side=9)
    m = M.build_model(arch, seed=1)
    _assert_views_of_the_stacks(m)
    path = str(tmp_path / "model.epu")
    train_module.save_checkpoint(m, path)
    loaded = train_module.load_checkpoint(path)
    _assert_views_of_the_stacks(loaded)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(m.state_arrays(), loaded.state_arrays()))
    rng = np.random.default_rng(15)
    images, labels = rand_images(rng, 8), np.arange(8) % 2
    stacks = rng.uniform(-1, 1, size=(3, 4, 9, 9)).astype(np.float32)
    fitted = []
    for cores in (1, 2):
        monkeypatch.setattr(train_module, "_usable_cores", lambda: cores)
        config = train_module.TrainConfig(batch_size=4, epochs=2, seed=3)
        fit = train_module.fit(images, labels, arch, config).model
        _assert_views_of_the_stacks(fit)
        _assert_predict_matches_reference(fit, stacks)
        fitted.append(fit)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*(f.state_arrays() for f in fitted)))
    assert not np.array_equal(fitted[0].subnets[0].fc_weight.data, m.subnets[0].fc_weight.data)


def test_predict_leaves_no_state_on_the_model():
    m = M.build_model(M.PRESETS["desk"], seed=3)
    stacks = np.random.default_rng(1).uniform(-1, 1, size=(1, 4, 64, 64)).astype(np.float32)

    def snapshot():
        objs = [m] + m.subnets
        return [dict(vars(o)) for o in objs], [a.copy() for a in m.state_arrays()]

    attrs, arrays = snapshot()
    M.predict(m, stacks)
    M.predict(m, stacks, layer=5)
    after_attrs, after_arrays = snapshot()
    assert len(after_attrs) == len(attrs)
    for before, after in zip(attrs, after_attrs):
        assert before.keys() == after.keys()
        assert all(after[k] is before[k] for k in before)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, after_arrays))


def rand_images(rng, count, h=11, w=13):
    return [RgbImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)) for _ in range(count)]


def test_evaluate_equals_one_forward_batch_per_sample():
    from epu import tensor as T
    from epu.train import evaluate

    rng = np.random.default_rng(13)
    m = tiny_model(seed=7)
    m.beta.data[:] = 0.3
    # 9 images: two full chunks and a chunk of one
    images = rand_images(rng, 9)
    labels = np.arange(9) % 2
    report = evaluate(m, images, labels)
    assert len(report.records) == 9
    for img, y, rec in zip(images, labels, report.records):
        with T.no_grad():
            prob, scores = m.forward_batch(build_pfm_stack(img, TINY.input_side).maps[None], training=False)
        want = np.array([float(c.data[0, 0]) for c in scores])
        assert rec.label == y
        assert np.float64(rec.probability).tobytes() == np.float64(prob.data[0]).tobytes()
        assert rec.rss.dtype == np.float64 and rec.rss.tobytes() == want.tobytes()
        assert rec.predicted == int(prob.data[0] >= 0.5)


def test_evaluate_records_do_not_depend_on_order():
    from epu.train import evaluate

    rng = np.random.default_rng(14)
    m = tiny_model(seed=8)
    images = rand_images(rng, 10)
    labels = np.arange(10) % 2
    order = rng.permutation(10)
    plain = evaluate(m, images, labels)
    shuffled = evaluate(m, [images[i] for i in order], labels[order])
    # records come back in image order: shuffled record k is image order[k]
    assert len(shuffled.records) == 10
    for rec, i in zip(shuffled.records, order):
        ref = plain.records[i]
        assert np.float64(rec.probability).tobytes() == np.float64(ref.probability).tobytes()
        assert rec.rss.tobytes() == ref.rss.tobytes()
        assert (rec.label, rec.predicted) == (ref.label, ref.predicted)


@pytest.mark.parametrize("batch", [2, 3, 4, 5, 8, 2 * T.MICRO_BATCH + 3])
def test_predict_batch_equals_single_calls(batch):
    rng = np.random.default_rng(100 + batch)
    m = M.build_model(M.PRESETS["desk"], seed=batch)
    stacks = rng.uniform(-1, 1, size=(batch, 4, 64, 64)).astype(np.float32)
    prob, scores, acts = M.predict(m, stacks, layer=5)
    for i in range(batch):
        p1, s1, a1 = M.predict(m, stacks[i : i + 1], layer=5)
        assert prob[i : i + 1].tobytes() == p1.tobytes()
        assert scores[i : i + 1].tobytes() == s1.tobytes()
        assert all(a[i : i + 1].tobytes() == b.tobytes() for a, b in zip(acts, a1))


def test_forced_rss_values_hit_sigma4():
    m = tiny_model(seed=1)
    zero_heads(m)
    for sn in m.subnets:
        sn.head_bias.data[:] = 20.0  # tanh(20) rounds to exactly 1.0
    prob, scores = M.predict(m, rand_stack(np.random.default_rng(7)))
    assert np.allclose(scores, 1.0)
    assert prob[0] == pytest.approx(1.0 / (1.0 + np.exp(-4.0)), abs=1e-6)
    assert prob[0] == pytest.approx(0.98201, abs=1e-5)


def test_cancelling_rss_gives_half():
    m = tiny_model(seed=1)
    zero_heads(m)
    for i, sn in enumerate(m.subnets):
        sn.head_bias.data[:] = 20.0 if i % 2 == 0 else -20.0
    prob, _ = M.predict(m, rand_stack(np.random.default_rng(8)))
    assert prob[0] == pytest.approx(0.5, abs=1e-7)


@pytest.mark.parametrize("seed", range(8))
def test_additive_identity_random_models(seed):
    rng = np.random.default_rng(200 + seed)
    m = tiny_model(seed=seed)
    m.beta.data[:] = rng.normal()
    stack = rand_stack(rng)
    prob, scores = M.predict(m, stack)
    recomputed = 1.0 / (1.0 + np.exp(-(float(m.beta.data[0]) + scores[0].sum())))
    assert abs(prob[0] - recomputed) <= 1e-6


def test_permuted_subnets_same_probability():
    rng = np.random.default_rng(9)
    m = tiny_model(seed=5)
    stack = rand_stack(rng)
    base = M.predict(m, stack)[0][0]
    perm = [2, 0, 3, 1]
    m2 = M.EpuModel(m.arch, [a[perm] for a in m.stacks], m.beta)
    stack2 = stack[:, perm]
    assert abs(M.predict(m2, stack2)[0][0] - base) <= 1e-6
    # identical ordering is bitwise stable
    assert M.predict(m, stack)[0][0] == base


def test_ablation_consistency():
    rng = np.random.default_rng(10)
    m = tiny_model(seed=6)
    stack = rand_stack(rng)
    _, scores = M.predict(m, stack)
    logit = float(m.beta.data[0]) + scores[0].sum()
    for p in m.subnets[1].parameters():
        p.data[:] = 0.0
    _, ablated = M.predict(m, stack)
    assert ablated[0, 1] == 0.0
    new_logit = float(m.beta.data[0]) + ablated[0].sum()
    assert new_logit == pytest.approx(logit - scores[0, 1], abs=1e-6)


def test_stack_count_mismatch_rejected():
    m = tiny_model()
    for n in (3, 5):
        with pytest.raises(DimensionError):
            M.predict(m, rand_stack(np.random.default_rng(0), n=n))


def test_wrong_plane_size_rejected():
    m = tiny_model()
    with pytest.raises(DimensionError):
        M.predict(m, rand_stack(np.random.default_rng(0), side=16))


def test_bare_pfm_stack_rejected():
    # the model takes stacked maps only: one image's stack is `maps[None]`
    m = tiny_model()
    stack = PfmStack(maps=rand_stack(np.random.default_rng(0))[0])
    with pytest.raises(DimensionError):
        M.predict(m, stack)
    assert M.predict(m, stack.maps[None])[0].shape == (1,)


def test_subnet_input_requiring_grad_rejected():
    m = tiny_model()
    x = M.Tensor(np.zeros((2, 1, 9, 9), np.float32), requires_grad=True)
    with pytest.raises(ContractError):
        m.subnets[0].forward(x)


def test_build_model_validation():
    # one sub-network per feature map, and every model is binary
    assert len(tiny_model().subnets) == len(PFM_LABELS)
    assert tiny_model(class_names=("a", "b")).class_names == ("a", "b")
    assert tiny_model().class_names is None
    for names in ((), ("a",), ("a", "b", "c")):
        with pytest.raises(ConfigError, match="need two class names"):
            tiny_model(class_names=names)


def _bn_reference(h, bn):
    """Training-mode batchnorm of the whole batch `h` with numpy's statistics,
    updating `bn`'s running buffers as the op does."""
    mean, var = h.mean(axis=(0, 2, 3)), h.var(axis=(0, 2, 3))
    ivstd = 1.0 / np.sqrt(var + 1e-5)
    bn.running_mean[:] = 0.9 * bn.running_mean + (1.0 - 0.9) * mean
    bn.running_var[:] = 0.9 * bn.running_var + (1.0 - 0.9) * var
    bc = (1, -1, 1, 1)
    xhat = (h - mean.reshape(bc)) * ivstd.reshape(bc)
    return bn.gamma.data.reshape(bc) * xhat + bn.beta.data.reshape(bc)


def test_micro_batched_training_forward_uses_whole_batch_statistics():
    arch = M.ArchConfig(blocks=((1, 4), (2, 6)), kernel_size=3, fc_width=5, input_side=16)
    batch = 2 * T.MICRO_BATCH + 3
    rng = np.random.default_rng(7)
    x = rng.standard_normal((batch, 1, 16, 16)).astype(np.float32)
    nets = [M.build_model(arch, seed=8).subnets[0] for _ in range(2)]
    for sn in nets:
        for bn, seed in zip(sn.blocks, (9, 10)):
            draw = np.random.default_rng(seed)
            bn.gamma.data[:] = draw.uniform(0.5, 1.5, bn.gamma.data.shape)
            bn.beta.data[:] = draw.standard_normal(bn.beta.data.shape)
            bn.running_mean[:] = draw.standard_normal(bn.running_mean.shape)
    model_net, ref = nets
    out = model_net.forward(M.Tensor(x))

    # the reference runs every layer on the unsplit batch
    with T.no_grad():
        h = M.Tensor(x)
        for bn in ref.blocks:
            for kernel in bn.kernels:
                h = T.relu(T.conv2d(h, kernel, padding=ref.arch.kernel_size // 2))
            h = M.Tensor(_bn_reference(T.maxpool2d(h, 2).data, bn))
        h = T.relu(T.dense(T.flatten_batch(h), ref.fc_weight, ref.fc_bias))
        want = T.tanh(T.dense(h, ref.head_weight, ref.head_bias)).data
    assert out.data.shape == (batch, 1)
    assert out.data.tobytes() == want.tobytes()
    for got, want in zip(model_net.blocks, ref.blocks):
        assert got.running_mean.tobytes() == want.running_mean.tobytes()
        assert got.running_var.tobytes() == want.running_var.tobytes()


def test_training_forward_retains_only_what_backward_reads():
    arch = M.PRESETS["desk"]
    subnet = M.build_model(arch, seed=0).subnets[0]
    # one part, and three parts with a ragged tail: batchnorm keeps no copy
    # of the batch
    for batch in (T.MICRO_BATCH, 2 * T.MICRO_BATCH + 3):
        base = np.random.default_rng(1).standard_normal((batch, 1, arch.input_side, arch.input_side))
        base = base.astype(np.float32)
        # the arrays backward reads: the input; each block's max-pool winner
        # index (2 bits per pooled element) and pooled ReLU output, which is
        # batchnorm's input; and the dense head's ReLU and tanh outputs.
        # Batchnorm outputs are rebuilt by their consumers, and a block's inner
        # ReLU outputs are recomputed in backward, so no full-resolution
        # activation is kept. Measured: 1.024 and 1.007 of this at 8 and 19
        # samples, 1.129 and 1.113 when the dense head keeps the last batchnorm
        # output.
        side, needed = arch.input_side, base.nbytes
        for _, depth in arch.blocks:
            side = math.ceil(side / 2)
            needed += batch * depth * side * side * (0.25 + 4)
        needed += batch * (arch.fc_width + 1) * 4

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = subnet.forward(M.Tensor(base.copy()))
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out.requires_grad
        assert retained <= 1.03 * needed, (batch, retained, needed)
        del out


@pytest.mark.parametrize(
    "arch",
    [
        M.PRESETS["desk"],
        M.PRESETS["base_i"],
        M.ArchConfig(blocks=((1, 3), (3, 5)), kernel_size=5, fc_width=7, input_side=9),
        M.ArchConfig(blocks=((2, 2),), kernel_size=3, fc_width=1, input_side=13),
    ],
)
def test_state_size_counts_what_build_model_allocates(arch):
    # zero weights: no draws, and the pages of a large model are never touched
    model = M.build_model(arch, seed=None)
    assert M.state_size(arch) == sum(a.size for a in model.state_arrays())


def test_training_forward_keeps_no_batchnorm_output(monkeypatch):
    # every batchnorm output, the last block's too, is freed once the
    # training forward returns, while the caller holds the scores
    refs = []
    real = T.batchnorm2d

    def batchnorm2d(*args, **kwargs):
        out = real(*args, **kwargs)
        refs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "batchnorm2d", batchnorm2d)
    arch = M.PRESETS["desk"]
    subnet = M.build_model(arch, seed=0).subnets[0]
    x = np.random.default_rng(2).standard_normal((2 * T.MICRO_BATCH + 3, 1, 64, 64)).astype(np.float32)
    out = subnet.forward(M.Tensor(x))
    assert len(refs) == len(arch.blocks)
    assert [r() is None for r in refs] == [True] * len(arch.blocks)
    T.backward(out, np.ones_like(out.data))
    assert all(p.grad is not None for p in subnet.parameters())
