import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from epu import interpret as I
from epu.errors import ConfigError, ContractError, DegenerateInputError, DimensionError
from epu.model import ArchConfig, build_model, predict
from epu.pfm import PFM_LABELS, RgbImage


def brute_yen_index(counts):
    p = np.asarray(counts, dtype=np.float64)
    p = p / p.sum()
    best_tc, best_t = -np.inf, None
    for t in range(len(p) - 1):
        a, b = p[: t + 1], p[t + 1 :]
        sa, sb = a.sum(), b.sum()
        if sa <= 0 or sb <= 0:
            continue
        tc = -math.log((a * a).sum() / sa**2) - math.log((b * b).sum() / sb**2)
        if tc > best_tc:
            best_tc, best_t = tc, t
    return best_t


def stack_of(maps):
    return I.FeatureMapStack(maps=np.asarray(maps, dtype=np.float64))


def svg_elems(svg, tag):
    return ET.fromstring(svg).findall(f".//{{*}}{tag}")


# ---------------------------------------------------------------------------
# entropy and selection


def test_entropy_constant_is_zero():
    assert I.shannon_entropy(np.full((8, 8), 3.3)) == 0.0


def test_entropy_uniform_fills_all_bins():
    vals = np.tile(np.linspace(0.0, 1.0, 256), 4).reshape(32, 32)
    assert I.shannon_entropy(vals) == pytest.approx(8.0)


def test_entropy_two_equal_bins_is_one_bit():
    vals = np.array([0.0] * 32 + [1.0] * 32).reshape(8, 8)
    assert I.shannon_entropy(vals) == pytest.approx(1.0)


def test_entropy_shift_and_scale_invariant():
    rng = np.random.default_rng(1)
    m = rng.uniform(size=(16, 16))
    assert I.shannon_entropy(m) == pytest.approx(I.shannon_entropy(5.0 * m - 3.0))


def test_select_informative_keeps_top_half():
    rng = np.random.default_rng(2)
    base = rng.uniform(size=(6, 6))
    maps = [
        np.full((6, 6), 1.0),          # 0 bits
        np.where(base > 0.5, 1.0, 0.0),  # 1 bit
        base,                           # high entropy
        np.full((6, 6), 2.0),          # 0 bits
        rng.uniform(size=(6, 6)),       # high entropy
    ]
    sel = I.select_informative(stack_of(maps))
    assert len(sel) == 3  # ceil(5/2)
    picked = [any(np.array_equal(s, m) for s in sel) for m in maps]
    assert picked == [False, True, True, False, True]


def test_select_informative_tie_breaks_to_lower_index():
    base = np.random.default_rng(3).uniform(size=(5, 5))
    maps = np.stack([base + i for i in range(4)])  # identical normalized histograms
    sel = I.select_informative(stack_of(maps))
    assert len(sel) == 2
    assert np.array_equal(sel[0], maps[0])
    assert np.array_equal(sel[1], maps[1])


def test_select_informative_matches_sort_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        maps = rng.uniform(size=(n, 7, 7)) ** rng.uniform(0.3, 4.0)
        st = stack_of(maps)
        ents = [I.shannon_entropy(m) for m in maps]
        keep = -(-n // 2)
        oracle_idx = sorted(sorted(range(n)), key=lambda i: (-ents[i], i))[:keep]
        oracle_idx.sort()
        sel = I.select_informative(st)
        assert len(sel) == keep
        for got, want in zip(sel, oracle_idx):
            assert np.array_equal(got, maps[want])


def _histogram_entropy(plane, bins):
    """Entropy of one map through `np.histogram`, the per-map formula the batched count replaced."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.max() == plane.min():
        return 0.0
    lo, hi = float(plane.min()), float(plane.max())
    norm = (plane - lo) / (hi - lo)
    counts, _ = np.histogram(norm, bins=bins, range=(0.0, 1.0))
    p = counts[counts > 0] / norm.size
    return float(-(p * np.log2(p)).sum())


def _random_stack(rng, case):
    n, side = int(rng.integers(2, 33)), int(rng.integers(4, 65))
    maps = rng.standard_normal((n, side, side))
    kind = case % 5
    if kind == 0:
        maps = np.maximum(maps, 0.0)  # ReLU zeros
    elif kind == 1:
        maps = np.round(2.0 * maps) / 2.0  # heavy ties, signed zeros
    elif kind == 2:
        maps[rng.integers(0, n)] = 3.3  # a constant map
        maps[rng.integers(0, n)] = 0.0
    elif kind == 3:
        maps = np.maximum(maps, 0.0).astype(np.float32).astype(np.float64)
    else:
        maps = rng.integers(0, 11, size=maps.shape).astype(np.float64)  # values k/10 after scaling
    return maps


def test_batched_entropies_bitwise_match_histogram_per_map():
    rng = np.random.default_rng(11)
    for case in range(160):
        maps = _random_stack(rng, case)
        bins = (2, 10, 16, 256)[case % 4]
        got = I._entropies(maps.reshape(len(maps), -1), bins)
        want = np.array([_histogram_entropy(m, bins) for m in maps])
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), case
        # the public functions count over `I.BINS` bins
        want = np.array([_histogram_entropy(m, I.BINS) for m in maps])
        assert [I.shannon_entropy(m) for m in maps] == want.tolist()
        keep = -(-len(maps) // 2)
        order = sorted(range(len(maps)), key=lambda i: (-want[i], i))[:keep]
        assert np.array_equal(I.select_informative(stack_of(maps)), maps[sorted(order)])


def test_batched_entropies_nonfinite_maps_match_histogram_per_map():
    m = np.random.default_rng(12).uniform(size=(4, 6, 6))
    m[0] = np.nan
    m[1, 2, 3] = np.inf
    m[2, 0, 0] = -np.inf
    with np.errstate(invalid="ignore"):
        want = [_histogram_entropy(x, 16) for x in m]
    got = I._entropies(m.reshape(4, -1), 16)
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_bin_counts_match_numpy_histogram_at_edges():
    rng = np.random.default_rng(13)
    # at 5 and 10 bins a value just below an edge rounds up onto it: np.histogram moves it back
    for bins in (2, 3, 5, 10, 16, 255, 256):
        edges = np.linspace(0.0, 1.0, bins + 1)
        vals = np.concatenate([
            edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
            rng.uniform(size=200), [-0.0, -1e-300, 1.5, -2.0, np.nan, np.inf, -np.inf],
        ])
        rows = np.stack([vals, rng.permutation(vals)])
        want = [np.histogram(r, bins=bins, range=(0.0, 1.0))[0] for r in rows]
        assert np.array_equal(I._bin_counts(rows, bins), want)


def test_feature_map_stack_needs_one_map():
    with pytest.raises(ContractError):
        stack_of(np.ones((0, 4, 4)))
    # a layer of one channel keeps its map: ceil(1 / 2) = 1
    one = np.arange(16.0).reshape(1, 4, 4)
    assert np.array_equal(I.select_informative(stack_of(one)), one)


def test_aggregate_single_and_cancelling():
    m = np.array([[0.0, 2.0], [4.0, 8.0]])
    out = I.aggregate(m[None])
    assert np.allclose(out, m / 8.0)
    cancel = I.aggregate(np.stack([m, -m]))
    assert np.all(cancel == 0.0)  # constant pre-normalization mean
    mean = np.stack([[[0.0, 2.0]], [[2.0, 0.0]]]).mean(axis=0)
    assert np.allclose(mean, 1.0)


def test_aggregate_empty_rejected():
    with pytest.raises(ContractError):
        I.aggregate(np.empty((0, 4, 4)))


# ---------------------------------------------------------------------------
# thresholding


def test_yen_two_spike_plane():
    vals = np.array([0.05] * 50 + [0.8] * 50).reshape(10, 10)
    th = I.yen_threshold(vals)
    assert 0.05 < th < 0.8


def test_yen_matches_brute_force_on_random_histograms():
    rng = np.random.default_rng(5)
    for _ in range(20):
        counts = rng.integers(0, 50, size=256)
        if np.count_nonzero(counts) < 2:
            counts[[3, 200]] = 5
        assert I.yen_index(counts) == brute_yen_index(counts)


def test_yen_scale_invariant():
    rng = np.random.default_rng(6)
    counts = rng.integers(1, 30, size=64).astype(np.float64)
    assert I.yen_index(counts) == I.yen_index(3.7 * counts)


def test_yen_tie_takes_lowest():
    # symmetric two-spike histogram: split criteria tie across the middle
    counts = np.zeros(8)
    counts[[1, 6]] = 10.0
    got = I.yen_index(counts)
    assert got == brute_yen_index(counts)


def _scalar_loop_yen_index(hist):
    """The split scan the array form replaced: strict `>` over splits in order."""
    p = np.asarray(hist, dtype=np.float64)
    total = p.sum()
    if total <= 0:
        raise DegenerateInputError("empty histogram")
    p = p / total
    sq = p * p
    prefix_p, prefix_q = np.cumsum(p), np.cumsum(sq)
    suffix_p, suffix_q = np.cumsum(p[::-1])[::-1], np.cumsum(sq[::-1])[::-1]
    best_t, best_tc = -1, -np.inf
    for t in range(len(p) - 1):
        pp, sp = prefix_p[t], suffix_p[t + 1]
        if pp <= 0.0 or sp <= 0.0:
            continue
        tc = -np.log(prefix_q[t] / (pp * pp)) - np.log(suffix_q[t + 1] / (sp * sp))
        if tc > best_tc:
            best_tc, best_t = tc, t
    if best_t < 0:
        raise DegenerateInputError("histogram mass concentrated in a single bin")
    return best_t


def _yen_or_error(fn, hist):
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            return fn(hist)
    except DegenerateInputError:
        return "degenerate"


def test_yen_index_matches_scalar_loop():
    rng = np.random.default_rng(14)
    cases = []
    for bins in (1, 2, 3, 8, 16, 256):
        for _ in range(40):
            cases.append(rng.integers(0, 50, bins))  # random
            spikes = np.zeros(bins)
            spikes[rng.integers(0, bins, 2)] = 10.0  # symmetric ties, or one spike
            cases.append(spikes)
            single = np.zeros(bins)
            single[rng.integers(0, bins)] = 7.0  # single-bin mass
            cases.append(single)
            cases.append(rng.integers(0, 3, bins) * rng.integers(0, 2, bins))  # sparse, empty sides
            cases.append(rng.permutation(np.r_[np.full(bins // 2, 5.0), np.zeros(bins - bins // 2)]))
    # no mass; an underflowing square (NaN criterion); an exact two-bin tie
    cases += [np.zeros(8), np.array([1.0, 1e-300]), np.array([1.0, 1e-300, 1.0]), np.array([3.0, 3.0])]
    raised = 0
    for hist in cases:
        want = _yen_or_error(_scalar_loop_yen_index, hist)
        assert _yen_or_error(I.yen_index, hist) == want, hist
        raised += want == "degenerate"
    assert 0 < raised < len(cases)


def test_yen_threshold_matches_numpy_histogram():
    rng = np.random.default_rng(15)
    for case in range(60):
        side = int(rng.integers(2, 65))
        plane = rng.uniform(size=(side, side)) ** rng.uniform(0.3, 4.0)
        if case % 3 == 0:
            plane = np.round(plane * 8.0) / 8.0
        counts, _ = np.histogram(plane, bins=I.BINS, range=(0.0, 1.0))
        want = _yen_or_error(_scalar_loop_yen_index, counts)
        got = _yen_or_error(I.yen_threshold, plane)
        assert got == (want if want == "degenerate" else (want + 1) / I.BINS)


def test_yen_degenerate_inputs():
    with pytest.raises(DegenerateInputError):
        I.yen_threshold(np.full((4, 4), 0.3))
    single = np.zeros(16)
    single[7] = 99
    with pytest.raises(DegenerateInputError):
        I.yen_index(single)
    with pytest.raises(DegenerateInputError):
        I.yen_index(np.zeros(16))


# ---------------------------------------------------------------------------
# PRM composition


def test_build_prm_shape_and_stage_composition():
    rng = np.random.default_rng(7)
    acts = [rng.uniform(size=(4, 8, 8)), rng.uniform(size=(6, 4, 4)) ** 2]
    prm = I.build_prm(acts[1], out_h=32, out_w=32)
    assert prm.plane.shape == (32, 32)
    assert prm.mask.shape == (32, 32)
    assert 0.0 <= prm.plane.min() and prm.plane.max() <= 1.0

    # independent stage composition
    st = stack_of(acts[1])
    sel = I.select_informative(st)
    from epu.pfm import upsample

    plane = upsample(I.aggregate(sel), 32, 32)
    th = I.yen_threshold(plane)
    assert np.allclose(prm.plane, plane)
    assert prm.threshold == pytest.approx(th)
    assert np.array_equal(prm.mask, plane >= th)


def test_build_prm_zero_activations_empty_mask():
    prm = I.build_prm(np.zeros((4, 6, 6)), out_h=12, out_w=12)
    assert prm.threshold is None
    assert not prm.mask.any()
    assert np.all(prm.plane == 0.0)


def test_build_prm_layer_bounds():
    # the layer whose maps feed build_prm must be one of the conv layers
    arch = ArchConfig(blocks=((1, 2), (1, 3)), fc_width=4, input_side=9)
    model = build_model(arch, seed=0)
    stacks = np.zeros((1, 4, 9, 9), dtype=np.float32)
    acts = predict(model, stacks, layer=2)[2]
    assert I.build_prm(acts[0][0], out_h=9, out_w=9).plane.shape == (9, 9)
    for bad in (0, 3):
        with pytest.raises(ConfigError):
            predict(model, stacks, layer=bad)
    with pytest.raises(ContractError):
        I.build_prm(np.ones((0, 4, 4)), out_h=8, out_w=8)
    with pytest.raises(DimensionError):
        I.build_prm(np.ones((4, 4)), out_h=8, out_w=8)


def test_prm_mask_monotone_in_threshold():
    rng = np.random.default_rng(8)
    plane = rng.uniform(size=(16, 16))
    thresholds = np.sort(rng.uniform(0.1, 0.9, size=5))
    prev = plane >= thresholds[0]
    for t in thresholds[1:]:
        cur = plane >= t
        assert not np.any(cur & ~prev)  # raising threshold never adds pixels
        prev = cur


# ---------------------------------------------------------------------------
# charts


def local_chart_bars(values):
    svg = I.render_local_chart(np.asarray(values, dtype=float), ("neg-class", "pos-class"))
    return svg, [r for r in svg_elems(svg, "rect") if r.get("class") == "bar"]


def test_local_chart_geometry():
    svg, bars = local_chart_bars([0.0, 1.0, -0.5, 0.25])
    assert [b.get("data-label") for b in bars] == list(PFM_LABELS)
    scale = I._SCALE
    assert float(bars[0].get("width")) == 0.0
    assert float(bars[1].get("width")) == pytest.approx(scale)
    assert bars[1].get("fill") == I.GREEN
    assert float(bars[1].get("x")) == pytest.approx(I._CENTER)
    assert float(bars[2].get("width")) == pytest.approx(0.5 * scale)
    assert bars[2].get("fill") == I.RED
    assert float(bars[2].get("x")) == pytest.approx(I._CENTER - 0.5 * scale)
    assert "pos-class" in svg and "neg-class" in svg


def test_local_chart_length_linear_in_value():
    _, bars = local_chart_bars([0.2, 0.4, 0.8, 0.1])
    widths = [float(b.get("width")) for b in bars]
    assert widths[1] == pytest.approx(2 * widths[0], abs=1e-3)
    assert widths[2] == pytest.approx(4 * widths[0], abs=1e-3)
    assert widths[3] == pytest.approx(0.5 * widths[0], abs=1e-3)


def test_local_chart_data_attributes_roundtrip():
    values = [0.123456789, -0.987654321, 0.5, -0.25]
    _, bars = local_chart_bars(values)
    assert [float(b.get("data-value")) for b in bars] == pytest.approx(values)


def test_local_chart_class_name_arity():
    with pytest.raises(ContractError):
        I.render_local_chart(np.zeros(4), ("only-one",))


@pytest.mark.parametrize("shape", [(3,), (5,), (1, 4)])
def test_local_chart_and_sidecar_need_one_score_per_feature_map(shape):
    # a row of another length would otherwise be cut short by `zip`, or
    # label its extra scores with nothing
    for render in (lambda row: I.render_local_chart(row, ("a", "b")), I.rss_sidecar):
        with pytest.raises(DimensionError):
            render(np.zeros(shape))


def test_global_stats_and_chart():
    rows = np.array([[0.4, 0.1, 0.0, -0.5], [-0.4, 0.3, 0.2, -0.5], [0.6, -0.2, 0.9, 1.0]])
    labels = np.array([0, 0, 1])
    stats = I.global_rss_stats(rows, labels, ("c0", "c1"))
    assert stats.means[0] == pytest.approx([0.0, 0.2, 0.1, -0.5])
    assert stats.stds[0] == pytest.approx([0.4, 0.1, 0.1, 0.0])
    assert stats.counts.tolist() == [2, 1]

    svg = I.render_global_chart(stats)
    bars = [r for r in svg_elems(svg, "rect") if r.get("class") == "bar"]
    whiskers = [l for l in svg_elems(svg, "line") if l.get("class") == "whisker"]
    assert len(bars) == 8 and len(whiskers) == 8
    # zero mean with nonzero whisker for class 0 / pfm0
    assert float(bars[0].get("width")) == 0.0
    assert float(whiskers[0].get("data-std")) == pytest.approx(0.4)
    w0 = abs(float(whiskers[0].get("x2")) - float(whiskers[0].get("x1")))
    assert w0 == pytest.approx(2 * 0.4 * I._SCALE, abs=1e-3)
    # single sample in class 1: zero-length whisker
    assert float(whiskers[4].get("x1")) == pytest.approx(float(whiskers[4].get("x2")))
    # attributes match recomputation, labels in `PFM_LABELS` order
    for c, cls in enumerate(("c0", "c1")):
        for i, label in enumerate(PFM_LABELS):
            bar = bars[c * 4 + i]
            assert (bar.get("data-class"), bar.get("data-label")) == (cls, label)
            sel = rows[labels == c][:, i]
            assert float(bar.get("data-mean")) == pytest.approx(sel.mean())


@pytest.mark.parametrize("width", [3, 5])
def test_global_stats_need_one_score_per_feature_map(width):
    with pytest.raises(ContractError):
        I.global_rss_stats(np.zeros((2, width)), np.array([0, 1]), ("a", "b"))


def test_global_chart_empty_rejected():
    with pytest.raises(ContractError):
        I.global_rss_stats(np.empty((0, 4)), np.array([]), ("a", "b"))


# ---------------------------------------------------------------------------
# overlays and sidecars


def gray_image(h=8, w=8, value=100):
    return RgbImage(np.full((h, w, 3), value, np.uint8))


def test_overlay_empty_mask_is_identity():
    img = gray_image()
    prm = I.Prm(plane=np.zeros((8, 8)), threshold=None, mask=np.zeros((8, 8), bool))
    out = I.overlay_prm(img, prm)
    assert np.array_equal(out.pixels, img.pixels)


def test_overlay_full_mask_uniform_yellow():
    img = gray_image(value=100)
    prm = I.Prm(plane=np.ones((8, 8)), threshold=0.5, mask=np.ones((8, 8), bool))
    out = I.overlay_prm(img, prm)
    expected = np.rint(0.5 * np.array([100, 100, 100]) + 0.5 * np.array([255, 255, 0]))
    assert np.all(out.pixels == expected.astype(np.uint8))


def test_overlay_changes_exactly_masked_pixels():
    rng = np.random.default_rng(9)
    img = gray_image(12, 10, value=90)
    mask = rng.uniform(size=(12, 10)) > 0.6
    prm = I.Prm(plane=rng.uniform(size=(12, 10)), threshold=0.4, mask=mask)
    out = I.overlay_prm(img, prm)
    differs = np.any(out.pixels != img.pixels, axis=-1)
    assert np.array_equal(differs, mask)


def test_overlay_dimension_mismatch():
    img = gray_image(8, 8)
    prm = I.Prm(plane=np.zeros((4, 4)), threshold=None, mask=np.zeros((4, 4), bool))
    with pytest.raises(DimensionError):
        I.overlay_prm(img, prm)


def test_rss_sidecar_roundtrip():
    lines = I.rss_sidecar(np.array([0.25, -0.75, 0.5, 0.0])).strip().split("\n")
    parsed = [json.loads(line) for line in lines]
    assert parsed == [
        {"pfm": "light-dark", "value": 0.25},
        {"pfm": "coarse-fine", "value": -0.75},
        {"pfm": "blue-yellow", "value": 0.5},
        {"pfm": "green-red", "value": 0.0},
    ]
