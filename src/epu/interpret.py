"""Interpretation artifacts: relevance maps, score charts, overlays.

A relevance map condenses one sub-network's activations at the chosen conv
layer, as `model.predict` returns them: rank the layer's maps by Shannon
entropy, keep the most informative half, average them, upsample to input
size, then cut at the threshold maximizing Yen's entropic correlation. Both
steps use histograms of `BINS` bins. All maps of a layer are binned and
counted in one pass (with `np.histogram`'s bin rule), and Yen's criterion is
evaluated for every split at once, taking the first maximum. Charts are
emitted as self-contained SVG strings whose bar geometry and data-*
attributes are machine-checkable.
"""
from __future__ import annotations

import html
import json
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, DimensionError
from .pfm import PFM_LABELS, RgbImage, upsample

# Histogram bins of the entropy ranking and of Yen's threshold: one per
# level of an 8-bit range, as in Yen, Chang & Chang (IEEE TIP 1995).
BINS = 256

GREEN = "#2e8b57"
RED = "#c0392b"

_BAR_H = 20
_ROW_H = 34
_PLOT_X0 = 190
_PLOT_X1 = 550
_CENTER = (_PLOT_X0 + _PLOT_X1) // 2
_SCALE = (_PLOT_X1 - _PLOT_X0) / 2  # pixels per unit value


@dataclass
class FeatureMapStack:
    """Conv activations of one layer of one sub-network, shaped (n, h, w)."""

    maps: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.maps, dtype=np.float64)
        if m.ndim != 3:
            raise DimensionError(f"FeatureMapStack expects (n, h, w), got shape {m.shape}")
        if m.shape[0] < 1:
            raise ContractError("FeatureMapStack needs at least 1 map")
        self.maps = m

    @property
    def count(self) -> int:
        return self.maps.shape[0]


@dataclass
class Prm:
    """Relevance plane in [0,1] at input size, with its threshold and mask.

    threshold is None when the plane was constant; the mask is then empty.
    """

    plane: np.ndarray
    threshold: float | None
    mask: np.ndarray


def _minmax01(plane: np.ndarray) -> np.ndarray:
    lo, hi = float(plane.min()), float(plane.max())
    if hi - lo == 0:
        return np.zeros_like(plane, dtype=np.float64)
    return (plane.astype(np.float64) - lo) / (hi - lo)


def _bin_counts(rows: np.ndarray, bins: int) -> np.ndarray:
    """Per-row counts over `bins` equal bins of [0, 1], one `np.bincount` for all rows.

    Each row's counts equal `np.histogram(row, bins, range=(0, 1))`: the bin
    is floor(x * bins), a value on the last edge goes into the last bin, the
    index is corrected against the bin edges where the product rounded across
    one, and values outside [0, 1] (NaN included) are not counted.
    """
    n = rows.shape[0]
    inside = (rows >= 0.0) & (rows <= 1.0)
    x = np.where(inside, rows, 0.0)
    idx = (x * bins).astype(np.intp)
    idx[idx == bins] -= 1
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx[x < edges[idx]] -= 1
    idx[(x >= edges[idx + 1]) & (idx != bins - 1)] += 1
    # uncounted values go to a spare last column of their row, dropped below
    idx = np.where(inside, idx, bins) + (bins + 1) * np.arange(n)[:, None]
    counts = np.bincount(idx.ravel(), minlength=n * (bins + 1))
    return counts.reshape(n, bins + 1)[:, :bins]


def _entropies(rows: np.ndarray, bins: int) -> np.ndarray:
    """Entropy in bits of each row's histogram after min-max normalizing the row."""
    lo = rows.min(axis=1, keepdims=True)
    hi = rows.max(axis=1, keepdims=True)
    flat = (hi == lo)[:, 0]
    with np.errstate(invalid="ignore", over="ignore"):
        counts = _bin_counts((rows - lo) / np.where(flat[:, None], 1.0, hi - lo), bins)
    nonzero = counts > 0
    p = counts[nonzero] / rows.shape[1]
    terms = p * np.log2(p)
    sizes = nonzero.sum(axis=1)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    out = np.zeros(rows.shape[0])
    # one sum per row over that row's terms only: the same rounding as a
    # histogram of that map alone
    for r in np.flatnonzero(~flat):
        out[r] = -terms[starts[r] : ends[r]].sum()
    return out


def shannon_entropy(plane: np.ndarray) -> float:
    """Entropy in bits of the histogram of the min-max normalized plane.

    A constant plane has entropy 0.0. This is the one-map case of the
    counting that `select_informative` does for a whole stack.
    """
    plane = np.asarray(plane, dtype=np.float64)
    return float(_entropies(plane.reshape(1, -1), BINS)[0])


def select_informative(stack: FeatureMapStack) -> np.ndarray:
    """Keep the ceil(n/2) highest-entropy maps; ties go to the lower index.

    All n maps are normalized and binned together and counted in one pass;
    each entropy is bitwise what `shannon_entropy` gives for that map alone.
    Returns the selected maps in their original relative order.
    """
    n = stack.count
    keep = -(-n // 2)
    entropies = _entropies(stack.maps.reshape(n, -1), BINS)
    # stable sort on negated entropy: equal entropies keep index order
    ranked = np.argsort(-entropies, kind="mergesort")[:keep]
    chosen = np.sort(ranked)
    return stack.maps[chosen]


def aggregate(maps: np.ndarray) -> np.ndarray:
    """Elementwise mean of the maps, min-max normalized to [0,1]."""
    maps = np.asarray(maps, dtype=np.float64)
    if maps.ndim != 3 or maps.shape[0] == 0:
        raise ContractError(f"aggregate needs a non-empty (n, h, w) array, got shape {maps.shape}")
    return _minmax01(maps.mean(axis=0))


def yen_index(hist: np.ndarray) -> int:
    """Index t maximizing the entropic correlation over prefix splits.

    The split keeps bins 0..t on one side and t+1.. on the other. The
    criterion is computed for all splits at once; a split with an empty side
    (or a NaN criterion) is never chosen, and `argmax` takes the first
    maximum, so ties resolve to the lowest t. A histogram with all mass in
    one bin has no valid split and raises DegenerateInputError.
    """
    counts = np.asarray(hist, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise DegenerateInputError("empty histogram")
    p = counts / total
    sq = p * p
    # Suffix sums accumulated directly: cumulating nonnegative terms keeps an
    # empty side exactly zero, which subtraction from the total would not.
    prefix_p, prefix_q = np.cumsum(p)[:-1], np.cumsum(sq)[:-1]
    suffix_p, suffix_q = np.cumsum(p[::-1])[::-1][1:], np.cumsum(sq[::-1])[::-1][1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        tc = -np.log(prefix_q / (prefix_p * prefix_p)) - np.log(suffix_q / (suffix_p * suffix_p))
    valid = (prefix_p > 0.0) & (suffix_p > 0.0) & (tc > -np.inf)
    if not valid.any():
        raise DegenerateInputError("histogram mass concentrated in a single bin")
    return int(np.argmax(np.where(valid, tc, -np.inf)))


def yen_threshold(plane: np.ndarray) -> float:
    """Upper edge of the argmax bin, in normalized [0,1] units."""
    plane = np.asarray(plane, dtype=np.float64)
    if plane.max() == plane.min():
        raise DegenerateInputError("constant plane has no threshold")
    t = yen_index(_bin_counts(plane.reshape(1, -1), BINS)[0])
    return (t + 1) / BINS


def build_prm(maps, out_h: int, out_w: int) -> Prm:
    """Compose the relevance-map pipeline from one layer's (C, H, W) activations.

    A constant aggregate (e.g. all-zero activations) yields threshold None
    and an empty mask.
    """
    selected = select_informative(FeatureMapStack(maps=maps))
    plane = upsample(aggregate(selected), out_h, out_w)
    try:
        threshold = yen_threshold(plane)
    except DegenerateInputError:
        return Prm(plane=plane, threshold=None, mask=np.zeros(plane.shape, dtype=bool))
    return Prm(plane=plane, threshold=threshold, mask=plane >= threshold)


# ---------------------------------------------------------------------------
# charts


def _svg_header(width: int, height: int, title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="13">',
        f'<text x="{width // 2}" y="22" text-anchor="middle" font-size="15">{html.escape(title)}</text>',
    ]


def _bar(y: int, value: float, extra_attrs: str) -> str:
    length = min(abs(float(value)), 1.0) * _SCALE
    x = _CENTER if value >= 0 else _CENTER - length
    color = GREEN if value >= 0 else RED
    return (
        f'<rect class="bar" {extra_attrs} x="{x:.4f}" y="{y}" width="{length:.4f}" '
        f'height="{_BAR_H}" fill="{color}"/>'
    )


def _axis(y0: int, y1: int) -> str:
    return (
        f'<line class="axis" x1="{_CENTER}" y1="{y0}" x2="{_CENTER}" y2="{y1}" '
        'stroke="#555" stroke-width="1"/>'
    )


def _score_row(scores) -> np.ndarray:
    """One prediction's scores as float64, one per entry of `PFM_LABELS`,
    else `DimensionError`."""
    row = np.asarray(scores, dtype=np.float64)
    if row.shape != (len(PFM_LABELS),):
        raise DimensionError(f"need one score per feature map, shape ({len(PFM_LABELS)},), got {row.shape}")
    return row


def render_local_chart(scores, class_names) -> str:
    """Horizontal bar chart of one prediction's per-PFM scores, one bar per
    entry of `PFM_LABELS`, in that order."""
    scores = _score_row(scores)
    class_names = tuple(class_names)
    if len(class_names) != 2:
        raise ContractError("local chart needs exactly two class names")
    n = len(scores)
    top, height = 56, 56 + n * _ROW_H + 36
    parts = _svg_header(_PLOT_X1 + 50, height, "per-feature evidence")
    parts.append(
        f'<text x="{_PLOT_X0}" y="42" fill="{RED}">&#8592; {html.escape(class_names[0])}</text>'
    )
    parts.append(
        f'<text x="{_PLOT_X1}" y="42" text-anchor="end" fill="{GREEN}">{html.escape(class_names[1])} &#8594;</text>'
    )
    for i, (label, value) in enumerate(zip(PFM_LABELS, scores)):
        y = top + i * _ROW_H
        parts.append(
            f'<text x="{_PLOT_X0 - 12}" y="{y + 15}" text-anchor="end">{html.escape(str(label))}</text>'
        )
        attrs = f'data-label="{html.escape(str(label))}" data-value="{float(value)!r}"'
        parts.append(_bar(y, float(value), attrs))
        tx = _CENTER + (8 if value >= 0 else -8)
        anchor = "start" if value >= 0 else "end"
        parts.append(
            f'<text x="{tx}" y="{y + 15}" text-anchor="{anchor}" font-size="11">{float(value):+.3f}</text>'
        )
    parts.append(_axis(top - 8, top + n * _ROW_H))
    parts.append("</svg>")
    return "\n".join(parts)


@dataclass
class GlobalRssStats:
    """Per-class mean and standard deviation of scores, per entry of `PFM_LABELS`."""

    class_names: tuple
    means: np.ndarray
    stds: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        self.means = np.asarray(self.means, dtype=np.float64)
        self.stds = np.asarray(self.stds, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        want = (len(self.class_names), len(PFM_LABELS))
        if self.means.shape != want or self.stds.shape != want:
            raise ContractError(f"stats shape {self.means.shape} does not match {want}")


def global_rss_stats(rss_rows, labels, class_names) -> GlobalRssStats:
    """Aggregate per-sample score rows, one score per entry of `PFM_LABELS`,
    into per-class means and stds."""
    rows = np.atleast_2d(np.asarray(rss_rows, dtype=np.float64))
    labels = np.asarray(labels)
    if rows.shape[0] == 0:
        raise ContractError("global stats need at least one sample")
    if rows.shape[0] != labels.size:
        raise ContractError(f"{rows.shape[0]} score rows but {labels.size} labels")
    n_classes = len(class_names)
    means = np.zeros((n_classes, rows.shape[1]))
    stds = np.zeros_like(means)
    counts = np.zeros(n_classes, dtype=np.int64)
    for c in range(n_classes):
        sel = rows[labels == c]
        counts[c] = sel.shape[0]
        if sel.shape[0]:
            means[c] = sel.mean(axis=0)
            stds[c] = sel.std(axis=0)
    return GlobalRssStats(tuple(class_names), means, stds, counts)


def render_global_chart(stats: GlobalRssStats) -> str:
    """Grouped bar chart of per-class mean scores with +-1 std whiskers."""
    if stats.counts.sum() == 0:
        raise ContractError("global chart needs statistics over at least one sample")
    rows = len(stats.class_names) * len(PFM_LABELS)
    top = 56
    group_gap = 18
    height = top + rows * _ROW_H + group_gap * len(stats.class_names) + 36
    parts = _svg_header(_PLOT_X1 + 50, height, "per-class mean evidence")
    y = top
    for c, cname in enumerate(stats.class_names):
        parts.append(
            f'<text x="{_PLOT_X0 - 12}" y="{y + 2}" text-anchor="end" font-size="14" '
            f'font-weight="bold">{html.escape(str(cname))} (n={int(stats.counts[c])})</text>'
        )
        y += 10
        for i, label in enumerate(PFM_LABELS):
            mean, std = float(stats.means[c, i]), float(stats.stds[c, i])
            parts.append(
                f'<text x="{_PLOT_X0 - 12}" y="{y + 15}" text-anchor="end">{html.escape(str(label))}</text>'
            )
            attrs = (
                f'data-class="{html.escape(str(cname))}" data-label="{html.escape(str(label))}" '
                f'data-mean="{mean!r}" data-std="{std!r}"'
            )
            parts.append(_bar(y, mean, attrs))
            wy = y + _BAR_H / 2
            x_lo = max(_CENTER + (mean - std) * _SCALE, _PLOT_X0)
            x_hi = min(_CENTER + (mean + std) * _SCALE, _PLOT_X1)
            parts.append(
                f'<line class="whisker" data-std="{std!r}" x1="{x_lo:.4f}" y1="{wy}" '
                f'x2="{x_hi:.4f}" y2="{wy}" stroke="#000" stroke-width="2"/>'
            )
            y += _ROW_H
        y += group_gap
    parts.append(_axis(top - 8, y - group_gap))
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# overlays and sidecars


def overlay_prm(image: RgbImage, prm: Prm) -> RgbImage:
    """Tint masked pixels along an orange-to-yellow ramp by relevance."""
    if prm.plane.shape != (image.height, image.width):
        raise DimensionError(
            f"relevance plane {prm.plane.shape} does not match image {(image.height, image.width)}"
        )
    out = image.pixels.astype(np.float64)
    mask = prm.mask
    if mask.any():
        v = prm.plane[mask]
        tint = np.stack([np.full_like(v, 255.0), 165.0 + 90.0 * v, np.zeros_like(v)], axis=-1)
        out[mask] = 0.5 * out[mask] + 0.5 * tint
    return RgbImage(np.clip(np.rint(out), 0, 255).astype(np.uint8))


def rss_sidecar(scores) -> str:
    """One JSON object per line, {"pfm": label, "value": score}, one line per
    entry of `PFM_LABELS`, in that order."""
    lines = [
        json.dumps({"pfm": str(label), "value": float(value)})
        for label, value in zip(PFM_LABELS, _score_row(scores))
    ]
    return "\n".join(lines) + "\n"
