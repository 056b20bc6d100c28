"""Classification and interpretability scoring.

AUC uses the Mann-Whitney rank-sum formulation with midranks for ties.
Interpretability accuracy (a_int) compares the sign pattern of per-feature
scores against the class-determined target pattern via a Jaccard index over
(position, sign) tokens, averaged across samples.

The target pattern assumes that every feature map votes for the true class:
all +1 for class 1, all -1 for class 0. That holds on data where every
feature differs between the classes, as on the synthetic set. On data where
only some features differ, a model that attributes correctly, and leaves the
uninformative features near 0 or on either side, still scores low: a_int
measures agreement with that assumption, not whether the right feature
carries the decision.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, MetricError

@dataclass
class InterpLabel:
    """Sign pattern over the feature maps; entries are -1 or +1, never 0."""

    signs: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.signs, dtype=np.int8)
        if s.ndim != 1 or s.size == 0:
            raise ContractError(f"InterpLabel needs a non-empty 1-D sign vector, got shape {s.shape}")
        if not np.all((s == -1) | (s == 1)):
            raise ContractError("InterpLabel entries must be -1 or +1")
        self.signs = s


@dataclass
class ScoredSet:
    """Scores paired with binary labels by index."""

    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ContractError("scores and labels must be equal-length 1-D arrays")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ContractError("labels must be 0 or 1")


def _midranks(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    ranks = np.empty(len(x), dtype=np.float64)
    i = 0
    while i < len(sx):
        j = i
        while j + 1 < len(sx) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auc(scored: ScoredSet) -> float:
    """Probability that a random positive outranks a random negative."""
    pos = scored.labels == 1
    n_pos = int(pos.sum())
    n_neg = len(scored.labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricError("AUC needs at least one sample of each class")
    if not np.isfinite(scored.scores).all():
        raise MetricError("AUC needs finite scores")
    ranks = _midranks(scored.scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    if predicted.shape != labels.shape or predicted.size == 0:
        raise ContractError("accuracy needs equal-length non-empty arrays")
    return float((predicted == labels).mean())


def ground_truth_interp(y: int, n: int) -> InterpLabel:
    """All +1 for class 1, all -1 for class 0."""
    if y not in (0, 1):
        raise ContractError(f"binary label must be 0 or 1, got {y}")
    if n < 1:
        raise ContractError(f"need n >= 1 feature maps, got {n}")
    return InterpLabel(np.full(n, 1 if y == 1 else -1, dtype=np.int8))


def predicted_interp(scores) -> InterpLabel:
    """Elementwise sign of one prediction's scores; an exact zero counts as +1."""
    values = np.asarray(scores, dtype=np.float64)
    signs = np.where(values >= 0.0, 1, -1).astype(np.int8)
    return InterpLabel(signs)


def jaccard_signed(a: InterpLabel, b: InterpLabel) -> float:
    """Agreement between two sign patterns.

    Each pattern becomes the set of (position, sign) tokens, and the Jaccard
    index (intersection over union) reduces to m/(2N-m) for m matching
    positions.
    """
    if len(a.signs) != len(b.signs):
        raise ContractError(f"sign vectors differ in length: {len(a.signs)} vs {len(b.signs)}")
    n = len(a.signs)
    m = int((a.signs == b.signs).sum())
    return m / (2 * n - m)


def interpretability_accuracy(rss_rows, labels) -> float:
    """Mean signed-Jaccard agreement over evaluated samples, in [0, 1].

    Row by row this is `jaccard_signed(predicted_interp(row),
    ground_truth_interp(y, n))`, taken for all rows at once; the per-row
    values are summed in row order.
    """
    rows = np.atleast_2d(np.asarray(rss_rows, dtype=np.float64))
    labels = np.asarray(labels)
    if rows.shape[0] == 0 or labels.size == 0:
        raise ContractError("interpretability accuracy needs a non-empty sample set")
    if rows.shape[0] != labels.size:
        raise ContractError(f"{rows.shape[0]} rss rows but {labels.size} labels")
    n = rows.shape[1]
    if n == 0:
        raise ContractError("interpretability accuracy needs at least one score per sample")
    ys = labels.reshape(-1).astype(np.int64)
    bad = ys[(ys != 0) & (ys != 1)]
    if bad.size:
        raise ContractError(f"binary label must be 0 or 1, got {bad[0]}")
    # an exact zero counts as +1, as in `predicted_interp`
    matches = ((rows >= 0.0) == (ys == 1)[:, None]).sum(axis=1)
    per_row = matches / (2 * n - matches)
    return float(np.cumsum(per_row)[-1]) / rows.shape[0]
