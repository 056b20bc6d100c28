import numpy as np
import pytest

from epu import metrics as MX
from epu.errors import ContractError, MetricError


def brute_force_auc(scores, labels):
    wins = ties = total = 0
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    for p in pos:
        for n in neg:
            total += 1
            if p > n:
                wins += 1
            elif p == n:
                ties += 1
    return (wins + 0.5 * ties) / total


def test_auc_worked_example():
    assert MX.auc([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]) == pytest.approx(0.75)


def test_auc_perfect_and_ties():
    assert MX.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert MX.auc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5


def test_auc_single_class_rejected():
    with pytest.raises(MetricError):
        MX.auc([0.1, 0.2], [1, 1])


def test_auc_rejects_unpaired_or_non_binary_input():
    for scores, labels in (([0.1, 0.2, 0.3], [0, 1]), ([[0.1, 0.2]], [[0, 1]])):
        with pytest.raises(ContractError, match="equal-length 1-D arrays"):
            MX.auc(scores, labels)
    with pytest.raises(ContractError, match="labels must be 0 or 1"):
        MX.auc([0.1, 0.2, 0.3], [0, 1, 2])


def test_auc_non_finite_scores_rejected():
    # NaN ranks follow sample order alone: four NaNs labelled 0, 1, 0, 1 read 0.75
    for bad in (np.nan, np.inf):
        with pytest.raises(MetricError):
            MX.auc([bad] * 4, [0, 1, 0, 1])
    with pytest.raises(MetricError):
        MX.auc([0.1, np.nan, 0.3], [0, 1, 1])


def test_auc_matches_brute_force_random_sets():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 51))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, size=n), 2)  # rounding forces ties
        got = MX.auc(scores, labels)
        assert got == pytest.approx(brute_force_auc(scores, labels), abs=1e-9)


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(18)
    scores = rng.uniform(size=30)
    labels = rng.integers(0, 2, size=30)
    labels[:2] = [0, 1]
    base = MX.auc(scores, labels)
    warped = MX.auc(np.exp(3 * scores) + 7, labels)
    assert warped == pytest.approx(base, abs=1e-12)


def test_accuracy():
    assert MX.accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)


def test_ground_truth_interp():
    assert MX.ground_truth_interp(1, 4).signs.tolist() == [1, 1, 1, 1]
    assert MX.ground_truth_interp(0, 4).signs.tolist() == [-1, -1, -1, -1]
    assert MX.ground_truth_interp(1, 1).signs.tolist() == [1]


def test_predicted_interp_signs():
    lab = MX.predicted_interp(np.array([0.3, -0.2, 0.9, 0.1]))
    assert lab.signs.tolist() == [1, -1, 1, 1]
    assert MX.predicted_interp(np.array([-0.5, -0.1])).signs.tolist() == [-1, -1]
    assert MX.predicted_interp(np.array([0.0, -0.3])).signs.tolist() == [1, -1]


def test_interp_label_rejects_zero():
    with pytest.raises(ContractError):
        MX.InterpLabel(np.array([1, 0, -1]))


def test_jaccard_token_formula():
    a = MX.InterpLabel(np.array([1, 1, -1, -1]))
    same = MX.jaccard_signed(a, a)
    assert same == 1.0
    b = MX.InterpLabel(np.array([1, 1, 1, 1]))
    assert MX.jaccard_signed(a, b) == pytest.approx(2 / 6)
    c = MX.InterpLabel(np.array([-1, -1, 1, 1]))
    assert MX.jaccard_signed(a, c) == 0.0


def test_jaccard_matches_set_enumeration():
    # oracle: literally build the token sets for every m in 0..4
    for m in range(5):
        a_signs = np.ones(4, dtype=int)
        b_signs = np.concatenate([np.ones(m, dtype=int), -np.ones(4 - m, dtype=int)])
        set_a = {(i, s) for i, s in enumerate(a_signs)}
        set_b = {(i, s) for i, s in enumerate(b_signs)}
        oracle = len(set_a & set_b) / len(set_a | set_b)
        got = MX.jaccard_signed(MX.InterpLabel(a_signs), MX.InterpLabel(b_signs))
        assert got == pytest.approx(oracle)
        assert got == pytest.approx(m / (2 * 4 - m))


def test_jaccard_symmetry_random():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = MX.InterpLabel(rng.choice([-1, 1], size=6))
        b = MX.InterpLabel(rng.choice([-1, 1], size=6))
        assert MX.jaccard_signed(a, b) == MX.jaccard_signed(b, a)
        assert (MX.jaccard_signed(a, b) == 1.0) == bool(np.array_equal(a.signs, b.signs))


def test_jaccard_length_mismatch():
    with pytest.raises(ContractError):
        MX.jaccard_signed(MX.InterpLabel(np.array([1, 1])), MX.InterpLabel(np.array([1, 1, 1])))


def test_interpretability_accuracy_full_agreement():
    rows = np.array([[0.5, 0.9, 0.2, 0.1], [-0.4, -0.1, -0.8, -0.2]])
    labels = np.array([1, 0])
    assert MX.interpretability_accuracy(rows, labels) == 1.0


def test_interpretability_accuracy_mean():
    # J = 1 for the first sample, 2 matches of 4 -> 1/3 for the second
    rows = np.array([[0.5, 0.9, 0.2, 0.1], [0.4, 0.1, -0.8, -0.2]])
    labels = np.array([1, 0])
    expected = (1.0 + 1.0 / 3.0) / 2.0
    got = MX.interpretability_accuracy(rows, labels)
    assert got == pytest.approx(expected)
    assert round(100 * got, 2) == 66.67


def test_interpretability_accuracy_empty_rejected():
    with pytest.raises(ContractError):
        MX.interpretability_accuracy(np.empty((0, 4)), np.array([]))


def test_interpretability_accuracy_matches_the_per_row_jaccard_bitwise():
    # the reference: each row's jaccard_signed of its predicted and target
    # sign patterns, summed in row order; exact zeros count as +1
    rng = np.random.default_rng(23)
    for _ in range(200):
        k, n = int(rng.integers(1, 30)), int(rng.integers(1, 7))
        rows = rng.normal(size=(k, n))
        rows[rng.random((k, n)) < 0.2] = 0.0
        rows[rng.random((k, n)) < 0.05] = -0.0
        labels = rng.integers(0, 2, size=k)
        total = 0.0
        for row, y in zip(rows, labels):
            total += MX.jaccard_signed(MX.predicted_interp(row), MX.ground_truth_interp(int(y), n))
        want = total / k
        assert np.float64(MX.interpretability_accuracy(rows, labels)).tobytes() == np.float64(want).tobytes()


def test_interpretability_accuracy_rejects_labels_other_than_0_and_1():
    rows = np.ones((3, 4))
    for bad in (2, -1):
        with pytest.raises(ContractError, match=f"binary label must be 0 or 1, got {bad}"):
            MX.interpretability_accuracy(rows, np.array([0, bad, 1]))
    with pytest.raises(ContractError):
        MX.interpretability_accuracy(np.empty((2, 0)), np.array([0, 1]))
