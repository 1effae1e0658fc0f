import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grnas.metrics import classification_report, compute_auc


def brute_force_auc(scores, labels):
    """Pairwise-comparison definition: the independent oracle."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (pos.size * neg.size)


def test_perfect_separation():
    assert compute_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0


def test_inverted_labels():
    assert compute_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_all_ties():
    assert compute_auc(np.full(10, 0.5), [0, 1] * 5) == 0.5


def test_single_class_rejected():
    with pytest.raises(ValueError):
        compute_auc([0.1, 0.2], [1, 1])
    with pytest.raises(ValueError):
        compute_auc([0.1, 0.2], [0, 0])


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        compute_auc([0.1, 0.2, 0.3], [0, 1])


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() in (0, n):
        labels[0] = 1 - labels[0]
    # quantize to force ties sometimes
    scores = np.round(rng.normal(size=n), int(rng.integers(0, 3)))
    assert compute_auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


def test_oracle_equivalence_at_scale():
    rng = np.random.default_rng(1)
    labels = rng.integers(0, 2, size=1000)
    labels[0] = 1
    labels[1] = 0
    scores = np.round(rng.normal(size=1000), 1)
    assert compute_auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)


def test_classification_report_consistency():
    scores = np.array([0.1, 0.6, 0.4, 0.9, 0.2, 0.7])
    labels = np.array([0, 1, 1, 1, 0, 0])
    rep = classification_report(scores, labels, param_count=11)
    assert rep.tp == 2 and rep.fn == 1 and rep.fp == 1 and rep.tn == 2
    assert rep.acc == pytest.approx((rep.tp + rep.tn) / 6)
    assert rep.param_count == 11
    d = rep.to_dict()
    assert d["confusion"] == {"tp": 2, "fp": 1, "tn": 2, "fn": 1}


def loop_auc(scores, labels):
    """The per-sample tie-group loop that compute_auc's vectorized ranks replaced."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@pytest.mark.parametrize("n", [2, 3, 10, 512, 1000])
@pytest.mark.parametrize("kind", ["tie_heavy_integers", "continuous"])
def test_vectorized_ranks_are_the_loop_bit_for_bit(n, kind):
    for seed in range(20):
        rng = np.random.default_rng([n, seed])
        labels = rng.integers(0, 2, size=n)
        labels[:2] = (1, 0)
        if kind == "continuous":
            scores = rng.random(n)
        else:
            scores = rng.integers(0, max(n // 8, 2), size=n).astype(np.float64)
        assert compute_auc(scores, labels) == loop_auc(scores, labels)
