"""Classification metrics: rank-based AUC, accuracy, confusion counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def compute_auc(scores, labels) -> float:
    """Mann-Whitney AUC from a score ranking; ties contribute 1/2.

    Requires at least one positive and one negative label.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and labels {labels.shape} must be equal-length vectors")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative sample")
    order = np.argsort(scores, kind="stable")
    sorted_scores = scores[order]
    # average ranks over tie groups (1-based): the group at sorted positions
    # start..end takes 0.5 * (start + end) + 1, an exact half
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], scores.size] - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


@dataclass(frozen=True)
class MetricsReport:
    """AUC/ACC plus the confusion counts they were computed from."""

    auc: float
    acc: float
    param_count: int
    tp: int
    fp: int
    tn: int
    fn: int

    def to_dict(self) -> dict:
        return {
            "auc": self.auc,
            "acc": self.acc,
            "param_count": self.param_count,
            "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn},
        }


def classification_report(scores, labels, param_count: int, threshold: float = 0.5) -> MetricsReport:
    """Metrics for binary scores in [0, 1] against 0/1 labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pred = (scores >= threshold).astype(np.int64)
    tp = int(np.sum((pred == 1) & (labels == 1)))
    fp = int(np.sum((pred == 1) & (labels == 0)))
    tn = int(np.sum((pred == 0) & (labels == 0)))
    fn = int(np.sum((pred == 0) & (labels == 1)))
    acc = (tp + tn) / labels.size
    return MetricsReport(
        auc=compute_auc(scores, labels),
        acc=acc,
        param_count=param_count,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
    )
