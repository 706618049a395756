"""Evaluation metrics for node classification, link ranking, and text output.

All functions are pure and operate on plain sequences or numpy arrays.
Classification quality is reported as accuracy, ranking quality as ROC-AUC
(midrank Mann-Whitney, so ties count one half), and text reconstruction
quality as BLEU, ROUGE, and bag-of-tokens F1.
"""

from collections import Counter
from typing import Sequence

import numpy as np

from .errors import MetricError

__all__ = [
    "accuracy",
    "roc_auc",
    "bleu",
    "rouge_l",
    "token_f1",
]

# Longest n-gram that bleu scores.
BLEU_MAX_ORDER = 4


def accuracy(predicted, expected) -> float:
    """Fraction of positions where predicted and expected labels agree."""
    pred = np.asarray(predicted)
    true = np.asarray(expected)
    if pred.shape != true.shape:
        raise MetricError(
            f"accuracy needs equal-length label vectors, got {pred.shape} vs {true.shape}"
        )
    if pred.size == 0:
        raise MetricError("accuracy needs at least one label")
    return float(np.mean(pred == true))


def _midranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of x; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    _, first, counts = np.unique(x[order], return_index=True, return_counts=True)
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    return ranks


def roc_auc(scores, labels) -> float:
    """Area under the ROC curve for binary labels.

    Computed with the rank (Mann-Whitney) formulation: the probability that
    a uniformly random positive outscores a uniformly random negative, with
    tied scores counting one half. Requires both classes to be present.
    """
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if s.shape != y.shape:
        raise MetricError(
            f"roc_auc needs matching scores and labels, got {s.shape} vs {y.shape}"
        )
    classes = set(np.unique(y).tolist())
    if not classes <= {0, 1}:
        raise MetricError(f"roc_auc labels must be binary 0/1, got {sorted(classes)}")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise MetricError("roc_auc needs both a positive and a negative example")
    if np.isnan(s).any():
        return float("nan")  # a NaN score has no rank
    ranks = _midranks(s)  # so ties contribute 0.5 per pair
    rank_sum = float(np.sum(ranks[y == 1]))
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _ngram_counter(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: Sequence, reference: Sequence) -> float:
    """Sentence BLEU with uniform n-gram weights and a brevity penalty.

    Modified precisions are computed for orders 1..BLEU_MAX_ORDER. A zero match
    count at order 1 short-circuits to 0.0; zero counts at higher orders get
    add-one smoothing so short texts still yield informative scores.
    """
    if len(candidate) == 0 or len(reference) == 0:
        raise MetricError("bleu needs non-empty candidate and reference")
    log_sum = 0.0
    for n in range(1, BLEU_MAX_ORDER + 1):
        cand = _ngram_counter(candidate, n)
        ref = _ngram_counter(reference, n)
        total = sum(cand.values())
        matched = sum(min(c, ref[g]) for g, c in cand.items())
        if matched == 0:
            if n == 1:
                return 0.0
            matched += 1
            total += 1
        log_sum += np.log(matched / total)
    c, r = len(candidate), len(reference)
    brevity = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return float(brevity * np.exp(log_sum / BLEU_MAX_ORDER))


def _lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest common subsequence length, single-row dynamic program."""
    if len(a) < len(b):
        a, b = b, a
    row = np.zeros(len(b) + 1, dtype=np.int64)
    for x in a:
        prev_diag = 0
        for j, y in enumerate(b, start=1):
            tmp = row[j]
            if x == y:
                row[j] = prev_diag + 1
            elif row[j - 1] > row[j]:
                row[j] = row[j - 1]
            prev_diag = tmp
    return int(row[len(b)])


def _f_measure(overlap: float, cand_size: int, ref_size: int) -> float:
    if overlap == 0:
        return 0.0
    precision = overlap / cand_size
    recall = overlap / ref_size
    return 2.0 * precision * recall / (precision + recall)


def rouge_l(candidate: Sequence, reference: Sequence) -> float:
    """ROUGE-L F-measure (beta = 1): harmonic mean of LCS precision and recall."""
    if len(candidate) == 0 or len(reference) == 0:
        raise MetricError("rouge_l needs non-empty candidate and reference")
    lcs = _lcs_length(candidate, reference)
    return _f_measure(float(lcs), len(candidate), len(reference))


def token_f1(candidate: Sequence, reference: Sequence) -> float:
    """Bag-of-tokens F1: multiset intersection over candidate and reference."""
    if len(candidate) == 0 or len(reference) == 0:
        raise MetricError("token_f1 needs non-empty candidate and reference")
    overlap = sum((Counter(candidate) & Counter(reference)).values())
    return _f_measure(float(overlap), len(candidate), len(reference))
