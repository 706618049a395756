"""Tests for evaluation metrics, each checked against a brute-force oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nodegae import evalmetrics as em
from nodegae.errors import MetricError


# ---------------------------------------------------------------------------
# Oracles. Deliberately naive: nested loops and dict counting, no shortcuts.
# ---------------------------------------------------------------------------

def auc_pairwise(scores, labels):
    """O(P*N) pairwise AUC with ties counting one half."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def ngram_counts(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        key = tuple(tokens[i : i + n])
        counts[key] = counts.get(key, 0) + 1
    return counts


def bleu_oracle(candidate, reference):
    """Hand-rolled sentence BLEU: 4-gram, uniform weights, brevity penalty,
    add-one smoothing on orders >= 2 with zero matches."""
    precisions = []
    for n in range(1, 5):
        cand = ngram_counts(candidate, n)
        ref = ngram_counts(reference, n)
        matched = 0
        total = 0
        for key, c in cand.items():
            total += c
            matched += min(c, ref.get(key, 0))
        if n == 1 and matched == 0:
            return 0.0
        if n >= 2 and matched == 0:
            matched, total = matched + 1, total + 1
        precisions.append(matched / total)
    log_avg = sum(np.log(p) for p in precisions) / 4.0
    c, r = len(candidate), len(reference)
    bp = 1.0 if c > r else float(np.exp(1.0 - r / c))
    return float(bp * np.exp(log_avg))


def lcs_oracle(a, b):
    """Longest common subsequence length via plain recursion with memo."""
    memo = {}

    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if (i, j) in memo:
            return memo[(i, j)]
        if a[i] == b[j]:
            out = 1 + go(i + 1, j + 1)
        else:
            out = max(go(i + 1, j), go(i, j + 1))
        memo[(i, j)] = out
        return out

    return go(0, 0)


# ---------------------------------------------------------------------------
# accuracy
# ---------------------------------------------------------------------------

def test_accuracy_identical_is_one():
    assert em.accuracy([3, 1, 4, 1, 5], [3, 1, 4, 1, 5]) == 1.0


def test_accuracy_disjoint_is_zero():
    assert em.accuracy([0, 0, 0], [1, 2, 3]) == 0.0


def test_accuracy_hand_count():
    assert em.accuracy([1, 2, 2, 3], [1, 2, 3, 3]) == 0.75


def test_accuracy_length_mismatch_raises():
    with pytest.raises(MetricError):
        em.accuracy([1, 2], [1, 2, 3])


def test_accuracy_empty_raises():
    with pytest.raises(MetricError):
        em.accuracy([], [])


# ---------------------------------------------------------------------------
# roc_auc
# ---------------------------------------------------------------------------

def test_roc_auc_perfect_separation():
    scores = [0.9, 0.8, 0.7, 0.2, 0.1]
    labels = [1, 1, 1, 0, 0]
    assert em.roc_auc(scores, labels) == 1.0


def test_roc_auc_all_ties_is_half():
    assert em.roc_auc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5


def test_roc_auc_nan_score_gives_nan():
    assert np.isnan(em.roc_auc([0.9, np.nan, 0.1, 0.4], [1, 1, 0, 0]))


def test_roc_auc_single_class_raises():
    with pytest.raises(MetricError):
        em.roc_auc([0.1, 0.2, 0.3], [1, 1, 1])
    with pytest.raises(MetricError):
        em.roc_auc([0.1, 0.2], [0, 0])


@pytest.mark.parametrize("seed", range(10))
def test_roc_auc_matches_pairwise_oracle(seed):
    rng = np.random.default_rng(seed)
    n = 30
    # Quantized scores so ties actually occur.
    scores = rng.integers(0, 8, size=n).astype(np.float64) / 7.0
    labels = rng.integers(0, 2, size=n)
    while labels.sum() in (0, n):
        labels = rng.integers(0, 2, size=n)
    got = em.roc_auc(scores, labels)
    want = auc_pairwise(scores.tolist(), labels.tolist())
    assert abs(got - want) < 1e-12


# Scores from a handful of integers tie often; the wide floats rarely do.
SCORES = st.one_of(st.integers(-3, 3).map(float),
                   st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))


@st.composite
def scored_labels(draw):
    """Scores and 0/1 labels in a drawn order, with both classes present."""
    pos = draw(st.lists(SCORES, min_size=1, max_size=20))
    neg = draw(st.lists(SCORES, min_size=1, max_size=20))
    rows = draw(st.permutations([(s, 1) for s in pos] + [(s, 0) for s in neg]))
    return [s for s, _ in rows], [y for _, y in rows]


@given(scored_labels())
def test_roc_auc_equals_brute_force_pair_count(data):
    scores, labels = data
    assert em.roc_auc(scores, labels) == pytest.approx(auc_pairwise(scores, labels),
                                                       rel=0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_roc_auc_complement_for_tie_free_scores(seed):
    rng = np.random.default_rng(100 + seed)
    scores = rng.permutation(np.linspace(0.0, 1.0, 20))
    labels = rng.integers(0, 2, size=20)
    while labels.sum() in (0, 20):
        labels = rng.integers(0, 2, size=20)
    a = em.roc_auc(scores, labels)
    b = em.roc_auc(-scores, labels)
    assert abs((a + b) - 1.0) < 1e-12


def test_roc_auc_permutation_invariant():
    rng = np.random.default_rng(7)
    scores = rng.standard_normal(25)
    labels = (rng.random(25) < 0.4).astype(int)
    labels[0], labels[1] = 1, 0
    base = em.roc_auc(scores, labels)
    perm = rng.permutation(25)
    assert abs(em.roc_auc(scores[perm], labels[perm]) - base) < 1e-12


# ---------------------------------------------------------------------------
# bleu
# ---------------------------------------------------------------------------

def test_bleu_identical_is_one():
    toks = "the cat sat on the mat".split()
    assert abs(em.bleu(toks, toks) - 1.0) < 1e-12


def test_bleu_identical_short_sequence_is_one():
    # Shorter than the highest n-gram order.
    toks = ["a", "b", "c"]
    assert abs(em.bleu(toks, toks) - 1.0) < 1e-12


def test_bleu_no_unigram_overlap_is_exactly_zero():
    assert em.bleu(["x", "y", "z"], ["a", "b", "c"]) == 0.0


def test_bleu_empty_raises():
    with pytest.raises(MetricError):
        em.bleu([], ["a"])
    with pytest.raises(MetricError):
        em.bleu(["a"], [])


@pytest.mark.parametrize("seed", range(10))
def test_bleu_matches_counting_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    alphabet = ["a", "b", "c", "d"]
    cand = [alphabet[i] for i in rng.integers(0, 4, size=10)]
    ref = [alphabet[i] for i in rng.integers(0, 4, size=int(rng.integers(8, 13)))]
    got = em.bleu(cand, ref)
    want = bleu_oracle(cand, ref)
    assert abs(got - want) < 1e-12


def test_bleu_brevity_penalty_applies():
    # Perfect precisions but half-length candidate: BLEU = exp(1 - 2) < 1.
    ref = ["a", "b", "c", "d", "e", "f", "g", "h"]
    cand = ref[:4]
    got = em.bleu(cand, ref)
    assert abs(got - float(np.exp(-1.0))) < 1e-12


# ---------------------------------------------------------------------------
# rouge_l
# ---------------------------------------------------------------------------

def test_rouge_l_identical_is_one():
    toks = "a small worked example".split()
    assert em.rouge_l(toks, toks) == 1.0


def test_rouge_l_disjoint_is_zero():
    assert em.rouge_l(["x", "y"], ["a", "b"]) == 0.0


def test_rouge_l_hand_lcs():
    got = em.rouge_l("a b c d".split(), "a c d e".split())
    assert abs(got - 0.75) < 1e-12


def test_rouge_l_empty_raises():
    with pytest.raises(MetricError):
        em.rouge_l([], ["a"])
    with pytest.raises(MetricError):
        em.rouge_l(["a"], [])


@pytest.mark.parametrize("seed", range(10))
def test_rouge_l_matches_lcs_oracle(seed):
    rng = np.random.default_rng(300 + seed)
    alphabet = ["a", "b", "c"]
    cand = [alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(3, 12)))]
    ref = [alphabet[i] for i in rng.integers(0, 3, size=int(rng.integers(3, 12)))]
    lcs = lcs_oracle(cand, ref)
    if lcs == 0:
        want = 0.0
    else:
        p = lcs / len(cand)
        r = lcs / len(ref)
        want = 2.0 * p * r / (p + r)
    assert abs(em.rouge_l(cand, ref) - want) < 1e-12


# ---------------------------------------------------------------------------
# token_f1
# ---------------------------------------------------------------------------

def test_token_f1_identical_is_one():
    assert em.token_f1(["a", "b", "c"], ["a", "b", "c"]) == 1.0


def test_token_f1_disjoint_is_zero():
    assert em.token_f1(["x"], ["a", "b"]) == 0.0


def test_token_f1_multiset_hand_count():
    got = em.token_f1("a a b".split(), "a b b".split())
    assert abs(got - 2.0 / 3.0) < 1e-12


def test_token_f1_order_invariant():
    assert em.token_f1(["c", "a", "b"], ["a", "b", "c"]) == 1.0


def test_token_f1_empty_raises():
    with pytest.raises(MetricError):
        em.token_f1([], ["a"])
    with pytest.raises(MetricError):
        em.token_f1(["a"], [])


# ---------------------------------------------------------------------------
# shared bounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_all_metrics_bounded(seed):
    rng = np.random.default_rng(400 + seed)
    alphabet = ["a", "b", "c", "d", "e"]
    cand = [alphabet[i] for i in rng.integers(0, 5, size=int(rng.integers(1, 15)))]
    ref = [alphabet[i] for i in rng.integers(0, 5, size=int(rng.integers(1, 15)))]
    scores = rng.standard_normal(20)
    labels = (rng.random(20) < 0.5).astype(int)
    labels[0], labels[1] = 1, 0
    values = [
        em.bleu(cand, ref),
        em.rouge_l(cand, ref),
        em.token_f1(cand, ref),
        em.roc_auc(scores, labels),
        em.accuracy(labels, labels[::-1].copy()),
    ]
    for v in values:
        assert 0.0 <= v <= 1.0
