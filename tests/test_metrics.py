"""Agreement-measure tests against independent brute-force oracles.

The closed-form contingency computations are checked pair by pair against an
O(n^2) enumeration, and ARI/NMI against direct evaluations of their defining
formulas, before any behavioural tests rely on them.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvclust import metrics
from mvclust.metrics import (
    PairCounts,
    adjusted_rand,
    contingency_table,
    fowlkes_mallows,
    jaccard_index,
    normalized_mutual_info,
    pair_counts,
    rand_index,
    score_all,
)


def brute_pair_counts(truth, pred):
    # literal enumeration of all unordered sample pairs
    a = b = c = d = 0
    for i, j in combinations(range(len(truth)), 2):
        same_t = truth[i] == truth[j]
        same_p = pred[i] == pred[j]
        if same_t and same_p:
            a += 1
        elif same_t:
            b += 1
        elif same_p:
            c += 1
        else:
            d += 1
    return PairCounts(a, b, c, d)


def direct_ari(truth, pred):
    """Chance-corrected index evaluated straight from its defining ratio."""
    table = contingency_table(truth, pred)
    comb2 = lambda x: x * (x - 1) / 2.0
    index = sum(comb2(nij) for nij in table.ravel())
    sr = sum(comb2(ni) for ni in table.sum(axis=1))
    sc = sum(comb2(nj) for nj in table.sum(axis=0))
    total = comb2(table.sum())
    expected = sr * sc / total
    max_index = (sr + sc) / 2.0
    if max_index == expected:
        nz = table > 0
        same = (nz.sum(axis=1) == 1).all() and (nz.sum(axis=0) == 1).all()
        return 1.0 if same else 0.0
    return (index - expected) / (max_index - expected)


def direct_nmi(truth, pred):
    """I(T;P) / sqrt(H(T) H(P)) via explicit probability sums, natural logs."""
    table = contingency_table(truth, pred)
    nz = table > 0
    if (nz.sum(axis=1) == 1).all() and (nz.sum(axis=0) == 1).all():
        return 1.0
    n = table.sum()
    h_t = -sum(p * math.log(p) for p in table.sum(axis=1) / n if p > 0)
    h_p = -sum(p * math.log(p) for p in table.sum(axis=0) / n if p > 0)
    if h_t == 0.0 or h_p == 0.0:
        return 0.0
    mi = 0.0
    rows = table.sum(axis=1) / n
    cols = table.sum(axis=0) / n
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            if table[i, j] > 0:
                pij = table[i, j] / n
                mi += pij * math.log(pij / (rows[i] * cols[j]))
    return mi / math.sqrt(h_t * h_p)


def random_label_pair(rng, n_max=50):
    n = int(rng.integers(2, n_max + 1))
    kt = int(rng.integers(1, 5))
    kp = int(rng.integers(1, 5))
    return rng.integers(0, kt, size=n), rng.integers(0, kp, size=n)


# ---------------------------------------------------------------- pair counts


def test_pair_counts_hand_example():
    truth = [0, 0, 0, 1, 1]
    pred = [0, 0, 1, 1, 1]
    pc = pair_counts(truth, pred)
    assert (pc.a, pc.b, pc.c, pc.d) == (2, 2, 2, 4)
    assert pc == brute_pair_counts(truth, pred)


def test_pair_counts_identical_partitions_have_no_disagreement():
    pc = pair_counts([1, 1, 2, 2, 3], [1, 1, 2, 2, 3])
    assert pc.b == 0 and pc.c == 0


def test_pair_counts_one_cluster_vs_singletons():
    n = 6
    pc = pair_counts([0] * n, list(range(n)))
    assert (pc.a, pc.b, pc.c, pc.d) == (0, n * (n - 1) // 2, 0, 0)


def test_pair_counts_total_is_all_pairs():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t, p = random_label_pair(rng)
        pc = pair_counts(t, p)
        assert pc.total == len(t) * (len(t) - 1) // 2


def test_pair_counts_matches_brute_force_enumeration():
    rng = np.random.default_rng(1)
    for _ in range(200):
        t, p = random_label_pair(rng)
        assert pair_counts(t, p) == brute_pair_counts(t, p)


def test_pair_counts_rejects_bad_input():
    with pytest.raises(ValueError):
        pair_counts([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        pair_counts([0], [0])
    with pytest.raises(ValueError):
        pair_counts([[0, 1]], [[0, 1]])


def test_contingency_table_counts_and_marginals():
    table = contingency_table([0, 0, 0, 1, 1], [0, 0, 1, 1, 1])
    assert table.tolist() == [[2, 1], [0, 2]]
    assert table.sum() == 5
    # non-integer labels work through the same path
    table2 = contingency_table(["a", "a", "b"], [1.5, 1.5, 0.5])
    assert table2.sum() == 3


# ---------------------------------------------------------- pair-based scores


def test_pair_scores_hand_example():
    pc = PairCounts(2, 2, 2, 4)
    assert rand_index(pc) == pytest.approx(0.6)
    assert jaccard_index(pc) == pytest.approx(1 / 3)
    assert fowlkes_mallows(pc) == pytest.approx(0.5)


def test_pair_scores_identical_partitions_are_one():
    pc = pair_counts([0, 0, 1, 1, 2], [5, 5, 7, 7, 9])
    assert rand_index(pc) == 1.0
    assert jaccard_index(pc) == 1.0
    assert fowlkes_mallows(pc) == 1.0


def test_pair_scores_cluster_vs_singletons_are_zero():
    pc = pair_counts([0] * 5, list(range(5)))
    assert rand_index(pc) == 0.0
    assert jaccard_index(pc) == 0.0
    assert fowlkes_mallows(pc) == 0.0


def test_jaccard_defined_one_when_no_pair_coclustered():
    # singletons vs singletons: a = b = c = 0
    pc = pair_counts([0, 1, 2], [0, 1, 2])
    assert pc.a == 0
    assert jaccard_index(pc) == 1.0


# ------------------------------------------------------------------------ ARI


def test_ari_identical_partitions():
    table = contingency_table([0, 1, 1, 2], [4, 0, 0, 2])
    assert adjusted_rand(table) == 1.0


def test_ari_hand_example_matches_direct_formula():
    truth = [0, 0, 0, 1, 1]
    pred = [0, 0, 1, 1, 1]
    got = adjusted_rand(contingency_table(truth, pred))
    assert got == pytest.approx(direct_ari(truth, pred), abs=1e-12)


def test_ari_constant_prediction_is_zero():
    table = contingency_table([0, 0, 1, 1, 2], [7, 7, 7, 7, 7])
    assert adjusted_rand(table) == 0.0


def test_ari_degenerate_conventions():
    # both trivial and identical
    assert adjusted_rand(contingency_table([3, 3, 3], [8, 8, 8])) == 1.0
    assert adjusted_rand(contingency_table([0, 1, 2], [5, 6, 7])) == 1.0
    # both trivial, different: singletons vs one cluster
    assert adjusted_rand(contingency_table([0, 1, 2], [9, 9, 9])) == 0.0


def test_ari_matches_direct_formula_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(200):
        t, p = random_label_pair(rng)
        got = adjusted_rand(contingency_table(t, p))
        assert got == pytest.approx(direct_ari(t, p), abs=1e-12)


# ------------------------------------------------------------------------ NMI


def test_nmi_identical_nontrivial_partitions():
    table = contingency_table([0, 0, 1, 1], [3, 3, 9, 9])
    assert normalized_mutual_info(table) == 1.0


def test_nmi_constant_prediction_is_zero():
    table = contingency_table([0, 0, 1, 1], [5, 5, 5, 5])
    assert normalized_mutual_info(table) == 0.0


def test_nmi_independent_partitions_is_zero():
    # uniform 2x2 table: mutual information exactly 0
    table = contingency_table([0, 0, 1, 1], [0, 1, 0, 1])
    assert normalized_mutual_info(table) == pytest.approx(0.0, abs=1e-15)


def test_nmi_both_trivial_identical_is_one():
    assert normalized_mutual_info(contingency_table([1, 1], [2, 2])) == 1.0


def test_nmi_matches_direct_formula_on_random_pairs():
    rng = np.random.default_rng(3)
    for _ in range(200):
        t, p = random_label_pair(rng)
        got = normalized_mutual_info(contingency_table(t, p))
        assert got == pytest.approx(direct_nmi(t, p), abs=1e-12)


# ----------------------------------------------------------------- properties


def test_all_metrics_permutation_invariant():
    rng = np.random.default_rng(4)
    for _ in range(50):
        t, p = random_label_pair(rng)
        base = score_all(t, p)
        # relabel each side by a random permutation of its alphabet
        perm_t = rng.permutation(int(t.max()) + 1)[t]
        perm_p = rng.permutation(int(p.max()) + 1)[p]
        relabeled = score_all(perm_t, perm_p)
        for key in base:
            assert relabeled[key] == pytest.approx(base[key], abs=1e-12)


def test_all_metrics_symmetric():
    rng = np.random.default_rng(5)
    for _ in range(50):
        t, p = random_label_pair(rng)
        fwd = score_all(t, p)
        rev = score_all(p, t)
        for key in fwd:
            assert rev[key] == pytest.approx(fwd[key], abs=1e-12)


def test_metric_ranges():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t, p = random_label_pair(rng)
        scores = score_all(t, p)
        for key in ("ri", "ji", "fmi", "nmi"):
            assert 0.0 <= scores[key] <= 1.0
        assert -1.0 <= scores["ari"] <= 1.0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_scores_agree_with_oracles_hypothesis(data):
    n = data.draw(st.integers(2, 30))
    t = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    p = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    assert pair_counts(t, p) == brute_pair_counts(t, p)
    scores = score_all(t, p)
    assert scores["ari"] == pytest.approx(direct_ari(t, p), abs=1e-12)
    assert scores["nmi"] == pytest.approx(direct_nmi(t, p), abs=1e-12)


def sorted_table(truth, pred):
    # the table by sorting, whatever the ids: the reference for the counting path
    rows, ti = np.unique(truth, return_inverse=True)
    cols, pi = np.unique(pred, return_inverse=True)
    table = np.zeros((rows.size, cols.size), dtype=np.int64)
    np.add.at(table, (ti, pi), 1)
    return table


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_contingency_table_by_counting_equals_the_sorted_table_hypothesis(data):
    n = data.draw(st.integers(1, 40))

    def labels():
        dtype = data.draw(st.sampled_from(["int64", "int32", "uint8", "uint64", "bool",
                                           "float64"]))
        lo, hi = data.draw(st.sampled_from([(0, 3), (0, n - 1), (-3, 3), (0, 10 * n),
                                            (n, n + 3)]))
        if dtype in ("uint8", "uint64", "bool"):
            lo = max(lo, 0)
        hi = {"uint8": min(hi, 255), "bool": min(hi, 1)}.get(dtype, hi)
        values = data.draw(st.lists(st.integers(min(lo, hi), hi), min_size=n, max_size=n))
        return np.array(values).astype(dtype)

    truth, pred = labels(), labels()
    got, want = contingency_table(truth, pred), sorted_table(truth, pred)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


def test_contingency_table_of_few_ids_sorts_nothing(monkeypatch):
    # ids below n whose (max + 1) products fit in n cells are counted directly
    def no_sort(*args, **kwargs):
        raise AssertionError("np.unique called")

    monkeypatch.setattr(metrics.np, "unique", no_sort)
    truth = np.array([0, 0, 2, 2, 2, 0, 2, 2, 0, 2, 0, 0])
    pred = np.array([1, 1, 1, 3, 3, 3, 1, 3, 1, 1, 3, 3], dtype=np.uint8)
    np.testing.assert_array_equal(contingency_table(truth, pred), [[3, 3], [3, 3]])


def test_score_all_keys_and_types():
    scores = score_all([0, 0, 1], [0, 1, 1])
    assert set(scores) == {"ri", "ari", "ji", "fmi", "nmi"}
    assert all(isinstance(v, float) for v in scores.values())


def test_score_all_builds_one_contingency_table(monkeypatch):
    calls = []
    real = metrics.contingency_table

    def counting(truth, pred):
        calls.append(len(truth))
        return real(truth, pred)

    monkeypatch.setattr(metrics, "contingency_table", counting)
    truth, pred = [0, 0, 1, 1, 2, 2], [0, 0, 1, 2, 2, 2]
    scores = score_all(truth, pred)
    assert calls == [6]
    assert scores["ri"] == rand_index(brute_pair_counts(truth, pred))
    with pytest.raises(ValueError, match="differ in length"):
        score_all([0], [0, 1])
    with pytest.raises(ValueError, match="at least 2 samples"):
        score_all([0], [0])
