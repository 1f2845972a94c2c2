"""External clustering agreement measures built on pair counting.

All five scores derive from the contingency table of two label vectors over
the same samples. The pair quadruple (a, b, c, d) counts unordered sample
pairs that are co-clustered in both partitions, in the first only, in the
second only, or in neither; it is computed from contingency sums in
O(n + r*s) rather than by enumerating the O(n^2) pairs.

Degenerate inputs follow fixed conventions spelled out per function so every
score stays defined on constant or all-singleton partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PairCounts:
    """Unordered-pair agreement quadruple."""

    a: int  # co-clustered in both partitions
    b: int  # co-clustered in the first partition only
    c: int  # co-clustered in the second partition only
    d: int  # separated in both

    @property
    def total(self):
        return self.a + self.b + self.c + self.d


def _as_labels(labels):
    lab = np.asarray(labels)
    if lab.ndim != 1:
        raise ValueError("labels must be one-dimensional")
    return lab


def contingency_table(truth, pred) -> np.ndarray:
    """Cross-tabulation of two label vectors, shape (r, s), int64 counts."""
    truth, pred = _as_labels(truth), _as_labels(pred)
    if truth.shape[0] != pred.shape[0]:
        raise ValueError(
            f"label vectors differ in length: {truth.shape[0]} vs {pred.shape[0]}"
        )
    (ti, r), (pi, s) = _codes(truth), _codes(pred)
    table = np.bincount(ti * s + pi, minlength=r * s).reshape(r, s)
    # an id that no sample carries leaves an empty row or column
    return table[table.any(axis=1)][:, table.any(axis=0)]


def _codes(lab):
    # (codes in 0..count-1, count): integer ids below sqrt(n) are their own
    # codes, in O(n) and at most n cells for two such vectors; others sorted
    if lab.dtype.kind in "iu" and lab.size and lab.min() >= 0 and int(lab.max()) ** 2 < lab.size:
        return lab.astype(np.int64), int(lab.max()) + 1
    values, codes = np.unique(lab, return_inverse=True)
    return codes, values.size


def _comb2(x):
    x = np.asarray(x, dtype=np.int64)
    return x * (x - 1) // 2


def _pair_sums(table):
    # pairs co-clustered within cells, within rows, within columns, and all pairs
    return (int(_comb2(table).sum()), int(_comb2(table.sum(axis=1)).sum()),
            int(_comb2(table.sum(axis=0)).sum()), int(_comb2(table.sum())))


def _table_and_counts(truth, pred):
    # the contingency table (which checks the lengths) and the pair quadruple
    table = contingency_table(truth, pred)
    if table.sum() < 2:
        raise ValueError("pair counting needs at least 2 samples")
    a, rows, cols, total = _pair_sums(table)
    return table, PairCounts(a, rows - a, cols - a, total - rows - cols + a)


def pair_counts(truth, pred) -> PairCounts:
    """Pair quadruple from contingency sums; needs n >= 2 and equal lengths."""
    return _table_and_counts(truth, pred)[1]


def rand_index(counts: PairCounts) -> float:
    """(a + d) / total: fraction of pairs the partitions agree on."""
    return (counts.a + counts.d) / counts.total


def jaccard_index(counts: PairCounts) -> float:
    """a / (a + b + c); defined as 1 when no pair is co-clustered anywhere."""
    denom = counts.a + counts.b + counts.c
    if denom == 0:
        return 1.0
    return counts.a / denom


def fowlkes_mallows(counts: PairCounts) -> float:
    """a / sqrt((a + b)(a + c)); defined as 0 when either factor is 0."""
    f1 = counts.a + counts.b
    f2 = counts.a + counts.c
    if f1 == 0 or f2 == 0:
        return 0.0
    return counts.a / float(np.sqrt(float(f1) * float(f2)))


def _identical_partitions(table) -> bool:
    # one nonzero per row and per column means the partitions coincide
    # up to a relabeling of cluster ids
    nz = table > 0
    return bool((nz.sum(axis=1) == 1).all() and (nz.sum(axis=0) == 1).all())


def adjusted_rand(table) -> float:
    """Chance-corrected pair agreement.

    Uses the permutation-model expectation: (index - expected) divided by
    (max - expected), evaluated in exact integer arithmetic before the final
    division. When the denominator degenerates (both partitions trivial:
    all-singleton or single-cluster on both sides), returns 1.0 for identical
    partitions and 0.0 otherwise.
    """
    table = np.asarray(table, dtype=np.int64)
    index, sum_rows, sum_cols, total = _pair_sums(table)
    # ARI = (index - sr*sc/T) / ((sr+sc)/2 - sr*sc/T), scaled by 2T
    num = 2 * total * index - 2 * sum_rows * sum_cols
    den = total * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if den == 0:
        return 1.0 if _identical_partitions(table) else 0.0
    return num / den


def normalized_mutual_info(table) -> float:
    """Mutual information over the geometric mean of the two entropies.

    Natural logarithms throughout. Identical partitions (up to relabeling,
    including both-trivial) score 1; otherwise a zero entropy on either side
    scores 0.
    """
    table = np.asarray(table, dtype=np.int64)
    if _identical_partitions(table):
        return 1.0
    n = table.sum()
    rows = table.sum(axis=1) / n
    cols = table.sum(axis=0) / n
    h_truth = float(-np.sum(rows * np.log(rows, where=rows > 0, out=np.zeros_like(rows))))
    h_pred = float(-np.sum(cols * np.log(cols, where=cols > 0, out=np.zeros_like(cols))))
    if h_truth == 0.0 or h_pred == 0.0:
        return 0.0
    p = table / n
    outer = rows[:, None] * cols[None, :]
    mask = p > 0
    mi = float(np.sum(p[mask] * np.log(p[mask] / outer[mask])))
    return mi / float(np.sqrt(h_truth * h_pred))


def score_all(truth, pred) -> dict:
    """All five agreement scores as a {name: value} dict."""
    table, counts = _table_and_counts(truth, pred)
    return {
        "ri": rand_index(counts),
        "ari": adjusted_rand(table),
        "ji": jaccard_index(counts),
        "fmi": fowlkes_mallows(counts),
        "nmi": normalized_mutual_info(table),
    }
