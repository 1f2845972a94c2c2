"""Per-feature inverse-dispersion weights (column mean over unbiased variance).

Each feature column j of view h gets a fixed multiplier

    delta_j = mean(column) / variance(column)

computed once from the data and never from solver state. High-variance columns
are damped, low-variance columns amplified. The ratio is clamped into
``[lo, hi]`` so degenerate columns stay usable: a constant column (variance 0)
hits the ceiling, a zero- or negative-mean column hits the floor. One rule,
:func:`clamped_ratios`, maps the moments to delta, taken by
:func:`column_deltas` from a view and by a fit from the centred moments of
its one stacked array, bit for bit alike. The ratio has the units of 1/x,
and min-max normalization maps every column, noise included, onto [0, 1],
where mean over variance no longer singles the noise out: at n = 1.5k with
one noise column per view (seed 0) the pruning solver keeps dims [2, 2] with
ARI 1.0 on raw data, [3, 3] with ARI 0.379 after min-max rescaling, so views
are used in their raw units.
"""

from __future__ import annotations

import numpy as np

from .data import MultiViewDataset

DEFAULT_CLAMP = (1e-6, 1e6)


def clamped_ratios(mean, var, clamp):
    """Clamped mean/variance ratios from column means and unbiased variances.

    Zero-variance columns map to the ceiling (checked first: zero spread reads
    as maximal confidence); other ratios at or below zero map to the floor.
    """
    lo, hi = clamp
    if not (0 < lo < hi):
        raise ValueError("clamp must satisfy 0 < lo < hi")
    out = np.full(mean.shape, float(hi))
    spread = var != 0
    out[spread] = np.clip(mean[spread] / var[spread], lo, hi)
    return out


def column_deltas(view, clamp=DEFAULT_CLAMP) -> np.ndarray:
    """Clamped mean/variance ratio of every column of one view (:func:`clamped_ratios`)."""
    view = np.asarray(view, dtype=float)
    if view.shape[0] < 2:
        raise ValueError("delta needs at least 2 samples")
    return clamped_ratios(view.mean(axis=0), view.var(axis=0, ddof=1), clamp)


def compute_delta(dataset: MultiViewDataset, clamp=DEFAULT_CLAMP):
    """Per-view delta vectors for the whole dataset.

    Depends only on the data, so recomputing at any point mid-solve returns
    identical values, and restricting columns first commutes with computing
    deltas first.
    """
    return [column_deltas(X, clamp) for X in dataset.views]
