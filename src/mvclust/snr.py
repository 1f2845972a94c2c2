"""Per-feature inverse-dispersion weights (column mean over unbiased variance).

Each feature column j of view h gets a fixed multiplier

    delta_j = mean(column) / variance(column)

computed once from the data and never from solver state. High-variance columns
are damped, low-variance columns amplified. The ratio is clamped into the
fixed interval :data:`CLAMP` = [1e-6, 1e6] so degenerate columns stay usable:
a constant column (variance 0) hits the ceiling, a zero- or negative-mean
column hits the floor. One rule gives the moments, the two-pass variance of
Chan, Golub & LeVeque (1983): :func:`moments` centres the views into one
C-ordered, feature-major (D, n) stack (:func:`centre`) and sums each row's
squares. A fit and :func:`compute_delta` both call it, so a fit's delta is
compute_delta's by construction. The ratio has the units of 1/x, and min-max
normalization maps every column, noise included, onto [0, 1], where mean over
variance no longer singles the noise out: at n = 1.5k with one noise column
per view (seed 0) the pruning solver keeps dims [2, 2] with ARI 1.0 on raw
data, [3, 3] with ARI 0.379 after min-max rescaling, so views are used in
their raw units.
"""

from __future__ import annotations

import numpy as np

from .data import MultiViewDataset

CLAMP = (1e-6, 1e6)


def centre(views, m):
    """The views less their column means m, stacked into one C-ordered (D, n) array."""
    ends = np.cumsum([X.shape[1] for X in views])[:-1]
    XcT = np.empty((m.size, views[0].shape[0]))
    for X, rows, mean in zip(views, np.split(XcT, ends), np.split(m, ends)):
        np.subtract(X.T, mean[:, None], out=rows)
    return XcT


def moments(views):
    """The centred stack, its column means m, ss_j = sum_i xc_ij^2 and each column's view."""
    m = np.concatenate([X.mean(axis=0) for X in views])
    XcT = centre(views, m)
    view_of = np.repeat(np.arange(len(views)), [X.shape[1] for X in views])
    return XcT, m, np.einsum("ji,ji->j", XcT, XcT), view_of


def clamped_ratios(m, ss, n):
    """Clamped mean/variance ratios from the moments of n samples.

    Zero-variance columns map to the ceiling (checked first: zero spread reads
    as maximal confidence); other ratios at or below zero map to the floor.
    """
    var = ss / (n - 1)
    out = np.full(m.shape, CLAMP[1])
    spread = var != 0
    out[spread] = np.clip(m[spread] / var[spread], *CLAMP)
    return out


def compute_delta(dataset: MultiViewDataset):
    """Per-view delta vectors for the whole dataset.

    Depends only on the data, so recomputing at any point mid-solve returns
    identical values, and restricting columns first commutes with computing
    deltas first.
    """
    if dataset.n_samples < 2:
        raise ValueError("delta needs at least 2 samples")
    _, m, ss, _ = moments(dataset.views)
    return np.split(clamped_ratios(m, ss, dataset.n_samples), np.cumsum(dataset.dims)[:-1])
