"""Per-feature inverse-dispersion weights (column mean over unbiased variance).

Each feature column j of view h gets a fixed multiplier

    delta_j = mean(column) / variance(column)

computed once from the data and never from solver state. High-variance columns
are damped, low-variance columns amplified. The ratio is clamped into
``[lo, hi]`` so degenerate columns stay usable: a constant column (variance 0)
hits the ceiling, a zero- or negative-mean column hits the floor. Data
normalized to [0, 1] keeps the ratio well scaled.
"""

from __future__ import annotations

import numpy as np

from .data import MultiViewDataset

DEFAULT_CLAMP = (1e-6, 1e6)


def column_deltas(view, clamp=DEFAULT_CLAMP) -> np.ndarray:
    """Clamped mean/variance ratio for every column of one view.

    Zero-variance columns map to the clamp ceiling (zero spread reads as
    maximal confidence, and that check runs first); otherwise ratios at or
    below zero map to the floor.
    """
    lo, hi = clamp
    if not (0 < lo < hi):
        raise ValueError("clamp must satisfy 0 < lo < hi")
    view = np.asarray(view, dtype=float)
    if view.shape[0] < 2:
        raise ValueError("delta needs at least 2 samples")
    mean = view.mean(axis=0)
    var = view.var(axis=0, ddof=1)
    out = np.empty(view.shape[1])
    zero_var = var == 0
    out[zero_var] = hi
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = mean[~zero_var] / var[~zero_var]
    out[~zero_var] = np.clip(ratio, lo, hi)
    return out


def compute_delta(dataset: MultiViewDataset, clamp=DEFAULT_CLAMP):
    """Per-view delta vectors for the whole dataset.

    Depends only on the data, so recomputing at any point mid-solve returns
    identical values, and restricting columns first commutes with computing
    deltas first.
    """
    return [column_deltas(X, clamp) for X in dataset.views]
