"""Pruning variant of the multi-view solver: drops weak features, then empty views.

Runs the block descent of :mod:`mvclust.amvfcm` with one extra step in each
iteration, right after the feature-weight update. Features whose weight falls
strictly below an adaptive threshold (current view width divided by the sample
count) are removed and never come back; the surviving weights of a view are
renormalized. A view that loses all of its features is eliminated the same
way; the view weights are not renormalized but recomputed for the surviving
views by the view-weight update that follows. The working matrices are
physically compacted after every elimination, so later iterations get
cheaper as columns disappear.

The objective is only comparable between eliminations: each pruning event
changes the domain (and the automatic per-view beta), so the trace is
non-increasing within stretches where nothing was pruned.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .amvfcm import FitResult, HyperParams, _descend
from .data import MultiViewDataset, restrict


@dataclass(frozen=True)
class RemovalEvent:
    """One elimination, stamped with the iteration it happened in."""

    iteration: int
    kind: str            # "feature" or "view"
    view: int            # original view index
    feature: int | None  # original column index, None for view removals


@dataclass
class ActiveMask:
    """Which original columns and views are still alive, plus removal history.

    Masks are indexed by original positions and only ever flip True -> False.
    """

    feature_masks: list
    view_mask: np.ndarray
    removals: list = field(default_factory=list)

    @classmethod
    def full(cls, dims):
        return cls(
            feature_masks=[np.ones(d, dtype=bool) for d in dims],
            view_mask=np.ones(len(dims), dtype=bool),
        )

    @property
    def original_dims(self):
        return [m.size for m in self.feature_masks]

    @property
    def active_dims(self):
        """Surviving column count per original view (0 for dead views)."""
        return [int(m.sum()) if alive else 0
                for m, alive in zip(self.feature_masks, self.view_mask)]

    def active_views(self):
        return [int(h) for h in np.flatnonzero(self.view_mask)]

    def active_columns(self, view):
        return np.flatnonzero(self.feature_masks[view])

    @property
    def reduction_pct(self):
        """Fraction of original columns eliminated, in [0, 1]."""
        total = sum(self.original_dims)
        return 1.0 - sum(self.active_dims) / total


def prune_features(model, views, delta, mask: ActiveMask, n, *, theta_scale, iteration):
    """Remove features weighted strictly below theta_scale * width / n, then emptied views.

    ``model``, ``views`` and ``delta`` are aligned with the mask's active
    views. One selection of low weights decides the removal events (features
    first, then the views left without any), the mask, and the compaction. If
    every active feature is low, the largest weight of the last active view
    is retained instead (with a warning), so at least one feature survives.
    Returns None when nothing was removed. Otherwise the model's centers and
    feature weights are compacted in place, the surviving weights of each view
    that lost a column are renormalized to sum to 1, and the compacted views
    and dispersion ratios are returned. View weights are left to the next
    view-weight update.
    """
    active = mask.active_views()
    low = [w < theta_scale * (w.size / n) for w in model.feature_weights]
    if all(lo.all() for lo in low):
        keep = int(np.argmax(model.feature_weights[-1]))
        low[-1][keep] = False
        warnings.warn(
            f"pruning would remove the last active feature; retaining "
            f"feature {mask.active_columns(active[-1])[keep]} of view {active[-1]}",
            stacklevel=5,  # the caller of aamvfcm.fit
        )
    if not any(lo.any() for lo in low):
        return None
    for h, lo in zip(active, low):
        cols = mask.active_columns(h)[lo]
        mask.feature_masks[h][cols] = False
        mask.removals.extend(RemovalEvent(iteration, "feature", h, int(j)) for j in cols)
    kept_views, kept_delta, centers, weights = [], [], [], []
    for h, X, dlt, A, w, lo in zip(active, views, delta, model.centers,
                                   model.feature_weights, low):
        if lo.all():
            mask.view_mask[h] = False
            mask.removals.append(RemovalEvent(iteration, "view", h, None))
            continue
        if lo.any():
            # sum the zero-filled full vector: numpy's pairwise summation
            # order, and so the rounding, depends on the length
            w = np.where(lo, 0.0, w)
            w = w / w.sum()
        cols = np.flatnonzero(~lo)
        kept_views.append(X[:, cols])
        kept_delta.append(dlt[cols])
        centers.append(A[:, cols])
        weights.append(w[cols])
    model.centers, model.feature_weights = centers, weights
    return kept_views, kept_delta


@dataclass
class PruningFitResult(FitResult):
    """Fit outcome plus what was eliminated and what survived.

    ``model`` is sized to the surviving views and columns. ``reduced_dataset``
    is the input restricted to those survivors; pair it with
    ``mask.active_columns`` to map back to original column positions.
    """

    mask: ActiveMask = None
    reduced_dataset: MultiViewDataset = None
    pruning_iterations: list = field(default_factory=list)


def fit(dataset: MultiViewDataset, params: HyperParams, *,
        prune_warmup=0, theta_scale=1.0) -> PruningFitResult:
    """Block descent with per-iteration elimination of weak features and views.

    This is :func:`mvclust.amvfcm.fit` plus a pruning step. Iteration order:
    memberships, centers, feature weights, pruning (features, then emptied
    views, then compaction), view weights, objective. Pruning is skipped for
    the first ``prune_warmup`` iterations; ``theta_scale`` multiplies the
    adaptive threshold (0 removes nothing, recovering the plain solver's
    trajectory). The dispersion ratios are computed once up front and
    restricted to the surviving columns after each elimination. Stopping and
    determinism behave as in :func:`mvclust.amvfcm.fit`.
    """
    if prune_warmup < 0:
        raise ValueError("prune_warmup must be >= 0")
    if theta_scale < 0:
        raise ValueError("theta_scale must be >= 0")
    n = dataset.n_samples
    mask = None  # sized from the validated views on the first call

    def prune(t, views, delta, model):
        nonlocal mask
        if mask is None:
            mask = ActiveMask.full([X.shape[1] for X in views])
        if t <= prune_warmup:
            return None
        return prune_features(model, views, delta, mask, n,
                              theta_scale=theta_scale, iteration=t)

    result = _descend(dataset, params, prune)
    active = mask.active_views()
    reduced = restrict(dataset, active, [mask.active_columns(h) for h in active])
    return PruningFitResult(
        **vars(result),
        mask=mask,
        reduced_dataset=reduced,
        pruning_iterations=sorted({ev.iteration for ev in mask.removals}),
    )
