"""Pruning variant of the multi-view solver: drops weak features, then empty views.

Runs the block descent of :mod:`mvclust.amvfcm` with one extra step in each
iteration, right after the feature-weight update. Features whose weight falls
strictly below an adaptive threshold (current view width divided by the sample
count) are zeroed and never come back; surviving weights are renormalized. A
view that loses all of its features is eliminated the same way, and the
remaining view weights are renormalized. The working matrices are physically
compacted after every elimination, so later iterations get cheaper as columns
disappear.

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


def prune_features(feature_weights, mask: ActiveMask, n, *, theta_scale=1.0, iteration=0):
    """Zero out feature weights strictly below theta_scale * (view width / n).

    ``feature_weights`` is aligned with the mask's active views. Survivors in
    each view are renormalized to sum to 1; zeroed positions stay in place
    until the caller compacts. If a view would lose its last feature while no
    other view has any left, its single largest weight is retained instead
    (with a warning), so at least one feature always survives globally.
    Returns the new weight list and mutates the mask and its history.
    """
    active = mask.active_views()
    remaining = [int(mask.feature_masks[h].sum()) for h in active]
    out = []
    for pos, h in enumerate(active):
        w = feature_weights[pos]
        theta = theta_scale * (w.size / n)
        low = w < theta
        if not low.any():
            out.append(w)
            continue
        if low.all() and not any(r > 0 for p, r in enumerate(remaining) if p != pos):
            keep = int(np.argmax(w))
            low[keep] = False
            warnings.warn(
                f"pruning would remove the last active feature; retaining "
                f"feature {keep} of view {h}",
                stacklevel=2,
            )
        cols = mask.active_columns(h)
        for j in cols[low]:
            mask.removals.append(RemovalEvent(iteration, "feature", h, int(j)))
        mask.feature_masks[h][cols[low]] = False
        remaining[pos] = int((~low).sum())
        new_w = np.where(low, 0.0, w)
        if remaining[pos] > 0:
            new_w = new_w / new_w.sum()
        out.append(new_w)
    return out


def prune_views(view_weights, mask: ActiveMask, *, iteration=0):
    """Eliminate views whose feature set emptied; renormalize the survivors.

    Returns ``(new_view_weights, keep_positions)`` where positions index the
    previously active views. Mutates the mask and its history.
    """
    active = mask.active_views()
    keep = []
    for pos, h in enumerate(active):
        if mask.feature_masks[h].sum() == 0:
            mask.view_mask[h] = False
            mask.removals.append(RemovalEvent(iteration, "view", h, None))
        else:
            keep.append(pos)
    keep = np.asarray(keep, dtype=int)
    v = np.asarray(view_weights, dtype=float)[keep]
    total = v.sum()
    if total > 0:
        v = v / total
    else:
        v = np.full(keep.size, 1.0 / keep.size)
    return v, keep


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
    memberships, centers, feature weights, feature pruning, view pruning,
    compaction, view weights, objective. Pruning is skipped for the first
    ``prune_warmup`` iterations; ``theta_scale`` multiplies the adaptive
    threshold (0 disables pruning entirely, recovering the plain solver's
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
    pruning_iterations = []

    def prune(t, views, delta, model):
        nonlocal mask
        if mask is None:
            mask = ActiveMask.full([X.shape[1] for X in views])
        if t <= prune_warmup or not theta_scale > 0:
            return views, delta
        before = len(mask.removals)
        model.feature_weights = prune_features(
            model.feature_weights, mask, n, theta_scale=theta_scale, iteration=t,
        )
        new_v, keep = prune_views(model.view_weights, mask, iteration=t)
        if len(mask.removals) == before:
            return views, delta
        pruning_iterations.append(t)
        # compact every per-view structure to the surviving columns
        cols = [np.flatnonzero(w > 0) for w in model.feature_weights]
        model.centers = [model.centers[p][:, cols[p]] for p in keep]
        model.feature_weights = [model.feature_weights[p][cols[p]] for p in keep]
        model.view_weights = new_v
        return [views[p][:, cols[p]] for p in keep], [delta[p][cols[p]] for p in keep]

    result = _descend(dataset, params, prune)
    active = mask.active_views()
    reduced = restrict(dataset, active, [mask.active_columns(h) for h in active])
    return PruningFitResult(
        **vars(result),
        mask=mask,
        reduced_dataset=reduced,
        pruning_iterations=pruning_iterations,
    )
