"""Pruning variant of the multi-view solver: drops weak features, then empty views.

Runs the block descent of :mod:`mvclust.amvfcm` with one extra step in each
iteration, right after the feature-weight update. Features whose weight falls
strictly below an adaptive threshold (current view width divided by the sample
count) are removed and never come back; the surviving weights of a view are
renormalized. A view that loses all of its features is eliminated the same
way; the view weights are not renormalized but recomputed for the surviving
views by the view-weight update that follows. After every elimination the
descent's one centred array and the rest of its stacked state are
restricted to the surviving columns, so later iterations get cheaper as
columns disappear.

The objective is only comparable between eliminations: each pruning event
changes the domain (and the automatic per-view beta), so the trace is
non-increasing within stretches where nothing was pruned. The result is the
plain solver's :class:`~mvclust.amvfcm.FitResult`; its mask and reduced
dataset say what was eliminated and what survived.
"""

from __future__ import annotations

import warnings

import numpy as np

from .amvfcm import ActiveMask, FitResult, HyperParams, RemovalEvent, _descend
from .data import MultiViewDataset


def prune_features(iteration, feature_weights, n, mask: ActiveMask):
    """Remove features weighted strictly below width / n, then emptied views.

    The descent's pruning hook (see :func:`mvclust.amvfcm._descend`), run in
    iteration ``iteration`` right after the feature-weight update, with one
    weight vector per active view of the mask, in order, and the sample
    count n. One selection of low weights decides the removal events
    (features first, then the views left without any) and the mask. If every
    active feature is low, the largest weight of the last active view is
    retained instead (with a warning), so at least one feature survives.
    Returns None when nothing was removed, otherwise a boolean vector over
    the concatenated weights that is True for the survivors. Nothing is
    compacted or renormalized here; the descent does that.
    """
    active = mask.active_views()
    low = [w < w.size / n for w in feature_weights]
    if all(lo.all() for lo in low):
        keep = int(np.argmax(feature_weights[-1]))
        low[-1][keep] = False
        warnings.warn(
            f"pruning would remove the last active feature; retaining "
            f"feature {mask.active_columns(active[-1])[keep]} of view {active[-1]}",
            stacklevel=4,  # the caller of aamvfcm.fit
        )
    if not any(lo.any() for lo in low):
        return None
    for h, lo in zip(active, low):
        cols = mask.active_columns(h)[lo]
        mask.feature_masks[h][cols] = False
        mask.removals.extend(RemovalEvent(iteration, "feature", h, int(j)) for j in cols)
    for h, lo in zip(active, low):
        if lo.all():
            mask.view_mask[h] = False
            mask.removals.append(RemovalEvent(iteration, "view", h, None))
    return ~np.concatenate(low)


def fit(dataset: MultiViewDataset, params: HyperParams) -> FitResult:
    """Block descent with per-iteration elimination of weak features and views.

    This is :func:`mvclust.amvfcm.fit` with :func:`prune_features` as its
    pruning step. Iteration order: memberships, centers, feature weights,
    pruning (features, then emptied views), view weights,
    objective. Pruning runs from the first iteration on and has no setting
    of its own. The dispersion ratios are computed once up front and
    restricted to the surviving columns after each elimination. Stopping and
    determinism behave as in :func:`mvclust.amvfcm.fit`. The result's
    ``model`` is sized to the surviving views and columns.
    """
    return _descend(dataset, params, prune_features)
