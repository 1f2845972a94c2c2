"""Pruning variant of the multi-view solver: drops weak features, then empty views.

Runs the block descent of :mod:`mvclust.amvfcm` with one extra step in each
iteration, right after the feature-weight update. Features whose weight falls
strictly below an adaptive threshold (current view width divided by the sample
count) are removed and never come back; the surviving weights of a view are
renormalized. A view that loses all of its features is eliminated the same
way; the view weights are not renormalized but recomputed for the surviving
views by the view-weight update that follows. The step thresholds the stacked
weights at once and marks the removed columns in one boolean vector; the
descent's stacked state is then restricted to the survivors, so later
iterations get cheaper as columns disappear.

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


def prune_features(iteration, w, view_of, n, mask: ActiveMask):
    """Remove features weighted strictly below width / n, then emptied views.

    The descent's pruning hook (see :func:`mvclust.amvfcm._descend`), run in
    iteration ``iteration`` right after the feature-weight update, with the
    stacked weights w of the mask's active columns, their views view_of
    (numbered among the active views) and the sample count n. One selection of
    low weights decides the mask and the removal events (features, then the
    views left without any). If every active feature is low, the largest
    weight of the last active view is retained instead (with a warning), so at
    least one feature survives. Returns None when nothing was removed,
    otherwise a boolean vector over w that is True for the survivors. The
    descent compacts and renormalizes.
    """
    low = w < np.bincount(view_of)[view_of] / n
    if low.all():
        first = np.searchsorted(view_of, view_of[-1])  # of the last active view
        keep = first + int(np.argmax(w[first:]))
        low[keep] = False
        h, j = mask.locate(np.flatnonzero(mask.columns)[keep])
        warnings.warn(
            f"pruning would remove the last active feature; retaining "
            f"feature {j} of view {h}",
            stacklevel=4,  # the caller of aamvfcm.fit
        )
    if not low.any():
        return None
    gone, before = np.flatnonzero(mask.columns)[low], mask.active_views()
    mask.columns[gone] = False
    mask.removals.extend(RemovalEvent(iteration, "feature", int(h), int(j))
                         for h, j in zip(*mask.locate(gone)))
    mask.removals.extend(RemovalEvent(iteration, "view", h, None)
                         for h in np.setdiff1d(before, mask.active_views()).tolist())
    return ~low


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
