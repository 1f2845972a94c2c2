"""Entropy-regularized multi-view fuzzy c-means with adaptive view/feature weights.

Block coordinate descent over four blocks: soft memberships (n x c), per-view
cluster centers, per-view feature weights on the probability simplex, and view
weights on the probability simplex. There is no fuzzifier exponent; membership
softness comes from a negative-entropy term with unit temperature, and the two
weight simplices are regularized by their own negative entropies scaled by
``eta`` (features) and ``beta`` (views). Squared distances are premultiplied
by fixed per-feature dispersion ratios (see :mod:`mvclust.snr`), so the solver
expects columns with positive means; raw nonnegative coordinates are the
intended regime.

Every block update is the exact minimizer of the joint objective with the
other blocks held fixed, which makes the objective trace non-increasing.

The weighted squared distances are never built as an (n, c, d) tensor. Each
view is column-centred once per fit (m = column means, Xc = X - m), and with
s = w * delta and Ac = A - m the distances are the expansion
(Xc^2 s)[:, None] - 2 Xc (Ac s)^T + Ac^2 s: one matrix product per view and
(n, c) temporaries. The feature costs come from (c, d) sums of the same
pieces. Centring keeps the rounding at the scale of the data's spread, not
of its offset from the origin: on 200 random instances, as given and shifted
by 1e6, the distances are at most 6.1e-16 of each view's largest distance
away from the exact sum, where the uncentred expansion is 3.0e-3 away on the
shifted data.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import MultiViewDataset, validate
from .snr import DEFAULT_CLAMP, compute_delta

EMPTY_CLUSTER_TOL = 1e-12
ETA_RANGE_FLOOR = 0.0015
ETA_RANGE_SCALE = 0.025
TEMP_CALIBRATION = 32.0


@dataclass
class HyperParams:
    """Solver knobs shared by both the full and the pruning variant.

    Parameters
    ----------
    c : int
        Number of clusters, >= 2.
    eta : float
        Feature-weight entropy strength in per-sample units, > 0 (see
        :func:`resolve_regularization`). Values outside
        [0.0015, 0.025 * d_min/d_max] trigger a warning at fit time.
    beta : float or None
        View-weight entropy strength in per-sample units. None selects the
        per-view automatic value d_h / n, which is not size-invariant (see
        :func:`resolve_regularization`); a fixed scalar outside
        [d_h/n, 3*d_h/n] for some view triggers a warning at fit time.
    t_max : int
        Iteration cap, >= 1.
    epsilon : float
        Absolute objective-change stopping tolerance, >= 0.
    seed : int
        Seed for center initialization.
    delta_clamp : (lo, hi)
        Clamp interval for the per-feature dispersion ratios.
    """

    c: int
    eta: float = 0.025
    beta: float | None = None
    t_max: int = 100
    epsilon: float = 1e-6
    seed: int = 0
    delta_clamp: tuple = DEFAULT_CLAMP

    def __post_init__(self):
        if self.c < 2:
            raise ValueError("c must be >= 2")
        if not self.eta > 0:
            raise ValueError("eta must be > 0")
        if self.beta is not None and not self.beta > 0:
            raise ValueError("fixed beta must be > 0")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        lo, hi = self.delta_clamp
        if not (0 < lo < hi):
            raise ValueError("delta_clamp must satisfy 0 < lo < hi")


@dataclass
class ClusterModel:
    """Solver state: memberships, centers, and the two weight simplices."""

    membership: np.ndarray        # (n, c), rows on the simplex
    centers: list                 # per view (c, d_h)
    feature_weights: list         # per view (d_h,), on the simplex
    view_weights: np.ndarray      # (s,), on the simplex


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


@dataclass
class FitResult:
    """Outcome of one fit, by either solver.

    ``objective_trace[0]`` is the objective of the freshly initialized model;
    each iteration appends one more value, so the trace has ``iterations + 1``
    entries. ``iter_seconds`` holds per-iteration wall times and
    ``seed_seconds`` the wall time of center seeding; these two are the only
    nondeterministic fields.

    ``mask`` records which original views and columns survived and every
    removal event; ``model`` and ``delta`` are sized to the survivors.
    ``reduced_dataset`` holds the surviving views, names and the labels; pair
    it with ``mask.active_columns`` to map back to original column positions.
    A fit that removed nothing has a full mask and the input's own views.
    """

    model: ClusterModel
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    hard_labels: np.ndarray
    delta: list
    seed_seconds: float
    mask: ActiveMask
    reduced_dataset: MultiViewDataset
    iter_seconds: list = field(default_factory=list)

    @property
    def pruning_iterations(self):
        """Iterations in which something was removed, ascending."""
        return sorted({ev.iteration for ev in self.mask.removals})


def _views_of(data):
    if isinstance(data, MultiViewDataset):
        return list(data.views)
    return [np.asarray(v, dtype=float) for v in data]


def _row_sums(U):
    # column loop: numpy's reduction along a short last axis is far slower
    cols = U.T
    total = cols[0].copy()
    for col in cols[1:]:
        total += col
    return total


def _column_sums(U):
    return np.array([col.sum() for col in U.T])


def _softmax_rows(logits):
    cols = logits.T
    peak = cols[0].copy()
    for col in cols[1:]:
        np.maximum(peak, col, out=peak)
    e = logits - peak[:, None]
    np.exp(e, out=e)
    e /= _row_sums(e)[:, None]
    return e


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _xlogx(p):
    # sum of p*log(p) with the 0*log(0) = 0 convention
    logp = np.log(p, out=np.zeros_like(p), where=p > 0)
    return float(np.vdot(p, logp))


def _centred(X):
    # column means m, X - m and (X - m)^2; built once per view per fit
    m = X.mean(axis=0)
    Xc = X - m
    return m, Xc, Xc * Xc


def _distances(Xc, Xc2, Ac, scale):
    # sum_j s_j (xc_ij - ac_kj)^2 expanded: one GEMM, (n, c) temporaries only
    D = Xc @ (Ac * (-2.0 * scale)).T
    D += (Xc2 @ scale)[:, None]
    D += (Ac * Ac) @ scale
    return D


def _distances_of(cviews, model, delta):
    return [_distances(Xc, Xc2, A - m, w * dlt)
            for (m, Xc, Xc2), A, w, dlt
            in zip(cviews, model.centers, model.feature_weights, delta)]


def _weighted_sum(D, view_weights):
    T = view_weights[0] * D[0]
    for v, Dh in zip(view_weights[1:], D[1:]):
        T += v * Dh
    return T


def _feature_weights(cviews, model, delta, eta):
    # E_j = delta_j * sum_ik mu_ik (xc_ij - ac_kj)^2 from (c, d) sums:
    # r.Xc^2 - 2 sum_k ac_k (mu^T Xc)_k + colsum.ac^2, with r and colsum the
    # row and column sums of mu. Feature j gets weight proportional to
    # (1/delta_j) exp(-v_h E_j / eta)
    U = model.membership
    rows, cols = _row_sums(U), _column_sums(U)
    weights = []
    for (m, Xc, Xc2), A, dlt, v in zip(cviews, model.centers, delta, model.view_weights):
        Ac = A - m
        cross = np.sum(Ac * (U.T @ Xc), axis=0)
        E = dlt * (rows @ Xc2 - 2.0 * cross + cols @ (Ac * Ac))
        weights.append(_softmax(-np.log(dlt) - v * E / eta))
    return weights


def _costs_given_distances(D, membership):
    return np.array([float(np.vdot(membership, Dh)) for Dh in D])


def entropic_simplex_argmin(costs, beta):
    """Minimize sum(v*costs) + sum(beta*v*log v) over the probability simplex.

    With a uniform ``beta`` the solution is the softmax of -costs/beta. With
    per-component beta the normalizing multiplier enters each exponent through
    its own beta, so the dual scalar is found by bisection on the monotone
    log-sum constraint instead.
    """
    costs = np.asarray(costs, dtype=float)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), costs.shape)
    if (beta <= 0).any():
        raise ValueError("beta must be positive")
    if costs.size == 1:
        return np.ones(1)
    if np.ptp(beta) == 0:
        return _softmax(-costs / beta[0])

    def log_total(lam):
        t = (lam - costs) / beta - 1.0
        m = t.max()
        return m + np.log(np.sum(np.exp(t - m)))

    lo = hi = float(costs.min())
    step = float(max(1.0, beta.max()))
    while log_total(lo) > 0:
        lo -= step
        step *= 2
    step = float(max(1.0, beta.max()))
    while log_total(hi) < 0:
        hi += step
        step *= 2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if log_total(mid) < 0:
            lo = mid
        else:
            hi = mid
    v = np.exp((0.5 * (lo + hi) - costs) / beta - 1.0)
    return v / v.sum()


def resolve_regularization(params, dims, n):
    """Map user-facing (beta, eta) to the coefficients the solver iterates with.

    ``eta`` and a fixed ``beta`` are specified in per-sample units, but the
    cost sums E_j and F_h that enter the weight softmax exponents grow
    linearly with n, so both coefficients are multiplied by n; without it any
    non-toy n collapses both weight vectors to one-hot. A fixed calibration
    factor then lifts each temperature above the spread that soft-membership
    tails induce in the per-feature and per-view cost sums, so elimination is
    governed by the dispersion prefactor 1/delta_j and neither weight simplex
    gets pinned to a corner by an early imperfect partition. Behaviour is flat
    across at least a factor-of-four band around the chosen value. Auto beta
    (d_h / n per view) is not size-invariant: it resolves to TEMP_CALIBRATION
    * d_h at every n while the view costs grow, so the view weights harden
    with n (0.49 / 0.51 on the benchmark at n = 1.5k, 7.8e-17 / 1.0 at 15k).
    """
    scale = TEMP_CALIBRATION * float(n)
    if params.beta is None:
        beta = np.array([d / n for d in dims]) * scale
    else:
        beta = np.full(len(dims), float(params.beta)) * scale
    return beta, params.eta * scale


def _objective_given_costs(costs, model, delta, beta, eta):
    # distortion plus the three entropy terms; 0*log(0) counts as 0
    distortion = float(model.view_weights @ costs)
    membership_entropy = _xlogx(model.membership)
    vw = model.view_weights
    beta = np.broadcast_to(np.asarray(beta, dtype=float), vw.shape)
    mask = vw > 0
    view_entropy = float(np.sum(beta[mask] * vw[mask] * np.log(vw[mask])))
    feature_entropy = 0.0
    for w, dlt in zip(model.feature_weights, delta):
        mask = w > 0
        feature_entropy += float(np.sum(w[mask] * np.log(dlt[mask] * w[mask])))
    return distortion + membership_entropy + view_entropy + eta * feature_entropy


def _greedy_spread(Z, sq, c, rng, trials):
    # one greedy k-means++ pass; returns the picked row indices
    n, width = Z.shape
    sq_total = sq.sum()
    chosen = [int(rng.integers(n))]
    d2 = np.sum((Z - Z[chosen[0]]) ** 2, axis=1)
    for _ in range(1, c):
        total = d2.sum()
        if total > 0:
            cand = rng.choice(n, size=trials, p=d2 / total)
            # rank by the expansion |z_i|^2 - 2 z_i.z_t + |z_t|^2: (n, trials) only
            G = Z @ Z[cand].T
            G *= -2.0
            G += sq[:, None]
            G += sq[cand]
            pot = np.minimum(G, d2[:, None], out=G).sum(axis=0)
            del G
            # candidates within the expansion's rounding bound of the lowest
            # potential are re-ranked exactly, first on ties
            slack = np.finfo(float).eps * (
                (width + 4) * (sq_total + n * sq[cand].max()) + n * pot.max())
            near = cand[pot <= pot.min() + 2 * slack]
            cand_d2 = np.stack(
                [np.minimum(d2, np.sum((Z - Z[t]) ** 2, axis=1)) for t in near], axis=1)
            best = int(np.argmin(cand_d2.sum(axis=0)))
            idx, d2 = int(near[best]), cand_d2[:, best]
        else:
            # all remaining mass is zero (duplicate points): pick any unchosen,
            # and every distance stays zero
            unchosen = np.setdiff1d(np.arange(n), chosen)
            idx = int(rng.choice(unchosen))
        chosen.append(idx)
    return chosen


def init_centers(data, c, seed, delta):
    """Greedy spread seeding (k-means++ weighting) in the solver's own metric.

    One greedy pass over the concatenated views in the metric of the first
    iteration: each squared difference weighted by delta_j times the uniform
    feature weight 1/d_h. Columns are centred and scaled by
    sqrt(delta_j / d_h) for the seeding distances only; the returned centers
    are rows of the original per-view matrices. The dispersion ratios damp
    the uninformative columns, so they put no noise floor under the pairwise
    distances, and one pass needs no restarts to keep from doubling up a
    cluster. D^2 sampling is unchanged by a global rescaling of the metric,
    so a change of units leaves the picks alone; under a power-of-four scale
    every delta_j * x^2 scales exactly and the picks are bitwise the same.
    Deterministic given the seed. With c equal to the sample count every
    sample is chosen exactly once.

    Each greedy step ranks its candidates by the Gram expansion
    |z_i|^2 - 2 z_i.z_t + |z_t|^2 of their squared distances: one matrix
    product and O(n * trials) memory. Candidates whose potentials lie within
    a rounding bound of the lowest are re-ranked with exact distances (lowest
    wins, first on ties), and the winner's distances are always the exact
    ones, so the picks and sampling weights are those of exact ranking.
    """
    views = _views_of(data)
    n = views[0].shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    Z = np.hstack(views)
    Z -= Z.mean(axis=0)
    Z *= np.sqrt(np.concatenate([dlt / dlt.size for dlt in delta]))
    sq = np.einsum("ij,ij->i", Z, Z)
    trials = max(10, 2 + int(math.log(c)))
    chosen = _greedy_spread(Z, sq, c, np.random.default_rng(seed), trials)
    return [X[chosen].copy() for X in views]


def _centers_with_reseed(views, membership, agg_dist):
    """Center update that re-seeds empty clusters at the worst-served samples."""
    colsum = _column_sums(membership)
    safe = np.where(colsum > EMPTY_CLUSTER_TOL, colsum, 1.0)
    centers = [(membership.T @ X) / safe[:, None] for X in views]
    empty = np.flatnonzero(colsum <= EMPTY_CLUSTER_TOL)
    if empty.size:
        worst_first = np.argsort(agg_dist.min(axis=1))[::-1]
        for slot, k in enumerate(empty):
            i = int(worst_first[slot])
            for h, X in enumerate(views):
                centers[h][k] = X[i]
    return centers


def _warn_out_of_range(params, dims, n):
    if params.beta is not None:
        for h, d in enumerate(dims):
            lo, hi = d / n, 3 * d / n
            if not lo <= params.beta <= hi:
                warnings.warn(
                    f"beta={params.beta} is outside the recommended range "
                    f"[{lo:.6g}, {hi:.6g}] for view {h} (d={d}, n={n})",
                    stacklevel=4,
                )
                break
    eta_hi = ETA_RANGE_SCALE * min(dims) / max(dims)
    if not ETA_RANGE_FLOOR <= params.eta <= eta_hi:
        warnings.warn(
            f"eta={params.eta} is outside the recommended range "
            f"[{ETA_RANGE_FLOOR}, {eta_hi:.6g}]",
            stacklevel=4,
        )


def _descend(dataset, params, step=None) -> FitResult:
    """Block descent shared by both solvers; ``step`` is the pruning hook.

    Each view is column-centred once, before the first iteration. Each
    iteration then takes, per view, the feature costs from (c, d) sums of
    the centred view, hence the new feature weights, runs the pruning hook,
    and then builds each surviving view's (n, c) distance matrix at the new
    weights from one matrix product (the centred expansion; see the module
    notes). The distances give the view costs and the objective of this
    iteration and, with the new view weights, the aggregate distances that
    open the next one.

    The descent owns an :class:`ActiveMask` sized to the input, full at the
    start. ``step(t, views, delta, model, mask)`` runs in iteration t right
    after the feature-weight update. It returns None when it changed
    nothing. Otherwise it has recorded its removals in the mask, shrunk the
    model's centers and feature weights in place, and returns the compacted
    views and dispersion ratios; beta and eta are then re-resolved for the
    surviving widths, the compacted views are centred again, and the
    view-weight update sizes the view weights to the surviving views. The
    result's ``reduced_dataset`` is built from the final views, so a fit
    that removed nothing hands back the input's arrays uncopied.
    """
    validate(dataset)
    views = _views_of(dataset)
    n, s = views[0].shape[0], len(views)
    dims = [X.shape[1] for X in views]
    mask = ActiveMask.full(dims)
    if n < params.c:
        raise ValueError(f"need at least c={params.c} samples, got {n}")
    _warn_out_of_range(params, dims, n)

    delta = compute_delta(dataset, params.delta_clamp)
    beta, eta = resolve_regularization(params, dims, n)
    tic = time.perf_counter()
    centers = init_centers(views, params.c, params.seed, delta)
    seed_seconds = time.perf_counter() - tic
    model = ClusterModel(
        membership=np.empty((n, params.c)),
        centers=centers,
        feature_weights=[np.full(d, 1.0 / d) for d in dims],
        view_weights=np.full(s, 1.0 / s),
    )
    cviews = [_centred(X) for X in views]
    D = _distances_of(cviews, model, delta)
    model.membership = _softmax_rows(-_weighted_sum(D, model.view_weights))
    costs = _costs_given_distances(D, model.membership)
    trace = [_objective_given_costs(costs, model, delta, beta, eta)]

    prev = math.inf
    converged = False
    iter_seconds = []
    for t in range(1, params.t_max + 1):
        tic = time.perf_counter()
        agg = _weighted_sum(D, model.view_weights)
        model.membership = _softmax_rows(-agg)
        model.centers = _centers_with_reseed(views, model.membership, agg)
        model.feature_weights = _feature_weights(cviews, model, delta, eta)
        pruned = None if step is None else step(t, views, delta, model, mask)
        if pruned is not None:
            views, delta = pruned
            beta, eta = resolve_regularization(params, [X.shape[1] for X in views], n)
            cviews = [_centred(X) for X in views]
        D = _distances_of(cviews, model, delta)
        costs = _costs_given_distances(D, model.membership)
        model.view_weights = entropic_simplex_argmin(costs, beta)
        J = _objective_given_costs(costs, model, delta, beta, eta)
        trace.append(J)
        iter_seconds.append(time.perf_counter() - tic)
        if abs(J - prev) <= params.epsilon:
            converged = True
            break
        prev = J
    names = dataset.view_names
    if names is not None:
        names = [names[h] for h in mask.active_views()]
    return FitResult(
        model=model,
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        hard_labels=np.argmax(model.membership, axis=1),
        delta=delta,
        seed_seconds=seed_seconds,
        mask=mask,
        reduced_dataset=MultiViewDataset(views, dataset.labels, names),
        iter_seconds=iter_seconds,
    )


def fit(dataset: MultiViewDataset, params: HyperParams) -> FitResult:
    """Run block coordinate descent until the objective change is <= epsilon.

    Initialization: centers from one greedy k-means++ pass in the starting
    metric (see :func:`init_centers`), uniform feature and view weights, and
    memberships computed from that starting state; the objective of the
    initialized model is the first trace entry. Each iteration then updates
    memberships, centers, feature weights, and view weights in that order and
    appends the new objective. The first convergence comparison uses an
    infinite sentinel, so at least one iteration always runs. The pruning
    solver :func:`mvclust.aamvfcm.fit` runs this same loop with an
    elimination step after the feature weights; here nothing is removed, so
    the result's mask stays full and its ``reduced_dataset`` holds the
    input's views.

    Deterministic: identical (dataset, params) give identical results; the
    recorded seeding and per-iteration times are the only exception.
    """
    return _descend(dataset, params)
