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
        per-view automatic value d_h / n; a fixed scalar outside
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


@dataclass
class FitResult:
    """Outcome of one fit.

    ``objective_trace[0]`` is the objective of the freshly initialized model;
    each iteration appends one more value, so the trace has ``iterations + 1``
    entries. ``iter_seconds`` holds per-iteration wall times and is the only
    nondeterministic field.
    """

    model: ClusterModel
    objective_trace: np.ndarray
    iterations: int
    converged: bool
    hard_labels: np.ndarray
    delta: list
    iter_seconds: list = field(default_factory=list)


def _views_of(data):
    if isinstance(data, MultiViewDataset):
        return list(data.views)
    return [np.asarray(v, dtype=float) for v in data]


def _softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def _xlogx(p):
    # sum of p*log(p) with the 0*log(0) = 0 convention
    p = np.asarray(p)
    mask = p > 0
    return float(np.sum(p[mask] * np.log(p[mask])))


def _sq_diff(X, A):
    # (n, c, d) squared deviations of every sample from every center
    return (X[:, None, :] - A[None, :, :]) ** 2


def per_view_distances(views, model, delta):
    """Per-view weighted squared distance matrices, each (n, c).

    Entry (i, k) of view h is sum_j w_j * delta_j * (x_ij - a_kj)^2.
    """
    out = []
    for X, A, w, dlt in zip(views, model.centers, model.feature_weights, delta):
        scale = w * dlt
        out.append(_sq_diff(X, A) @ scale)
    return out


def _weighted_sum(D, view_weights):
    T = np.zeros_like(D[0])
    for v, Dh in zip(view_weights, D):
        T += v * Dh
    return T


def aggregate_distances(views, model, delta):
    """View-weighted sum of the per-view distance matrices, shape (n, c)."""
    return _weighted_sum(per_view_distances(views, model, delta), model.view_weights)


def _weights_and_distances(views, model, delta, eta):
    # One (n, c, d) tensor per view, freed before the next view's is built:
    # E_j = delta_j * sum_ik mu_ik (x_ij - a_kj)^2 gives the new weights, and
    # the same tensor then gives the distance matrix at those weights.
    weights, D = [], []
    for X, A, dlt, v in zip(views, model.centers, delta, model.view_weights):
        S = _sq_diff(X, A)
        E = dlt * np.einsum("ik,ikj->j", model.membership, S)
        w = _softmax_rows((-np.log(dlt) - v * E / eta)[None, :])[0]
        weights.append(w)
        D.append(S @ (w * dlt))
        del S
    return weights, D


def update_feature_weights(views, model, delta, eta):
    """Per-view softmax over features; exact W-block minimizer.

    Feature j of view h gets weight proportional to
    (1/delta_j) * exp(-v_h * E_j / eta) where E_j is the membership-weighted,
    dispersion-scaled squared deviation of that feature. Computed in log space.
    """
    return _weights_and_distances(_views_of(views), model, delta, eta)[0]


def _costs_given_distances(D, membership):
    return np.array([float(np.sum(membership * Dh)) for Dh in D])


def view_costs(views, model, delta):
    """Membership-weighted total distortion per view, shape (s,)."""
    D = per_view_distances(_views_of(views), model, delta)
    return _costs_given_distances(D, model.membership)


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
        return _softmax_rows((-costs / beta[0])[None, :])[0]

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

    ``eta`` and ``beta`` are specified in per-sample units, but the cost sums
    E_j and F_h that enter the weight softmax exponents grow linearly with n.
    Multiplying both coefficients by n keeps the softmax temperatures invariant
    to dataset size; without it any non-toy n collapses both weight vectors to
    one-hot. A fixed calibration factor then lifts each temperature above the
    spread that soft-membership tails induce in the per-feature and per-view
    cost sums, so elimination is governed by the dispersion prefactor
    1/delta_j and neither weight simplex gets pinned to a corner by an early
    imperfect partition. Behaviour is flat across at least a factor-of-four
    band around the chosen value. Auto beta (d_h / n per view) resolves to
    TEMP_CALIBRATION * d_h after scaling.
    """
    scale = TEMP_CALIBRATION * float(n)
    return beta_vector(params.beta, dims, n) * scale, params.eta * scale


def beta_vector(beta, dims, n):
    """Resolve the beta setting to one value per view (None selects d_h/n)."""
    if beta is None:
        return np.array([d / n for d in dims], dtype=float)
    return np.full(len(dims), float(beta))


def _objective_given_costs(costs, model, delta, beta, eta):
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


def objective(views, model, delta, beta, eta) -> float:
    """Joint objective: view-weighted distortion plus the three entropy terms.

    All 0*log(0) contributions count as 0. Passing beta = eta = 0 evaluates
    the unregularized base objective (distortion plus membership entropy).
    """
    costs = view_costs(views, model, delta)
    return _objective_given_costs(costs, model, delta, beta, eta)


SEEDING_RESTARTS = 8


def _greedy_spread(Z, c, rng, trials):
    # one greedy k-means++ pass; returns (row indices, final total potential)
    n = Z.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = np.sum((Z - Z[chosen[0]]) ** 2, axis=1)
    for _ in range(1, c):
        total = d2.sum()
        if total > 0:
            cand = rng.choice(n, size=trials, p=d2 / total)
            cand_d2 = np.minimum(d2, ((Z[:, None, :] - Z[cand]) ** 2).sum(axis=2).T)
            best = int(np.argmin(cand_d2.sum(axis=1)))
            idx, d2 = int(cand[best]), cand_d2[best]
        else:
            # all remaining mass is zero (duplicate points): pick any unchosen,
            # and every distance stays zero
            unchosen = np.setdiff1d(np.arange(n), chosen)
            idx = int(rng.choice(unchosen))
        chosen.append(idx)
    return chosen, float(d2.sum())


def init_centers(data, c, seed):
    """Greedy spread seeding (k-means++ weighting) on the concatenated views.

    Columns are standardized for the seeding distance computations only; the
    returned centers are rows of the original per-view matrices. Runs several
    independent greedy passes and keeps the one with the lowest total
    potential: uninformative columns put a noise floor under every pairwise
    distance, which can lure a single pass into doubling up one cluster, but
    a covering seed set still wins the potential comparison. Deterministic
    given the seed. With c equal to the sample count every sample is chosen
    exactly once.
    """
    views = _views_of(data)
    n = views[0].shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    stacked = np.hstack(views)
    std = stacked.std(axis=0)
    std[std == 0] = 1.0
    Z = (stacked - stacked.mean(axis=0)) / std

    trials = max(10, 2 + int(math.log(c)))
    best, best_pot = None, math.inf
    for restart in range(SEEDING_RESTARTS):
        rng = np.random.default_rng([seed, restart])
        chosen, pot = _greedy_spread(Z, c, rng, trials)
        if pot < best_pot:
            best, best_pot = chosen, pot
    return [X[best].copy() for X in views]


def _centers_with_reseed(views, membership, agg_dist):
    """Center update that re-seeds empty clusters at the worst-served samples."""
    colsum = membership.sum(axis=0)
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

    Each iteration builds one (n, c, d) squared-difference tensor per view,
    and only one view's tensor is alive at a time. It gives that view's
    feature costs, hence its new feature weights, and then its distance
    matrix at those weights. The distances give the view costs and the
    objective of this iteration and, with the new view weights, the
    aggregate distances that open the next one.

    ``step(t, views, delta, model)`` runs in iteration t right after the
    feature-weight update. It returns the very ``views`` list it was given
    when it changed nothing. Otherwise it has shrunk the model in place and
    returns new compacted views and dispersion ratios; beta and eta are then
    re-resolved for the surviving widths, and the distances are rebuilt from
    the compacted views.
    """
    validate(dataset)
    views = _views_of(dataset)
    n, s = views[0].shape[0], len(views)
    dims = [X.shape[1] for X in views]
    if n < params.c:
        raise ValueError(f"need at least c={params.c} samples, got {n}")
    _warn_out_of_range(params, dims, n)

    delta = compute_delta(dataset, params.delta_clamp)
    beta, eta = resolve_regularization(params, dims, n)
    model = ClusterModel(
        membership=np.empty((n, params.c)),
        centers=init_centers(views, params.c, params.seed),
        feature_weights=[np.full(d, 1.0 / d) for d in dims],
        view_weights=np.full(s, 1.0 / s),
    )
    D = per_view_distances(views, model, delta)
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
        model.feature_weights, D = _weights_and_distances(views, model, delta, eta)
        if step is not None:
            kept, delta = step(t, views, delta, model)
            if kept is not views:
                views = kept
                beta, eta = resolve_regularization(params, [X.shape[1] for X in views], n)
                D = per_view_distances(views, model, delta)
        costs = _costs_given_distances(D, model.membership)
        model.view_weights = entropic_simplex_argmin(costs, beta)
        J = _objective_given_costs(costs, model, delta, beta, eta)
        trace.append(J)
        iter_seconds.append(time.perf_counter() - tic)
        if abs(J - prev) <= params.epsilon:
            converged = True
            break
        prev = J
    return FitResult(
        model=model,
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        hard_labels=np.argmax(model.membership, axis=1),
        delta=delta,
        iter_seconds=iter_seconds,
    )


def fit(dataset: MultiViewDataset, params: HyperParams) -> FitResult:
    """Run block coordinate descent until the objective change is <= epsilon.

    Initialization: spread-seeded centers, uniform feature and view weights,
    and memberships computed from that starting state; the objective of the
    initialized model is the first trace entry. Each iteration then updates
    memberships, centers, feature weights, and view weights in that order and
    appends the new objective. The first convergence comparison uses an
    infinite sentinel, so at least one iteration always runs. The pruning
    solver :func:`mvclust.aamvfcm.fit` runs this same loop with an
    elimination step after the feature weights.

    Deterministic: identical (dataset, params) give identical results; the
    recorded per-iteration times are the only exception.
    """
    return _descend(dataset, params)
