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

The weighted squared distances are never built, neither as an (n, c, d)
tensor nor as (n, c) matrices, and a fit holds one copy of the data: the
views centred, block by block, into a C-ordered, feature-major (D, n) array
XcT = (X - m)^T. Its m and ss_j = sum_i xc_ij^2 give the dispersion ratios,
its rows, scaled one block of samples at a time, the seeds
(:func:`init_centers`). With S_j = v_h w_j delta_j and Ac = A - m the
stacked centred centers, the memberships, held as a (c, n) array U, are the
softmax over clusters of L = (2 Ac S) XcT - (Ac^2) S: the per-sample term
sum_j S_j xc_ij^2 of the aggregate distances cancels there and is never
formed. The sums G = U Xc give the centers G / (cluster masses) and the
feature costs E_j = delta_j (ss_j - 2 sum_k ac_kj G_kj +
sum_k mass_k ac_kj^2), hence the view costs w_h . E_h. Each iteration reads
the stack once, in blocks of samples that take L, U and G together. The
feature weights are one vector over the stacked columns, with view_of
naming each column's view, so the per-view softmax, view costs and
entropies are segment reductions over it. Pruning is a boolean keep-vector
over the columns: the descent moves the kept rows of the stack up in place,
never restacks, and builds the per-view model once, at the end. Centring
keeps the rounding at the scale of the data's spread, not of its offset: on
200 random instances, as given and shifted by 1e6, distances rebuilt from
the logits are within 6.1e-16 of each view's largest distance (3.0e-3
uncentred and shifted), feature costs within 1.8e-15.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import MultiViewDataset, validate
from .snr import clamped_ratios

EMPTY_CLUSTER_TOL = 1e-12
# rows x D x samples of a block product, kept small enough that BLAS does not
# thread it: 4,096 samples per seeding block at 10 candidates and 12 columns
BLOCK_CELLS = 10 * 12 * 4096
ETA_RANGE = (0.0015, 0.025)
TEMP_CALIBRATION = 32.0


@dataclass
class HyperParams:
    """Solver settings shared by both the full and the pruning variant.

    The dispersion clamp is not one of them: it is :data:`mvclust.snr.CLAMP`.

    Parameters
    ----------
    c : int
        Number of clusters, >= 2.
    eta : float
        Feature-weight entropy strength in per-sample units, finite and > 0 (see
        :func:`resolve_regularization`). Values outside [0.0015, 0.025]
        trigger a warning at fit time.
    beta : float or None
        View-weight entropy strength in per-sample units. None selects the
        per-view automatic value d_h / n, which is not size-invariant (see
        :func:`resolve_regularization`); a fixed scalar outside
        [d_h/n, 3*d_h/n] for some view triggers a warning at fit time.
    t_max : int
        Iteration cap, >= 1.
    epsilon : float
        Absolute objective-change stopping tolerance, finite and >= 0.
    seed : int
        Seed for center initialization, >= 0.
    """

    c: int
    eta: float = 0.025
    beta: float | None = None
    t_max: int = 100
    epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.c < 2:
            raise ValueError("c must be >= 2")
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be finite and > 0, got {self.eta}")
        if self.beta is not None and not 0 < self.beta < math.inf:
            raise ValueError(f"fixed beta must be finite and > 0, got {self.beta}")
        if self.t_max < 1:
            raise ValueError("t_max must be >= 1")
        if not 0 <= self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    """Which original columns are still alive, plus the removal history.

    ``columns`` has one boolean per original stacked column, ``view_of`` its
    view; a view lives while any of its columns does. Flips only True -> False.
    """

    columns: np.ndarray
    view_of: np.ndarray
    removals: list = field(default_factory=list)

    @classmethod
    def full(cls, dims):
        return cls(np.ones(sum(dims), dtype=bool), np.repeat(np.arange(len(dims)), dims))

    @property
    def original_dims(self):
        return np.bincount(self.view_of).tolist()

    @property
    def active_dims(self):
        """Surviving column count per original view (0 for dead views)."""
        return np.bincount(self.view_of, self.columns).astype(int).tolist()

    def active_views(self):
        return np.flatnonzero(self.active_dims).tolist()

    def active_columns(self, view):
        return np.flatnonzero(self.columns[self.view_of == view])

    def locate(self, j):
        """Original view and column within it of original stacked column(s) j."""
        h = self.view_of[j]
        return h, j - np.searchsorted(self.view_of, h)

    @property
    def reduction_pct(self):
        """Fraction of original columns eliminated, in [0, 1]."""
        return 1.0 - int(self.columns.sum()) / self.columns.size


@dataclass
class FitResult:
    """Outcome of one fit, by either solver.

    ``objective_trace[0]`` is the objective of the freshly initialized model;
    each iteration appends one more value, so the trace has ``iterations + 1``
    entries. ``iter_seconds`` holds per-iteration wall times and
    ``seed_seconds`` the wall time of center seeding; these two are the only
    nondeterministic fields.

    ``mask`` records which original columns survived, one boolean per stacked
    column, and every removal event. The per-view arrays are built once, at
    the end, from the descent's stacked state and the mask: ``model`` and
    ``delta`` are sized to the survivors, and ``model.membership`` is a
    C-contiguous (n, c) copy of the descent's cluster-major (c, n)
    membership buffer, made after the stacked data is freed.
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


def _softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


def _stack(views):
    # all views feature-major and column-centred in one C-ordered (D, n)
    # array, with the column means m, ss_j = sum_i xc_ij^2 and each column's
    # view, filled by blocks of rows with no (n, d) temporary. m and ss are
    # what np.var takes, so ss / (n - 1) is its unbiased variance bit for bit:
    # it sums a C-ordered view row after row, which each block repeats below
    # the running sums carried as its row 0, and a one-column view pairwise
    view_of = np.repeat(np.arange(len(views)), [X.shape[1] for X in views])
    n = views[0].shape[0]
    XcT, block = np.empty((view_of.size, n)), max(1, BLOCK_CELLS // (10 * view_of.size))
    m, ss = [], []
    for X, rows in zip(views, np.split(XcT, _view_starts(view_of)[1:])):
        m.append(X.mean(axis=0))
        if X.shape[1] == 1:
            np.subtract(X[:, 0], m[-1], out=rows[0])
            ss.append(np.square(rows).sum(axis=1))
            continue
        B, total = np.empty((min(block, n) + 1, X.shape[1])), np.zeros(X.shape[1])
        for lo in range(0, n, block):
            Bb = B[:min(block, n - lo) + 1]
            Bb[0] = total
            Xc = np.subtract(X[lo:lo + block], m[-1], out=Bb[1:])
            rows[:, lo:lo + block] = Xc.T
            Xc *= Xc
            total = Bb.sum(axis=0)
        ss.append(total)
    return XcT, np.concatenate(m), np.concatenate(ss), view_of


def _logit_buffer(c, XcT):
    # the (c, block) logits buffer of _sweep: BLOCK_CELLS / (c D) samples, a
    # product BLAS does not thread (a larger one leaves its idle worker spinning)
    return np.empty((c, min(XcT.shape[1], max(1, BLOCK_CELLS // (c * XcT.shape[0])))))


def _sweep(Ac, S, XcT, U, peak, L):
    # one pass over the (D, n) stack in blocks of L.shape[1] samples. Per
    # block: the logits (2 Ac S) Xc - (Ac^2) S into L, minus the aggregate
    # distances less their per-sample term sum_j S_j xc_ij^2; their softmax
    # over clusters into the (c, n) U and its per-sample peak into peak (L is
    # left shifted by it); and the sums G = U Xc (c, D), the cluster masses
    # and sum_ik u_ik log u_ik, accumulated. The entropy is an einsum: BLAS
    # threads a dot this long, and a busy machine stalls it ~8ms against 20us
    A2S, row = Ac * (2.0 * S), ((Ac * Ac) @ S)[:, None]
    entropy, block = 0.0, L.shape[1]
    for lo in range(0, XcT.shape[1], block):
        X, Ub, top = XcT[:, lo:lo + block], U[:, lo:lo + block], peak[lo:lo + block]
        Lb = np.matmul(A2S, X, out=L[:, :X.shape[1]])
        Lb -= row
        Lb -= np.max(Lb, axis=0, out=top)
        total = np.exp(Lb, out=Ub).sum(axis=0)
        Ub /= total
        entropy += np.einsum("kn,kn->", Ub, Lb) - np.log(total).sum()
        # the first block's sums are taken as they are: with one block, no add
        G = Ub @ X.T if lo == 0 else G + Ub @ X.T
        mass = Ub.sum(axis=1) if lo == 0 else mass + Ub.sum(axis=1)
    return G, mass, float(entropy)


def _feature_costs(G, Ac, mass, sq, dlt):
    # E_j = delta_j sum_ik u_ik (xc_ij - ac_kj)^2 for any centers from (c, D)
    # sums and sq_j = sum_i (sum_k u_ik) xc_ij^2, which is ss_j on the simplex
    return dlt * (sq - 2.0 * np.einsum("kj,kj->j", Ac, G) + mass @ (Ac * Ac))


def _view_starts(view_of):
    # the first stacked column of each view
    return np.flatnonzero(np.diff(view_of, prepend=-1))


def _feature_weights(E, dlt, view_of, v, eta):
    # feature j of view h gets weight proportional to (1/delta_j) exp(-v_h E_j / eta):
    # one softmax per view, shifted by the view's own largest exponent
    x = -np.log(dlt) - v[view_of] * E / eta
    e = np.exp(x - np.maximum.reduceat(x, _view_starts(view_of))[view_of])
    return e / np.bincount(view_of, e)[view_of]


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


def _objective_given_costs(costs, membership_entropy, v, w, dlt, beta, eta):
    # distortion plus the three entropy terms, the membership one given;
    # 0*log(0) counts as 0
    beta = np.broadcast_to(np.asarray(beta, dtype=float), v.shape)
    on, kept = v > 0, w > 0
    view_entropy = float(np.sum(beta[on] * v[on] * np.log(v[on])))
    feature_entropy = float(np.sum(w[kept] * np.log(dlt[kept] * w[kept])))
    return float(v @ costs) + membership_entropy + view_entropy + eta * feature_entropy


def _scaled_blocks(XcT, scale, Z):
    # (first sample, block) of the stack scaled into the (D, block) buffer Z,
    # by the products that would scale the whole stack; the last block ends
    # at n and overlaps the one before, since a one-sample block would be
    # summed over its rows pairwise, not row after row
    n, b = XcT.shape[1], Z.shape[1]
    for lo in range(0, n, b):
        lo = min(lo, n - b)
        yield lo, np.multiply(XcT[:, lo:lo + b], scale, out=Z)


def _sq_dists(XcT, scale, t, Z):
    # exact squared distances of every sample to sample t in the scaled
    # metric, summed over the rows of each scaled block
    out, zt = np.empty(XcT.shape[1]), XcT[:, t] * scale[:, 0]
    for lo, diff in _scaled_blocks(XcT, scale, Z):
        diff -= zt[:, None]
        np.multiply(diff, diff, out=diff).sum(axis=0, out=out[lo:lo + Z.shape[1]])
    return out


def init_centers(XcT, dlt, view_of, c, seed):
    """Greedy spread seeding (k-means++ weighting) in the solver's own metric.

    One greedy pass over the samples of the fit's stacked, centred (D, n)
    array in the metric of the first iteration: row j scaled by
    sqrt(delta_j / d_h), delta_j times the uniform feature weight 1/d_h.
    Returns the c picked sample indices. The dispersion ratios damp the
    uninformative columns, so one pass needs no restarts to keep from
    doubling up a cluster. Under a power-of-four change of units every
    delta_j * x^2 scales exactly and the picks are bitwise the same.
    Deterministic given the seed; with c = n every sample is chosen.

    Each step ranks its candidates by the Gram expansion |z_i|^2 - 2 z_i.z_t
    + |z_t|^2, one (trials, block) product of the stack per block of samples
    sized by BLOCK_CELLS, the metric folded into the (trials, D) candidate
    matrix, so seeding holds no (n, trials) array and no scaled copy of the
    stack. Candidates within a rounding bound of the lowest potential are
    re-ranked by exact distances (lowest wins, first on ties); those and
    |z_i|^2 come from one block at a time, scaled by the products that would
    scale the whole stack. The winner's distances are exact, so the picks and
    sampling weights are exact ranking's; the last pick's are not needed, and
    are computed only to break a near-tie.
    """
    width, n = XcT.shape
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    metric = dlt / np.bincount(view_of)[view_of]
    scale = np.sqrt(metric)[:, None]
    rng = np.random.default_rng(seed)
    trials = max(10, 2 + int(math.log(c)))
    block = max(1, BLOCK_CELLS // (trials * width))
    # the scaled blocks: equal in size, about BLOCK_CELLS / 8 cells, which
    # stay in cache between the products that scale, subtract and square them
    Z, sq = np.empty((width, math.ceil(n / math.ceil(n * width * 8 / BLOCK_CELLS)))), np.empty(n)
    for lo, Zb in _scaled_blocks(XcT, scale, Z):
        np.einsum("ji,ji->i", Zb, Zb, out=sq[lo:lo + Z.shape[1]])
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(XcT, scale, chosen[0], Z)
    for _ in range(1, c):
        total = d2.sum()
        if total > 0:
            cand = rng.choice(n, size=trials, p=d2 / total)
            Zc, pot = XcT[:, cand].T * (-2.0 * metric), np.zeros(trials)
            for lo in range(0, n, block):
                G = Zc @ XcT[:, lo:lo + block]
                G += sq[lo:lo + block]
                G += sq[cand, None]
                pot += np.minimum(G, d2[lo:lo + block], out=G).sum(axis=1)
            # candidates within the expansion's rounding bound of the lowest
            # potential are re-ranked exactly, first on ties, summed over the
            # samples of an (n, near) array as the exact ranking sums them
            slack = np.finfo(float).eps * (
                (width + 4) * (sq.sum() + n * sq[cand].max()) + n * pot.max())
            near = cand[pot <= pot.min() + 2 * slack]
            idx = int(near[0])
            if near.size > 1 or len(chosen) < c - 1:  # the last pick's distances go unused
                cand_d2 = np.stack([np.minimum(d2, _sq_dists(XcT, scale, t, Z)) for t in near],
                                   axis=1)
                best = int(np.argmin(cand_d2.sum(axis=0)))
                idx, d2 = int(near[best]), cand_d2[:, best]
        else:
            # all remaining mass is zero (duplicate points): pick any unchosen,
            # and every distance stays zero
            unchosen = np.setdiff1d(np.arange(n), chosen)
            idx = int(rng.choice(unchosen))
        chosen.append(idx)
    return chosen


def _centers_with_reseed(G, mass, XcT, S, peak):
    # centred centers; empty clusters are re-seeded at the worst-served samples,
    # ranked by the dropped per-sample term less the peak logit (only then
    # computed, by an einsum that needs no squared copy of the stack)
    safe = np.where(mass > EMPTY_CLUSTER_TOL, mass, 1.0)
    Ac = G / safe[:, None]
    empty = np.flatnonzero(mass <= EMPTY_CLUSTER_TOL)
    if empty.size:
        worst_first = np.argsort(np.einsum("j,ji,ji->i", S, XcT, XcT) - peak)[::-1]
        Ac[empty] = XcT[:, worst_first[:empty.size]].T
    return Ac


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
    lo, hi = ETA_RANGE
    if not lo <= params.eta <= hi:
        warnings.warn(
            f"eta={params.eta} is outside the recommended range [{lo}, {hi}]",
            stacklevel=4,
        )


def _descend(dataset, params, step=None) -> FitResult:
    """Block descent shared by both solvers; ``step`` is the pruning hook.

    One centred (D, n) stack gives delta, the seeds and every iteration (see
    the module notes): one pass for the logits, softmax and cluster sums,
    then centers, feature costs and weights, the pruning hook, view costs
    and weights, objective.

    The descent owns an :class:`ActiveMask` sized to the input, full at the
    start. ``step(t, w, view_of, n, mask)`` runs in iteration t right after
    the feature-weight update, on the stacked weights w of the mask's active
    columns and their views view_of, numbered among the active views. It
    returns None when it removed nothing. Otherwise it has recorded its
    removals in the mask and returns a boolean keep-vector over w; the descent
    then restricts every stacked array to the kept columns (the stack in
    place), renumbers the views, renormalizes each view's weights to sum to 1
    and re-resolves beta and eta for the surviving widths, and the view-weight
    update sizes the view weights to the surviving views. The per-view model,
    ``delta`` and ``reduced_dataset`` are built from the mask when the descent
    ends, so a fit that removed nothing hands back the input's arrays uncopied.
    """
    validate(dataset)
    views = list(dataset.views)
    n, s = views[0].shape[0], len(views)
    dims = [X.shape[1] for X in views]
    mask = ActiveMask.full(dims)
    if n < params.c:
        raise ValueError(f"need at least c={params.c} samples, got {n}")
    _warn_out_of_range(params, dims, n)

    XcT, m, ss, view_of = _stack(views)
    dlt = clamped_ratios(m, ss / (n - 1))
    beta, eta = resolve_regularization(params, dims, n)
    tic = time.perf_counter()
    picks = init_centers(XcT, dlt, view_of, params.c, params.seed)
    seed_seconds = time.perf_counter() - tic
    w = 1.0 / np.bincount(view_of)[view_of]
    v = np.full(s, 1.0 / s)
    Ac = XcT[:, picks].T.copy()
    U, peak, L = np.empty((params.c, n)), np.empty(n), _logit_buffer(params.c, XcT)
    G, mass, entropy = _sweep(Ac, v[view_of] * w * dlt, XcT, U, peak, L)
    costs = np.bincount(view_of, w * _feature_costs(G, Ac, mass, ss, dlt))
    trace = [_objective_given_costs(costs, entropy, v, w, dlt, beta, eta)]

    prev = math.inf
    converged = False
    iter_seconds = []
    for t in range(1, params.t_max + 1):
        tic = time.perf_counter()
        S = v[view_of] * w * dlt
        G, mass, entropy = _sweep(Ac, S, XcT, U, peak, L)
        Ac = _centers_with_reseed(G, mass, XcT, S, peak)
        E = _feature_costs(G, Ac, mass, ss, dlt)
        w = _feature_weights(E, dlt, view_of, v, eta)
        keep = None if step is None else step(t, w, view_of, n, mask)
        if keep is not None:
            kept = np.flatnonzero(keep)
            for i, j in enumerate(kept):  # in place: no second stack
                XcT[i] = XcT[j]
            XcT, m, ss, dlt, E, w, Ac = (XcT[:kept.size], m[keep], ss[keep], dlt[keep],
                                         E[keep], w[keep], Ac[:, keep])
            L = _logit_buffer(params.c, XcT)
            view_of = np.unique(view_of[keep], return_inverse=True)[1]
            w /= np.bincount(view_of, w)[view_of]
            beta, eta = resolve_regularization(params, np.bincount(view_of), n)
        costs = np.bincount(view_of, w * E)
        v = entropic_simplex_argmin(costs, beta)
        J = _objective_given_costs(costs, entropy, v, w, dlt, beta, eta)
        trace.append(J)
        iter_seconds.append(time.perf_counter() - tic)
        if abs(J - prev) <= params.epsilon:
            converged = True
            break
        prev = J
    # the stack goes before the (n, c) membership copy, the (c, n) buffer
    # before the surviving views are copied (read-only, so kept uncopied)
    del XcT, L, peak
    membership, hard_labels = np.ascontiguousarray(U.T), np.argmax(U, axis=0)
    del U
    names = dataset.view_names
    if mask.removals:
        active = mask.active_views()
        views = [np.take(views[h], mask.active_columns(h), axis=1) for h in active]
        for X in views:
            X.flags.writeable = False
        if names is not None:
            names = [names[h] for h in active]
    ends = _view_starts(view_of)[1:]
    return FitResult(
        model=ClusterModel(membership, np.split(Ac + m, ends, axis=1), np.split(w, ends), v),
        objective_trace=np.asarray(trace),
        iterations=len(trace) - 1,
        converged=converged,
        hard_labels=hard_labels,
        delta=np.split(dlt, ends),
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
