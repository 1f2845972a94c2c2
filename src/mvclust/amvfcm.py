"""Entropy-regularized multi-view fuzzy c-means with adaptive view/feature weights.

Block coordinate descent over four blocks: soft memberships (n x c), per-view
cluster centers, per-view feature weights on the probability simplex, and view
weights on the probability simplex. There is no fuzzifier exponent and no
temperature to set: membership softness comes from a negative-entropy term
with unit temperature, and the two weight simplices are regularized by their
own negative entropies at temperatures fixed by the sample count and the
view widths (see :func:`_temperatures`). Squared distances are premultiplied
by fixed per-feature dispersion ratios (see :mod:`mvclust.snr`), so the
solver expects columns with positive means; raw nonnegative coordinates are
the intended regime.

Every block update is the exact minimizer of the joint objective with the
other blocks held fixed, which makes the objective trace non-increasing.

A fit holds one copy of the data, the views centred into a C-ordered,
feature-major (D, n) array XcT = (X - m)^T, and never builds the weighted
squared distances. A dataset's first fit takes XcT, the column means m and
ss_j = sum_i xc_ij^2 from :func:`mvclust.snr.moments`, as compute_delta does,
and keeps m, ss, delta and the seeding norms (O(n + D) numbers); later fits
only centre. With S_j = v_h w_j delta_j and Ac = A - m, the memberships, a
(c, n) array U, are the softmax over clusters of L = (2 Ac S) XcT - (Ac^2) S,
normalized by one reciprocal per sample; the per-sample term of the
aggregate distances cancels there. The sums G = U Xc give the centers
G / (cluster masses), the feature costs E_j = delta_j (ss_j - 2 sum_k
ac_kj G_kj + sum_k mass_k ac_kj^2), hence the view costs, and, as each
membership row sums to 1, the membership entropy sum(U L) - sum(peaks) -
sum(log totals) with no (c, n) product. Each iteration reads the stack once,
in blocks of samples that take L, U and G together, and no pass repeats:
the first iteration's is the initial one, same centers and scales. Centring
keeps the rounding at the scale of the data's spread, not of its offset: on
200 random instances, as given and shifted by 1e6, distances rebuilt from
the logits are within 6.1e-16 of each view's largest distance (3.0e-3
uncentred and shifted), feature costs within 1.8e-15, and the entropy
within 2.9e-15 of sum |U L|.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetError, MultiViewDataset, _remember, validate
from .snr import centre as _centre, clamped_ratios, moments as _stack

EMPTY_CLUSTER_TOL = 1e-12
# rows x D x samples of a block product, kept small enough that BLAS does not
# thread it: 4,096 samples per seeding block at 10 candidates and 12 columns
BLOCK_CELLS = 10 * 12 * 4096
TEMP_CALIBRATION = 32.0


@dataclass
class HyperParams:
    """Solver settings shared by both the full and the pruning variant.

    The dispersion clamp is not one of them: it is :data:`mvclust.snr.CLAMP`.
    Nor are the entropy temperatures of the two weight simplices: the solver
    derives them from n and the view widths (see :func:`_temperatures`).

    Parameters
    ----------
    c : int
        Number of clusters, >= 2.
    t_max : int
        Iteration cap, >= 1.
    epsilon : float
        Absolute objective-change stopping tolerance, finite and >= 0.
    seed : int
        Seed for center initialization, >= 0.
    """

    c: int
    t_max: int = 100
    epsilon: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.c < 2:
            raise ValueError("c must be >= 2")
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
    nondeterministic fields. ``iter_seconds[0]`` includes the initial sweep,
    which is iteration 1's membership update, and the initial objective;
    seeding is not in it.

    ``mask`` records which original columns survived, one boolean per stacked
    column, and every removal event. ``model`` and ``delta`` are sized to the
    survivors (``delta`` may be read-only views of the dataset's memo), and
    ``model.membership`` is a C-contiguous (n, c) copy of the descent's
    (c, n) memberships, made after the stacked data is freed.
    ``reduced_dataset`` holds the surviving views, names and the labels; pair
    it with ``mask.active_columns`` to map back to original column positions.
    A fit that removed nothing has a full mask and the input's own views, and
    any view that kept every column is the input's own array.
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


def _logit_buffer(c, XcT):
    # the (c, block) logits buffer of _sweep: BLOCK_CELLS / (c D) samples, a
    # product BLAS does not thread (a larger one leaves its idle worker spinning)
    return np.empty((c, min(XcT.shape[1], max(1, BLOCK_CELLS // (c * XcT.shape[0])))))


def _sweep(Ac, S, XcT, U, peak, L):
    # one pass over the (D, n) stack in blocks of L.shape[1] samples. Per
    # block: the logits (2 Ac S) Xc - (Ac^2) S into L, minus the aggregate
    # distances less their per-sample term sum_j S_j xc_ij^2; their softmax
    # over clusters into the (c, n) U, by one reciprocal per sample, and its
    # peak into peak (L is left shifted by it); the sums G = U Xc (c, D) and
    # the masses. Rows of U sum to 1, so sum u log u = sum U L - sum peak -
    # sum log total takes sum U L from G and the masses, not a (c, n) product
    A2S, row = Ac * (2.0 * S), ((Ac * Ac) @ S)[:, None]
    log_totals, block = 0.0, L.shape[1]
    for lo in range(0, XcT.shape[1], block):
        X, Ub, top = XcT[:, lo:lo + block], U[:, lo:lo + block], peak[lo:lo + block]
        Lb = np.matmul(A2S, X, out=L[:, :X.shape[1]])
        Lb -= row
        Lb -= np.max(Lb, axis=0, out=top)
        total = np.exp(Lb, out=Ub).sum(axis=0)
        log_totals += np.log(total).sum()
        Ub *= np.divide(1.0, total, out=total)
        # the first block's sums are taken as they are: with one block, no add
        G = Ub @ X.T if lo == 0 else G + Ub @ X.T
        mass = Ub.sum(axis=1) if lo == 0 else mass + Ub.sum(axis=1)
    entropy = np.sum(A2S * G) - row[:, 0] @ mass - peak.sum() - log_totals
    return G, mass, float(entropy)


def _feature_costs(G, Ac, mass, sq, dlt):
    # E_j = delta_j sum_ik u_ik (xc_ij - ac_kj)^2 for any centers from (c, D)
    # sums and sq_j = sum_i (sum_k u_ik) xc_ij^2, which is ss_j on the simplex
    return dlt * (sq - 2.0 * np.einsum("kj,kj->j", Ac, G) + mass @ (Ac * Ac))


def _view_starts(view_of):
    # the first stacked column of each view
    return np.flatnonzero(np.diff(view_of, prepend=-1))


def _feature_weights(E, dlt, view_of, v, eta, starts, prior):
    # feature j of view h gets weight proportional to (1/delta_j) exp(-v_h E_j / eta):
    # one softmax per view, shifted by its largest exponent; starts are the
    # view starts and prior = -log(delta), which change only with pruning
    x = prior - v[view_of] * E / eta
    e = np.exp(x - np.maximum.reduceat(x, starts)[view_of])
    return e / np.bincount(view_of, e)[view_of]


def entropic_simplex_argmin(costs, beta):
    """Minimize sum(v*costs) + sum(beta*v*log v) over the probability simplex.

    With a uniform ``beta`` the solution is the softmax of -costs/beta. With
    per-component beta the weights are v_h = exp((lam - costs_h)/beta_h - 1)
    for the multiplier lam at which they sum to 1, the root of
    g(lam) = log sum_h exp((lam - costs_h)/beta_h - 1). g is a log-sum-exp of
    increasing affine functions of lam, so it is convex and increasing, with
    g' = sum_h v_h / beta_h for v the softmax of the exponents. Newton's
    method started right of the root, at lam = min_h(costs_h + beta_h) where
    g >= 0, descends to it monotonically; it stops when a step no longer
    lowers lam, which it must since lam strictly decreases over the doubles.
    """
    costs = np.asarray(costs, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if (beta <= 0).any():
        raise ValueError("beta must be positive")
    if beta.min() == beta.max():
        return _softmax(-costs / beta.max())
    lam = np.min(costs + beta)
    while True:
        t = (lam - costs) / beta - 1.0
        top = t.max()
        e = np.exp(t - top)
        total = e.sum()
        v = e / total
        step = (top + np.log(total)) / np.sum(v / beta)
        if not lam - step < lam:
            return v
        lam -= step


def _temperatures(dims, n):
    """The entropy temperatures (per-view beta, eta) of a fit of n samples.

    The cost sums E_j and F_h that enter the weight softmax exponents grow
    linearly with n, so both temperatures are per-sample values multiplied
    by n; without it any non-toy n collapses both weight vectors to one-hot.
    A fixed calibration factor then lifts each temperature above the spread
    that soft-membership tails induce in the per-feature and per-view cost
    sums, so elimination is governed by the dispersion prefactor 1/delta_j
    and neither weight simplex gets pinned to a corner by an early imperfect
    partition. Behaviour is flat across at least a factor-of-four band
    around the chosen value. The per-sample values are eta = 0.025 and
    beta_h = d_h / n. The view temperature is not size-invariant: it
    resolves to TEMP_CALIBRATION * d_h at every n while the view costs grow,
    so the view weights harden with n (0.49 / 0.51 on the benchmark at
    n = 1.5k, 7.8e-17 / 1.0 at 15k).
    """
    # d / n * scale, not TEMP_CALIBRATION * d: the product rounds differently
    scale = TEMP_CALIBRATION * float(n)
    return np.array([d / n for d in dims]) * scale, 0.025 * scale


def _objective_given_costs(costs, membership_entropy, v, w, dlt, beta, eta):
    # distortion plus the three entropy terms, the membership one given; 0*log(0)
    # counts as 0 by a gather of the positive weights, cheaper than a test for none
    beta, on, kept = np.full(v.shape, beta, dtype=float), v > 0, w > 0
    view_entropy = float((beta[on] * v[on] * np.log(v[on])).sum())
    feature_entropy = float((w[kept] * np.log(dlt[kept] * w[kept])).sum())
    return float(v @ costs) + membership_entropy + view_entropy + eta * feature_entropy


def _scaled_blocks(XcT, scale):
    # (first sample, block) of the stack scaled, by the products that would
    # scale it whole, into one buffer of about BLOCK_CELLS / 8 cells, which
    # stays in cache; the last block ends at n and overlaps the one before,
    # since a one-sample block would be summed over its rows pairwise
    width, n = XcT.shape
    Z = np.empty((width, math.ceil(n / math.ceil(n * width * 8 / BLOCK_CELLS))))
    for lo in range(0, n, Z.shape[1]):
        lo = min(lo, n - Z.shape[1])
        yield lo, np.multiply(XcT[:, lo:lo + Z.shape[1]], scale, out=Z)


def _sq_dists(XcT, scale, t):
    # exact squared distances of every sample to sample t in the scaled
    # metric, summed over the rows of each scaled block
    out, zt = np.empty(XcT.shape[1]), XcT[:, t] * scale[:, 0]
    for lo, diff in _scaled_blocks(XcT, scale):
        diff -= zt[:, None]
        np.multiply(diff, diff, out=diff).sum(axis=0, out=out[lo:lo + diff.shape[1]])
    return out


def _seeding_norms(XcT, dlt, view_of):
    # |z_i|^2 of every sample in the seeding metric: data only, kept per dataset
    sq, scale = np.empty(XcT.shape[1]), np.sqrt(dlt / np.bincount(view_of)[view_of])[:, None]
    for lo, Zb in _scaled_blocks(XcT, scale):
        np.einsum("ji,ji->i", Zb, Zb, out=sq[lo:lo + Zb.shape[1]])
    return sq


def init_centers(XcT, dlt, view_of, c, seed, sq):
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
    + |z_t|^2, one (trials, block) product per block of samples sized by
    BLOCK_CELLS, the metric folded into the (trials, D) candidate matrix, so
    seeding holds no (n, trials) array and no scaled copy of the stack.
    Candidates within a rounding bound of the lowest potential are re-ranked
    by exact distances (lowest wins, first on ties), so the picks and
    sampling weights are exact ranking's. ``sq`` is |z_i|^2 as a fit keeps it.
    """
    width, n = XcT.shape
    if not 1 <= c <= n:
        raise ValueError(f"need 1 <= c <= n, got c={c}, n={n}")
    metric = dlt / np.bincount(view_of)[view_of]
    scale = np.sqrt(metric)[:, None]
    rng = np.random.default_rng(seed)
    trials = max(10, 2 + int(math.log(c)))
    block = max(1, BLOCK_CELLS // (trials * width))
    chosen = [int(rng.integers(n))]
    d2 = _sq_dists(XcT, scale, chosen[0])
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
                cand_d2 = np.stack([np.minimum(d2, _sq_dists(XcT, scale, t)) for t in near],
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


def _hard_labels(U):
    # np.argmax(U, axis=0) for finite U with no (n, c) copy: the last k whose
    # U[k] exceeds all rows before it (first largest wins), by branch-free maxima
    labels, best = np.zeros(U.shape[1], dtype=np.intp), U[0].copy()
    for k in range(1, U.shape[0]):
        np.maximum(labels, (U[k] > best) * k, out=labels)
        np.maximum(best, U[k], out=best)
    return labels


def _descend(dataset, params, step=None) -> FitResult:
    """Block descent shared by both solvers; ``step`` is the pruning hook.

    A dataset's first fit stacks the views with their moments (``_stack``) and
    keeps the moments, delta and seeding norms; a later fit only centres the
    views by the kept means (``_centre``). The stack gives the seeds and every
    iteration (see the module notes): one pass for the logits, softmax and
    cluster sums (the first iteration's is the initial one), then centers,
    feature costs and weights, the pruning hook, view costs and weights,
    objective. The view starts, -log delta and whether the view temperatures
    are equal are computed per fit and again only after pruning. The stack is
    freed before the (n, c) membership copy and the result build.

    The descent owns an :class:`ActiveMask` sized to the input, full at the
    start. ``step(t, w, view_of, n, mask)`` runs in iteration t right after
    the feature-weight update, on the stacked weights w of the mask's active
    columns and their views view_of, numbered among the active views. It
    returns None when it removed nothing. Otherwise it has recorded its
    removals in the mask and returns a boolean keep-vector over w; the descent
    then restricts every stacked array to the kept columns (the stack in
    place), renumbers the views, renormalizes each view's weights to sum to 1
    and re-derives the temperatures for the surviving widths, and the
    view-weight update sizes the view weights to the surviving views. The
    per-view model, ``delta`` and ``reduced_dataset`` are built from the mask
    when the descent ends, so each view that kept every column is handed back
    as the input's own array, uncopied.
    """
    if not dataset._memo.get("valid"):
        validate(dataset)
    views = list(dataset.views)
    n, s, dims = views[0].shape[0], len(views), dataset.dims
    mask = ActiveMask.full(dims)
    if n < params.c:
        raise ValueError(f"need at least c={params.c} samples, got {n}")

    if "moments" in dataset._memo:
        m, ss, dlt, view_of, sq = dataset._memo["moments"]
        XcT = _centre(views, m)
    else:
        XcT, m, ss, view_of = _stack(views)
        dlt = clamped_ratios(m, ss, n)
        sq = _seeding_norms(XcT, dlt, view_of)
        # a kernel term of column j is at most max(2, delta_j) ss_j: the costs'
        # 2 sum_k ac_kj G_kj and delta_j ss_j; it must be a finite float64
        if not np.isfinite(bound := np.maximum(dlt, 2.0) * ss).all():
            raise DatasetError("view %d column %d: its squares overflow float64; rescale it"
                               % mask.locate(np.argmin(np.isfinite(bound))))
        for a in (m, ss, dlt, view_of, sq):  # read-only: later fits share them
            a.flags.writeable = False
        _remember(dataset, moments=(m, ss, dlt, view_of, sq))
    beta, eta = _temperatures(dims, n)
    tic = time.perf_counter()
    picks = init_centers(XcT, dlt, view_of, params.c, params.seed, sq)
    seed_seconds = time.perf_counter() - tic
    w = 1.0 / np.bincount(view_of)[view_of]
    v = np.full(s, 1.0 / s)
    Ac = XcT[:, picks].T.copy()
    U, peak, L = np.empty((params.c, n)), np.empty(n), _logit_buffer(params.c, XcT)
    S = v[view_of] * w * dlt
    tic = time.perf_counter()  # iteration 1's clock: this sweep is its membership update
    G, mass, entropy = _sweep(Ac, S, XcT, U, peak, L)
    costs = np.bincount(view_of, w * _feature_costs(G, Ac, mass, ss, dlt))
    trace = [_objective_given_costs(costs, entropy, v, w, dlt, beta, eta)]
    starts, prior, equal = _view_starts(view_of), -np.log(dlt), np.ptp(beta) == 0

    prev, converged, iter_seconds = math.inf, False, []
    for t in range(1, params.t_max + 1):
        if t > 1:  # the first iteration's sweep, same centers and scales, is the one above
            tic = time.perf_counter()
            S = v[view_of] * w * dlt
            G, mass, entropy = _sweep(Ac, S, XcT, U, peak, L)
        Ac = _centers_with_reseed(G, mass, XcT, S, peak)
        E = _feature_costs(G, Ac, mass, ss, dlt)
        w = _feature_weights(E, dlt, view_of, v, eta, starts, prior)
        keep = None if step is None else step(t, w, view_of, n, mask)
        if keep is not None:
            kept = np.flatnonzero(keep)
            for i, j in enumerate(kept):  # in place: no second stack
                XcT[i] = XcT[j]
            XcT, m, ss, dlt, prior, E, w, Ac = (XcT[:kept.size], m[keep], ss[keep], dlt[keep],
                                                prior[keep], E[keep], w[keep], Ac[:, keep])
            L = _logit_buffer(params.c, XcT)
            view_of = np.unique(view_of[keep], return_inverse=True)[1]
            w /= np.bincount(view_of, w)[view_of]
            beta, eta = _temperatures(np.bincount(view_of), n)
            starts, equal = _view_starts(view_of), np.ptp(beta) == 0
        costs = np.bincount(view_of, w * E)
        v = _softmax(-costs / beta[0]) if equal else entropic_simplex_argmin(costs, beta)
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
    membership, hard_labels = np.ascontiguousarray(U.T), _hard_labels(U)
    del U
    names = dataset.view_names
    if mask.removals:
        active, kept = mask.active_views(), mask.active_dims
        views = [views[h] if kept[h] == dims[h]
                 else np.take(views[h], mask.active_columns(h), axis=1) for h in active]
        for X in views:
            X.flags.writeable = False
        if names is not None:
            names = [names[h] for h in active]
    ends = starts[1:]
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
