"""Shared helpers for the test suite: random instances, descent checks, oracles.

The oracles state single block updates and the model invariants on their
own, apart from the solver loop that fuses them. The block calls
(``per_view_distances`` through ``_centers_with_reseed``) are compositions of
the solver's private kernels on its stacked, cluster-major layout. Their
only arithmetic is the descent's own two one-liners, the scales
S = v[view_of] * w * delta and the view costs bincount(view_of, w * E), the
cluster sums U Xc of any memberships, and three adapters, all there so that
the blocks stay exact for any model, memberships off the simplex included:
the per-sample term that the logits leave out is added back where a
distance is asked for, the squared sums of the feature costs are weighted by
the actual membership row sums, and the membership entropy is summed
directly (``fit`` takes it from the logits). The logits are read back from
the buffer of the solver's fused kernel, run over all samples in one block.
A test that calls them exercises what ``fit`` runs, in the (n, c) layout of
the model.
"""

import dataclasses
import math
import os
import threading

import numpy as np

from mvclust import amvfcm
from mvclust.amvfcm import HyperParams, RemovalEvent
from mvclust.data import (
    EmptyDatasetError,
    MatrixFormatError,
    MultiViewDataset,
    parse_manifest,
    validate,
)
from mvclust.snr import compute_delta


def _views_of(data):
    """The views of a dataset, or of a list of arrays, as float arrays."""
    if isinstance(data, MultiViewDataset):
        return list(data.views)
    return [np.asarray(v, dtype=float) for v in data]


def random_instance(rng, n_max=200):
    """Small random multi-view clustering problem with positive coordinates.

    Bounds: n <= n_max, views <= 3, columns per view <= 6, clusters <= 4.
    Occasionally includes a constant column so the dispersion clamp is hit.
    """
    n = int(rng.integers(20, n_max + 1))
    s = int(rng.integers(1, 4))
    c = int(rng.integers(2, 5))
    views = []
    for _ in range(s):
        d = int(rng.integers(1, 7))
        centers = rng.uniform(1.0, 10.0, size=(c, d))
        assign = rng.integers(0, c, size=n)
        spread = rng.uniform(0.2, 1.0)
        X = np.abs(centers[assign] + rng.normal(0.0, spread, size=(n, d))) + 0.1
        if d >= 2 and rng.random() < 0.15:
            X[:, -1] = rng.uniform(0.5, 2.0)
        views.append(X)
    # the draws that once picked the two entropy temperatures, kept in order
    # so that a seeded rng yields the same problems as when they were settings
    if rng.random() >= 0.7:
        rng.uniform(0.8, 2.5)
    rng.uniform(0.005, 0.04)
    params = HyperParams(
        c=c,
        t_max=int(rng.integers(3, 15)),
        epsilon=0.0,
        seed=int(rng.integers(0, 2**31)),
    )
    return MultiViewDataset(views), params


def perturb_simplex(arr, rng, magnitude=1e-3):
    """Feasible neighbour of a simplex-constrained array (rows renormalized)."""
    step = rng.uniform(-magnitude, magnitude, size=arr.shape)
    out = np.clip(arr + step, 0.0, None)
    total = out.sum(axis=-1, keepdims=True)
    flat = total == 0
    if flat.any():
        out = np.where(np.broadcast_to(flat, out.shape), 1.0, out)
        total = out.sum(axis=-1, keepdims=True)
    return out / total


def assert_trace_non_increasing(trace, rel_slack=1e-9):
    trace = np.asarray(trace, dtype=float)
    for t in range(1, trace.size):
        allowed = rel_slack * max(1.0, abs(trace[t - 1]))
        assert trace[t] <= trace[t - 1] + allowed, (
            f"objective rose at step {t}: {trace[t - 1]} -> {trace[t]}"
        )


def trace_segments(trace, pruning_iterations):
    """Split a trace at pruning events; descent is only promised inside segments.

    ``trace[t]`` is the objective after iteration t (entry 0 is the
    initialization), and a pruning event at iteration t changes the search
    space between trace[t - 1] and trace[t].
    """
    trace = np.asarray(trace, dtype=float)
    cuts = sorted(set(int(t) for t in pruning_iterations))
    segments = []
    start = 0
    for t in cuts:
        if t > start:
            segments.append(trace[start:t])
        start = t
    segments.append(trace[start:])
    return [seg for seg in segments if seg.size >= 2]


def weighted_distance(views, model, delta, i, k, h) -> float:
    """Scalar weighted squared distance of sample i to center k in view h."""
    X, A = _views_of(views)[h], model.centers[h]
    scale = model.feature_weights[h] * delta[h]
    return float(scale @ (X[i] - A[k]) ** 2)


def per_view_distances_exact(views, model, delta):
    """Per-view distance matrices from the (n, c, d) squared-difference tensor.

    Oracle for the logits of the solver's kernel ``amvfcm._sweep`` (reached
    through ``per_view_distances``), which expands the square on centred data
    instead of materializing every difference.
    """
    out = []
    for X, A, w, dlt in zip(_views_of(views), model.centers, model.feature_weights, delta):
        out.append(((X[:, None, :] - A[None, :, :]) ** 2) @ (w * dlt))
    return out


def _split(stacked, view_of, axis=-1):
    # the per-view pieces of an array over the stacked columns
    return np.split(stacked, amvfcm._view_starts(view_of)[1:], axis=axis)


def sweep(Ac, S, XcT):
    """fit's kernel over all n samples in one block: (U, peak, logits, G, mass, entropy).

    One block leaves the kernel's (c, n) buffer holding the logits shifted
    by each sample's peak, so adding the peak back gives the logits.
    """
    c, n = Ac.shape[0], XcT.shape[1]
    U, peak, L = np.empty((c, n)), np.empty(n), np.empty((c, n))
    G, mass, entropy = amvfcm._sweep(Ac, S, XcT, U, peak, L)
    return U, peak, L + peak, G, mass, entropy


def cluster_sums(U, XcT):
    """G = U Xc (c, D) and the masses (c,) of any (c, n) memberships U."""
    return U @ XcT.T, U.sum(axis=1)


def _sweep_of(views, model, delta, view_weights):
    # fit's stacked memberships and logits at these view weights, and the
    # scales and stack that rebuild the distances from them
    XcT, m, _, view_of = amvfcm._stack(_views_of(views))
    S = view_weights[view_of] * np.concatenate(model.feature_weights) * np.concatenate(delta)
    U, _, L, _, _, _ = sweep(np.hstack(model.centers) - m, S, XcT)
    return U, L, S, XcT


def _distances(views, model, delta, view_weights):
    _, L, S, XcT = _sweep_of(views, model, delta, view_weights)
    return (S @ (XcT * XcT) - L).T


def per_view_distances(views, model, delta):
    """Per-view (n, c) matrices of sum_j w_j delta_j (x_ij - a_kj)^2, from fit's logits."""
    views = _views_of(views)
    return [_distances([X], dataclasses.replace(model, centers=[A], feature_weights=[w]),
                       [dlt], np.ones(1))
            for X, A, w, dlt in zip(views, model.centers, model.feature_weights, delta)]


def aggregate_distances(views, model, delta):
    """View-weighted sum of the per-view distance matrices, shape (n, c)."""
    return _distances(views, model, delta, model.view_weights)


def _feature_costs(views, model, delta):
    # fit's feature costs at the model's memberships and centers, and the
    # view index of each stacked column
    XcT, m, _, view_of = amvfcm._stack(_views_of(views))
    U = np.ascontiguousarray(model.membership.T)
    G, mass = cluster_sums(U, XcT)
    sq = (XcT * XcT) @ U.sum(axis=0)
    E = amvfcm._feature_costs(G, np.hstack(model.centers) - m, mass, sq, np.concatenate(delta))
    return E, view_of


def update_feature_weights(views, model, delta, eta):
    """Exact W-block minimizer: weights proportional to (1/delta_j) exp(-v_h E_j / eta)."""
    E, view_of = _feature_costs(views, model, delta)
    dlt = np.concatenate(delta)
    w = amvfcm._feature_weights(E, dlt, view_of, model.view_weights, eta,
                                amvfcm._view_starts(view_of), -np.log(dlt))
    return _split(w, view_of)


def view_costs(views, model, delta):
    """Membership-weighted total distortion per view, shape (s,)."""
    E, view_of = _feature_costs(views, model, delta)
    return np.bincount(view_of, np.concatenate(model.feature_weights) * E)


def objective(views, model, delta, beta, eta) -> float:
    """Joint objective; beta = eta = 0 gives distortion plus membership entropy."""
    return amvfcm._objective_given_costs(
        view_costs(views, model, delta), _xlogx(model.membership), model.view_weights,
        np.concatenate(model.feature_weights), np.concatenate(delta), beta, eta)


def _xlogx(p):
    # sum of p*log(p) with the 0*log(0) = 0 convention, for any memberships
    logp = np.log(p, out=np.zeros_like(p), where=p > 0)
    return float(np.vdot(p, logp))


def _softmax_rows(logits):
    """Softmax of each row of an (n, c) array, shifted by the row's largest entry."""
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def update_membership(views, model, delta):
    """Row-wise softmax of negative aggregate distances; exact U-block minimizer.

    Max-subtraction keeps the exponentials stable, so adding a constant to
    every cluster's aggregate distance leaves the result unchanged.
    """
    return _sweep_of(views, model, delta, model.view_weights)[0].T


def _centers_with_reseed(views, membership, agg_dist):
    """Center update on (n, c) memberships; empty clusters go to the worst served.

    The kernel ranks samples by their smallest aggregate distance, the row
    term at scales S less the peak logit; with S = 0 and the peak at minus
    the smallest of ``agg_dist``, it ranks by ``agg_dist`` itself.
    """
    XcT, m, _, view_of = amvfcm._stack(_views_of(views))
    G, mass = cluster_sums(np.ascontiguousarray(membership.T), XcT)
    Ac = amvfcm._centers_with_reseed(G, mass, XcT, np.zeros(len(m)), -agg_dist.min(axis=1))
    return _split(Ac + m, view_of)


def update_centers(views, membership):
    """Membership-weighted mean of each view's samples, per cluster.

    The dispersion and weight factors cancel out of the center stationarity
    condition, so this is a plain weighted mean. Requires every membership
    column to have positive mass.
    """
    colsum = membership.sum(axis=0)
    return [(membership.T @ X) / colsum[:, None] for X in _views_of(views)]


def validate_model(views, model, tol=1e-9):
    """Assert the simplex and range invariants; for tests and debugging."""
    U = model.membership
    assert np.all(U >= -tol) and np.all(U <= 1 + tol)
    assert np.allclose(U.sum(axis=1), 1.0, atol=tol)
    for w in model.feature_weights:
        assert np.all(w >= -tol) and np.all(w <= 1 + tol)
        assert abs(w.sum() - 1.0) <= tol
    v = model.view_weights
    assert np.all(v >= -tol) and np.all(v <= 1 + tol)
    assert abs(v.sum() - 1.0) <= tol
    for X, A in zip(_views_of(views), model.centers):
        lo, hi = X.min(axis=0), X.max(axis=0)
        assert np.all(A >= lo - tol) and np.all(A <= hi + tol)


def _greedy_spread(Z, c, rng, trials):
    # one greedy k-means++ pass; returns the picked row indices
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
    return chosen


def deltas_of(views):
    """Default-clamp dispersion ratios of each view, as a fit computes them."""
    return compute_delta(MultiViewDataset(_views_of(views)))


def init_centers(data, c, seed, delta):
    """Initial per-view centers: fit's seeding on the views' own stack."""
    views = _views_of(data)
    XcT, _, _, view_of = amvfcm._stack(views)
    dlt = np.concatenate(delta)
    chosen = amvfcm.init_centers(XcT, dlt, view_of, c, seed,
                                 amvfcm._seeding_norms(XcT, dlt, view_of))
    return [X[chosen].copy() for X in views]


def init_centers_exact(data, c, seed, delta):
    """Seeding that ranks candidates by exact distances; oracle for init_centers.

    Same delta metric, random stream and "lowest potential wins, first on
    ties" rule, but each greedy step materializes every candidate's squared
    distances as one (n, trials, D) tensor.
    """
    views = _views_of(data)
    stacked = np.hstack(views)
    scale = np.sqrt(np.concatenate([dlt / dlt.size for dlt in delta]))
    Z = (stacked - stacked.mean(axis=0)) * scale
    trials = max(10, 2 + int(math.log(c)))
    chosen = _greedy_spread(Z, c, np.random.default_rng(seed), trials)
    return [X[chosen].copy() for X in views]


def prune_features_per_view(iteration, feature_weights, n, feature_masks):
    """The pruning hook written view by view; oracle for ``prune_features``.

    ``feature_weights`` holds one weight vector per live view, in order (a
    view lives while its column mask has a True); ``feature_masks`` holds one
    boolean column mask per original view and is updated in place. Returns
    the keep-vector over the concatenated weights (None when nothing goes),
    the removal events and the text of the last-feature warning (None
    without one).
    """
    active = [h for h, m in enumerate(feature_masks) if m.any()]
    low = [w < w.size / n for w in feature_weights]
    message, events = None, []
    if all(lo.all() for lo in low):
        keep = int(np.argmax(feature_weights[-1]))
        low[-1][keep] = False
        column = np.flatnonzero(feature_masks[active[-1]])[keep]
        message = (f"pruning would remove the last active feature; retaining "
                   f"feature {column} of view {active[-1]}")
    if not any(lo.any() for lo in low):
        return None, events, message
    for h, lo in zip(active, low):
        cols = np.flatnonzero(feature_masks[h])[lo]
        feature_masks[h][cols] = False
        events.extend(RemovalEvent(iteration, "feature", h, int(j)) for j in cols)
    for h, lo in zip(active, low):
        if lo.all():
            events.append(RemovalEvent(iteration, "view", h, None))
    return ~np.concatenate(low), events, message


def scan_matrix(path):
    """Line-by-line CSV parse; oracle for the dataset reader of view files.

    Blank lines are skipped, cells are split on commas and stripped, and
    each cell goes through ``float``. Errors name the file and 1-based line.
    """
    rows, width = [], None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = [c.strip() for c in line.split(",")]
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise MatrixFormatError(
                    path, line_no, f"expected {width} columns, found {len(cells)}"
                )
            try:
                rows.append([float(c) for c in cells])
            except ValueError:
                raise MatrixFormatError(path, line_no, "non-numeric cell") from None
    if not rows:
        raise EmptyDatasetError(f"view file is empty: {path}")
    return np.asarray(rows, dtype=float)


def scan_labels(path):
    """One ``int`` per non-blank line, 1-based files shifted down; label oracle."""
    values = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise MatrixFormatError(path, line_no, "non-integer label") from None
    if not values:
        raise EmptyDatasetError(f"label file is empty: {path}")
    lab = np.asarray(values, dtype=int)
    return lab - 1 if lab.min() == 1 else lab


def load_dataset_by_scan(manifest_path):
    """``load_dataset`` with every file parsed by the line scans above."""
    spec = parse_manifest(manifest_path)
    base = manifest_path.parent
    views = [scan_matrix(base / rel) for rel in spec["views"]]
    labels = scan_labels(base / spec["labels"]) if spec["labels"] else None
    dataset = MultiViewDataset(views, labels)
    validate(dataset)
    return dataset


def count_loadtxt(monkeypatch):
    """The list of paths ``np.loadtxt`` is called on from now on, kept current."""
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt",
                        lambda path, *a, **k: calls.append(path) or loadtxt(path, *a, **k))
    return calls


def fit_threads(monkeypatch, solver, meet=1):
    """The thread ident of each ``solver.fit`` call from now on, kept current.

    The first ``meet`` calls wait for each other before they fit, so a pool
    that runs every trial on one thread fails at the barrier instead of
    passing on one thread. With ``meet > 1`` the process reports ``meet``
    usable CPUs, so that the pool, capped at the CPUs, starts its threads on
    a machine or under an affinity mask with fewer.
    """
    idents, lock, barrier, fit = [], threading.Lock(), threading.Barrier(meet), solver.fit
    if meet > 1:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(meet)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: meet)

    def recording(*args):
        with lock:
            idents.append(threading.get_ident())
            first = len(idents) <= meet
        if first:
            barrier.wait(timeout=60)
        return fit(*args)

    monkeypatch.setattr(solver, "fit", recording)
    return idents
