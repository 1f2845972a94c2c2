"""Shared helpers for the test suite: random instances, descent checks, oracles.

The oracles state single block updates and the model invariants on their
own, apart from the solver loop that fuses them. The block calls
(``per_view_distances`` through ``objective``) are compositions of the
solver's private kernels with no arithmetic of their own, so a test that
calls them exercises exactly what ``fit`` runs.
"""

import math

import numpy as np

from mvclust.amvfcm import (
    HyperParams,
    _centred,
    _costs_given_distances,
    _distances_of,
    _feature_weights,
    _objective_given_costs,
    _softmax_rows,
    _views_of,
    _weighted_sum,
)
from mvclust.data import (
    EmptyDatasetError,
    MatrixFormatError,
    MultiViewDataset,
    parse_manifest,
    validate,
)
from mvclust.snr import column_deltas


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
    if rng.random() < 0.7:
        beta = None
    else:
        beta = float(np.mean([v.shape[1] for v in views]) / n * rng.uniform(0.8, 2.5))
    params = HyperParams(
        c=c,
        eta=float(rng.uniform(0.005, 0.04)),
        beta=beta,
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

    Oracle for the solver's distance kernel ``amvfcm._distances`` (reached
    through ``per_view_distances``), which expands the square on centred data
    instead of materializing every difference.
    """
    out = []
    for X, A, w, dlt in zip(_views_of(views), model.centers, model.feature_weights, delta):
        out.append(((X[:, None, :] - A[None, :, :]) ** 2) @ (w * dlt))
    return out


def per_view_distances(views, model, delta):
    """Per-view (n, c) matrices of sum_j w_j delta_j (x_ij - a_kj)^2, as fit builds them."""
    return _distances_of([_centred(X) for X in _views_of(views)], model, delta)


def aggregate_distances(views, model, delta):
    """View-weighted sum of the per-view distance matrices, shape (n, c)."""
    return _weighted_sum(per_view_distances(views, model, delta), model.view_weights)


def update_feature_weights(views, model, delta, eta):
    """Exact W-block minimizer: weights proportional to (1/delta_j) exp(-v_h E_j / eta)."""
    cviews = [_centred(X) for X in _views_of(views)]
    return _feature_weights(cviews, model, delta, eta)


def view_costs(views, model, delta):
    """Membership-weighted total distortion per view, shape (s,)."""
    return _costs_given_distances(per_view_distances(views, model, delta), model.membership)


def objective(views, model, delta, beta, eta) -> float:
    """Joint objective; beta = eta = 0 gives distortion plus membership entropy."""
    return _objective_given_costs(view_costs(views, model, delta), model, delta, beta, eta)


def update_membership(views, model, delta):
    """Row-wise softmax of negative aggregate distances; exact U-block minimizer.

    Max-subtraction keeps the exponentials stable, so adding a constant to
    every cluster's aggregate distance leaves the result unchanged.
    """
    T = aggregate_distances(_views_of(views), model, delta)
    return _softmax_rows(-T)


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
    return [column_deltas(X) for X in _views_of(views)]


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
