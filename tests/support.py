"""Shared helpers for the test suite: random instances, descent checks, oracles.

The oracles state single block updates and the model invariants on their
own, apart from the solver loop that fuses them.
"""

import numpy as np

from mvclust.amvfcm import HyperParams, _softmax_rows, _views_of, aggregate_distances
from mvclust.data import MultiViewDataset


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
