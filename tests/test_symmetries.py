"""Symmetries that the model has by construction, checked on both solvers.

Permuting the views, the columns of one view, or the rows, relabels the
problem and nothing else, so a fit of the permuted problem is the permuted
fit. Seeding draws sample indices, so the row property seeds the permuted
fit with the original fit's picks, mapped to where the permutation put
them; the rest of the fit has no notion of a sample's position. The
stacking order changes the order of the sums inside a fit, so weights,
centers and δ are compared within a tolerance, not bitwise, and hard labels
only where a sample's largest membership leads its next by MARGIN. Only the
column moments are exact: each column's sum of squares sees only its own
row of the stack, so a column permutation permutes compute_delta bit for bit.
"""

import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from mvclust import amvfcm, compute_delta, fit_full, fit_pruning
from mvclust.data import MultiViewDataset

RTOL, ATOL = 1e-7, 1e-9
MARGIN = 1e-6
SOLVERS = (fit_full, fit_pruning)


def _fit(solver, ds, params):
    # the fit, or None when it warned: the last-feature guard keeps a feature
    # of the last active view, which depends on the order of the views
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = solver(ds, params)
    return None if caught else res


def _events(res, view=lambda h: h, feature=lambda h, j: j):
    # the removal events with their view and column ids mapped, in one order
    return sorted((ev.iteration, ev.kind, view(ev.view),
                   -1 if ev.feature is None else feature(ev.view, ev.feature))
                  for ev in res.mask.removals)


def _assert_labels_where_clear(got, want, rows=slice(None)):
    # hard labels agree wherever the leading membership is clear of the next;
    # sample i of want is sample rows[i] of got
    top2 = np.sort(want.model.membership, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > MARGIN
    np.testing.assert_array_equal(got.hard_labels[rows][clear], want.hard_labels[clear])


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def _close_traces(got, want):
    # with epsilon = 0 a fit stops when two objectives are equal to the bit,
    # which rounding decides, so the traces are compared where both run
    steps = min(got.objective_trace.size, want.objective_trace.size)
    _close(got.objective_trace[:steps], want.objective_trace[:steps])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_permuting_the_views_permutes_the_fit(seed):
    rng = np.random.default_rng(seed)
    ds, params = support.random_instance(rng)
    perm = rng.permutation(ds.n_views)  # view k of the permuted problem is view perm[k]
    permuted = MultiViewDataset([ds.views[p] for p in perm])
    for solver in SOLVERS:
        res, res_p = _fit(solver, ds, params), _fit(solver, permuted, params)
        if res is None or res_p is None:
            continue
        assert res_p.mask.active_dims == [res.mask.active_dims[p] for p in perm]
        assert _events(res_p, view=lambda k: int(perm[k])) == _events(res)
        active = res.mask.active_views()
        pos = [active.index(perm[k]) for k in res_p.mask.active_views()]
        _close(res_p.model.view_weights, res.model.view_weights[pos])
        for i, j in enumerate(pos):
            _close(res_p.delta[i], res.delta[j])
            _close(res_p.model.feature_weights[i], res.model.feature_weights[j])
            _close(res_p.model.centers[i], res.model.centers[j])
        _close_traces(res_p, res)
        _assert_labels_where_clear(res_p, res)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_permuting_the_columns_of_a_view_permutes_the_fit(seed):
    rng = np.random.default_rng(seed)
    ds, params = support.random_instance(rng)
    h = int(rng.integers(ds.n_views))
    perm = rng.permutation(ds.dims[h])  # column j of the permuted view is column perm[j]
    permuted = MultiViewDataset([X[:, perm] if k == h else X for k, X in enumerate(ds.views)])
    delta, delta_p = compute_delta(ds), compute_delta(permuted)
    for k, (got, want) in enumerate(zip(delta_p, delta, strict=True)):
        assert got.tobytes() == (want[perm] if k == h else want).tobytes()
    for solver in SOLVERS:
        res, res_p = _fit(solver, ds, params), _fit(solver, permuted, params)
        if res is None or res_p is None:
            continue
        assert _events(res_p, feature=lambda k, j: int(perm[j]) if k == h else j) == _events(res)
        assert res_p.mask.active_dims == res.mask.active_dims
        _close(res_p.model.view_weights, res.model.view_weights)
        for i, k in enumerate(res.mask.active_views()):
            order = slice(None)
            if k == h:  # the permuted fit's surviving columns, at their place in the fit
                cols = res.mask.active_columns(h)
                order = np.searchsorted(cols, perm[res_p.mask.active_columns(h)])
            _close(res_p.delta[i], res.delta[i][order])
            _close(res_p.model.feature_weights[i], res.model.feature_weights[i][order])
            _close(res_p.model.centers[i], res.model.centers[i][:, order])
        _close_traces(res_p, res)
        _assert_labels_where_clear(res_p, res)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_permuting_the_rows_permutes_the_fit(seed):
    rng = np.random.default_rng(seed)
    ds, params = support.random_instance(rng)
    perm = rng.permutation(ds.n_samples)  # row i of the permuted problem is row perm[i]
    permuted = MultiViewDataset([X[perm] for X in ds.views])
    where = np.argsort(perm)  # row p of the problem is row where[p] of the permuted one
    real_init, picks = amvfcm.init_centers, []

    def recorded(*args):
        picks[:] = real_init(*args)
        return list(picks)

    for solver in SOLVERS:
        with mock.patch.object(amvfcm, "init_centers", recorded):
            res = _fit(solver, ds, params)
        with mock.patch.object(amvfcm, "init_centers",
                               lambda *args: [int(where[p]) for p in picks]):
            res_p = _fit(solver, permuted, params)
        if res is None or res_p is None:
            continue
        assert _events(res_p) == _events(res)
        assert res_p.mask.active_dims == res.mask.active_dims
        _close(res_p.model.view_weights, res.model.view_weights)
        for i in range(len(res.delta)):
            _close(res_p.delta[i], res.delta[i])
            _close(res_p.model.feature_weights[i], res.model.feature_weights[i])
            _close(res_p.model.centers[i], res.model.centers[i])
        _close_traces(res_p, res)
        _assert_labels_where_clear(res_p, res, rows=where)
