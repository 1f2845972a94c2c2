"""Inverse-dispersion feature weight tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvclust.data import MultiViewDataset
from mvclust.snr import CLAMP, compute_delta


def column_deltas(X):
    """The deltas of one view's columns, from a one-view dataset."""
    (delta,) = compute_delta(MultiViewDataset([X]))
    return delta


def test_column_deltas_basic_ratio():
    # mean 2 over variance 1
    out = column_deltas(np.array([[1.0], [2.0], [3.0]]))
    assert out.tolist() == [2.0]


def test_column_deltas_zero_variance_hits_ceiling():
    out = column_deltas(np.full((4, 1), 7.0))
    assert out[0] == CLAMP[1]


def test_column_deltas_nonpositive_mean_hits_floor():
    lo = CLAMP[0]
    zero_mean = np.array([[-1.0], [1.0]])
    assert column_deltas(zero_mean)[0] == lo
    negative_mean = np.array([[-3.0], [-1.0]])
    assert column_deltas(negative_mean)[0] == lo


def test_column_deltas_needs_two_rows():
    with pytest.raises(ValueError):
        column_deltas(np.array([[1.0, 2.0]]))


def test_scale_covariance():
    # column times lambda divides delta by lambda (mean scales once,
    # variance twice), away from the clamp
    rng = np.random.default_rng(0)
    X = rng.uniform(1.0, 2.0, size=(50, 3))
    base = column_deltas(X)
    for lam in (0.5, 2.0, 10.0):
        scaled = column_deltas(lam * X)
        np.testing.assert_allclose(scaled, base / lam, rtol=1e-12)


@given(st.floats(0.1, 10.0), st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_scale_covariance_hypothesis(lam, seed):
    X = np.random.default_rng(seed).uniform(1.0, 3.0, size=(20, 2))
    np.testing.assert_allclose(column_deltas(lam * X), column_deltas(X) / lam, rtol=1e-9)


def test_compute_delta_per_view_and_data_only():
    rng = np.random.default_rng(1)
    ds = MultiViewDataset([rng.uniform(1, 2, (30, 2)), rng.uniform(1, 2, (30, 4))])
    deltas = compute_delta(ds)
    assert [d.shape[0] for d in deltas] == [2, 4]
    for d in deltas:
        assert (d > 0).all() and np.isfinite(d).all()
    # pure function of the data
    again = compute_delta(ds)
    for a, b in zip(deltas, again):
        np.testing.assert_array_equal(a, b)


def test_restriction_commutes_with_delta():
    rng = np.random.default_rng(2)
    ds = MultiViewDataset([rng.uniform(1, 2, (40, 5)), rng.uniform(1, 2, (40, 3))])
    full = compute_delta(ds)
    keep = [np.array([0, 3, 4]), np.array([1])]
    sub = compute_delta(MultiViewDataset([X[:, cols] for X, cols in zip(ds.views, keep)]))
    # reduction order over a restricted copy can differ in the last ulp
    np.testing.assert_allclose(sub[0], full[0][keep[0]], rtol=1e-12)
    np.testing.assert_allclose(sub[1], full[1][keep[1]], rtol=1e-12)
