"""Unit tests for the full solver: block updates, objective, seeding, fit."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from support import (
    aggregate_distances,
    init_centers,
    objective,
    per_view_distances,
    update_centers,
    update_feature_weights,
    update_membership,
    validate_model,
    view_costs,
    weighted_distance,
)
from mvclust import amvfcm, fit_full, fit_pruning
from mvclust.amvfcm import (
    ClusterModel,
    HyperParams,
    _temperatures,
    entropic_simplex_argmin,
    fit,
)
from mvclust.data import MultiViewDataset
from mvclust.metrics import score_all
from mvclust.snr import CLAMP, compute_delta
from mvclust.synth import GmmSpec, NoiseSpec, append_noise, default_benchmark_spec, generate


def single_view_model(X, centers, w=None, v=None):
    d = X.shape[1]
    return ClusterModel(
        membership=np.empty((X.shape[0], len(centers))),
        centers=[np.asarray(centers, dtype=float)],
        feature_weights=[np.full(d, 1.0 / d) if w is None else np.asarray(w, float)],
        view_weights=np.ones(1) if v is None else np.asarray(v, float),
    )


# ----------------------------------------------------------------- distances


def test_weighted_distance_zero_at_center():
    X = np.array([[2.0, 3.0]])
    model = single_view_model(X, [[2.0, 3.0]])
    assert weighted_distance([X], model, [np.ones(2)], 0, 0, 0) == 0.0


def test_weighted_distance_hand_example():
    # w=[1,0], dispersion [2,5], offsets [3,9]: only 1*2*9 contributes
    X = np.array([[4.0, 10.0]])
    model = single_view_model(X, [[1.0, 1.0]], w=[1.0, 0.0])
    got = weighted_distance([X], model, [np.array([2.0, 5.0])], 0, 0, 0)
    assert got == pytest.approx(18.0)


def test_weighted_distance_uniform_weights_scale_euclidean():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 4))
    A = rng.normal(size=(3, 4))
    model = single_view_model(X, A)
    for i in (0, 2):
        for k in (0, 1, 2):
            expect = np.sum((X[i] - A[k]) ** 2) / 4
            got = weighted_distance([X], model, [np.ones(4)], i, k, 0)
            assert got == pytest.approx(expect)


def _random_model(views, c, rng, seeded):
    n = views[0].shape[0]
    if seeded:
        # centers on data rows: some distances are exactly zero
        centers = init_centers(views, c, int(rng.integers(100)), support.deltas_of(views))
    else:
        centers = update_centers(views, rng.dirichlet(np.ones(c), size=n))
    return ClusterModel(
        membership=np.empty((n, c)),
        centers=centers,
        feature_weights=[rng.dirichlet(np.ones(X.shape[1])) for X in views],
        view_weights=np.full(len(views), 1.0 / len(views)),
    )


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_per_view_distances_match_tensor_oracle(offset):
    # the logits plus the per-sample term they drop rebuild the distances on
    # centred data; uncentred, the same kernels lose them to cancellation once
    # the data sit far from the origin
    rng = np.random.default_rng(41)
    worst = uncentred_worst = 0.0
    for i in range(200):
        ds, params = support.random_instance(rng, n_max=120)
        views = [X + offset for X in ds.views]
        model = _random_model(views, params.c, rng, seeded=i % 2 == 0)
        delta = [rng.uniform(0.1, 10.0, X.shape[1]) for X in views]
        got = per_view_distances(views, model, delta)
        want = support.per_view_distances_exact(views, model, delta)
        for X, A, w, dlt, G, W in zip(views, model.centers, model.feature_weights,
                                      delta, got, want, strict=True):
            scale = W.max()
            worst = max(worst, np.abs(G - W).max() / scale)
            XT = np.ascontiguousarray(X.T)
            uncentred = ((w * dlt) @ (XT * XT) - support.sweep(A, w * dlt, XT)[2]).T
            uncentred_worst = max(uncentred_worst, np.abs(uncentred - W).max() / scale)
    assert worst <= 1e-12
    if offset:
        assert uncentred_worst > 1e-12


def test_stack_is_c_ordered_feature_major_with_the_variance_sums():
    # each iteration's pass streams its rows; ss is the two-pass rule, each
    # row's squares summed, exactly as recomputed from a fresh centred copy,
    # and np.var's unbiased variances within rounding, a one-column view
    # included, at two blocks of BLOCK_CELLS / (10 D) samples and three more
    rng = np.random.default_rng(45)
    n = 2 * (amvfcm.BLOCK_CELLS // (10 * 6)) + 3
    views = [rng.uniform(1, 9, (n, 3)), rng.uniform(1, 9, (n, 1)), rng.uniform(1, 9, (n, 2))]
    XcT, m, ss, view_of = amvfcm._stack(views)
    assert XcT.shape == (6, n) and XcT.flags.c_contiguous
    fresh = np.ascontiguousarray((np.hstack(views) - m).T)
    assert XcT.tobytes() == fresh.tobytes()
    np.testing.assert_array_equal(view_of, [0, 0, 0, 1, 2, 2])
    assert ss.tobytes() == np.einsum("ji,ji->j", fresh, fresh).tobytes()
    want = np.concatenate([X.var(axis=0, ddof=1) for X in views])
    np.testing.assert_allclose(ss / (n - 1), want, rtol=1e-13)


def test_weight_and_distance_pass_needs_no_tensor():
    # one (n, c, d) float64 tensor: 20,000 x 5 x 12 x 8 bytes = 9.6 MB
    n, c, d = 20_000, 5, 12
    rng = np.random.default_rng(42)
    views = [rng.uniform(0.5, 9.0, (n, d)), rng.uniform(0.5, 9.0, (n, d))]
    model = _random_model(views, c, rng, seeded=True)
    delta = [np.ones(d), np.ones(d)]
    XcT, m, ss, view_of = amvfcm._stack(views)
    Ac = np.hstack(model.centers) - m
    dlt, v = np.concatenate(delta), model.view_weights
    U, peak, L = np.empty((c, n)), np.empty(n), amvfcm._logit_buffer(c, XcT)
    tracemalloc.start()
    try:
        S = v[view_of] * np.concatenate(model.feature_weights) * dlt
        G, mass, _ = amvfcm._sweep(Ac, S, XcT, U, peak, L)
        Ac = amvfcm._centers_with_reseed(G, mass, XcT, S, peak)
        E = amvfcm._feature_costs(G, Ac, mass, ss, dlt)
        w = amvfcm._feature_weights(E, dlt, view_of, v, eta=1.0)
        np.bincount(view_of, w * E)
        _, peak_bytes = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak_bytes < n * c * d * 8


@pytest.mark.parametrize("solver", [fit_full, fit_pruning])
def test_fit_holds_one_copy_of_the_data(solver):
    # n = 40k, D = 12, c = 5: the (D, n) stack is 3.84 MB and a (c, n) array
    # 1.6 MB. A fit holds the stack, the (c, n) memberships and blocks, then
    # the memberships and their (n, c) copy once the stack is freed; a scaled
    # copy of the stack for seeding, or a second stack from a pruning step,
    # would not fit under the bound. One near-constant column per view is
    # pruned in the first iteration
    n, c = 40_000, 5
    rng = np.random.default_rng(46)
    ds = append_noise(generate(default_benchmark_spec(n, seed=0)),
                      NoiseSpec(features_per_view=3), seed=0)
    ds = MultiViewDataset([np.hstack([X, rng.uniform(1000.0, 1000.01, (n, 1))])
                           for X in ds.views], ds.labels)
    width = sum(ds.dims)
    assert width == 12
    # a first fit also imports numpy's lazily loaded modules
    solver(MultiViewDataset([X[:500] for X in ds.views], ds.labels[:500]), HyperParams(c=c))
    tracemalloc.start()
    try:
        res = solver(ds, HyperParams(c=c))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.mask.active_dims == ([6, 6] if solver is fit_full else [5, 5])
    assert peak < (width + 2 * c) * n * 8


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_feature_costs_match_tensor_oracle(offset):
    # E_j = delta_j sum_ik mu_ik (x_ij - a_kj)^2 from the (c, D) cluster sums
    rng = np.random.default_rng(43)
    worst = 0.0
    for i in range(200):
        ds, params = support.random_instance(rng, n_max=120)
        views = [X + offset for X in ds.views]
        model = _random_model(views, params.c, rng, seeded=i % 2 == 0)
        U = rng.dirichlet(np.ones(params.c), size=views[0].shape[0])
        delta = [rng.uniform(0.1, 10.0, X.shape[1]) for X in views]
        XcT, m, ss, view_of = amvfcm._stack(views)
        G, mass = support.cluster_sums(np.ascontiguousarray(U.T), XcT)
        E = amvfcm._feature_costs(G, np.hstack(model.centers) - m, mass, ss,
                                  np.concatenate(delta))
        for X, A, dlt, got in zip(views, model.centers, delta, support._split(E, view_of),
                                  strict=True):
            want = dlt * np.einsum("ik,ikj->j", U, (X[:, None, :] - A[None, :, :]) ** 2)
            worst = max(worst, np.abs(got - want).max() / want.max())
    assert worst <= 1e-12


@pytest.mark.parametrize("offset", [0.0, 1e6])
def test_sweep_entropy_matches_the_einsum_form(offset):
    # sum u log u from the sums G and the masses against the einsum over the
    # (c, n) memberships and shifted logits. The error is taken relative to
    # the scale of the logits, sum_ik u_ik |L_ik|: on a nearly hard partition
    # the entropy itself is tiny beside the sums it is taken from
    rng = np.random.default_rng(47)
    worst = 0.0
    for i in range(200):
        ds, params = support.random_instance(rng, n_max=120)
        views = [X + offset for X in ds.views]
        model = _random_model(views, params.c, rng, seeded=i % 2 == 0)
        delta = [rng.uniform(0.1, 10.0, X.shape[1]) for X in views]
        XcT, m, _, view_of = amvfcm._stack(views)
        S = (model.view_weights[view_of] * np.concatenate(model.feature_weights)
             * np.concatenate(delta))
        U, peak, L, _, _, entropy = support.sweep(np.hstack(model.centers) - m, S, XcT)
        shifted = L - peak
        want = np.einsum("kn,kn->", U, shifted) - np.log(np.exp(shifted).sum(axis=0)).sum()
        worst = max(worst, abs(entropy - want) / np.abs(U * L).sum())
    assert worst <= 1e-12


@pytest.mark.parametrize("c", [2, 5, 20])
def test_hard_labels_are_the_first_largest_membership(c):
    rng = np.random.default_rng(48 + c)
    for trial in range(30):
        n = int(rng.integers(1, 400))
        # a few distinct values in half the draws, so exact ties are common
        U = (rng.integers(0, 3, size=(c, n)) / 3.0 if trial % 2
             else rng.dirichlet(np.ones(c), size=n).T.copy())
        want = np.argmax(U, axis=0)
        got = amvfcm._hard_labels(U)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def test_empty_clusters_reseed_at_the_worst_served_samples():
    # worst served = largest smallest aggregate distance, from the tensor oracle
    rng = np.random.default_rng(44)
    for _ in range(20):
        n, c = 60, 4
        views = [rng.uniform(1.0, 9.0, (n, 3)), rng.uniform(1.0, 9.0, (n, 2))]
        model = _random_model(views, c, rng, seeded=False)
        model.view_weights = rng.dirichlet(np.ones(2))
        delta = [rng.uniform(0.1, 10.0, X.shape[1]) for X in views]
        exact = sum(v * D for v, D in zip(
            model.view_weights, support.per_view_distances_exact(views, model, delta)))
        worst_first = np.argsort(exact.min(axis=1))[::-1]
        XcT, m, _, view_of = amvfcm._stack(views)
        S = (model.view_weights[view_of] * np.concatenate(model.feature_weights)
             * np.concatenate(delta))
        peak = support.sweep(np.hstack(model.centers) - m, S, XcT)[1]
        # clusters 1 and 3 get no mass; the others split the samples
        U = np.zeros((c, n))
        U[rng.choice([0, 2], size=n), np.arange(n)] = 1.0
        G, mass = support.cluster_sums(U, XcT)
        Ac = amvfcm._centers_with_reseed(G, mass, XcT, S, peak)
        centers = support._split(Ac + m, view_of)
        for slot, k in enumerate([1, 3]):
            np.testing.assert_array_equal(Ac[k], XcT[:, worst_first[slot]])
            for X, A in zip(views, centers, strict=True):
                np.testing.assert_allclose(A[k], X[worst_first[slot]], rtol=1e-14)


# ---------------------------------------------------------------- membership


def test_membership_uniform_when_distances_tie():
    X = np.array([[0.0]])
    model = single_view_model(X, [[1.0], [-1.0], [1.0]])
    U = update_membership([X], model, [np.ones(1)])
    np.testing.assert_allclose(U, [[1 / 3, 1 / 3, 1 / 3]])


def test_membership_log_ratio_example():
    # aggregate distances 0 and ln 3 give 3:1 odds
    X = np.array([[0.0]])
    model = single_view_model(X, [[0.0], [math.sqrt(math.log(3.0))]])
    U = update_membership([X], model, [np.ones(1)])
    np.testing.assert_allclose(U, [[0.75, 0.25]], atol=1e-12)


def test_membership_shift_invariance():
    base = np.array([0.3, 1.1, 2.4])
    shift = 7.5
    X = np.array([[0.0]])
    m0 = single_view_model(X, np.sqrt(base)[:, None])
    m1 = single_view_model(X, np.sqrt(base + shift)[:, None])
    U0 = update_membership([X], m0, [np.ones(1)])
    U1 = update_membership([X], m1, [np.ones(1)])
    np.testing.assert_allclose(U0, U1, atol=1e-12)


def test_membership_rows_on_simplex():
    rng = np.random.default_rng(1)
    X = rng.uniform(0, 50, size=(40, 3))
    model = single_view_model(X, rng.uniform(0, 50, size=(4, 3)))
    U = update_membership([X], model, [np.ones(3)])
    np.testing.assert_allclose(U.sum(axis=1), 1.0, atol=1e-12)
    assert (U >= 0).all()


def test_membership_stable_under_huge_distances():
    X = np.array([[0.0]])
    model = single_view_model(X, [[1e4], [2e4]])
    U = update_membership([X], model, [np.ones(1)])
    assert np.isfinite(U).all()
    np.testing.assert_allclose(U.sum(axis=1), 1.0)


# ------------------------------------------------------------------- centers


def test_centers_weighted_mean_example():
    X = np.array([[0.0], [3.0], [6.0]])
    U = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    (A,) = update_centers([X], U)
    np.testing.assert_allclose(A, [[1.5], [6.0]])


def test_centers_uniform_membership_gives_global_mean():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(30, 2))
    U = np.full((30, 3), 1 / 3)
    (A,) = update_centers([X], U)
    np.testing.assert_allclose(A, np.tile(X.mean(axis=0), (3, 1)), atol=1e-12)


def test_centers_one_hot_membership_gives_group_means():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 2))
    assign = rng.integers(0, 2, size=20)
    U = np.eye(2)[assign]
    (A,) = update_centers([X], U)
    for k in range(2):
        np.testing.assert_allclose(A[k], X[assign == k].mean(axis=0))


# ----------------------------------------------------------- feature weights


def test_feature_weights_uniform_on_identical_columns():
    col = np.random.default_rng(4).uniform(1, 2, size=8)
    X = np.column_stack([col, col, col])
    model = single_view_model(X, [col.mean() * np.ones(3)])
    model.membership = np.ones((8, 1))
    (w,) = update_feature_weights([X], model, [np.ones(3)], eta=1.0)
    np.testing.assert_allclose(w, 1 / 3)


def test_feature_weights_log_ratio_example():
    # cost gap ln 4 at unit dispersion and temperature gives 4:1 odds
    X = np.array([[0.0, math.sqrt(math.log(4.0))]])
    model = single_view_model(X, [[0.0, 0.0]])
    model.membership = np.ones((1, 1))
    (w,) = update_feature_weights([X], model, [np.ones(2)], eta=1.0)
    np.testing.assert_allclose(w, [0.8, 0.2], atol=1e-12)


def test_feature_weights_hot_limit_is_inverse_dispersion():
    rng = np.random.default_rng(5)
    X = rng.uniform(0, 5, size=(10, 2))
    model = single_view_model(X, rng.uniform(0, 5, size=(2, 2)))
    model.membership = np.full((10, 2), 0.5)
    dlt = np.array([2.0, 5.0])
    (w,) = update_feature_weights([X], model, [dlt], eta=1e15)
    np.testing.assert_allclose(w, (1 / dlt) / (1 / dlt).sum(), atol=1e-9)


def test_feature_weights_kernel_is_a_softmax_per_view():
    # one stacked pass equals the per-view softmax, each view shifted by its
    # own largest exponent: views whose exponents sit ~1e3 apart, and a view
    # of one column
    rng = np.random.default_rng(6)
    for widths in ([3, 1, 4], [1], [2, 5]):
        view_of = np.repeat(np.arange(len(widths)), widths)
        dlt = rng.uniform(0.1, 10.0, view_of.size)
        E = rng.uniform(0.0, 5.0, view_of.size) + 1e3 * view_of
        v = rng.dirichlet(np.ones(len(widths)))
        w = amvfcm._feature_weights(E, dlt, view_of, v, eta=0.3)
        for h, got in enumerate(support._split(w, view_of)):
            on = view_of == h
            want = amvfcm._softmax(-np.log(dlt[on]) - v[h] * E[on] / 0.3)
            np.testing.assert_allclose(got, want, rtol=1e-14)
            assert np.isfinite(got).all()
            assert got.sum() == pytest.approx(1.0, abs=1e-14)


# ----------------------------------------------- view weights and the argmin


def test_view_weights_tie_and_log_ratio():
    np.testing.assert_allclose(entropic_simplex_argmin([3.0, 3.0], 2.0), [0.5, 0.5])
    got = entropic_simplex_argmin([0.0, 2.0 * math.log(9.0)], 2.0)
    np.testing.assert_allclose(got, [0.9, 0.1], atol=1e-12)


def test_view_weights_single_view_is_one():
    np.testing.assert_allclose(entropic_simplex_argmin([5.0], 3.0), [1.0])


def heterogeneous_argmin_residual(costs, beta, v):
    # stationarity of the Lagrangian: costs_h + beta_h (log v_h + 1) constant
    g = costs + beta * (np.log(v) + 1.0)
    return np.ptp(g)


def test_entropic_argmin_heterogeneous_beta_stationarity():
    rng = np.random.default_rng(7)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        costs = rng.uniform(0, 50, size=m)
        beta = rng.uniform(0.5, 20.0, size=m)
        v = entropic_simplex_argmin(costs, beta)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert (v > 0).all()
        assert heterogeneous_argmin_residual(costs, beta, v) < 1e-8


def test_entropic_argmin_beats_dense_grid():
    costs = np.array([1.0, 4.0])
    beta = np.array([2.0, 7.0])
    v = entropic_simplex_argmin(costs, beta)

    def f(p):
        vv = np.array([p, 1.0 - p])
        return float(vv @ costs + np.sum(beta * vv * np.log(vv)))

    grid = np.linspace(1e-9, 1 - 1e-9, 200001)
    best = min(f(p) for p in grid)
    assert f(v[0]) <= best + 1e-9


def test_entropic_argmin_uniform_beta_matches_softmax():
    costs = np.array([0.3, 1.7, 0.9])
    direct = np.exp(-costs / 5.0)
    np.testing.assert_allclose(
        entropic_simplex_argmin(costs, 5.0), direct / direct.sum(), atol=1e-12
    )


def test_entropic_argmin_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        entropic_simplex_argmin([1.0, 2.0], np.array([1.0, 0.0]))


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_entropic_argmin_feasible_and_stationary_hypothesis(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    costs = rng.uniform(0, 100, size=m)
    beta = rng.uniform(0.1, 50.0, size=m)
    v = entropic_simplex_argmin(costs, beta)
    assert v.sum() == pytest.approx(1.0, abs=1e-10)
    assert heterogeneous_argmin_residual(costs, beta, v) < 1e-6


# ----------------------------------------------------------------- objective


def test_objective_zero_regularization_is_base_objective():
    rng = np.random.default_rng(8)
    X = rng.uniform(1, 3, size=(12, 2))
    U = rng.dirichlet(np.ones(3), size=12)
    model = single_view_model(X, rng.uniform(1, 3, size=(3, 2)), w=[0.6, 0.4])
    model.membership = U
    delta = [np.array([1.5, 0.7])]
    J = objective([X], model, delta, beta=0.0, eta=0.0)
    distortion = float(view_costs([X], model, delta) @ model.view_weights)
    entropy = float(np.sum(U * np.log(U)))
    assert J == pytest.approx(distortion + entropy, rel=1e-12)


def test_objective_uniform_membership_entropy_term():
    # single view, single feature, unit weight and dispersion: the weight
    # entropy terms vanish and uniform memberships add n log(1/c)
    X = np.array([[1.0], [2.0], [3.0], [4.0]])
    model = single_view_model(X, [[1.5], [3.5]])
    model.membership = np.full((4, 2), 0.5)
    delta = [np.ones(1)]
    J = objective([X], model, delta, beta=9.0, eta=4.0)
    distortion = float(view_costs([X], model, delta) @ model.view_weights)
    assert J - distortion == pytest.approx(4 * math.log(0.5), rel=1e-12)


def test_objective_handles_exact_zeros():
    X = np.array([[1.0], [5.0]])
    model = single_view_model(X, [[1.0], [5.0]])
    model.membership = np.array([[1.0, 0.0], [0.0, 1.0]])
    J = objective([X], model, [np.ones(1)], beta=1.0, eta=1.0)
    assert np.isfinite(J)
    assert J == pytest.approx(0.0, abs=1e-12)


# -------------------------------------------------------------- temperatures


def test_beta_vector_auto_and_fixed():
    # one beta per view before scaling: d_h / n, always; a fixed value is no
    # longer accepted
    from mvclust.amvfcm import TEMP_CALIBRATION

    scale = TEMP_CALIBRATION * 100
    auto, _ = _temperatures([3, 2], 100)
    np.testing.assert_allclose(auto / scale, [0.03, 0.02])
    with pytest.raises(TypeError):
        HyperParams(c=2, beta=0.05)


def test_resolve_regularization_scales_with_n():
    # per-sample values times 32 n: eta = 0.025 scales with n, beta_h = d_h / n
    # does not, so the view temperatures stay at 32 d_h while the view costs
    # grow with n and the view weights harden
    from mvclust.amvfcm import TEMP_CALIBRATION

    beta_a, eta_a = _temperatures([3, 2], 100)
    beta_b, eta_b = _temperatures([3, 2], 1000)
    np.testing.assert_allclose(beta_a, beta_b)
    np.testing.assert_allclose(beta_a, [96.0, 64.0])
    np.testing.assert_allclose(beta_a, TEMP_CALIBRATION * np.array([3.0, 2.0]))
    assert eta_b == pytest.approx(10 * eta_a)
    assert eta_a == pytest.approx(TEMP_CALIBRATION * 100 * 0.025)


# ------------------------------------------------------------------- seeding


def test_init_centers_deterministic():
    ds = generate(default_benchmark_spec(120, seed=3))
    delta = compute_delta(ds)
    a = init_centers(ds, 5, 9, delta)
    b = init_centers(ds, 5, 9, delta)
    for va, vb in zip(a, b):
        np.testing.assert_array_equal(va, vb)


def test_init_centers_c_equals_n_uses_every_point():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(6, 2))
    (A,) = init_centers([X], 6, 0, support.deltas_of([X]))
    order_a = np.lexsort(A.T)
    order_x = np.lexsort(X.T)
    np.testing.assert_allclose(A[order_a], X[order_x])


def test_init_centers_single_center_is_a_data_point():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(8, 3))
    (A,) = init_centers([X], 1, 0, support.deltas_of([X]))
    assert any(np.array_equal(A[0], row) for row in X)


def test_init_centers_rejects_bad_counts():
    X = np.ones((4, 2))
    delta = support.deltas_of([X])
    with pytest.raises(ValueError):
        init_centers([X], 5, 0, delta)
    with pytest.raises(ValueError):
        init_centers([X], 0, 0, delta)


def test_init_centers_handles_duplicate_points():
    X = np.array([[1.0, 1.0]] * 5 + [[4.0, 4.0]] * 5)
    (A,) = init_centers([X], 4, 2, support.deltas_of([X]))
    assert A.shape == (4, 2)


# ------------------------------------------------------------------ hyperval


def test_hyperparams_validation():
    with pytest.raises(ValueError):
        HyperParams(c=1)
    with pytest.raises(ValueError):
        HyperParams(c=2, t_max=0)
    with pytest.raises(ValueError):
        HyperParams(c=2, epsilon=-1.0)
    # non-finite values and negative seeds are rejected by name
    for field, bad in [("epsilon", math.inf), ("epsilon", math.nan), ("seed", -1)]:
        with pytest.raises(ValueError, match=field):
            HyperParams(c=2, **{field: bad})
    HyperParams(c=2, epsilon=0.0, seed=0)  # the bounds themselves
    with pytest.raises(TypeError):  # the temperatures are not settings
        HyperParams(c=2, eta=0.1)


def test_default_eta_quiet_on_views_of_unequal_width():
    rng = np.random.default_rng(14)
    ds = MultiViewDataset([rng.uniform(1, 2, (60, 2)), rng.uniform(1, 2, (60, 3))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_full(ds, HyperParams(c=3))


def test_fit_quiet_in_recommended_ranges():
    ds = generate(default_benchmark_spec(60, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(ds, HyperParams(c=5, t_max=2))


# ----------------------------------------------------------------------- fit


def test_fit_recovers_well_separated_clusters():
    spec = default_benchmark_spec(400, seed=1)
    spec = GmmSpec(spec.n, spec.mixing, spec.means, 0.0, seed=1)
    ds = generate(spec)
    res = fit(ds, HyperParams(c=5, seed=1))
    assert score_all(ds.labels, res.hard_labels)["ari"] == 1.0


def test_fit_single_iteration_contract():
    ds = generate(default_benchmark_spec(50, seed=2))
    res = fit(ds, HyperParams(c=5, t_max=1))
    assert res.iterations == 1
    assert res.objective_trace.shape == (2,)
    assert not res.converged
    assert len(res.iter_seconds) == 1


def test_first_iteration_time_covers_the_initial_sweep(monkeypatch):
    # iteration 1's membership update is the sweep before the loop
    pause, real_sweep = 0.05, amvfcm._sweep

    def slow_sweep(*args):
        time.sleep(pause)
        return real_sweep(*args)

    monkeypatch.setattr(amvfcm, "_sweep", slow_sweep)
    res = fit(generate(default_benchmark_spec(50, seed=2)), HyperParams(c=5, t_max=2))
    assert res.iter_seconds[0] >= pause


def test_fit_converges_on_easy_data():
    ds = generate(default_benchmark_spec(200, seed=3))
    res = fit(ds, HyperParams(c=5, seed=3))
    assert res.converged
    assert res.iterations < 100


def test_fit_deterministic():
    ds = generate(default_benchmark_spec(150, seed=4))
    params = HyperParams(c=5, seed=11)
    a, b = fit(ds, params), fit(ds, params)
    np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
    np.testing.assert_array_equal(a.hard_labels, b.hard_labels)
    np.testing.assert_array_equal(a.model.view_weights, b.model.view_weights)


def test_fit_model_invariants_and_hard_labels():
    ds = generate(default_benchmark_spec(120, seed=5))
    res = fit(ds, HyperParams(c=5, seed=5))
    validate_model(list(ds.views), res.model)
    np.testing.assert_array_equal(
        res.hard_labels, np.argmax(res.model.membership, axis=1)
    )
    np.testing.assert_array_equal(res.delta[0], compute_delta(ds)[0])


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("solver", [fit_full, fit_pruning])
def test_fit_delta_equals_compute_delta_at_both_clamp_bounds(solver):
    # a fit takes delta from its own stack; a constant column must still hit
    # the ceiling and a negative-mean one the floor, bit for bit as
    # compute_delta, the latter in a one-column view
    ds = append_noise(generate(default_benchmark_spec(120, seed=6)),
                      NoiseSpec(features_per_view=1), seed=6)
    X0, X1 = ds.views
    data = MultiViewDataset([np.column_stack([X0, np.full(120, 3.0)]), X1, -X1[:, :1]],
                            ds.labels)
    full = compute_delta(data)
    assert full[0][-1] == CLAMP[1] and full[2][0] == CLAMP[0]
    res = solver(data, HyperParams(c=5, seed=6))
    assert len(res.delta) == len(res.mask.active_views())
    for got, h in zip(res.delta, res.mask.active_views(), strict=True):
        assert got.tobytes() == full[h][res.mask.active_columns(h)].tobytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("solver", [fit_full, fit_pruning])
def test_fit_membership_is_c_contiguous_samples_by_clusters(solver):
    # the descent iterates on (c, n) memberships; the result is (n, c)
    ds = append_noise(generate(default_benchmark_spec(120, seed=5)),
                      NoiseSpec(features_per_view=1), seed=5)
    res = solver(ds, HyperParams(c=5, seed=5))
    U = res.model.membership
    assert U.shape == (120, 5)
    assert U.flags.c_contiguous
    np.testing.assert_allclose(U.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(res.hard_labels, np.argmax(U, axis=1))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_trace_ends_at_the_oracle_objective_of_its_model():
    # the descent takes the membership entropy from the logits and the feature
    # costs from sums that take the membership rows to sum to 1; the direct
    # objective of the returned model agrees, for both solvers
    rng = np.random.default_rng(13)
    for _ in range(20):
        ds, params = support.random_instance(rng, n_max=120)
        for solver in (fit_full, fit_pruning):
            res = solver(ds, params)
            views = list(res.reduced_dataset.views)
            beta, eta = _temperatures([X.shape[1] for X in views], ds.n_samples)
            J = objective(views, res.model, res.delta, beta, eta)
            distortion = float(view_costs(views, res.model, res.delta) @ res.model.view_weights)
            scale = distortion + ds.n_samples * math.log(params.c)
            assert abs(J - res.objective_trace[-1]) <= 1e-12 * scale


def test_fit_result_has_full_mask_and_the_input_views():
    base = generate(default_benchmark_spec(120, seed=6))
    ds = MultiViewDataset(base.views, base.labels, ("left", "right"))
    res = fit(ds, HyperParams(c=5, seed=6))
    assert res.mask.original_dims == res.mask.active_dims == ds.dims
    assert res.mask.active_views() == [0, 1]
    assert res.mask.reduction_pct == 0.0
    assert res.mask.removals == [] and res.pruning_iterations == []
    for h in range(ds.n_views):
        assert res.reduced_dataset.views[h] is ds.views[h]
    assert res.reduced_dataset.view_names == ds.view_names
    np.testing.assert_array_equal(res.reduced_dataset.labels, ds.labels)


def test_fit_rejects_fewer_samples_than_clusters():
    ds = MultiViewDataset([np.random.default_rng(0).uniform(1, 2, (3, 2))])
    with pytest.raises(ValueError):
        fit(ds, HyperParams(c=4))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_trace_monotone_on_random_instances():
    rng = np.random.default_rng(12)
    for _ in range(10):
        ds, params = support.random_instance(rng, n_max=120)
        res = fit(ds, params)
        support.assert_trace_non_increasing(res.objective_trace)
        validate_model(list(ds.views), res.model)


def replay_fit(dataset, params):
    """The full solver written out block by block, each block its own call."""
    views = list(dataset.views)
    n, dims = dataset.n_samples, dataset.dims
    delta = compute_delta(dataset)
    beta, eta = _temperatures(dims, n)
    centers = init_centers(views, params.c, params.seed, delta)
    XcT, m, ss, view_of = amvfcm._stack(views)
    dlt = np.concatenate(delta)
    w = np.concatenate([np.full(d, 1.0 / d) for d in dims])
    v = np.full(len(views), 1.0 / len(views))

    def feature_costs(U, Ac):
        G, mass = support.cluster_sums(U, XcT)
        return amvfcm._feature_costs(G, Ac, mass, ss, dlt)

    def view_costs(U, Ac):
        return np.bincount(view_of, w * feature_costs(U, Ac))

    def objective_of(U, entropy, Ac):
        return amvfcm._objective_given_costs(view_costs(U, Ac), entropy, v, w, dlt, beta, eta)

    Ac = np.hstack(centers) - m
    U, peak, L = np.empty((params.c, n)), np.empty(n), amvfcm._logit_buffer(params.c, XcT)
    _, _, entropy = amvfcm._sweep(Ac, v[view_of] * w * dlt, XcT, U, peak, L)
    trace = [objective_of(U, entropy, Ac)]
    for _ in range(params.t_max):
        S = v[view_of] * w * dlt
        G, mass, entropy = amvfcm._sweep(Ac, S, XcT, U, peak, L)
        Ac = amvfcm._centers_with_reseed(G, mass, XcT, S, peak)
        w = amvfcm._feature_weights(feature_costs(U, Ac), dlt, view_of, v, eta)
        v = entropic_simplex_argmin(view_costs(U, Ac), beta)
        trace.append(objective_of(U, entropy, Ac))
        if abs(trace[-1] - trace[-2]) <= params.epsilon:
            break
    model = ClusterModel(U.T, support._split(Ac + m, view_of), support._split(w, view_of), v)
    return trace, model, U


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_equals_block_by_block_replay():
    # the loop reuses one set of cluster sums for the centers, the feature
    # costs and the view costs; that must not change a single bit of the result
    rng = np.random.default_rng(31)
    for _ in range(8):
        ds, params = support.random_instance(rng, n_max=120)
        res = fit_full(ds, params)
        trace, model, U = replay_fit(ds, params)
        np.testing.assert_array_equal(res.objective_trace, trace)
        np.testing.assert_array_equal(res.model.membership, U.T)
        np.testing.assert_array_equal(res.hard_labels, np.argmax(U, axis=0))
        np.testing.assert_array_equal(res.model.view_weights, model.view_weights)
        for got, want in zip(res.model.feature_weights, model.feature_weights, strict=True):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(res.model.centers, model.centers, strict=True):
            np.testing.assert_array_equal(got, want)
