"""Unit tests for the full solver: block updates, objective, seeding, fit."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import support
from support import (
    aggregate_distances,
    objective,
    per_view_distances,
    update_centers,
    update_feature_weights,
    update_membership,
    validate_model,
    view_costs,
    weighted_distance,
)
from mvclust import amvfcm, fit_full
from mvclust.amvfcm import (
    ClusterModel,
    HyperParams,
    _centers_with_reseed,
    _softmax_rows,
    entropic_simplex_argmin,
    fit,
    init_centers,
    resolve_regularization,
)
from mvclust.data import MultiViewDataset
from mvclust.metrics import score_all
from mvclust.snr import compute_delta
from mvclust.synth import GmmSpec, default_benchmark_spec, generate


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
    # the expansion runs on centred data; uncentred, the same kernel loses
    # the distances to cancellation once the data sit far from the origin
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
            uncentred = amvfcm._distances(X, X * X, A, w * dlt)
            uncentred_worst = max(uncentred_worst, np.abs(uncentred - W).max() / scale)
    assert worst <= 1e-12
    if offset:
        assert uncentred_worst > 1e-12


def test_weight_and_distance_pass_needs_no_tensor():
    # one (n, c, d) float64 tensor: 20,000 x 5 x 12 x 8 bytes = 9.6 MB
    n, c, d = 20_000, 5, 12
    rng = np.random.default_rng(42)
    views = [rng.uniform(0.5, 9.0, (n, d)), rng.uniform(0.5, 9.0, (n, d))]
    model = _random_model(views, c, rng, seeded=True)
    model.membership = rng.dirichlet(np.ones(c), size=n)
    delta = [np.ones(d), np.ones(d)]
    cviews = [amvfcm._centred(X) for X in views]
    tracemalloc.start()
    try:
        model.feature_weights = amvfcm._feature_weights(cviews, model, delta, eta=1.0)
        amvfcm._distances_of(cviews, model, delta)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n * c * d * 8


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


# ------------------------------------------------- regularization resolution


def test_beta_vector_auto_and_fixed():
    # one beta per view before scaling: d_h / n when auto, the fixed value otherwise
    from mvclust.amvfcm import TEMP_CALIBRATION

    scale = TEMP_CALIBRATION * 100
    auto, _ = resolve_regularization(HyperParams(c=2, beta=None), [3, 2], 100)
    fixed, _ = resolve_regularization(HyperParams(c=2, beta=0.05), [3, 2], 100)
    np.testing.assert_allclose(auto / scale, [0.03, 0.02])
    np.testing.assert_allclose(fixed / scale, [0.05, 0.05])


def test_resolve_regularization_scales_with_n():
    from mvclust.amvfcm import TEMP_CALIBRATION

    params = HyperParams(c=2, eta=0.01, beta=None)
    beta_a, eta_a = resolve_regularization(params, [3, 3], 100)
    beta_b, eta_b = resolve_regularization(params, [3, 3], 1000)
    # auto beta resolves to the same effective temperature at any n
    np.testing.assert_allclose(beta_a, beta_b)
    np.testing.assert_allclose(beta_a, TEMP_CALIBRATION * 3.0)
    assert eta_b == pytest.approx(10 * eta_a)
    assert eta_a == pytest.approx(TEMP_CALIBRATION * 100 * 0.01)


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
        HyperParams(c=2, eta=0.0)
    with pytest.raises(ValueError):
        HyperParams(c=2, beta=-0.1)
    with pytest.raises(ValueError):
        HyperParams(c=2, t_max=0)
    with pytest.raises(ValueError):
        HyperParams(c=2, epsilon=-1.0)
    with pytest.raises(ValueError):
        HyperParams(c=2, delta_clamp=(1.0, 0.5))


def test_fit_warns_on_out_of_range_beta():
    ds = generate(default_benchmark_spec(60, seed=0))
    with pytest.warns(UserWarning, match="beta"):
        fit(ds, HyperParams(c=5, beta=1.0, t_max=1))


def test_fit_warns_on_out_of_range_eta():
    ds = generate(default_benchmark_spec(60, seed=0))
    with pytest.warns(UserWarning, match="eta"):
        fit(ds, HyperParams(c=5, eta=1e-4, t_max=1))


def test_fit_quiet_in_recommended_ranges():
    ds = generate(default_benchmark_spec(60, seed=0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit(ds, HyperParams(c=5, eta=0.02, t_max=2))


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
    delta = compute_delta(dataset, params.delta_clamp)
    beta, eta = resolve_regularization(params, dims, n)
    model = ClusterModel(
        membership=np.empty((n, params.c)),
        centers=init_centers(views, params.c, params.seed, delta),
        feature_weights=[np.full(d, 1.0 / d) for d in dims],
        view_weights=np.full(len(views), 1.0 / len(views)),
    )
    model.membership = _softmax_rows(-aggregate_distances(views, model, delta))
    trace = [objective(views, model, delta, beta, eta)]
    for _ in range(params.t_max):
        agg = aggregate_distances(views, model, delta)
        model.membership = _softmax_rows(-agg)
        model.centers = _centers_with_reseed(views, model.membership, agg)
        model.feature_weights = update_feature_weights(views, model, delta, eta)
        model.view_weights = entropic_simplex_argmin(
            view_costs(views, model, delta), beta
        )
        trace.append(objective(views, model, delta, beta, eta))
        if abs(trace[-1] - trace[-2]) <= params.epsilon:
            break
    return trace, model


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_equals_block_by_block_replay():
    # the loop reuses one distance pass for view costs, objective, and the
    # next aggregate; that must not change a single bit of the result
    rng = np.random.default_rng(31)
    for _ in range(8):
        ds, params = support.random_instance(rng, n_max=120)
        res = fit_full(ds, params)
        trace, model = replay_fit(ds, params)
        np.testing.assert_array_equal(res.objective_trace, trace)
        np.testing.assert_array_equal(res.hard_labels, np.argmax(model.membership, axis=1))
        np.testing.assert_array_equal(res.model.view_weights, model.view_weights)
        for got, want in zip(res.model.feature_weights, model.feature_weights, strict=True):
            np.testing.assert_array_equal(got, want)
