"""Unit tests for the pruning solver: thresholds, elimination, bookkeeping."""

import numpy as np
import pytest

import support
from support import validate_model
from mvclust import amvfcm
from mvclust.aamvfcm import ActiveMask, fit, prune_features
from mvclust.amvfcm import FitResult, HyperParams
from mvclust.data import MultiViewDataset
from mvclust.metrics import score_all
from mvclust.snr import compute_delta
from mvclust.synth import NoiseSpec, append_noise, default_benchmark_spec, generate


def noisy_benchmark(n=1500, seed=7):
    return append_noise(
        generate(default_benchmark_spec(n, seed=seed)), NoiseSpec(), seed=seed
    )


# ----------------------------------------------------------------- mask type


def test_active_mask_bookkeeping():
    mask = ActiveMask.full([3, 2])
    assert mask.original_dims == [3, 2]
    assert mask.active_dims == [3, 2]
    assert mask.active_views() == [0, 1]
    assert mask.reduction_pct == 0.0
    mask.feature_masks[0][1] = False
    assert mask.active_dims == [2, 2]
    assert mask.active_columns(0).tolist() == [0, 2]
    assert mask.reduction_pct == pytest.approx(1 / 5)
    mask.feature_masks[1][:] = False
    mask.view_mask[1] = False
    assert mask.active_dims == [2, 0]
    assert mask.active_views() == [0]


# ------------------------------------------------------------ pruning pass


def tagged_problem(weights, rows=4, c=2):
    """Model, views and delta for one pruning pass; entries name view and column.

    Column j of view p holds 100 * p + j in the views and the centers and
    100 * p + j + 1 in delta, so compaction can be read off the values.
    """
    tags = [100.0 * p + np.arange(len(w)) for p, w in enumerate(weights)]
    model = amvfcm.ClusterModel(
        membership=np.full((rows, c), 1.0 / c),
        centers=[np.tile(tag, (c, 1)) for tag in tags],
        feature_weights=[np.asarray(w, dtype=float) for w in weights],
        view_weights=np.full(len(weights), 1.0 / len(weights)),
    )
    return model, [np.tile(tag, (rows, 1)) for tag in tags], [tag + 1.0 for tag in tags]


def run_pass(weights, n, mask=None, iteration=0):
    model, views, delta = tagged_problem(weights, rows=n)
    mask = ActiveMask.full([len(w) for w in weights]) if mask is None else mask
    out = prune_features(iteration, views, delta, model, mask)
    return model, mask, out


def events(mask):
    return [(ev.iteration, ev.kind, ev.view, ev.feature) for ev in mask.removals]


def test_prune_features_renormalization_example():
    # d=3, n=12 puts the threshold at 0.25; only the 0.2 weight dies
    model, mask, out = run_pass([[0.5, 0.3, 0.2]], n=12, iteration=4)
    np.testing.assert_allclose(model.feature_weights[0], [0.625, 0.375])
    assert mask.active_dims == [2]
    assert events(mask) == [(4, "feature", 0, 2)]
    assert out is not None


def test_prune_features_no_change_when_all_survive():
    model, mask, out = run_pass([[0.5, 0.3, 0.2]], n=100)
    assert out is None
    np.testing.assert_array_equal(model.feature_weights[0], [0.5, 0.3, 0.2])
    assert mask.removals == []


def test_prune_features_tie_at_threshold_survives():
    # theta = 2/8 = 0.25; strict inequality keeps the 0.25 weight
    model, mask, out = run_pass([[0.75, 0.25]], n=8)
    assert out is None
    np.testing.assert_array_equal(model.feature_weights[0], [0.75, 0.25])
    assert mask.active_dims == [2]


def test_prune_features_guard_keeps_last_feature():
    # d=2, n=3: theta = 2/3 exceeds both weights; the larger one is retained
    with pytest.warns(UserWarning, match="retaining feature 0 of view 0"):
        model, mask, _ = run_pass([[0.6, 0.4]], n=3)
    np.testing.assert_allclose(model.feature_weights[0], [1.0])
    assert mask.active_dims == [1]


def test_prune_features_guard_names_original_column():
    # original column 0 already gone: the retained weight 0.6 is column 2
    mask = ActiveMask.full([3])
    mask.feature_masks[0][0] = False
    with pytest.warns(UserWarning, match="retaining feature 2 of view 0"):
        model, mask, _ = run_pass([[0.4, 0.6]], n=3, mask=mask)
    assert mask.active_columns(0).tolist() == [2]
    assert events(mask) == [(0, "feature", 0, 1)]


def test_prune_features_no_guard_when_other_view_survives():
    # threshold 2/3 for both views: view 0 empties completely with no guard
    # because view 1 keeps its dominant feature
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, mask, (views, delta) = run_pass([[0.5, 0.5], [0.9, 0.1]], n=3)
    assert mask.active_dims == [0, 1]
    np.testing.assert_allclose(model.feature_weights, [[1.0]])
    assert events(mask)[-1] == (0, "view", 0, None)
    np.testing.assert_array_equal(views[0], [[100.0]] * 3)


def test_prune_features_respects_pruned_columns():
    # original column 1 already gone; active weights cover columns 0 and 2,
    # and a new removal must be recorded against original index 2
    mask = ActiveMask.full([3])
    mask.feature_masks[0][1] = False
    model, mask, _ = run_pass([[0.8, 0.2]], n=8, mask=mask)
    assert mask.active_columns(0).tolist() == [0]
    assert mask.removals[-1].feature == 2
    np.testing.assert_allclose(model.feature_weights[0], [1.0])


def test_prune_features_compacts_survivors_only():
    # view 0 loses column 2 (theta 3/12), view 1 (theta 2/12) keeps both
    weights = [[0.5, 0.3, 0.2], [0.4, 0.6]]
    model, _, (views, delta) = run_pass(weights, n=12)
    vw = model.view_weights
    np.testing.assert_array_equal(views[0], np.tile([0.0, 1.0], (12, 1)))
    np.testing.assert_array_equal(views[1], np.tile([100.0, 101.0], (12, 1)))
    np.testing.assert_array_equal(delta[0], [1.0, 2.0])
    np.testing.assert_array_equal(delta[1], [101.0, 102.0])
    np.testing.assert_array_equal(model.centers[0], [[0.0, 1.0]] * 2)
    np.testing.assert_array_equal(model.centers[1], [[100.0, 101.0]] * 2)
    np.testing.assert_array_equal(model.feature_weights[1], [0.4, 0.6])
    assert model.view_weights is vw
    np.testing.assert_array_equal(vw, [0.5, 0.5])


def test_prune_views_removes_emptied_view():
    # n=4: theta 0.5 keeps the tied views 0 and 2, theta 0.75 empties view 1
    weights = [[0.5, 0.5], [0.2, 0.3, 0.5], [0.5, 0.5]]
    model, mask, (views, delta) = run_pass(weights, n=4, iteration=6)
    assert mask.active_views() == [0, 2]
    assert events(mask) == [(6, "feature", 1, j) for j in range(3)] + [(6, "view", 1, None)]
    assert [X[0].tolist() for X in views] == [[0.0, 1.0], [200.0, 201.0]]
    assert [d.tolist() for d in delta] == [[1.0, 2.0], [201.0, 202.0]]
    assert len(model.centers) == len(model.feature_weights) == 2


def test_prune_views_noop_when_all_alive():
    # a feature goes, but both views keep columns: no view event
    model, mask, (views, _) = run_pass([[0.5, 0.3, 0.2], [0.6, 0.4]], n=12)
    assert mask.active_views() == [0, 1]
    assert [ev.kind for ev in mask.removals] == ["feature"]
    assert len(views) == 2


# ----------------------------------------------------------------------- fit


def test_fit_prunes_noise_columns_on_benchmark():
    ds = noisy_benchmark()
    res = fit(ds, HyperParams(c=5, seed=0))
    assert res.mask.active_dims == [2, 2]
    assert res.reduced_dataset.dims == [2, 2]
    assert res.mask.reduction_pct == pytest.approx(1 / 3)
    removed = {(ev.view, ev.feature) for ev in res.mask.removals}
    assert removed == {(0, 2), (1, 2)}
    assert score_all(ds.labels, res.hard_labels)["ri"] > 0.9


def test_fit_matches_plain_solver_when_nothing_is_pruned():
    # the noise-free benchmark keeps every column, so the pruning step never
    # fires and both solvers walk the same trajectory
    ds = generate(default_benchmark_spec(300, seed=3))
    params = HyperParams(c=5, seed=3, t_max=20)
    pruned = fit(ds, params)
    plain = amvfcm.fit(ds, params)
    np.testing.assert_array_equal(pruned.objective_trace, plain.objective_trace)
    np.testing.assert_array_equal(pruned.hard_labels, plain.hard_labels)
    assert pruned.mask.removals == []
    assert pruned.mask.reduction_pct == 0.0
    assert pruned.pruning_iterations == []


def junk_view_problem(view_names=None):
    """Three clusters in view 0; view 1 holds 8 uniform noise columns, n = 24."""
    rng = np.random.default_rng(8)
    centers = np.array([[2.0, 2.0], [8.0, 2.0], [5.0, 8.0]])
    assign = rng.integers(0, 3, size=24)
    informative = centers[assign] + rng.normal(0, 0.3, size=(24, 2))
    junk = rng.uniform(0.5, 2.0, size=(24, 8))
    return MultiViewDataset([np.abs(informative) + 0.1, junk], assign, view_names)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_eliminates_uninformative_view():
    # junk view: 8 noise columns against n=24 put the threshold (1/3) far
    # above the near-uniform weights (~1/8), so the whole view dies at once
    ds = junk_view_problem()
    res = fit(ds, HyperParams(c=3, seed=0))
    assert res.mask.active_views() == [0]
    assert any(ev.kind == "view" and ev.view == 1 for ev in res.mask.removals)
    np.testing.assert_allclose(res.model.view_weights, [1.0])
    assert res.reduced_dataset.n_views == 1


def test_fit_guard_survives_total_annihilation_pressure():
    # single view with threshold 10/20 far above every weight (~1/10):
    # everything would die without the guard
    rng = np.random.default_rng(9)
    X = rng.uniform(0.5, 2.0, size=(20, 10))
    ds = MultiViewDataset([X])
    with pytest.warns(UserWarning, match="last active feature") as record:
        res = fit(ds, HyperParams(c=2, seed=0, t_max=5))
    # the warning points at the caller of fit, not into the solver
    assert record[0].filename == __file__
    assert sum(res.mask.active_dims) >= 1
    assert res.mask.active_views() != []


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_reduced_dataset_holds_the_surviving_columns():
    # the junk view dies whole, the noisy benchmark loses one column per view
    bench = noisy_benchmark(n=300, seed=17)
    cases = [
        (junk_view_problem(("signal", "junk")), 3, [0]),
        (MultiViewDataset(bench.views, bench.labels, ("left", "right")), 5, [0, 1]),
    ]
    for ds, c, survivors in cases:
        res = fit(ds, HyperParams(c=c, seed=0))
        reduced = res.reduced_dataset
        assert res.mask.active_views() == survivors
        assert res.mask.reduction_pct > 0
        assert reduced.view_names == tuple(ds.view_names[h] for h in survivors)
        np.testing.assert_array_equal(reduced.labels, ds.labels)
        assert reduced.n_views == len(survivors)
        for X, h in zip(reduced.views, survivors, strict=True):
            np.testing.assert_array_equal(X, ds.views[h][:, res.mask.active_columns(h)])


def test_fit_delta_is_restricted_not_recomputed():
    ds = noisy_benchmark(n=500, seed=11)
    res = fit(ds, HyperParams(c=5, seed=11))
    full = compute_delta(ds)
    for pos, h in enumerate(res.mask.active_views()):
        cols = res.mask.active_columns(h)
        np.testing.assert_array_equal(res.delta[pos], full[h][cols])


def test_fit_deterministic():
    ds = noisy_benchmark(n=300, seed=13)
    params = HyperParams(c=5, seed=13)
    a, b = fit(ds, params), fit(ds, params)
    np.testing.assert_array_equal(a.objective_trace, b.objective_trace)
    np.testing.assert_array_equal(a.hard_labels, b.hard_labels)
    assert a.mask.active_dims == b.mask.active_dims
    assert a.pruning_iterations == b.pruning_iterations
    assert a.pruning_iterations == sorted({ev.iteration for ev in a.mask.removals})


def test_fit_model_sized_to_survivors():
    ds = noisy_benchmark(n=300, seed=17)
    res = fit(ds, HyperParams(c=5, seed=17))
    dims = [w.size for w in res.model.feature_weights]
    assert dims == [d for d in res.mask.active_dims if d > 0]
    validate_model(list(res.reduced_dataset.views), res.model)
    assert isinstance(res, FitResult)


def test_fit_pruning_never_reactivates():
    ds = noisy_benchmark(n=300, seed=19)
    res = fit(ds, HyperParams(c=5, seed=19))
    seen = set()
    for ev in res.mask.removals:
        key = (ev.kind, ev.view, ev.feature)
        assert key not in seen
        seen.add(key)
        if ev.kind == "feature":
            assert not res.mask.feature_masks[ev.view][ev.feature]
        else:
            assert not res.mask.view_mask[ev.view]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_trace_monotone_between_pruning_events():
    rng = np.random.default_rng(23)
    for _ in range(10):
        ds, params = support.random_instance(rng, n_max=120)
        res = fit(ds, params)
        for segment in support.trace_segments(
            res.objective_trace, res.pruning_iterations
        ):
            support.assert_trace_non_increasing(segment)


def test_fit_matches_recorded_pruning_trace():
    # recorded with a separate exact-distance seeding in the delta metric;
    # pruning fires in iteration 1, so every later iteration runs on
    # compacted views
    ds = noisy_benchmark(n=300, seed=3)
    res = fit(ds, HyperParams(c=5, seed=3, t_max=12))
    recorded = [
        66.11895273277241,
        -878.565948340692,
        -886.4931149347364,
        -886.566705819637,
        -886.5674225738015,
        -886.5674289172601,
        -886.5674289737741,
    ]
    np.testing.assert_allclose(res.objective_trace, recorded, rtol=1e-10)
    removed = [(ev.iteration, ev.kind, ev.view, ev.feature) for ev in res.mask.removals]
    assert removed == [(1, "feature", 0, 2), (1, "feature", 1, 2)]
    assert res.pruning_iterations == [1]
