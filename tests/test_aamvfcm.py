"""Unit tests for the pruning solver: thresholds, elimination, bookkeeping."""

import numpy as np
import pytest

import support
from support import validate_model
from mvclust import amvfcm
from mvclust.aamvfcm import (
    ActiveMask,
    PruningFitResult,
    fit,
    prune_features,
    prune_views,
)
from mvclust.amvfcm import HyperParams
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


# ------------------------------------------------------------ prune features


def test_prune_features_renormalization_example():
    # d=3, n=12 puts the threshold at 0.25; only the 0.2 weight dies
    mask = ActiveMask.full([3])
    out = prune_features([np.array([0.5, 0.3, 0.2])], mask, n=12, iteration=4)
    np.testing.assert_allclose(out[0], [0.625, 0.375, 0.0])
    assert mask.active_dims == [2]
    assert len(mask.removals) == 1
    ev = mask.removals[0]
    assert (ev.iteration, ev.kind, ev.view, ev.feature) == (4, "feature", 0, 2)


def test_prune_features_no_change_when_all_survive():
    mask = ActiveMask.full([3])
    w = np.array([0.5, 0.3, 0.2])
    out = prune_features([w], mask, n=100)
    np.testing.assert_array_equal(out[0], w)
    assert mask.removals == []


def test_prune_features_tie_at_threshold_survives():
    # theta = 2/8 = 0.25; strict inequality keeps the 0.25 weight
    mask = ActiveMask.full([2])
    out = prune_features([np.array([0.75, 0.25])], mask, n=8)
    np.testing.assert_array_equal(out[0], [0.75, 0.25])
    assert mask.active_dims == [2]


def test_prune_features_guard_keeps_last_feature():
    # d=2, n=3: theta = 2/3 exceeds both weights; the larger one is retained
    mask = ActiveMask.full([2])
    with pytest.warns(UserWarning, match="last active feature"):
        out = prune_features([np.array([0.6, 0.4])], mask, n=3)
    np.testing.assert_allclose(out[0], [1.0, 0.0])
    assert mask.active_dims == [1]


def test_prune_features_no_guard_when_other_view_survives():
    # threshold 2/3 for both views: view 0 empties completely with no guard
    # because view 1 keeps its dominant feature
    mask = ActiveMask.full([2, 2])
    weights = [np.array([0.5, 0.5]), np.array([0.9, 0.1])]
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = prune_features(weights, mask, n=3)
    np.testing.assert_array_equal(out[0], [0.0, 0.0])
    assert mask.active_dims == [0, 1]
    np.testing.assert_allclose(out[1], [1.0, 0.0])


def test_prune_features_respects_pruned_columns():
    # original column 1 already gone; active weights cover columns 0 and 2,
    # and a new removal must be recorded against original index 2
    mask = ActiveMask.full([3])
    mask.feature_masks[0][1] = False
    out = prune_features([np.array([0.8, 0.2])], mask, n=8)
    assert mask.active_columns(0).tolist() == [0]
    assert mask.removals[-1].feature == 2
    np.testing.assert_allclose(out[0], [1.0, 0.0])


# --------------------------------------------------------------- prune views


def test_prune_views_removes_emptied_view():
    mask = ActiveMask.full([2, 3, 2])
    mask.feature_masks[1][:] = False
    v, keep = prune_views(np.array([0.2, 0.3, 0.5]), mask, iteration=6)
    np.testing.assert_allclose(v, [0.2 / 0.7, 0.5 / 0.7])
    assert keep.tolist() == [0, 2]
    assert mask.active_views() == [0, 2]
    ev = mask.removals[-1]
    assert (ev.iteration, ev.kind, ev.view, ev.feature) == (6, "view", 1, None)


def test_prune_views_unit_denominator_case():
    mask = ActiveMask.full([2, 3, 2])
    mask.feature_masks[1][:] = False
    v, _ = prune_views(np.array([0.4, 0.0, 0.6]), mask)
    np.testing.assert_allclose(v, [0.4, 0.6])


def test_prune_views_noop_when_all_alive():
    mask = ActiveMask.full([2, 2])
    v, keep = prune_views(np.array([0.3, 0.7]), mask)
    np.testing.assert_allclose(v, [0.3, 0.7])
    assert keep.tolist() == [0, 1]
    assert mask.removals == []


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


def test_fit_zero_theta_scale_matches_plain_solver():
    ds = noisy_benchmark(n=300, seed=3)
    params = HyperParams(c=5, seed=3, t_max=20)
    pruned = fit(ds, params, theta_scale=0.0)
    plain = amvfcm.fit(ds, params)
    np.testing.assert_array_equal(pruned.objective_trace, plain.objective_trace)
    np.testing.assert_array_equal(pruned.hard_labels, plain.hard_labels)
    assert pruned.mask.reduction_pct == 0.0
    assert pruned.pruning_iterations == []


def test_fit_warmup_delays_pruning():
    ds = noisy_benchmark(n=400, seed=5)
    res = fit(ds, HyperParams(c=5, seed=5), prune_warmup=3)
    assert all(ev.iteration > 3 for ev in res.mask.removals)
    assert res.mask.active_dims == [2, 2]


def test_fit_warmup_beyond_t_max_never_prunes():
    ds = noisy_benchmark(n=200, seed=6)
    params = HyperParams(c=5, seed=6, t_max=4)
    res = fit(ds, params, prune_warmup=100)
    assert res.mask.active_dims == [3, 3]
    plain = amvfcm.fit(ds, params)
    np.testing.assert_array_equal(res.objective_trace, plain.objective_trace)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_eliminates_uninformative_view():
    # junk view: 8 noise columns against n=24 put the threshold (1/3) far
    # above the near-uniform weights (~1/8), so the whole view dies at once
    rng = np.random.default_rng(8)
    centers = np.array([[2.0, 2.0], [8.0, 2.0], [5.0, 8.0]])
    assign = rng.integers(0, 3, size=24)
    informative = centers[assign] + rng.normal(0, 0.3, size=(24, 2))
    junk = rng.uniform(0.5, 2.0, size=(24, 8))
    ds = MultiViewDataset([np.abs(informative) + 0.1, junk], labels=assign)
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
    with pytest.warns(UserWarning, match="last active feature"):
        res = fit(ds, HyperParams(c=2, seed=0, t_max=5))
    assert sum(res.mask.active_dims) >= 1
    assert res.mask.active_views() != []


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


def test_fit_model_sized_to_survivors():
    ds = noisy_benchmark(n=300, seed=17)
    res = fit(ds, HyperParams(c=5, seed=17))
    dims = [w.size for w in res.model.feature_weights]
    assert dims == [d for d in res.mask.active_dims if d > 0]
    validate_model(list(res.reduced_dataset.views), res.model)
    assert isinstance(res, PruningFitResult)


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


def test_fit_rejects_bad_knobs():
    ds = noisy_benchmark(n=100, seed=0)
    with pytest.raises(ValueError):
        fit(ds, HyperParams(c=5), prune_warmup=-1)
    with pytest.raises(ValueError):
        fit(ds, HyperParams(c=5), theta_scale=-0.5)


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
    # recorded before the two solvers shared one loop; pruning starts at
    # iteration 3, so later iterations run on compacted views
    ds = noisy_benchmark(n=300, seed=3)
    res = fit(ds, HyperParams(c=5, seed=3, t_max=12), prune_warmup=2)
    recorded = [
        90.08119535918438,
        -897.4738368784027,
        -908.8225171245191,
        -886.5664468174548,
        -886.5674218060484,
        -886.5674289112225,
        -886.5674289737101,
    ]
    np.testing.assert_allclose(res.objective_trace, recorded, rtol=1e-10)
    removed = [(ev.iteration, ev.kind, ev.view, ev.feature) for ev in res.mask.removals]
    assert removed == [(3, "feature", 0, 2), (3, "feature", 1, 2)]
    assert res.pruning_iterations == [3]
