"""Unit tests for the pruning solver: thresholds, elimination, bookkeeping."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    mask.columns[1] = False
    assert mask.active_dims == [2, 2]
    assert mask.active_columns(0).tolist() == [0, 2]
    assert mask.reduction_pct == pytest.approx(1 / 5)
    mask.columns[3:] = False
    assert mask.active_dims == [2, 0]
    assert mask.active_views() == [0]


# ------------------------------------------------------------ pruning pass


def run_pass(weights, n, mask=None, iteration=0):
    weights = [np.asarray(w, dtype=float) for w in weights]
    mask = ActiveMask.full([w.size for w in weights]) if mask is None else mask
    view_of = np.repeat(np.arange(len(weights)), [w.size for w in weights])
    return prune_features(iteration, np.concatenate(weights), view_of, n, mask), mask


def events(mask):
    return [(ev.iteration, ev.kind, ev.view, ev.feature) for ev in mask.removals]


def test_prune_features_renormalization_example():
    # d=3, n=12 puts the threshold at 0.25; only the 0.2 weight dies (the
    # descent renormalizes the survivors, see the fit tests below)
    keep, mask = run_pass([[0.5, 0.3, 0.2]], n=12, iteration=4)
    np.testing.assert_array_equal(keep, [True, True, False])
    assert mask.active_dims == [2]
    assert events(mask) == [(4, "feature", 0, 2)]


def test_prune_features_no_change_when_all_survive():
    weights = [np.array([0.5, 0.3, 0.2])]
    keep, mask = run_pass(weights, n=100)
    assert keep is None
    np.testing.assert_array_equal(weights[0], [0.5, 0.3, 0.2])
    assert mask.removals == []


def test_prune_features_tie_at_threshold_survives():
    # theta = 2/8 = 0.25; strict inequality keeps the 0.25 weight
    keep, mask = run_pass([[0.75, 0.25]], n=8)
    assert keep is None
    assert mask.active_dims == [2]


def test_prune_features_guard_keeps_last_feature():
    # d=2, n=3: theta = 2/3 exceeds both weights; the larger one is retained
    with pytest.warns(UserWarning, match="retaining feature 0 of view 0"):
        keep, mask = run_pass([[0.6, 0.4]], n=3)
    np.testing.assert_array_equal(keep, [True, False])
    assert mask.active_dims == [1]


def test_prune_features_guard_names_original_column():
    # original column 0 already gone: the retained weight 0.6 is column 2
    mask = ActiveMask.full([3])
    mask.columns[0] = False
    with pytest.warns(UserWarning, match="retaining feature 2 of view 0"):
        keep, mask = run_pass([[0.4, 0.6]], n=3, mask=mask)
    np.testing.assert_array_equal(keep, [False, True])
    assert mask.active_columns(0).tolist() == [2]
    assert events(mask) == [(0, "feature", 0, 1)]


def test_prune_features_no_guard_when_other_view_survives():
    # threshold 2/3 for both views: view 0 empties completely with no guard
    # because view 1 keeps its dominant feature
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        keep, mask = run_pass([[0.5, 0.5], [0.9, 0.1]], n=3)
    assert mask.active_dims == [0, 1]
    np.testing.assert_array_equal(keep, [False, False, True, False])
    assert events(mask)[-1] == (0, "view", 0, None)


def test_prune_features_respects_pruned_columns():
    # original column 1 already gone; active weights cover columns 0 and 2,
    # and a new removal must be recorded against original index 2
    mask = ActiveMask.full([3])
    mask.columns[1] = False
    keep, mask = run_pass([[0.8, 0.2]], n=8, mask=mask)
    np.testing.assert_array_equal(keep, [True, False])
    assert mask.active_columns(0).tolist() == [0]
    assert mask.removals[-1].feature == 2


def test_prune_features_compacts_survivors_only():
    # view 0 loses column 2 (theta 3/12), view 1 (theta 2/12) keeps both: the
    # keep-vector over the concatenated weights marks exactly the survivors,
    # and the weights it was handed are left as they were
    weights = [np.array([0.5, 0.3, 0.2]), np.array([0.4, 0.6])]
    keep, mask = run_pass(weights, n=12)
    np.testing.assert_array_equal(keep, [True, True, False, True, True])
    assert mask.active_dims == [2, 2]
    np.testing.assert_array_equal(weights[0], [0.5, 0.3, 0.2])
    np.testing.assert_array_equal(weights[1], [0.4, 0.6])


def test_prune_views_removes_emptied_view():
    # n=4: theta 0.5 keeps the tied views 0 and 2, theta 0.75 empties view 1
    weights = [[0.5, 0.5], [0.2, 0.3, 0.5], [0.5, 0.5]]
    keep, mask = run_pass(weights, n=4, iteration=6)
    assert mask.active_views() == [0, 2]
    assert events(mask) == [(6, "feature", 1, j) for j in range(3)] + [(6, "view", 1, None)]
    np.testing.assert_array_equal(keep, [True, True, False, False, False, True, True])


def test_prune_views_noop_when_all_alive():
    # a feature goes, but both views keep columns: no view event
    keep, mask = run_pass([[0.5, 0.3, 0.2], [0.6, 0.4]], n=12)
    assert mask.active_views() == [0, 1]
    assert [ev.kind for ev in mask.removals] == ["feature"]
    assert keep.sum() == 4


@st.composite
def pruning_states(draw):
    """Per-view column masks, the live views' weights and a sample count.

    1-4 views of 1-6 columns, some already removed, at least one alive. Each
    live view's weights lie on its simplex; some sit exactly at the threshold
    width / n, the rest share what is left in proportion to integers 0-9.
    """
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    masks = [np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d))) for d in dims]
    if not any(m.any() for m in masks):
        h = draw(st.integers(0, len(dims) - 1))
        masks[h][draw(st.integers(0, dims[h] - 1))] = True
    n = draw(st.integers(1, 40))
    weights = []
    for width in (int(m.sum()) for m in masks if m.any()):
        at = np.array(draw(st.lists(st.booleans(), min_size=width, max_size=width)))
        at &= np.cumsum(at) * width <= n  # as many as the unit mass holds
        if at.all() and width * width != n:
            at[-1] = False
        raw = np.array(draw(st.lists(st.integers(0, 9), min_size=width, max_size=width)),
                       dtype=float)
        w = np.full(width, width / n)
        if not at.all():
            free = raw[~at] if raw[~at].any() else np.ones((~at).sum())
            w[~at] = free / free.sum() * (1.0 - at.sum() * width / n)
        weights.append(w)
    return masks, weights, n


@given(pruning_states(), st.integers(0, 50))
@settings(max_examples=300, deadline=None)
def test_prune_features_equals_the_per_view_hook_hypothesis(state, iteration):
    # the stacked hook against the per-view one it replaced: the same
    # keep-vector, mask, events (with Python ints, as the fit digests hash
    # their repr) and warning, and the weights it was handed left as they were
    masks, weights, n = state
    mask = ActiveMask.full([m.size for m in masks])
    mask.columns[:] = np.concatenate(masks)
    w = np.concatenate(weights)
    view_of = np.repeat(np.arange(len(weights)), [x.size for x in weights])
    handed = w.copy()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        keep = prune_features(iteration, w, view_of, n, mask)
    want, events, message = support.prune_features_per_view(iteration, weights, n, masks)
    if want is None:
        assert keep is None
    else:
        assert keep.dtype == bool
        np.testing.assert_array_equal(keep, want)
    assert repr(mask.removals) == repr(events)
    assert [(c.category, str(c.message)) for c in caught] == (
        [] if message is None else [(UserWarning, message)])
    np.testing.assert_array_equal(mask.columns, np.concatenate(masks))
    assert w.tobytes() == handed.tobytes()


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


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_reduced_dataset_shares_the_input_labels():
    # read-only labels are kept, not copied, by every dataset built from them
    ds = noisy_benchmark(n=300, seed=17)
    res = fit(ds, HyperParams(c=5, seed=0))
    assert res.mask.reduction_pct > 0
    assert res.reduced_dataset.labels is ds.labels


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_hands_back_a_view_that_kept_every_column_uncopied():
    # only the second view carries a noise column: the first keeps all of its
    # columns and comes back as the input's own array, so a save can copy it
    bench = generate(default_benchmark_spec(300, seed=3))
    noise = np.random.default_rng(0).uniform(0.02, 0.05, (300, 1))
    ds = MultiViewDataset([bench.views[0], np.hstack([bench.views[1], noise])], bench.labels)
    res = fit(ds, HyperParams(c=5, seed=0))
    assert res.mask.active_dims == [2, 2]
    assert res.reduced_dataset.views[0] is ds.views[0]
    assert res.reduced_dataset.views[1] is not ds.views[1]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_fit_restricts_weights_and_centers_to_the_survivors():
    # a fit that stops in its pruning iteration: each surviving view's weights
    # are the ones the hook was handed, restricted and renormalized to sum to
    # 1, and the centers are the membership-weighted means of the kept columns
    cases = [(noisy_benchmark(n=300, seed=3), HyperParams(c=5, seed=3, t_max=1)),
             (junk_view_problem(), HyperParams(c=3, seed=0, t_max=1))]
    for ds, params in cases:
        handed = []

        def hook(t, w, view_of, n, mask):
            handed.append(np.split(w.copy(), np.flatnonzero(np.diff(view_of)) + 1))
            return prune_features(t, w, view_of, n, mask)

        res = amvfcm._descend(ds, params, hook)
        assert res.pruning_iterations == [1]
        active = res.mask.active_views()
        for w, h in zip(res.model.feature_weights, active, strict=True):
            kept = handed[0][h][res.mask.active_columns(h)]
            np.testing.assert_allclose(w, kept / kept.sum(), rtol=1e-14)
            assert w.sum() == pytest.approx(1.0, abs=1e-15)
        want = support.update_centers(res.reduced_dataset.views, res.model.membership)
        for A, B in zip(res.model.centers, want, strict=True):
            np.testing.assert_allclose(A, B, rtol=1e-12)


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
            assert ev.feature not in res.mask.active_columns(ev.view)
        else:
            assert ev.view not in res.mask.active_views()


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
